"""Reference implementations the tests compare shipped kernels against."""
