"""The mutant matrix's anchors (``benchmarks/analysis_mutants.py``).

Each mutant is a text substitution at one call site, and the script
refuses a site that is not there exactly once.  A refactor that moves a
site would otherwise surface only in the next hour-long matrix run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location(
        "analysis_mutants", ROOT / "benchmarks" / "analysis_mutants.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = _mutants()


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_every_mutant_site_occurs_exactly_once(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1, (mutant.id, mutant.path)
    assert mutant.new != mutant.old
