"""SPMD correctness analysis for the simulated-MPI codebase.

Two cooperating layers:

* **static** — :mod:`repro.analysis.spmdlint`, an AST linter with a
  table-driven rule catalog (:mod:`repro.analysis.rules`) for the
  hazards of *separate processes* that one simulated world cannot show:
  set and dict iteration order, unseeded RNGs, ``id()``-derived order,
  and payloads with no deterministic wire image;
* **dynamic** — the collective-schedule check and the wait-for-graph
  deadlock auditor inside :mod:`repro.runtime.comm`, both always on:
  every rendezvous compares each rank's op name and payload kind with
  the first arriver's, so schedule divergence needs no static rule.

CLI entry point: ``repro-louvain lint src/repro``.  Rule catalog and
rationale: ``docs/ANALYSIS.md``.
"""

from .rules import RULES, SEVERITIES, SEVERITY_ORDER, Rule, rule
from .spmdlint import Finding, LintResult, lint_paths

__all__ = [
    "RULES",
    "SEVERITIES",
    "SEVERITY_ORDER",
    "Rule",
    "rule",
    "Finding",
    "LintResult",
    "lint_paths",
]
