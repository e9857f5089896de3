"""SPMD correctness analysis for the simulated-MPI codebase.

Two cooperating layers:

* **static** — :mod:`repro.analysis.spmdlint`, an AST linter with a
  table-driven rule catalog (:mod:`repro.analysis.rules`) that flags
  collective-schedule divergence, nondeterminism hazards, unmatched
  point-to-point tags, and payload hazards before a run ever hangs.
  Divergence is read from a whole-program call graph
  (:mod:`repro.analysis.callgraph`) and per-function collective
  footprints (:mod:`repro.analysis.summaries`), so a collective hidden
  in a helper counts like a bare one;
* **dynamic** — the collective-schedule check and the wait-for-graph
  deadlock auditor inside :mod:`repro.runtime.comm`, both always on:
  every rendezvous compares each rank's op name and payload kind with
  the first arriver's.

CLI entry point: ``repro-louvain lint src/repro``.  Rule catalog and
rationale: ``docs/ANALYSIS.md``.
"""

from .rules import RULES, SEVERITIES, SEVERITY_ORDER, Rule, rule
from .spmdlint import (
    Finding,
    LintResult,
    build_program,
    lint_paths,
    lint_program,
)

__all__ = [
    "RULES",
    "SEVERITIES",
    "SEVERITY_ORDER",
    "Rule",
    "rule",
    "Finding",
    "LintResult",
    "build_program",
    "lint_paths",
    "lint_program",
]
