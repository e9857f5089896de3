"""spmdlint engine: AST analysis contexts, rule driver, and reporting.

The engine parses every ``.py`` file under the requested paths, builds a
:class:`ModuleContext` (suppression map, function contexts with their
communicator names), and runs the registered rules from
:mod:`repro.analysis.rules` at their declared scope:

* ``function`` rules run once per SPMD function (a function that takes a
  communicator parameter);
* ``module`` rules run once per module.

Findings can be silenced with a trailing comment on the offending line::

    for vid in set(members):  # spmdlint: ignore[SPMD101] -- reason
        ...

or for a whole file with ``# spmdlint: skip-file`` in the first ten
lines.  Suppressions should carry a justification; they are for
invariants the analysis cannot see, not for bugs.
"""

from __future__ import annotations

import ast
import fnmatch
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .rules import RULES, Rule, params_matching

#: Parameter names assumed to be communicators even without annotation.
COMM_PARAM_NAMES = frozenset({"comm"})

_SUPPRESS_RE = re.compile(r"#\s*spmdlint:\s*ignore(?:\[([A-Za-z0-9_,\s]+)\])?")
_SKIP_FILE_RE = re.compile(r"#\s*spmdlint:\s*skip-file")


@dataclass(frozen=True)
class Finding:
    """One lint finding, ready for text or JSON output."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col + 1,
            "message": self.message,
        }


class FunctionContext:
    """Analysis context for one function definition.

    ``comm_names`` are the function's *own* communicator parameters
    (the SPMD-function test the rules key on); ``all_comm_names``
    additionally includes communicators closed over from enclosing
    functions, which is what payload detection inside nested helpers
    needs.
    """

    def __init__(
        self,
        node: ast.FunctionDef,
        enclosing_comm_names: frozenset[str] = frozenset(),
    ):
        self.node = node
        self.comm_names = params_matching(
            node, COMM_PARAM_NAMES, "Communicator"
        )
        self.all_comm_names = self.comm_names | enclosing_comm_names
        self.is_spmd = bool(self.comm_names)


class ModuleContext:
    """Parsed module plus suppression map and function contexts."""

    def __init__(self, path: Path, source: str, display_path: str):
        self.display_path = display_path
        self.source = source
        self.tree = ast.parse(source, filename=str(path))
        self.functions: list[FunctionContext] = []
        self._collect_functions(self.tree)
        self.suppressions: dict[int, frozenset[str] | None] = {}
        self.skip_file = False
        self._scan_suppressions()

    def _collect_functions(
        self, node: ast.AST, comm: frozenset[str] = frozenset()
    ) -> None:
        """Record every function with the communicator names visible to
        it through closures (async code is not SPMD-scheduled)."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                fn = FunctionContext(child, enclosing_comm_names=comm)
                self.functions.append(fn)
                self._collect_functions(child, fn.all_comm_names)
            elif not isinstance(child, ast.AsyncFunctionDef):
                self._collect_functions(child, comm)

    def _scan_suppressions(self) -> None:
        for lineno, line in enumerate(self.source.splitlines(), start=1):
            if lineno <= 10 and _SKIP_FILE_RE.search(line):
                self.skip_file = True
            m = _SUPPRESS_RE.search(line)
            if m:
                ids = m.group(1)
                self.suppressions[lineno] = (
                    frozenset(s.strip() for s in ids.split(","))
                    if ids
                    else None  # bare ignore: all rules
                )

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        if self.skip_file:
            return True
        ids = self.suppressions.get(line, frozenset())
        if ids is None:
            return True
        return rule_id in ids


def _excluded(path: Path, exclude: Sequence[str]) -> bool:
    text = path.as_posix()
    return any(
        fnmatch.fnmatch(text, pat)
        or fnmatch.fnmatch(text, "*/" + pat)  # pattern given repo-relative
        or fnmatch.fnmatch(path.name, pat)
        for pat in exclude
    )


def _iter_python_files(
    paths: Iterable[str | Path], exclude: Sequence[str] = ()
) -> Iterator[Path]:
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                if "__pycache__" in f.parts:
                    continue
                if exclude and _excluded(f, exclude):
                    continue
                yield f
        elif p.suffix == ".py":
            if not (exclude and _excluded(p, exclude)):
                yield p


def _selected_rules(
    select: Sequence[str] | None, ignore: Sequence[str] | None
) -> list[Rule]:
    unknown = [
        r for r in list(select or []) + list(ignore or []) if r not in RULES
    ]
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    rules = [RULES[r] for r in select] if select else list(RULES.values())
    if ignore:
        rules = [r for r in rules if r.id not in set(ignore)]
    return rules


@dataclass
class LintResult:
    """Findings plus bookkeeping from one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        by_sev: dict[str, int] = {}
        for f in self.findings:
            by_sev[f.severity] = by_sev.get(f.severity, 0) + 1
        return json.dumps(
            {
                "findings": [f.to_dict() for f in self.findings],
                "summary": {
                    "files_checked": self.files_checked,
                    "total": len(self.findings),
                    "by_severity": by_sev,
                    "parse_errors": self.parse_errors,
                },
            },
            indent=2,
        )

    def format_text(self) -> str:
        lines = [f.format() for f in self.findings]
        for err in self.parse_errors:
            lines.append(f"parse error: {err}")
        noun = "file" if self.files_checked == 1 else "files"
        lines.append(
            f"{len(self.findings)} finding(s) in "
            f"{self.files_checked} {noun}"
        )
        return "\n".join(lines)

    #: GitHub Actions workflow-command levels per finding severity.
    _GITHUB_LEVELS = {"info": "notice", "warning": "warning", "error": "error"}

    def format_github(self) -> str:
        """GitHub Actions annotation commands (one per finding).

        Emitted on stdout inside an Actions job, these render inline on
        the PR diff.  Properties with commas/newlines are escaped per
        the workflow-command spec.
        """

        def esc(text: str, prop: bool = False) -> str:
            text = text.replace("%", "%25").replace("\r", "%0D")
            text = text.replace("\n", "%0A")
            if prop:
                text = text.replace(":", "%3A").replace(",", "%2C")
            return text

        lines = []
        for f in self.findings:
            level = self._GITHUB_LEVELS.get(f.severity, "warning")
            lines.append(
                f"::{level} file={esc(f.path, prop=True)},"
                f"line={f.line},col={f.col + 1},"
                f"title={esc(f.rule, prop=True)}::{esc(f.message)}"
            )
        for err in self.parse_errors:
            lines.append(f"::error::{esc('parse error: ' + err)}")
        noun = "file" if self.files_checked == 1 else "files"
        lines.append(
            f"{len(self.findings)} finding(s) in "
            f"{self.files_checked} {noun}"
        )
        return "\n".join(lines)


def _emit(
    result: LintResult,
    module: ModuleContext,
    rule: Rule,
    node: ast.AST,
    message: str,
) -> None:
    line = getattr(node, "lineno", 1)
    col = getattr(node, "col_offset", 0)
    if module.is_suppressed(rule.id, line):
        return
    result.findings.append(
        Finding(
            rule=rule.id,
            severity=rule.severity,
            path=module.display_path,
            line=line,
            col=col,
            message=message,
        )
    )


def lint_paths(
    paths: Sequence[str | Path],
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
    exclude: Sequence[str] = (),
) -> LintResult:
    """Run the registered rules over ``paths`` (files or directories).

    Unknown rule ids raise :class:`ValueError` before anything is
    parsed; files that fail to parse are skipped and listed in the
    result's ``parse_errors``.
    """
    rules = _selected_rules(select, ignore)
    result = LintResult()
    for path in _iter_python_files(paths, exclude):
        try:
            source = path.read_text(encoding="utf-8")
            module = ModuleContext(path, source, display_path=str(path))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            result.parse_errors.append(f"{path}: {exc}")
            continue
        result.files_checked += 1
        for rule in rules:
            if rule.scope == "module":
                for node, message in rule.check(module):
                    _emit(result, module, rule, node, message)
                continue
            for fn in module.functions:
                if fn.is_spmd:
                    for node, message in rule.check(fn):
                        _emit(result, module, rule, node, message)
    # One finding per (rule, place), however many checks reach it.
    unique = {(f.path, f.line, f.col, f.rule): f for f in result.findings}
    result.findings = [unique[k] for k in sorted(unique)]
    return result
