"""spmdlint engine: AST analysis contexts, rule driver, and reporting.

The engine parses every ``.py`` file under the requested paths, builds a
:class:`ModuleContext` (suppression map, function contexts with
communicator/rank/replication taint), and runs the registered rules from
:mod:`repro.analysis.rules` at their declared scope:

* ``function`` rules run once per SPMD function (a function that takes a
  communicator parameter);
* ``module`` rules run once per module;
* ``program`` rules run once over all modules (cross-module matching,
  e.g. send/recv tags).

Findings can be silenced with a trailing comment on the offending line::

    if comm.rank == 0:
        comm.bcast(x, root=0)  # spmdlint: ignore[SPMD001] -- reason

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

from .callgraph import CallGraph
from .rules import (
    RULES,
    Rule,
    is_rank_variant,
    is_replicated_safe,
    params_matching,
    solo_names,
    walk_no_nested,
)
from .summaries import SummaryBuilder

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
    functions, which is what collective detection inside nested
    helpers needs.  ``interproc_rank_calls`` is filled by the call
    graph's taint fixpoint: names of callees whose return value is
    rank-variant, treated like ``owner_of`` by the local taint pass.
    ``callgraph`` is attached by :class:`ProgramContext`; through it
    :func:`~repro.analysis.rules.collective_op` sees helper calls.
    ``solo_names`` are the names bound to a one-rank communicator
    (``MPI_COMM_SELF``), on which collectives are this rank's own.
    """

    def __init__(
        self,
        module: "ModuleContext",
        node: ast.FunctionDef,
        qualname: str | None = None,
        class_name: str | None = None,
        is_nested: bool = False,
        enclosing_comm_names: frozenset[str] = frozenset(),
    ):
        self.module = module
        self.node = node
        self.name = node.name
        self.qualname = qualname or node.name
        self.class_name = class_name
        self.is_nested = is_nested
        self.comm_names = params_matching(
            node, COMM_PARAM_NAMES, "Communicator"
        )
        self.all_comm_names = self.comm_names | enclosing_comm_names
        self.solo_names = solo_names(node)
        self.is_spmd = bool(self.comm_names)
        self.rank_tainted: set[str] = set()
        self.replicated: set[str] = set()
        self.interproc_rank_calls: set[str] = set()
        self.callgraph: CallGraph | None = None
        if self.is_spmd:
            self._build_taint()

    def _assignments(self) -> Iterator[tuple[list[ast.expr], ast.expr]]:
        for node in walk_no_nested(self.node):
            if isinstance(node, ast.Assign):
                yield node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                yield [node.target], node.value
            elif isinstance(node, ast.AugAssign):
                yield [node.target], node.value
            elif isinstance(node, (ast.NamedExpr,)):
                yield [node.target], node.value

    def _build_taint(self) -> None:
        # Two fixed-point passes give one level of transitivity each,
        # which covers the assignment chains that occur in practice.
        for _ in range(2):
            for targets, value in self._assignments():
                names = [
                    t.id for t in targets if isinstance(t, ast.Name)
                ]
                if not names:
                    continue
                if is_rank_variant(value, self):
                    self.rank_tainted.update(names)
                elif is_replicated_safe(value, self):
                    self.replicated.update(names)

    def rebuild_taint(self) -> None:
        """Re-run the local taint pass after interprocedural updates.

        ``rank_tainted``/``replicated`` grow monotonically, so repeated
        calls converge; the call graph drives this to a fixpoint.
        """
        self._build_taint()


class ModuleContext:
    """Parsed module plus suppression map and function contexts."""

    def __init__(self, path: Path, source: str, display_path: str):
        self.path = path
        self.display_path = display_path
        self.source = source
        self.tree = ast.parse(source, filename=str(path))
        self.functions: list[FunctionContext] = []
        self._collect_functions(self.tree, scope=(), comm=frozenset(),
                                in_function=False)
        self.suppressions: dict[int, frozenset[str] | None] = {}
        self.skip_file = False
        self._scan_suppressions()

    def _collect_functions(
        self,
        node: ast.AST,
        scope: tuple[str, ...],
        comm: frozenset[str],
        in_function: bool,
        class_name: str | None = None,
    ) -> None:
        """Scoped walk: records qualified names, nesting, and the
        communicator names visible through closures."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                fn = FunctionContext(
                    self,
                    child,
                    qualname=".".join((*scope, child.name)),
                    class_name=class_name,
                    is_nested=in_function,
                    enclosing_comm_names=comm if in_function else frozenset(),
                )
                self.functions.append(fn)
                self._collect_functions(
                    child,
                    scope=(*scope, child.name),
                    comm=fn.all_comm_names,
                    in_function=True,
                    class_name=None,
                )
            elif isinstance(child, ast.ClassDef):
                self._collect_functions(
                    child,
                    scope=(*scope, child.name),
                    comm=comm,
                    in_function=in_function,
                    class_name=child.name,
                )
            elif isinstance(child, ast.AsyncFunctionDef):
                continue  # async code is not SPMD-scheduled
            else:
                self._collect_functions(
                    child, scope=scope, comm=comm,
                    in_function=in_function, class_name=class_name,
                )

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


class ProgramContext:
    """All modules of one lint run plus the interprocedural artifacts.

    ``callgraph`` (rank-taint fixpoint applied, attached to every
    function) and ``analysis`` (the memoizing summary builder) are
    built once here, so the rules and the schedule matrix share them.
    """

    def __init__(
        self, modules: Sequence[ModuleContext], parse_errors: list[str]
    ):
        self.modules = list(modules)
        self.parse_errors = parse_errors
        self.callgraph = CallGraph(self.modules)
        for fn in self.callgraph.functions:
            fn.callgraph = self.callgraph
        # Interprocedural rank taint first: the per-function rules and
        # the summaries both read the augmented ``rank_tainted`` sets.
        self.callgraph.augment_rank_taint()
        self.analysis = SummaryBuilder(self.callgraph)


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


def build_program(
    paths: Sequence[str | Path], exclude: Sequence[str] = ()
) -> ProgramContext:
    """Parse ``paths`` and run the interprocedural analyses.

    Files that fail to parse are skipped and listed in the program's
    ``parse_errors``.  The result feeds :func:`lint_program` and
    :func:`repro.analysis.summaries.schedule_matrix` alike.
    """
    modules: list[ModuleContext] = []
    parse_errors: list[str] = []
    for path in _iter_python_files(paths, exclude):
        try:
            source = path.read_text(encoding="utf-8")
            modules.append(ModuleContext(path, source, display_path=str(path)))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            parse_errors.append(f"{path}: {exc}")
    return ProgramContext(modules, parse_errors)


def lint_program(
    program: ProgramContext,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> LintResult:
    """Run the registered rules over an already-built program."""
    rules = _selected_rules(select, ignore)
    result = LintResult(
        files_checked=len(program.modules),
        parse_errors=list(program.parse_errors),
    )
    for rule in rules:
        if rule.scope == "program":
            for module, node, message in rule.check(program):
                _emit(result, module, rule, node, message)
            continue
        for module in program.modules:
            if rule.scope == "module":
                for node, message in rule.check(module):
                    _emit(result, module, rule, node, message)
            else:  # function scope: SPMD functions only
                for fn in module.functions:
                    if not fn.is_spmd:
                        continue
                    for node, message in rule.check(fn):
                        _emit(result, module, rule, node, message)

    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result


def lint_paths(
    paths: Sequence[str | Path],
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
    exclude: Sequence[str] = (),
) -> LintResult:
    """Run the registered rules over ``paths`` (files or directories)."""
    _selected_rules(select, ignore)  # unknown ids fail before parsing
    return lint_program(build_program(paths, exclude), select, ignore)
