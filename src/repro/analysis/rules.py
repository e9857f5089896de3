"""spmdlint rule catalog: table-driven SPMD correctness checks.

Every rule is a small checker function registered through the
:func:`rule` decorator; the engine (:mod:`repro.analysis.spmdlint`)
builds the per-function analysis context (the function's communicator
names) and hands it to each checker.  Adding a rule is ~20 lines: write
a generator that yields ``(ast_node, message)`` pairs and decorate it.

Rule identifiers are grouped by family:

* ``SPMD1xx`` — determinism (unordered iteration, unseeded RNG,
  ``id()``-derived ordering);
* ``SPMD2xx`` — payload hygiene (objects the payload model cannot
  size deterministically).

Schedule divergence has no rule: every rendezvous of the runtime checks
each rank's op against the first arriver's on every run.  The full
catalog, with the mutant records behind each kept and retired id, lives
in ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterator

#: Severity levels, least to most severe.
SEVERITIES = ("info", "warning", "error")
SEVERITY_ORDER = {name: i for i, name in enumerate(SEVERITIES)}

#: Attribute names under which objects conventionally store their
#: communicator (``self.comm``, ``self._comm``).
COMM_ATTRIBUTE_NAMES = frozenset({"comm", "_comm"})

#: ``random``-module functions that draw from an unseeded global state.
UNSEEDED_RANDOM_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "betavariate",
        "expovariate",
    }
)

#: Payload shapes the wire-size model cannot charge deterministically
#: (see ``runtime/payload.py``): sets have no stable iteration order,
#: generators are consumed by the size estimate itself.
HAZARDOUS_PAYLOAD_CALLS = frozenset({"set", "frozenset", "iter"})


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    id: str
    severity: str
    summary: str
    scope: str  # "function" | "module"
    check: Callable[..., Iterator[tuple[ast.AST, str]]]


#: Registry, populated by the :func:`rule` decorator at import time.
RULES: dict[str, Rule] = {}


def rule(rule_id: str, severity: str, summary: str, scope: str = "function"):
    """Register a checker under ``rule_id`` (table-driven extension point)."""
    if severity not in SEVERITY_ORDER:
        raise ValueError(f"unknown severity {severity!r}")

    def deco(fn):
        if rule_id in RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        RULES[rule_id] = Rule(
            id=rule_id, severity=severity, summary=summary, scope=scope,
            check=fn,
        )
        return fn

    return deco


# ----------------------------------------------------------------------
# Shared AST predicates
# ----------------------------------------------------------------------
_NESTED_SCOPES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.Lambda,
)


def walk_no_nested(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node``'s children without entering nested function/class
    definitions (the caller is responsible for ``node`` itself)."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, _NESTED_SCOPES):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _callable_name(func: ast.AST) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def params_matching(
    fn_node: ast.FunctionDef, names: frozenset[str], annotation: str
) -> frozenset[str]:
    """Parameters of ``fn_node`` named in ``names`` or annotated with a
    type whose text contains ``annotation`` (``Optional[...]`` too)."""
    args = fn_node.args
    return frozenset(
        a.arg
        for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        if a.arg in names
        or (a.annotation is not None and annotation in ast.unparse(a.annotation))
    )


def _is_comm(recv: ast.expr, fn) -> bool:
    """Is ``recv`` a communicator of ``fn`` (its own or closed over), or
    an attribute holding one (``self.comm``, ``ctx.comm``)?"""
    if isinstance(recv, ast.Name):
        return recv.id in fn.all_comm_names
    return isinstance(recv, ast.Attribute) and (
        recv.attr in fn.all_comm_names or recv.attr in COMM_ATTRIBUTE_NAMES
    )


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _callable_name(node.func)
        if name in ("set", "frozenset"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


def _iteration_targets(fn) -> Iterator[tuple[ast.AST, ast.AST]]:
    """(loop/comprehension node, iterated expression) pairs."""
    for node in walk_no_nested(fn.node):
        if isinstance(node, ast.For):
            yield node, node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                yield node, gen.iter


# ----------------------------------------------------------------------
# SPMD1xx — determinism
# ----------------------------------------------------------------------
@rule(
    "SPMD101",
    "error",
    "iteration over a set has no deterministic order",
)
def check_set_iteration(fn) -> Iterator[tuple[ast.AST, str]]:
    for node, it in _iteration_targets(fn):
        if _is_set_expression(it):
            yield node, (
                "iterating a set/frozenset: element order is not "
                "deterministic across processes; wrap in sorted(...) "
                "(membership tests on sets are fine)"
            )


@rule(
    "SPMD102",
    "error",
    "unseeded random number generator in SPMD code",
    scope="module",
)
def check_unseeded_rng(module) -> Iterator[tuple[ast.AST, str]]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        # np.random.default_rng() with no seed argument.
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "default_rng"
            and not node.args
            and not node.keywords
        ):
            yield node, (
                "np.random.default_rng() without a seed draws OS "
                "entropy — results differ between runs and ranks; "
                "pass a seed (see core.heuristics.make_rank_rng)"
            )
        # Legacy numpy global-state API (np.random.rand etc.).
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in ("np", "numpy")
            and func.attr not in ("default_rng", "SeedSequence", "Generator")
        ):
            yield node, (
                f"np.random.{func.attr} uses the unseeded global "
                "RandomState; use a seeded np.random.default_rng(seed)"
            )
        # Stdlib random module-level functions (shared hidden state).
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
            and func.attr in UNSEEDED_RANDOM_FUNCS
        ):
            yield node, (
                f"random.{func.attr} draws from the process-global "
                "generator; use random.Random(seed) or a seeded numpy "
                "Generator"
            )


@rule(
    "SPMD103",
    "error",
    "ordering or keying derived from id() is address-dependent",
    scope="module",
)
def check_id_ordering(module) -> Iterator[tuple[ast.AST, str]]:
    def uses_id(expr: ast.AST) -> bool:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and sub.id == "id":
                return True
        return False

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            name = _callable_name(node.func)
            if name in ("sorted", "min", "max", "sort"):
                for kw in node.keywords:
                    if kw.arg == "key" and uses_id(kw.value):
                        yield node, (
                            "sort key derived from id(): CPython object "
                            "addresses vary run to run, so the order is "
                            "not reproducible"
                        )
        elif isinstance(node, ast.Dict) and any(
            isinstance(key, ast.Call) and _callable_name(key.func) == "id"
            for key in node.keys
        ):
            yield node, (
                "dict keyed by id(): the keying (and any iteration over "
                "it) is address-dependent and not reproducible"
            )


@rule(
    "SPMD104",
    "info",
    "dict-ordered iteration in SPMD code (order is insertion order — "
    "verify it is rank-invariant, or iterate sorted(...))",
)
def check_dict_iteration(fn) -> Iterator[tuple[ast.AST, str]]:
    for node, it in _iteration_targets(fn):
        if (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Attribute)
            and it.func.attr in ("items", "keys", "values")
            and not it.args
        ):
            yield node, (
                f"iteration over .{it.func.attr}() follows dict "
                "insertion order; if ranks populate the dict in "
                "different orders and the loop feeds a payload or "
                "accumulation, results diverge — iterate "
                "sorted(...) to pin the order"
            )


# ----------------------------------------------------------------------
# SPMD2xx — payload hygiene
# ----------------------------------------------------------------------
@rule(
    "SPMD201",
    "error",
    "communication payload has no deterministic wire size",
)
def check_payload_hazard(fn) -> Iterator[tuple[ast.AST, str]]:
    """A set or generator handed to a communicator method as its first
    argument — the payload of every method that carries one."""
    for node in walk_no_nested(fn.node):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and _is_comm(func.value, fn)):
            continue
        payload = node.args[0]
        if isinstance(payload, (ast.Set, ast.SetComp)) or (
            isinstance(payload, ast.Call)
            and _callable_name(payload.func) in HAZARDOUS_PAYLOAD_CALLS
        ):
            yield payload, (
                "sending a set: iteration order (and therefore the "
                "packed wire image) is nondeterministic; send a sorted "
                "array/list"
            )
        elif isinstance(payload, ast.GeneratorExp):
            yield payload, (
                "sending a generator: the payload size estimate "
                "consumes it and the receiver sees an exhausted "
                "iterator; materialise a list/array first"
            )
