"""Per-function collective-footprint summaries and schedule evaluation.

A *footprint* is the abstract collective schedule a function executes:

* :class:`Coll` — one collective call site (``allreduce``, ...);
* :class:`Seq` — sequential composition;
* :class:`Star` — a loop body (trip count abstracted away);
* :class:`Alt` — alternation, tagged with *why* the program forks:
  ``config`` (a branch on :class:`~repro.core.config.LouvainConfig`
  fields — resolvable once a concrete config is chosen), ``rank`` (a
  branch on rank-derived state — the divergence SPMD001 hunts),
  or ``data`` (anything else — assumed replicated, as SPMD001 does);
* :class:`Opaque` — a recursion cutoff.

:class:`SummaryBuilder` computes footprints bottom-up over the
call graph, inlining callee summaries at call sites, so the footprint
of ``distributed_louvain`` is the whole program's schedule.  With a
concrete :class:`LouvainConfig`, :func:`evaluate` resolves the
config-guarded alternatives and :func:`schedule_matrix` tabulates the
schedule of every distinct variant in a tuner
:class:`~repro.tune.space.SearchSpace` — the static counterpart of the
runtime schedule verifier.

Config guards are recognised in three forms: direct field tests
(``if config.use_coloring:``), derived-property chains
(``config.variant.uses_inactive_exit``), and the ``x = <expr> if
config.f else None`` / ``if x is not None:`` idiom the codebase uses
for optional subsystems (ET, assignment tracking).
"""

from __future__ import annotations

import ast
import hashlib
from collections import Counter
from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING, Any, Sequence

from .callgraph import CallGraph, direct_collective_op
from .rules import (
    _callable_name,
    is_private_call,
    is_rank_variant,
    walk_no_nested,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .spmdlint import FunctionContext

_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)

#: Names an abstract guard expression may reference besides the config.
_SAFE_GLOBALS = frozenset({"Variant", "True", "False", "None"})

#: Sentinel guard-evaluation results.
UNKNOWN = object()
NOT_NONE = object()


# ----------------------------------------------------------------------
# footprint algebra
# ----------------------------------------------------------------------
class Footprint:
    """Base class; equality and hashing go through :meth:`key`."""

    def key(self) -> str:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Footprint) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.key()!r}>"


class Coll(Footprint):
    """One collective call site."""

    __slots__ = ("op", "node")

    def __init__(self, op: str, node: ast.AST | None = None) -> None:
        self.op = op
        self.node = node

    def key(self) -> str:
        return self.op


class Seq(Footprint):
    """Sequential composition (flattened, empties dropped)."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Footprint, ...]) -> None:
        self.parts = parts

    def key(self) -> str:
        if not self.parts:
            return ""
        return ",".join(p.key() for p in self.parts)


EMPTY: Footprint = Seq(())


class Star(Footprint):
    """A loop body; the trip count is abstracted to ``*``."""

    __slots__ = ("body", "rank_variant", "node", "owner")

    def __init__(
        self,
        body: Footprint,
        rank_variant: bool = False,
        node: ast.AST | None = None,
        owner: "FunctionContext | None" = None,
    ) -> None:
        self.body = body
        self.rank_variant = rank_variant
        self.node = node
        self.owner = owner

    def key(self) -> str:
        return f"({self.body.key()})*"


class Alt(Footprint):
    """Alternation between option footprints.

    ``kind`` is ``"config"`` (guard over LouvainConfig fields; exactly
    two options, index 0 taken when the guard is true), ``"rank"``
    (rank-divergent branch — the bug class), or ``"data"``.
    """

    __slots__ = ("options", "kind", "fields", "guard", "info", "node", "owner")

    def __init__(
        self,
        options: tuple[Footprint, ...],
        kind: str,
        fields: tuple[str, ...] = (),
        guard: ast.expr | None = None,
        info: "_GuardInfo | None" = None,
        node: ast.AST | None = None,
        owner: "FunctionContext | None" = None,
    ) -> None:
        self.options = options
        self.kind = kind
        self.fields = fields
        self.guard = guard
        self.info = info
        self.node = node
        self.owner = owner

    def key(self) -> str:
        inner = "|".join(sorted(o.key() for o in self.options))
        tag = "" if self.kind == "data" else self.kind[0]
        return f"{{{inner}}}{tag}"


class Opaque(Footprint):
    """Recursion cutoff: the schedule beyond this point is unknown."""

    __slots__ = ("tag",)

    def __init__(self, tag: str) -> None:
        self.tag = tag

    def key(self) -> str:
        return f"?{self.tag}"


def seq(parts: Sequence[Footprint]) -> Footprint:
    """Smart Seq constructor: flatten, drop empties, collapse singletons."""
    flat: list[Footprint] = []
    for p in parts:
        if isinstance(p, Seq):
            flat.extend(p.parts)
        elif p.key() != "":
            flat.append(p)
    if not flat:
        return EMPTY
    if len(flat) == 1:
        return flat[0]
    return Seq(tuple(flat))


def star(
    body: Footprint,
    rank_variant: bool = False,
    node: ast.AST | None = None,
    owner: "FunctionContext | None" = None,
) -> Footprint:
    """Smart Star constructor: a loop with no collectives vanishes."""
    if body.key() == "":
        return EMPTY
    return Star(body, rank_variant=rank_variant, node=node, owner=owner)


def alt(
    options: Sequence[Footprint],
    kind: str,
    fields: tuple[str, ...] = (),
    guard: ast.expr | None = None,
    info: "_GuardInfo | None" = None,
    node: ast.AST | None = None,
    owner: "FunctionContext | None" = None,
) -> Footprint:
    """Smart Alt constructor: identical options collapse.

    ``config`` alternations are *kept* even when their options agree so
    the guarded fields remain visible to the schedule matrix; ``rank``
    and ``data`` alternations with agreeing options carry no schedule
    information and collapse to either option.
    """
    opts = tuple(options)
    keys = {o.key() for o in opts}
    if len(keys) == 1 and kind != "config":
        return opts[0]
    if len(keys) == 1 and kind == "config" and next(iter(keys)) == "":
        return EMPTY
    return Alt(
        opts, kind, fields=fields, guard=guard, info=info, node=node, owner=owner
    )


def op_counter(fp: Footprint) -> Counter:
    """Static collective-site counts (loop bodies counted once)."""
    counts: Counter = Counter()
    stack = [fp]
    while stack:
        f = stack.pop()
        if isinstance(f, Coll):
            counts[f.op] += 1
        elif isinstance(f, Opaque):
            counts[f.key()] += 1
        elif isinstance(f, Seq):
            stack.extend(f.parts)
        elif isinstance(f, Star):
            stack.append(f.body)
        elif isinstance(f, Alt):
            stack.extend(f.options)
    return counts


# ----------------------------------------------------------------------
# config-guard recognition
# ----------------------------------------------------------------------
@dataclass
class _GuardInfo:
    """Per-function map from local names to config-derived values."""

    config_names: set[str] = dc_field(default_factory=set)
    #: name -> config-pure expression it was assigned from.
    alias_exprs: dict[str, ast.expr] = dc_field(default_factory=dict)
    #: name -> ``A if <test> else None`` (or flipped) it was assigned from.
    none_ifexp: dict[str, ast.IfExp] = dc_field(default_factory=dict)


def _config_param_names(node: ast.FunctionDef) -> set[str]:
    names = set()
    args = node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        ann = ast.unparse(arg.annotation) if arg.annotation is not None else ""
        if arg.arg == "config" or "LouvainConfig" in ann:
            names.add(arg.arg)
    return names


def config_fields_of(
    expr: ast.AST, info: _GuardInfo
) -> frozenset[str] | None:
    """Config fields a *pure* config expression reads; None if impure."""
    if isinstance(expr, ast.Constant):
        return frozenset()
    if isinstance(expr, ast.Name):
        if expr.id in info.config_names or expr.id in _SAFE_GLOBALS:
            return frozenset()
        if expr.id in info.alias_exprs:
            return config_fields_of(info.alias_exprs[expr.id], info)
        return None
    if isinstance(expr, ast.Attribute):
        base = expr.value
        if isinstance(base, ast.Name) and base.id in info.config_names:
            return frozenset({expr.attr})
        if isinstance(base, ast.Name) and base.id in _SAFE_GLOBALS:
            return frozenset()  # Variant.ET and friends
        inner = config_fields_of(base, info)
        return inner  # chained attribute on a config-derived value
    if isinstance(expr, ast.UnaryOp):
        return config_fields_of(expr.operand, info)
    if isinstance(expr, (ast.BoolOp,)):
        out: frozenset[str] = frozenset()
        for v in expr.values:
            sub = config_fields_of(v, info)
            if sub is None:
                return None
            out |= sub
        return out
    if isinstance(expr, ast.Compare):
        out = frozenset()
        for v in [expr.left, *expr.comparators]:
            sub = config_fields_of(v, info)
            if sub is None:
                return None
            out |= sub
        return out
    if isinstance(expr, ast.BinOp):
        left = config_fields_of(expr.left, info)
        right = config_fields_of(expr.right, info)
        if left is None or right is None:
            return None
        return left | right
    if isinstance(expr, ast.IfExp):
        parts = [
            config_fields_of(e, info)
            for e in (expr.test, expr.body, expr.orelse)
        ]
        if any(p is None for p in parts):
            return None
        return frozenset().union(*parts)  # type: ignore[arg-type]
    return None


class _NoneGuardSubst(ast.NodeTransformer):
    """Rewrite ``x is [not] None`` to the config test behind ``x``.

    For ``x = A if T else None`` the comparison ``x is not None`` is
    exactly ``T`` (and ``x is None`` is ``not T``), provided ``A`` is
    never ``None`` — true for the constructor-call idiom this targets.
    """

    def __init__(self, info: _GuardInfo) -> None:
        self.info = info

    def visit_Compare(self, node: ast.Compare) -> ast.expr:
        if (
            len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Is, ast.IsNot))
            and isinstance(node.left, ast.Name)
            and node.left.id in self.info.none_ifexp
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value is None
        ):
            ifexp = self.info.none_ifexp[node.left.id]
            body_is_none = (
                isinstance(ifexp.body, ast.Constant) and ifexp.body.value is None
            )
            # test true selects the non-None arm?
            true_means_set = not body_is_none
            want_set = isinstance(node.ops[0], ast.IsNot)
            test = ifexp.test
            if want_set != true_means_set:
                return ast.UnaryOp(op=ast.Not(), operand=test)
            return test
        return node


def classify_guard(
    test: ast.expr, fn: "FunctionContext", info: _GuardInfo
) -> tuple[str, tuple[str, ...], ast.expr | None]:
    """(kind, config fields, evaluable guard) for a branch condition."""
    effective = _NoneGuardSubst(info).visit(
        ast.fix_missing_locations(_copy_expr(test))
    )
    fields = config_fields_of(effective, info)
    if fields:
        return "config", tuple(sorted(fields)), effective
    if is_rank_variant(test, fn):
        return "rank", (), None
    return "data", (), None


def _copy_expr(expr: ast.expr) -> ast.expr:
    mod = ast.parse(ast.unparse(expr), mode="eval")
    return mod.body


# ----------------------------------------------------------------------
# guard evaluation against a concrete config
# ----------------------------------------------------------------------
def _eval_expr(node: ast.AST, cfg: Any, info: _GuardInfo) -> Any:
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        if node.id in info.config_names:
            return cfg
        if node.id == "Variant":
            from ..core.config import Variant

            return Variant
        if node.id in info.alias_exprs:
            return _eval_expr(info.alias_exprs[node.id], cfg, info)
        if node.id in info.none_ifexp:
            return _eval_expr(info.none_ifexp[node.id], cfg, info)
        return UNKNOWN
    if isinstance(node, ast.Attribute):
        base = _eval_expr(node.value, cfg, info)
        if base is UNKNOWN or base is NOT_NONE:
            return UNKNOWN
        try:
            return getattr(base, node.attr)
        except AttributeError:
            return UNKNOWN
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        v = _truthy(_eval_expr(node.operand, cfg, info))
        return UNKNOWN if v is UNKNOWN else not v
    if isinstance(node, ast.BoolOp):
        is_and = isinstance(node.op, ast.And)
        saw_unknown = False
        for v in node.values:
            t = _truthy(_eval_expr(v, cfg, info))
            if t is UNKNOWN:
                saw_unknown = True
            elif t != is_and:
                return t  # short-circuit value decides
        return UNKNOWN if saw_unknown else is_and
    if isinstance(node, ast.Compare) and len(node.ops) == 1:
        left = _eval_expr(node.left, cfg, info)
        right = _eval_expr(node.comparators[0], cfg, info)
        op = node.ops[0]
        if isinstance(op, (ast.Is, ast.IsNot)):
            if right is None or left is None:
                other = left if right is None else right
                if other is NOT_NONE:
                    is_none = False
                elif other is UNKNOWN:
                    return UNKNOWN
                else:
                    is_none = other is None
                return not is_none if isinstance(op, ast.IsNot) else is_none
            return UNKNOWN
        if left is UNKNOWN or right is UNKNOWN or left is NOT_NONE or right is NOT_NONE:
            return UNKNOWN
        try:
            if isinstance(op, ast.Eq):
                return left == right
            if isinstance(op, ast.NotEq):
                return left != right
            if isinstance(op, ast.Gt):
                return left > right
            if isinstance(op, ast.GtE):
                return left >= right
            if isinstance(op, ast.Lt):
                return left < right
            if isinstance(op, ast.LtE):
                return left <= right
            if isinstance(op, ast.In):
                return left in right
            if isinstance(op, ast.NotIn):
                return left not in right
        except TypeError:
            return UNKNOWN
        return UNKNOWN
    if isinstance(node, ast.IfExp):
        t = _truthy(_eval_expr(node.test, cfg, info))
        if t is UNKNOWN:
            return UNKNOWN
        return _eval_expr(node.body if t else node.orelse, cfg, info)
    if isinstance(node, (ast.Call, ast.List, ast.Tuple, ast.Dict, ast.Set)):
        return NOT_NONE  # an object, whatever it is
    return UNKNOWN


def _truthy(v: Any) -> Any:
    if v is UNKNOWN or v is NOT_NONE:
        return UNKNOWN
    return bool(v)


def eval_guard(a: Alt, cfg: Any) -> Any:
    """True/False/UNKNOWN for a config alternation's guard."""
    if a.guard is None or a.info is None:
        return UNKNOWN
    return _truthy(_eval_expr(a.guard, cfg, a.info))


def evaluate(fp: Footprint, cfg: Any) -> Footprint:
    """Resolve config alternations of ``fp`` against a concrete config."""
    if isinstance(fp, Seq):
        return seq([evaluate(p, cfg) for p in fp.parts])
    if isinstance(fp, Star):
        return star(
            evaluate(fp.body, cfg),
            rank_variant=fp.rank_variant,
            node=fp.node,
            owner=fp.owner,
        )
    if isinstance(fp, Alt):
        if fp.kind == "config" and len(fp.options) == 2:
            v = eval_guard(fp, cfg)
            if v is True:
                return evaluate(fp.options[0], cfg)
            if v is False:
                return evaluate(fp.options[1], cfg)
        return alt(
            [evaluate(o, cfg) for o in fp.options],
            "data" if fp.kind == "config" else fp.kind,
            node=fp.node,
            owner=fp.owner,
        )
    return fp


def config_fields_in(fp: Footprint) -> frozenset[str]:
    """All config fields guarding any alternation inside ``fp``."""
    out: set[str] = set()
    stack = [fp]
    while stack:
        f = stack.pop()
        if isinstance(f, Seq):
            stack.extend(f.parts)
        elif isinstance(f, Star):
            stack.append(f.body)
        elif isinstance(f, Alt):
            if f.kind == "config":
                out.update(f.fields)
            stack.extend(f.options)
    return frozenset(out)


def schedule_guarding_fields(fp: Footprint) -> frozenset[str]:
    """Config fields that *select between different* schedules.

    Unlike :func:`config_fields_in` this ignores config alternations
    whose options share the same collective footprint — a field only
    "guards the schedule" (and so concerns rule SPMD302) when flipping
    it changes which collectives run.
    """
    out: set[str] = set()
    stack = [fp]
    while stack:
        f = stack.pop()
        if isinstance(f, Seq):
            stack.extend(f.parts)
        elif isinstance(f, Star):
            stack.append(f.body)
        elif isinstance(f, Alt):
            if (
                f.kind == "config"
                and len({o.key() for o in f.options}) > 1
            ):
                out.update(f.fields)
            stack.extend(f.options)
    return frozenset(out)


# ----------------------------------------------------------------------
# divergence scan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Divergence:
    """A rank-variant alternation/loop that changes the schedule."""

    node: ast.AST
    owner: "FunctionContext"
    kind: str  # "branch" | "loop"
    ops: tuple[str, ...]
    config_path: tuple[str, ...]

    def describe(self) -> str:
        where = "loop" if self.kind == "loop" else "branch"
        ops = ", ".join(self.ops) or "collective schedule"
        msg = f"rank-dependent {where} changes the schedule of {ops}"
        if self.config_path:
            msg += (
                " (reached only when config."
                + " and config.".join(self.config_path)
                + " selects it)"
            )
        return msg


def _diff_ops(options: Sequence[Footprint]) -> tuple[str, ...]:
    counters = [op_counter(o) for o in options]
    common = counters[0].copy()
    for c in counters[1:]:
        common &= c
    diff: set[str] = set()
    for c in counters:
        for op, n in c.items():
            if n != common.get(op, 0):
                diff.add(op)
    return tuple(sorted(diff))


def divergences(
    fp: Footprint, config_path: tuple[str, ...] = ()
) -> list[Divergence]:
    """Every rank-variant schedule fork in ``fp`` (pre- or post-eval)."""
    out: list[Divergence] = []
    if isinstance(fp, Seq):
        for p in fp.parts:
            out.extend(divergences(p, config_path))
    elif isinstance(fp, Star):
        if fp.rank_variant and fp.node is not None and fp.owner is not None:
            out.append(
                Divergence(
                    node=fp.node,
                    owner=fp.owner,
                    kind="loop",
                    ops=tuple(sorted(op_counter(fp.body))),
                    config_path=config_path,
                )
            )
        out.extend(divergences(fp.body, config_path))
    elif isinstance(fp, Alt):
        path = (
            config_path + tuple(f for f in fp.fields if f not in config_path)
            if fp.kind == "config"
            else config_path
        )
        if fp.kind == "rank" and fp.node is not None and fp.owner is not None:
            out.append(
                Divergence(
                    node=fp.node,
                    owner=fp.owner,
                    kind="branch",
                    ops=_diff_ops(fp.options),
                    config_path=config_path,
                )
            )
        for o in fp.options:
            out.extend(divergences(o, path))
    return out


# ----------------------------------------------------------------------
# summary builder
# ----------------------------------------------------------------------
class SummaryBuilder:
    """Computes (and memoizes) per-function footprints over a program."""

    def __init__(self, callgraph: CallGraph) -> None:
        self.callgraph = callgraph
        self._memo: dict[int, Footprint] = {}
        self._info: dict[int, _GuardInfo] = {}

    # -- guard info ----------------------------------------------------
    def guard_info(self, fn: "FunctionContext") -> _GuardInfo:
        key = id(fn)
        if key not in self._info:
            info = _GuardInfo(config_names=_config_param_names(fn.node))
            for node in walk_no_nested(fn.node):
                targets: list[ast.expr] = []
                value: ast.expr | None = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                if value is None:
                    continue
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if not names:
                    continue
                if config_fields_of(value, info):
                    for n in names:
                        info.alias_exprs[n] = value
                if isinstance(value, ast.IfExp) and (
                    (
                        isinstance(value.orelse, ast.Constant)
                        and value.orelse.value is None
                    )
                    or (
                        isinstance(value.body, ast.Constant)
                        and value.body.value is None
                    )
                ):
                    for n in names:
                        info.none_ifexp[n] = value
            self._info[key] = info
        return self._info[key]

    # -- footprints ----------------------------------------------------
    def summary(self, fn: "FunctionContext") -> Footprint:
        key = id(fn)
        if key not in self._memo:
            self._memo[key] = self._function(fn, stack=frozenset({key}))
        return self._memo[key]

    def _function(self, fn: "FunctionContext", stack: frozenset[int]) -> Footprint:
        info = self.guard_info(fn)
        fp, _terminates = self._block(fn.node.body, fn, info, stack)
        return fp

    def _inline_call(
        self,
        call: ast.Call,
        fn: "FunctionContext",
        stack: frozenset[int],
    ) -> Footprint:
        op = direct_collective_op(call, fn)
        if op is not None:
            return Coll(op, node=call)
        name = _callable_name(call.func)
        if name is None or is_private_call(call, fn):
            return EMPTY
        candidates = [
            g
            for g in self.callgraph.resolve(name, fn.module)
            if self.callgraph.contains_collective(g)
        ]
        if candidates:
            options: list[Footprint] = []
            for g in candidates:
                gkey = id(g)
                if gkey in stack:
                    options.append(Opaque(name))
                elif gkey in self._memo:
                    options.append(self._memo[gkey])
                else:
                    fp = self._function(g, stack | {gkey})
                    self._memo[gkey] = fp
                    options.append(fp)
            uniq: dict[str, Footprint] = {o.key(): o for o in options}
            opts = list(uniq.values())
            if len(opts) == 1:
                return opts[0]
            return alt(opts, "data", node=call, owner=fn)
        return EMPTY

    def _expr(
        self,
        node: ast.AST | None,
        fn: "FunctionContext",
        info: _GuardInfo,
        stack: frozenset[int],
    ) -> list[Footprint]:
        """Footprints of an expression, in evaluation order."""
        if node is None or isinstance(node, _NESTED_SCOPES):
            return []
        if isinstance(node, ast.Call):
            parts: list[Footprint] = []
            parts.extend(self._expr(node.func, fn, info, stack))
            for a in node.args:
                sub = a.value if isinstance(a, ast.Starred) else a
                parts.extend(self._expr(sub, fn, info, stack))
            for kw in node.keywords:
                parts.extend(self._expr(kw.value, fn, info, stack))
            parts.append(self._inline_call(node, fn, stack))
            return parts
        if isinstance(node, ast.Attribute):
            return self._expr(node.value, fn, info, stack)
        if isinstance(node, ast.IfExp):
            parts = self._expr(node.test, fn, info, stack)
            kind, fields, guard = classify_guard(node.test, fn, info)
            on_true = seq(self._expr(node.body, fn, info, stack))
            on_false = seq(self._expr(node.orelse, fn, info, stack))
            parts.append(
                alt(
                    (on_true, on_false), kind, fields=fields, guard=guard,
                    info=info, node=node, owner=fn,
                )
            )
            return parts
        parts = []
        for child in ast.iter_child_nodes(node):
            parts.extend(self._expr(child, fn, info, stack))
        return parts

    def _stmt_exprs(
        self,
        stmt: ast.stmt,
        fn: "FunctionContext",
        info: _GuardInfo,
        stack: frozenset[int],
    ) -> list[Footprint]:
        parts: list[Footprint] = []
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, (ast.stmt, *_NESTED_SCOPES)):
                continue
            parts.extend(self._expr(child, fn, info, stack))
        return parts

    def _block(
        self,
        stmts: Sequence[ast.stmt],
        fn: "FunctionContext",
        info: _GuardInfo,
        stack: frozenset[int],
    ) -> tuple[Footprint, bool]:
        """(footprint, always-terminates) of a statement list."""
        parts: list[Footprint] = []
        for i, stmt in enumerate(stmts):
            if isinstance(stmt, _NESTED_SCOPES):
                continue
            if isinstance(stmt, (ast.Return, ast.Raise)):
                parts.extend(self._stmt_exprs(stmt, fn, info, stack))
                return seq(parts), True
            if isinstance(stmt, (ast.Break, ast.Continue)):
                return seq(parts), True
            if isinstance(stmt, ast.If):
                parts.extend(self._expr(stmt.test, fn, info, stack))
                kind, fields, guard = classify_guard(stmt.test, fn, info)
                body_fp, body_t = self._block(stmt.body, fn, info, stack)
                else_fp, else_t = self._block(stmt.orelse, fn, info, stack)
                if body_t and else_t:
                    parts.append(
                        alt(
                            (body_fp, else_fp), kind, fields=fields,
                            guard=guard, info=info, node=stmt, owner=fn,
                        )
                    )
                    return seq(parts), True
                if body_t != else_t:
                    # One branch leaves the block: the other branch
                    # continues into the rest of the statements.
                    rest_fp, rest_t = self._block(
                        stmts[i + 1:], fn, info, stack
                    )
                    if body_t:
                        on_true: Footprint = body_fp
                        on_false = seq([else_fp, rest_fp])
                    else:
                        on_true = seq([body_fp, rest_fp])
                        on_false = else_fp
                    parts.append(
                        alt(
                            (on_true, on_false), kind, fields=fields,
                            guard=guard, info=info, node=stmt, owner=fn,
                        )
                    )
                    return seq(parts), False
                parts.append(
                    alt(
                        (body_fp, else_fp), kind, fields=fields,
                        guard=guard, info=info, node=stmt, owner=fn,
                    )
                )
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                parts.extend(self._expr(stmt.iter, fn, info, stack))
                body_fp, _ = self._block(stmt.body, fn, info, stack)
                parts.append(
                    star(
                        body_fp,
                        rank_variant=is_rank_variant(stmt.iter, fn),
                        node=stmt,
                        owner=fn,
                    )
                )
                if stmt.orelse:
                    else_fp, _ = self._block(stmt.orelse, fn, info, stack)
                    parts.append(else_fp)
                continue
            if isinstance(stmt, ast.While):
                test_parts = self._expr(stmt.test, fn, info, stack)
                body_fp, _ = self._block(stmt.body, fn, info, stack)
                parts.append(
                    star(
                        seq(test_parts + [body_fp]),
                        rank_variant=is_rank_variant(stmt.test, fn),
                        node=stmt,
                        owner=fn,
                    )
                )
                if stmt.orelse:
                    else_fp, _ = self._block(stmt.orelse, fn, info, stack)
                    parts.append(else_fp)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    parts.extend(
                        self._expr(item.context_expr, fn, info, stack)
                    )
                body_fp, body_t = self._block(stmt.body, fn, info, stack)
                parts.append(body_fp)
                if body_t:
                    return seq(parts), True
                continue
            if isinstance(stmt, ast.Try):
                body_fp, _ = self._block(stmt.body, fn, info, stack)
                parts.append(body_fp)
                handler_fps: list[Footprint] = []
                for h in stmt.handlers:
                    h_fp, _ = self._block(h.body, fn, info, stack)
                    if h_fp.key() != "":
                        handler_fps.append(h_fp)
                if handler_fps:
                    parts.append(
                        alt(
                            (EMPTY, *handler_fps), "data",
                            node=stmt, owner=fn,
                        )
                    )
                if stmt.orelse:
                    else_fp, _ = self._block(stmt.orelse, fn, info, stack)
                    parts.append(else_fp)
                if stmt.finalbody:
                    fin_fp, fin_t = self._block(
                        stmt.finalbody, fn, info, stack
                    )
                    parts.append(fin_fp)
                    if fin_t:
                        return seq(parts), True
                continue
            parts.extend(self._stmt_exprs(stmt, fn, info, stack))
        return seq(parts), False


# ----------------------------------------------------------------------
# schedule matrix
# ----------------------------------------------------------------------
def _jsonable(value: Any) -> Any:
    import enum

    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def signature(fp: Footprint) -> str:
    """Short stable digest of a footprint's canonical key."""
    return hashlib.sha256(fp.key().encode("utf-8")).hexdigest()[:12]


def schedule_matrix(
    builder: SummaryBuilder,
    entry: str = "distributed_louvain",
    space: Any = None,
) -> dict[str, Any]:
    """Per-config-variant schedule table for ``entry``.

    Enumerates the tuner search space, projects each candidate config
    onto the fields that actually guard the entry's footprint, and
    evaluates one schedule per distinct projection.  The stock space is
    enumerated with and without ``use_coloring``: the tuner takes that
    knob from the caller, but it guards collectives, so its schedules
    are verified too.  Suppressed divergences (``# spmdlint:
    ignore[SPMD001]`` at the forking line) count as justified.
    """
    fns = sorted(
        (
            fn
            for fn in builder.callgraph.functions
            if fn.name == entry and fn.is_spmd and not fn.is_nested
        ),
        key=lambda f: str(f.module.path),
    )
    if not fns:
        raise ValueError(f"entry function {entry!r} not found in linted paths")
    fn = fns[0]
    raw = builder.summary(fn)
    fields = sorted(config_fields_in(raw))
    if space is None:
        from ..core.config import LouvainConfig
        from ..tune.space import default_space

        candidates = [
            cand
            for coloring in (False, True)
            for cand in default_space(
                base=LouvainConfig(use_coloring=coloring)
            ).candidates()
        ]
    else:
        candidates = space.candidates()
    import json as _json

    rows: list[dict[str, Any]] = []
    seen: set[str] = set()
    for cand in candidates:
        proj = {f: _jsonable(getattr(cand.config, f)) for f in fields}
        pkey = _json.dumps(proj, sort_keys=True, default=str)
        if pkey in seen:
            continue
        seen.add(pkey)
        ev = evaluate(raw, cand.config)
        divs = divergences(ev)
        live = [
            d
            for d in divs
            if not d.owner.module.is_suppressed(
                "SPMD001", getattr(d.node, "lineno", 1)
            )
        ]
        rows.append(
            {
                "config": proj,
                "label": cand.config.label(),
                "signature": signature(ev),
                "collectives": dict(sorted(op_counter(ev).items())),
                "divergence_free": not live,
                "divergences": [
                    f"{d.owner.module.display_path}:"
                    f"{getattr(d.node, 'lineno', 1)}: {d.describe()}"
                    for d in live
                ],
                "suppressed_divergences": len(divs) - len(live),
            }
        )
    return {
        "entry": entry,
        "defined_in": fn.module.display_path,
        "config_fields": fields,
        "rows": rows,
        "summary": {
            "variants": len(rows),
            "divergence_free": all(r["divergence_free"] for r in rows),
            "distinct_schedules": len({r["signature"] for r in rows}),
        },
    }
