"""spmdlint rule catalog: table-driven SPMD correctness checks.

Every rule is a small checker function registered through the
:func:`rule` decorator; the engine (:mod:`repro.analysis.spmdlint`)
builds the per-function analysis context (communicator parameters,
rank-variance taint, replication taint, the program's call graph) and
hands it to each checker.  Adding a rule is ~20 lines: write a
generator that yields ``(ast_node, message)`` pairs and decorate it.

Rule identifiers are grouped by family:

* ``SPMD0xx`` — collective-schedule safety (divergence, skipped
  collectives, tag matching);
* ``SPMD1xx`` — determinism (unordered iteration, unseeded RNG,
  ``id()``-derived ordering);
* ``SPMD2xx`` — payload hygiene (objects the payload model cannot
  size deterministically);
* ``SPMD3xx`` — config / cache-key drift.

The full catalog with rationale lives in ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterator

#: Severity levels, least to most severe.
SEVERITIES = ("info", "warning", "error")
SEVERITY_ORDER = {name: i for i, name in enumerate(SEVERITIES)}

#: Methods on a communicator object that are synchronizing collectives:
#: every rank must call them, in the same order (``runtime/comm.py``).
#: ``world_call`` sends nothing, but it is a rendezvous of every rank
#: all the same.
COLLECTIVE_METHODS = frozenset(
    {
        "barrier",
        "bcast",
        "reduce",
        "allreduce",
        "gather",
        "allgather",
        "scatter",
        "alltoall",
        "scan",
        "exscan",
        "neighbor_alltoall",
        "exchange_roundtrip",
        "world_call",
    }
)

#: Collectives whose result is *replicated* on every rank, so names
#: assigned from them are safe to branch on in SPMD code.
REPLICATING_METHODS = frozenset({"allreduce", "bcast", "allgather"})

#: Communicator methods that open a one-rank communicator
#: (``MPI_COMM_SELF``): a collective on it involves no other rank, so
#: one rank alone may make it.
SOLO_METHODS = frozenset({"solo"})

#: Point-to-point send-side / receive-side call names (tag matching).
SEND_METHODS = frozenset({"send"})
RECV_METHODS = frozenset({"recv"})

#: Attributes whose value differs per rank by definition.
RANK_ATTRIBUTES = frozenset({"rank"})

#: Calls returning per-rank data (ownership lookups).
RANK_CALLS = frozenset({"owner_of", "owner"})

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
    scope: str  # "function" | "module" | "program"
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
# Shared AST predicates (pure functions over nodes; contexts supply the
# taint sets)
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


def walk_stmt_subtree(stmt: ast.stmt) -> Iterator[ast.AST]:
    """``stmt`` plus its descendants, staying inside the current scope."""
    if isinstance(stmt, _NESTED_SCOPES):
        return
    yield stmt
    yield from walk_no_nested(stmt)


def _callable_name(func: ast.AST) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_solo_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in SOLO_METHODS
    )


def solo_names(node: ast.AST) -> frozenset[str]:
    """Names the function ``node`` binds to a one-rank communicator:
    ``with comm.solo() as solo`` or ``solo = comm.solo()``."""
    names: set[str] = set()
    for sub in walk_no_nested(node):
        if isinstance(sub, ast.withitem) and _is_solo_call(sub.context_expr):
            if isinstance(sub.optional_vars, ast.Name):
                names.add(sub.optional_vars.id)
        elif isinstance(sub, ast.Assign) and _is_solo_call(sub.value):
            names.update(t.id for t in sub.targets if isinstance(t, ast.Name))
    return frozenset(names)


def is_private_call(call: ast.Call, fn) -> bool:
    """Does ``call`` hand a callee a one-rank communicator and no other?

    Its collectives then run on ``MPI_COMM_SELF``: they involve this
    rank alone, so a rank guard around the call skips nothing the other
    ranks wait for.
    """
    args = [
        a.value if isinstance(a, ast.Starred) else a
        for a in [*call.args, *(kw.value for kw in call.keywords)]
    ]

    def solo(a: ast.expr) -> bool:
        return _is_solo_call(a) or (
            isinstance(a, ast.Name) and a.id in fn.solo_names
        )

    def outer(a: ast.expr) -> bool:
        name = a.id if isinstance(a, ast.Name) else (
            a.attr if isinstance(a, ast.Attribute) else None
        )
        return name in fn.all_comm_names

    return any(solo(a) for a in args) and not any(outer(a) for a in args)


def collective_op(node: ast.AST, fn) -> str | None:
    """Op name if ``node`` is a collective call in function context ``fn``.

    Two forms count: a :data:`COLLECTIVE_METHODS` method on a
    communicator receiver, and a call the call graph resolves to a
    definition that (transitively) contains a collective — skipping a
    helper on a subset of ranks is the same bug as skipping a bare
    collective — unless the call hands the helper a one-rank
    communicator (:func:`is_private_call`).  Before ``fn.callgraph`` is
    attached only the first form is seen.
    """
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = _callable_name(func)
    if name in COLLECTIVE_METHODS:
        recv = func.value if isinstance(func, ast.Attribute) else None
        if isinstance(recv, ast.Name) and recv.id in fn.comm_names:
            return name
        if (
            isinstance(recv, ast.Attribute)
            and recv.attr in fn.comm_names
        ):  # self.comm / ctx.comm
            return name
        return None
    graph = fn.callgraph
    if (
        name is not None
        and graph is not None
        and not is_private_call(node, fn)
        and any(
            graph.contains_collective(g)
            for g in graph.resolve(name, fn.module)
        )
    ):
        return name
    return None


def is_rank_variant(node: ast.AST, fn) -> bool:
    """True if the expression's value can differ across ranks *because it
    is derived from the rank id* (``comm.rank``, ``owner_of``, a name
    tainted by them, or a call to a function the call graph proved
    rank-returning — see ``callgraph.augment_rank_taint``)."""
    interproc = getattr(fn, "interproc_rank_calls", ())
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in RANK_ATTRIBUTES:
            return True
        if isinstance(sub, ast.Call):
            name = _callable_name(sub.func)
            if name in RANK_CALLS or name in interproc:
                return True
        if isinstance(sub, ast.Name) and sub.id in fn.rank_tainted:
            return True
    return False


def is_replicated_safe(node: ast.AST, fn) -> bool:
    """Conservatively true when every rank must see the same value:
    the expression contains a replicating collective call, or all its
    name leaves are known replicated."""
    for sub in ast.walk(node):
        if collective_op(sub, fn) in REPLICATING_METHODS:
            return True
    names = [s for s in ast.walk(node) if isinstance(s, ast.Name)]
    if not names:
        return False
    return all(n.id in fn.replicated for n in names)


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
# SPMD0xx — collective schedule safety
# ----------------------------------------------------------------------
@rule(
    "SPMD001",
    "error",
    "rank-dependent control flow changes the collective schedule "
    "(callees inlined over the call graph)",
    scope="program",
)
def check_divergent_collective(program) -> Iterator:
    """Scans every SPMD function's collective-footprint summary (see
    summaries.py) for rank-variant branches whose options execute
    different collectives and rank-variant loops around collectives —
    including collectives that live in callees (module helpers, nested
    closures, methods).  A divergence is reported once, at the function
    that holds the forking statement.
    """
    from .summaries import divergences

    for module in program.modules:
        for fn in module.functions:
            if not fn.is_spmd:
                continue
            seen: set[int] = set()
            for d in divergences(program.analysis.summary(fn)):
                if d.owner is not fn or id(d.node) in seen:
                    continue  # callee forks are reported where defined
                seen.add(id(d.node))
                yield module, d.node, (
                    d.describe()
                    + "; ranks disagreeing on the condition execute "
                    "different collective schedules (real MPI: deadlock "
                    "or corrupted collective)"
                )


@rule(
    "SPMD002",
    "warning",
    "conditional early return may skip collectives on a subset of ranks",
)
def check_conditional_return(fn) -> Iterator[tuple[ast.AST, str]]:
    coll_lines = sorted(
        node.lineno
        for node in walk_no_nested(fn.node)
        if collective_op(node, fn) is not None
    )
    if not coll_lines:
        return
    for node in walk_no_nested(fn.node):
        if not isinstance(node, ast.If):
            continue
        if is_replicated_safe(node.test, fn):
            continue
        for branch in (node.body, node.orelse):
            for stmt in branch:
                for sub in walk_stmt_subtree(stmt):
                    if isinstance(sub, ast.Return) and any(
                        line > sub.lineno for line in coll_lines
                    ):
                        yield sub, (
                            "return under a condition not proven "
                            "replicated skips later collective call(s) "
                            f"(next at line {min(ln for ln in coll_lines if ln > sub.lineno)}); "
                            "if the condition is rank-local, ranks "
                            "diverge — make the decision collective "
                            "(e.g. allreduce a flag) or suppress with "
                            "a justification"
                        )


@rule(
    "SPMD003",
    "warning",
    "send/recv tag literal with no matching peer call",
    scope="program",
)
def check_tag_matching(program) -> Iterator[tuple[ast.AST, str]]:
    sends: list[tuple[object, ast.AST, int]] = []
    recvs: list[tuple[object, ast.AST, int]] = []

    def literal_tag(call: ast.Call, kw_names: tuple[str, ...], pos: int):
        for kw in call.keywords:
            if kw.arg in kw_names and isinstance(kw.value, ast.Constant):
                if isinstance(kw.value.value, int):
                    return kw.value.value
        if len(call.args) > pos and isinstance(call.args[pos], ast.Constant):
            v = call.args[pos].value
            if isinstance(v, int):
                return v
        return None

    for module in program.modules:
        for fn in module.functions:
            if not fn.is_spmd:
                continue
            for node in walk_no_nested(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                name = _callable_name(node.func)
                if name in SEND_METHODS:
                    tag = literal_tag(node, ("tag",), 2)
                    if tag is not None:
                        sends.append((module, node, tag))
                elif name in RECV_METHODS:
                    tag = literal_tag(node, ("tag",), 1)
                    if tag is not None:
                        recvs.append((module, node, tag))
                elif name == "sendrecv":
                    stag = literal_tag(node, ("sendtag",), 3)
                    rtag = literal_tag(node, ("recvtag",), 4)
                    if stag is not None:
                        sends.append((module, node, stag))
                    if rtag is not None:
                        recvs.append((module, node, rtag))

    send_tags = {t for _, _, t in sends}
    recv_tags = {t for _, _, t in recvs}
    for module, node, tag in sends:
        if tag not in recv_tags:
            yield module, node, (
                f"send with tag {tag} has no recv using that tag "
                "anywhere in the linted code — the message can never "
                "be matched (receiver times out)"
            )
    for module, node, tag in recvs:
        if tag not in send_tags:
            yield module, node, (
                f"recv with tag {tag} has no send using that tag "
                "anywhere in the linted code — the receive blocks "
                "until the deadlock timeout"
            )


def _literal_str_set(node: ast.AST) -> frozenset[str] | None:
    """Strings of a ``frozenset({...})`` or ``{...}`` literal."""
    if (
        isinstance(node, ast.Call)
        and _callable_name(node.func) == "frozenset"
        and len(node.args) == 1
    ):
        node = node.args[0]
    if not isinstance(node, ast.Set):
        return None
    out = set()
    for elt in node.elts:
        if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
            return None
        out.add(elt.value)
    return frozenset(out)


def _literal_str_dict(node: ast.AST) -> dict[str, str] | None:
    """Keys/values of a ``{"k": "v", ...}`` literal (dict() not handled)."""
    if isinstance(node, ast.Call) and _callable_name(node.func) == "dict":
        node = ast.Dict(
            keys=[ast.Constant(kw.arg) for kw in node.keywords],
            values=list(kw.value for kw in node.keywords),
        )
    if not isinstance(node, ast.Dict):
        return None
    out: dict[str, str] = {}
    for k, v in zip(node.keys, node.values):
        if not (
            isinstance(k, ast.Constant)
            and isinstance(k.value, str)
            and isinstance(v, ast.Constant)
            and isinstance(v.value, str)
        ):
            return None
        out[k.value] = v.value
    return out


def _module_assignment(
    tree: ast.Module, name: str
) -> tuple[ast.stmt, ast.expr] | None:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for t in stmt.targets:
                if isinstance(t, ast.Name) and t.id == name:
                    return stmt, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name) and stmt.target.id == name:
                return stmt, stmt.value
    return None


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
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None and isinstance(key, ast.Call) and \
                        _callable_name(key.func) == "id":
                    yield node, (
                        "dict keyed by id(): the keying (and any "
                        "iteration over it) is address-dependent and "
                        "not reproducible"
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
#: Comm calls whose first argument is the outgoing payload.
PAYLOAD_ARG0_METHODS = frozenset(
    {
        "send",
        "sendrecv",
        "bcast",
        "reduce",
        "allreduce",
        "gather",
        "allgather",
        "scatter",
        "alltoall",
        "scan",
        "exscan",
        "neighbor_alltoall",
        "exchange_roundtrip",
    }
)


@rule(
    "SPMD201",
    "error",
    "communication payload has no registered deterministic wire size",
)
def check_payload_hazard(fn) -> Iterator[tuple[ast.AST, str]]:
    for node in walk_no_nested(fn.node):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in PAYLOAD_ARG0_METHODS
            and (
                (isinstance(func.value, ast.Name)
                 and func.value.id in fn.comm_names)
                or (isinstance(func.value, ast.Attribute)
                    and func.value.attr in fn.comm_names)
            )
        ):
            continue
        payload = node.args[0]
        if isinstance(payload, (ast.Set, ast.SetComp)) or (
            isinstance(payload, ast.Call)
            and _callable_name(payload.func) in HAZARDOUS_PAYLOAD_CALLS
        ):
            yield payload, (
                "sending a set: iteration order (and therefore the "
                "packed wire image) is nondeterministic; send a sorted "
                "array/list, or register a sizer via "
                "runtime.payload.register_payload_type"
            )
        elif isinstance(payload, ast.GeneratorExp):
            yield payload, (
                "sending a generator: the payload size estimate "
                "consumes it and the receiver sees an exhausted "
                "iterator; materialise a list/array first"
            )


# ----------------------------------------------------------------------
# SPMD3xx — config / cache-key drift
# ----------------------------------------------------------------------

#: Exclusion kinds in ``CACHE_KEY_EXCLUSIONS`` whose fields may
#: legitimately guard collectives while staying outside ``cache_key()``:
#: *audit* knobs add verification collectives that every rank executes
#: identically, without changing what is computed.
SCHEDULE_SAFE_EXCLUSION_KINDS = frozenset({"audit"})


def _dataclass_def(
    tree: ast.Module, name: str = "LouvainConfig"
) -> ast.ClassDef | None:
    for stmt in tree.body:
        if not (isinstance(stmt, ast.ClassDef) and stmt.name == name):
            continue
        for dec in stmt.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if _callable_name(target) == "dataclass":
                return stmt
    return None


def _dataclass_fields(cls: ast.ClassDef) -> list[str]:
    fields = []
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            if "ClassVar" in ast.unparse(stmt.annotation):
                continue
            fields.append(stmt.target.id)
    return fields


def _config_attr_surface(cls: ast.ClassDef) -> frozenset[str]:
    """Attribute names a config instance legitimately exposes."""
    names = set(_dataclass_fields(cls))
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for t in stmt.targets:
                if isinstance(t, ast.Name):
                    names.add(t.id)
    return frozenset(names)


def _louvain_config_params(fn_node: ast.AST) -> frozenset[str]:
    """Parameters annotated as ``LouvainConfig`` (incl. Optional[...])."""
    args = fn_node.args
    out = set()
    for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if a.annotation is not None and "LouvainConfig" in ast.unparse(
            a.annotation
        ):
            out.add(a.arg)
    return frozenset(out)


@rule(
    "SPMD301",
    "error",
    "LouvainConfig field partition drift: every field must be in "
    "CACHE_KEY_FIELDS or documented in CACHE_KEY_EXCLUSIONS",
    scope="program",
)
def check_cache_key_partition(program) -> Iterator:
    """Field-partition invariant on the config declaration itself.

    ``CACHE_KEY_FIELDS`` (what :meth:`LouvainConfig.cache_key` hashes)
    and ``CACHE_KEY_EXCLUSIONS`` (documented reasons for leaving a
    field out) must partition the dataclass fields exactly: no
    undocumented field, no overlap, no stale names on either side, and
    every exclusion reason tagged ``"<kind>: ..."``.
    """
    for module in program.modules:
        cls = _dataclass_def(module.tree)
        if cls is None:
            continue
        found = _module_assignment(module.tree, "CACHE_KEY_FIELDS")
        if found is None:
            continue
        key_node, key_value = found
        key_fields = _literal_str_set(key_value)
        if key_fields is None:
            continue
        excl_node: ast.stmt = key_node
        exclusions: dict[str, str] = {}
        excl_found = _module_assignment(module.tree, "CACHE_KEY_EXCLUSIONS")
        if excl_found is not None:
            excl_node = excl_found[0]
            exclusions = _literal_str_dict(excl_found[1]) or {}
        fields = set(_dataclass_fields(cls))
        for f in sorted(fields - key_fields - set(exclusions)):
            yield module, key_node, (
                f"config field '{f}' is neither in CACHE_KEY_FIELDS nor "
                "documented in CACHE_KEY_EXCLUSIONS; undocumented fields "
                "silently escape the autotuner's cache key"
            )
        for f in sorted(key_fields & set(exclusions)):
            yield module, excl_node, (
                f"config field '{f}' appears in both CACHE_KEY_FIELDS "
                "and CACHE_KEY_EXCLUSIONS"
            )
        for f in sorted(key_fields - fields):
            yield module, key_node, (
                f"CACHE_KEY_FIELDS names '{f}', which is not a "
                "LouvainConfig field"
            )
        for f in sorted(set(exclusions) - fields):
            yield module, excl_node, (
                f"CACHE_KEY_EXCLUSIONS names '{f}', which is not a "
                "LouvainConfig field"
            )
        for f in sorted(exclusions):
            reason = exclusions[f]
            kind = reason.split(":", 1)[0].strip() if ":" in reason else ""
            if not kind:
                yield module, excl_node, (
                    f"CACHE_KEY_EXCLUSIONS['{f}'] reason must start with "
                    "'<kind>: ' (e.g. 'audit: results unchanged')"
                )


@rule(
    "SPMD302",
    "error",
    "config field guards the collective schedule but is excluded from "
    "cache_key() without a schedule-safe exclusion kind",
    scope="program",
)
def check_collective_guard_coverage(program) -> Iterator:
    """Cross-checks footprint summaries against the cache-key partition.

    A config field whose value selects between different collective
    schedules (a config-``Alt`` with differing options in some SPMD
    function's footprint) must either participate in ``cache_key()``
    or carry an exclusion of a kind in
    :data:`SCHEDULE_SAFE_EXCLUSION_KINDS`.
    """
    from .summaries import schedule_guarding_fields

    guarding: dict[str, str] = {}
    for m in program.modules:
        for fn in m.functions:
            if not fn.is_spmd:
                continue
            summary = program.analysis.summary(fn)
            for f in sorted(schedule_guarding_fields(summary)):
                guarding.setdefault(f, fn.qualname)
    if not guarding:
        return
    for module in program.modules:
        cls = _dataclass_def(module.tree)
        if cls is None:
            continue
        found = _module_assignment(module.tree, "CACHE_KEY_FIELDS")
        if found is None:
            continue
        key_node, key_value = found
        key_fields = _literal_str_set(key_value) or frozenset()
        exclusions: dict[str, str] = {}
        excl_found = _module_assignment(module.tree, "CACHE_KEY_EXCLUSIONS")
        if excl_found is not None:
            exclusions = _literal_str_dict(excl_found[1]) or {}
        fields = set(_dataclass_fields(cls))
        for f in sorted(guarding):
            if f not in fields or f in key_fields:
                continue
            reason = exclusions.get(f)
            if reason is None:
                continue  # SPMD301 already reports undocumented fields
            kind = reason.split(":", 1)[0].strip()
            if kind not in SCHEDULE_SAFE_EXCLUSION_KINDS:
                yield module, key_node, (
                    f"config field '{f}' guards the collective schedule "
                    f"(see {guarding[f]}) but is excluded from "
                    f"cache_key() with kind '{kind}'; only "
                    f"{sorted(SCHEDULE_SAFE_EXCLUSION_KINDS)} exclusions "
                    "may guard collectives"
                )


@rule(
    "SPMD303",
    "error",
    "unknown LouvainConfig attribute read: typoed fields drift "
    "silently out of the schedule analysis",
    scope="program",
)
def check_config_attr_reads(program) -> Iterator:
    """Validates ``config.<attr>`` reads against the declared surface.

    Only parameters *annotated* ``LouvainConfig`` are checked, so
    unrelated ``config`` objects (service/serving configs) are never
    flagged.  Private/dunder attributes are skipped.
    """
    surface: frozenset[str] | None = None
    for module in program.modules:
        cls = _dataclass_def(module.tree)
        if cls is not None:
            s = _config_attr_surface(cls)
            surface = s if surface is None else (surface | s)
    if surface is None:
        return
    for module in program.modules:
        for fn in module.functions:
            cfg_params = _louvain_config_params(fn.node)
            if not cfg_params:
                continue
            for node in walk_no_nested(fn.node):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in cfg_params
                    and not node.attr.startswith("_")
                    and node.attr not in surface
                ):
                    yield module, node, (
                        f"'{node.value.id}.{node.attr}' is not a "
                        "LouvainConfig field, property, or method"
                    )
