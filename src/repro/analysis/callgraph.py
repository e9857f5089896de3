"""Whole-program call graph over the linted modules.

Built once per lint run from the engine's :class:`ModuleContext`
objects, the call graph answers the interprocedural questions the
per-function rules cannot:

* **contains-collective closure** — which functions (transitively)
  execute a collective, computed as a fixpoint over bare-name call
  edges; a call that resolves into the closure counts as a collective
  for the rules (:func:`repro.analysis.rules.collective_op`) and is
  inlined by the footprint summaries — unless it hands the callee a
  one-rank communicator (``comm.solo()``; see
  :func:`repro.analysis.rules.is_private_call`);
* **rank-variant returns** — which functions return a value derived
  from the rank id, so assignments from their call sites can be
  rank-tainted in the caller;
* **rank-tainted parameters** — which callee parameters receive a
  rank-variant argument at some call site, so the callee's own
  branches on that parameter become visible to SPMD001/SPMD002.

Call edges are resolved by *bare name* (Python has no static types to
dispatch on), preferring same-module definitions and falling back to
the whole program; ambiguity resolves to the union of candidates, which
over-approximates — exactly the conservative direction a divergence
analysis wants.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from typing import TYPE_CHECKING, Iterator, Sequence

from .rules import (
    RANK_ATTRIBUTES,
    RANK_CALLS,
    _callable_name,
    direct_collective_op,
    is_private_call,
    is_rank_variant,
    walk_no_nested,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .spmdlint import FunctionContext, ModuleContext


def _control_rank_source(
    expr: ast.AST, extra_calls: frozenset[str] | set[str] = frozenset()
) -> bool:
    """Rank source in a *control position* of ``expr``?

    Does not descend into subscript slices or call arguments — there a
    rank id selects this rank's share of replicated data (``parts[
    comm.rank]``, ``unpack(comm.rank, ...)``) rather than flowing into
    the value's control role.
    """
    stack = [expr]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Attribute) and n.attr in RANK_ATTRIBUTES:
            return True
        if isinstance(n, ast.Call):
            name = _callable_name(n.func)
            if name in RANK_CALLS or name in extra_calls:
                return True
            continue  # rank ids as call arguments are data selection
        if isinstance(n, ast.Subscript):
            stack.append(n.value)
            continue  # rank ids as indices are data selection
        stack.extend(ast.iter_child_nodes(n))
    return False


def _call_sites(fn: "FunctionContext") -> Iterator[ast.Call]:
    for node in walk_no_nested(fn.node):
        if isinstance(node, ast.Call):
            yield node


class CallGraph:
    """Bare-name call graph plus the interprocedural fixpoints."""

    def __init__(self, modules: Sequence["ModuleContext"]) -> None:
        self.modules = list(modules)
        self.functions: list["FunctionContext"] = [
            fn for m in self.modules for fn in m.functions
        ]
        self._by_name: dict[str, list["FunctionContext"]] = defaultdict(list)
        for fn in self.functions:
            self._by_name[fn.name].append(fn)
        self._callees: dict[int, list[tuple[str, ast.Call]]] = {}
        self._contains: set[int] = set()
        self._rank_returning: set[int] = set()
        self._closed = False

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolve(
        self, name: str, module: "ModuleContext"
    ) -> list["FunctionContext"]:
        """Candidate definitions for a call to ``name`` seen in ``module``.

        Same-module definitions shadow program-wide ones: a test file's
        local ``worker`` never resolves to another file's ``worker``.
        """
        candidates = self._by_name.get(name, [])
        local = [fn for fn in candidates if fn.module is module]
        return local if local else candidates

    def callee_names(self, fn: "FunctionContext") -> list[tuple[str, ast.Call]]:
        key = id(fn)
        if key not in self._callees:
            out = []
            for call in _call_sites(fn):
                name = _callable_name(call.func)
                if name is not None:
                    out.append((name, call))
            self._callees[key] = out
        return self._callees[key]

    # ------------------------------------------------------------------
    # contains-collective closure
    # ------------------------------------------------------------------
    def _compute_closure(self) -> None:
        if self._closed:
            return
        # Seed: functions with a direct collective call.
        for fn in self.functions:
            for node in walk_no_nested(fn.node):
                if direct_collective_op(node, fn) is not None:
                    self._contains.add(id(fn))
                    break
        # Propagate over call edges until stable.
        changed = True
        while changed:
            changed = False
            for fn in self.functions:
                if id(fn) in self._contains:
                    continue
                for name, call in self.callee_names(fn):
                    if not is_private_call(call, fn) and any(
                        id(g) in self._contains
                        for g in self.resolve(name, fn.module)
                    ):
                        self._contains.add(id(fn))
                        changed = True
                        break
        self._closed = True

    def contains_collective(self, fn: "FunctionContext") -> bool:
        """True if ``fn`` (transitively) executes a collective."""
        self._compute_closure()
        return id(fn) in self._contains

    # ------------------------------------------------------------------
    # interprocedural rank taint
    # ------------------------------------------------------------------
    def _returns_rank_variant(self, fn: "FunctionContext") -> bool:
        """Does ``fn`` return a value derived from the *rank id*?

        Deliberately narrower than the intra-function taint: a rank
        source only counts in a *control position* of the return
        expression.  ``return comm.rank == 0`` (a predicate helper)
        makes every caller's branches rank-variant, but ``return
        parts[comm.rank]`` or ``return unpack(comm.rank, ...)`` merely
        *selects this rank's share* of replicated data — SPMD code
        returns rank-local data by design, and counting those would
        flood the whole program with taint.
        """
        for node in walk_no_nested(fn.node):
            if isinstance(node, ast.Return) and node.value is not None:
                if _control_rank_source(
                    node.value, fn.interproc_rank_calls
                ):
                    return True
        return False

    @staticmethod
    def _param_names(fn: "FunctionContext") -> list[str]:
        args = fn.node.args
        return [a.arg for a in [*args.posonlyargs, *args.args]]

    def _propagate_call_taint(self) -> bool:
        """One round of arg->param and return->assignment taint. Returns
        True if any function's taint grew."""
        changed = False
        for fn in self.functions:
            if not fn.is_spmd:
                continue
            for name, call in self.callee_names(fn):
                candidates = self.resolve(name, fn.module)
                if not candidates:
                    continue
                # return-value taint: calls to rank-returning functions
                # behave like RANK_CALLS in the caller's taint pass.
                if (
                    any(id(g) in self._rank_returning for g in candidates)
                    and name not in fn.interproc_rank_calls
                ):
                    fn.interproc_rank_calls.add(name)
                    changed = True
                # argument taint: rank-variant actuals taint the formal.
                for g in candidates:
                    params = self._param_names(g)
                    offset = 0
                    if params and params[0] in ("self", "cls"):
                        # method-form call: receiver fills self/cls
                        if isinstance(call.func, ast.Attribute):
                            offset = 1
                    for i, arg in enumerate(call.args):
                        slot = i + offset
                        if slot >= len(params):
                            break
                        if (
                            params[slot] not in g.rank_tainted
                            and is_rank_variant(arg, fn)
                        ):
                            g.rank_tainted.add(params[slot])
                            changed = True
                    for kw in call.keywords:
                        if (
                            kw.arg is not None
                            and kw.arg in params
                            and kw.arg not in g.rank_tainted
                            and is_rank_variant(kw.value, fn)
                        ):
                            g.rank_tainted.add(kw.arg)
                            changed = True
        return changed

    def augment_rank_taint(self, max_rounds: int = 10) -> None:
        """Fixpoint of interprocedural rank taint over the program.

        After this, every :class:`FunctionContext`'s ``rank_tainted``
        set and ``interproc_rank_calls`` reflect rank variance flowing
        through call arguments and return values, so the rules and the
        footprint summaries see across function boundaries for free.
        """
        for _ in range(max_rounds):
            for fn in self.functions:
                if fn.is_spmd and self._returns_rank_variant(fn):
                    self._rank_returning.add(id(fn))
            changed = self._propagate_call_taint()
            # Re-run the local assignment taint so new param/call taint
            # flows through assignment chains inside each function.
            for fn in self.functions:
                if fn.is_spmd:
                    fn.rebuild_taint()
            if not changed:
                break

    def rank_returning_names(self) -> frozenset[str]:
        """Bare names of functions whose return value is rank-variant."""
        return frozenset(
            fn.name for fn in self.functions if id(fn) in self._rank_returning
        )
