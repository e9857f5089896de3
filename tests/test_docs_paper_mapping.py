"""``docs/PAPER_MAPPING.md`` cites the code by name; every name it cites
must exist, so the mapping cannot rot.

A backticked span is a citation when it is a dotted name rooted in the
package (``repro.core.tail.gather_pays``, ``core.tail.gather_pays``), a
``Class.member`` of a class the package defines
(``DistGraph.build_ghost_plan``), or a bare private or class name
(``_world_round``, ``RunSnapshots``, but not ``C_info`` or
``MPI_COMM_SELF``); a trailing call (``(...)``,
``(checkpoints=)``) is dropped.  Anything else in backticks — a variable,
an expression, a path — is prose.  Names the section on what was tried
and removed cites on purpose are listed in :data:`REMOVED`.
"""

from __future__ import annotations

import builtins
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

MAPPING = Path(__file__).resolve().parents[1] / "docs" / "PAPER_MAPPING.md"

#: Cited as history: what the "tried and removed" section says is gone.
REMOVED = {
    "LouvainConfig.community_push_updates",
    "_lookup_sorted",
    "core.coarsen._lookup_sorted",
    "_send_requests",
    "_answer_requests",
    "GhostPlan.recv_ids",
    "GhostPlan.neighbor_ranks",
    "DistGraph.owner",
    "DistGraph.owner_of",
    "graph.distgraph.split_by_rank",
    "_CommunityView",
    "_positions",
    "_absorb",
    "IterationState.place",
    "_meta_edge_payloads",
    "_owner_counts",
    "core.coarsen.REBUILD_OPS",
    "core.distlouvain._END_OPS",
    "_stack_phase",
    "Communicator.world_call",
    "repro.runtime.comm.Script",
    "_relabel",
    "_apply_community_deltas",
    "repro.core.coloring.distributed_coloring",
    "_refine_phase",
    "_audit_phase",
    "_ends_in_world",
    "_end_phase",
    "_run_phases",
    "repro.core.distlouvain.louvain_phase_distributed",
    "_finish_on_one_rank",
    "_run_tail",
    "_gather_result",
    "_project",
}

_NAME = re.compile(r"^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*$")
_CALL = re.compile(r"\(.*\)$")
_CLASS = re.compile(r"^(?:[A-Z][a-z0-9]+)+$")


def _modules() -> dict[str, object]:
    found = {"repro": repro}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        found[info.name] = importlib.import_module(info.name)
    return found


MODULES = _modules()

#: Every class and function defined at module level in the package.
DEFINED: dict[str, list[object]] = {}
for _module in MODULES.values():
    for _name, _value in vars(_module).items():
        if getattr(_value, "__module__", None) == _module.__name__:
            DEFINED.setdefault(_name, []).append(_value)


def _citations() -> list[str]:
    names = []
    for span in re.findall(r"`([^`\n]+)`", MAPPING.read_text("utf-8")):
        name = _CALL.sub("", span)
        if not _NAME.match(name):
            continue
        head = name.split(".")[0]
        if (
            head == "repro"
            or f"repro.{head}" in MODULES
            or (head in DEFINED and "." in name)
            or (head == name and (name.startswith("_") or _CLASS.match(name)))
        ):
            names.append(name)
    return sorted(set(names))


def _has_member(owner: object, member: str) -> bool:
    if hasattr(owner, member):
        return True
    if dataclasses.is_dataclass(owner):
        if member in {f.name for f in dataclasses.fields(owner)}:
            return True
    if inspect.isclass(owner):
        # An attribute ``__init__`` (or another method) assigns.
        source = inspect.getsource(owner)
        return re.search(rf"self\.{member}\b\s*(:[^=]*)?=", source) is not None
    return False


def _resolves(name: str) -> bool:
    parts = name.split(".")
    if parts[0] != "repro" and f"repro.{parts[0]}" in MODULES:
        parts = ["repro", *parts]
    # The longest module prefix, then attributes.
    for cut in range(len(parts), 0, -1):
        module = MODULES.get(".".join(parts[:cut]))
        if module is not None:
            owners, rest = [module], parts[cut:]
            break
    else:
        owners, rest = DEFINED.get(parts[0], []), parts[1:]
        if not owners and hasattr(builtins, parts[0]):
            return not rest
    for member in rest:
        owners = [
            getattr(owner, member, owner)
            for owner in owners
            if _has_member(owner, member)
        ]
    return bool(owners)


CITED = _citations()


def test_the_mapping_cites_code():
    assert len(CITED) > 80
    assert "repro.core.tail.gather_pays" in CITED
    assert "DistGraph.build_ghost_plan" in CITED
    assert "_world_round" in CITED


@pytest.mark.parametrize("name", [n for n in CITED if n not in REMOVED])
def test_every_cited_name_resolves(name):
    assert _resolves(name), f"docs/PAPER_MAPPING.md cites {name!r}"


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_stay_removed_and_cited(name):
    assert name in CITED, f"{name!r} is no longer cited: drop it here"
    assert not _resolves(name), f"{name!r} exists again: cite it as live"


def _rebuild_steps() -> list[str]:
    """The world steps ``rebuild_world`` calls, in call order: the
    functions of ``core.coarsen`` whose docstring opens "Step k:"."""
    from repro.core import coarsen

    body = inspect.getsource(coarsen.rebuild_world).split('"""')[2]
    steps = []
    for name in re.findall(r"\b([a-z_]\w*)\(", body):
        fn = getattr(coarsen, name, None)
        doc = inspect.getdoc(fn) if inspect.isfunction(fn) else None
        if doc and re.match(r"Step \d:", doc):
            steps.append((int(doc[5]), name))
    in_order = steps == sorted(steps)
    return [name for _, name in steps] if in_order else []


def test_rebuild_rows_cite_the_seven_world_steps():
    # §IV-A(b)'s table has one row per step, and row k cites the world
    # step that runs step k — renaming, dropping or reordering a step in
    # ``rebuild_world`` fails here until the mapping follows.
    steps = _rebuild_steps()
    assert len(steps) == 7, steps
    text = MAPPING.read_text("utf-8")
    section = text.split("## §IV-A(b)")[1].split("\n## ")[0]
    rows = re.findall(r"^\| (\d) \(.*$", section, re.MULTILINE)
    assert rows == [str(k) for k in range(1, 8)]
    for k, name in enumerate(steps, start=1):
        row = re.search(rf"^\| {k} \(.*$", section, re.MULTILINE).group(0)
        assert f"`repro.core.coarsen.{name}`" in row, (k, name)
