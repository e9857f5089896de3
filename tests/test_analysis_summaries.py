"""Collective-footprint summaries: algebra, guards, schedule matrix."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.spmdlint import build_program
from repro.analysis.summaries import (
    Alt,
    Coll,
    Seq,
    Star,
    alt,
    config_fields_in,
    divergences,
    evaluate,
    op_counter,
    schedule_guarding_fields,
    schedule_matrix,
    seq,
    signature,
    star,
)
from repro.core.config import LouvainConfig

REPO_ROOT = Path(__file__).parent.parent
#: ``src/``'s schedule-matrix rows; rewrite with ``python -m
#: tests.test_analysis_summaries`` after an intended schedule change.
SCHEDULE_GOLDEN = Path(__file__).parent / "data" / "schedule_matrix.json"
GOLDEN_KEYS = ("config", "label", "signature", "collectives", "divergence_free")


def golden_rows(report):
    return [{k: row[k] for k in GOLDEN_KEYS} for row in report["rows"]]


def src_report():
    return schedule_matrix(build_program([REPO_ROOT / "src"]).analysis)


def program_from(tmp_path, source):
    mod = tmp_path / "mod.py"
    mod.write_text(textwrap.dedent(source))
    return build_program([mod])


def summary_of(tmp_path, source, name):
    program = program_from(tmp_path, source)
    fn = next(
        f for m in program.modules for f in m.functions if f.name == name
    )
    return program.analysis.summary(fn)


class TestAlgebra:
    def test_seq_flattens_and_drops_empty(self):
        fp = seq([Coll("a"), seq([Coll("b"), Seq(())])])
        assert fp.key() == "a,b"

    def test_empty_star_vanishes(self):
        assert star(Seq(()), False).key() == ""

    def test_star_key_marks_repetition(self):
        assert star(Coll("bcast"), False).key() == "(bcast)*"

    def test_data_alt_with_identical_options_collapses(self):
        assert alt((Coll("a"), Coll("a")), "data").key() == "a"

    def test_config_alt_keeps_field_visibility(self):
        fp = alt((Coll("a"), Coll("a")), "config", fields=frozenset({"f"}))
        assert isinstance(fp, Alt)
        assert fp.key() == "{a|a}c"
        assert config_fields_in(fp) == {"f"}
        # ...but an unchanged schedule is not "guarding".
        assert schedule_guarding_fields(fp) == frozenset()

    def test_op_counter_counts_static_sites(self):
        fp = seq(
            [
                Coll("barrier"),
                star(Coll("allreduce"), False),
                alt((Coll("bcast"), Seq(())), "config",
                    fields=frozenset({"f"})),
            ]
        )
        assert dict(op_counter(fp)) == {
            "barrier": 1,
            "allreduce": 1,
            "bcast": 1,
        }

    def test_signature_is_stable_and_key_based(self):
        a = seq([Coll("barrier"), Coll("allreduce")])
        b = seq([Coll("barrier"), Coll("allreduce")])
        assert signature(a) == signature(b)
        assert signature(a) != signature(Coll("barrier"))


WORKED = """
def helper(comm, x):
    return comm.allreduce(x)

def entry(comm, config, x):
    comm.barrier()
    if config.use_coloring:
        x = helper(comm, x)
    for _ in range(3):
        comm.bcast(x)
    et = object() if config.use_coloring else None
    if et is not None:
        comm.allgather(x)
    return x
"""


class TestGuardsAndInlining:
    def test_callee_inlined_and_guards_classified(self, tmp_path):
        fp = summary_of(tmp_path, WORKED, "entry")
        # helper's allreduce is inlined; both the direct config test and
        # the `x if config.f else None` + `is not None` idiom classify
        # as config alternations.
        assert fp.key() == "barrier,{|allreduce}c,(bcast)*,{|allgather}c"
        assert config_fields_in(fp) == {"use_coloring"}
        assert schedule_guarding_fields(fp) == {"use_coloring"}
        assert divergences(fp) == []

    def test_evaluate_resolves_config_alts(self, tmp_path):
        fp = summary_of(tmp_path, WORKED, "entry")
        on = evaluate(fp, LouvainConfig(use_coloring=True))
        off = evaluate(fp, LouvainConfig(use_coloring=False))
        assert on.key() == "barrier,allreduce,(bcast)*,allgather"
        assert off.key() == "barrier,(bcast)*"
        assert signature(on) != signature(off)

    def test_property_chain_guard(self, tmp_path):
        fp = summary_of(
            tmp_path,
            """
            def entry(comm, config, x):
                if config.variant.uses_inactive_exit:
                    comm.allreduce(x)
                return x
            """,
            "entry",
        )
        assert config_fields_in(fp) == {"variant"}
        from repro.core.config import Variant

        etc = evaluate(fp, LouvainConfig(variant=Variant.ETC))
        base = evaluate(fp, LouvainConfig(variant=Variant.BASELINE))
        assert "allreduce" in etc.key()
        assert "allreduce" not in base.key()

    def test_rank_guard_divergence_reported(self, tmp_path):
        fp = summary_of(
            tmp_path,
            """
            def helper(comm, x):
                return comm.allreduce(x)

            def entry(comm, x):
                if comm.rank % 2 == 0:
                    x = helper(comm, x)
                return x
            """,
            "entry",
        )
        divs = divergences(fp)
        assert len(divs) == 1
        assert divs[0].kind == "branch"
        assert "allreduce" in divs[0].describe()

    def test_rank_variant_loop_divergence(self, tmp_path):
        fp = summary_of(
            tmp_path,
            """
            def entry(comm, x):
                for _ in range(comm.rank):
                    comm.allreduce(x)
                return x
            """,
            "entry",
        )
        divs = divergences(fp)
        assert len(divs) == 1
        assert divs[0].kind == "loop"

    def test_recursion_cuts_off_as_opaque(self, tmp_path):
        fp = summary_of(
            tmp_path,
            """
            def recur(comm, x):
                comm.barrier()
                return recur(comm, x)
            """,
            "recur",
        )
        assert fp.key() == "barrier,?recur"
        # Opaque survives evaluation untouched.
        assert evaluate(fp, LouvainConfig()).key() == "barrier,?recur"

    def test_unresolvable_guard_degrades_to_data(self, tmp_path):
        fp = summary_of(
            tmp_path,
            """
            def entry(comm, flag, x):
                if flag:
                    comm.barrier()
                return x
            """,
            "entry",
        )
        assert config_fields_in(fp) == frozenset()
        # Data alternations are conservative: not rank divergence, but
        # not resolvable either.
        assert divergences(fp) == []
        assert "barrier" in fp.key()


class TestScheduleMatrix:
    @pytest.fixture(scope="class")
    def report(self):
        return src_report()

    def test_rows_match_the_golden(self, report):
        assert golden_rows(report) == json.loads(SCHEDULE_GOLDEN.read_text())

    def test_every_search_space_variant_is_divergence_free(self, report):
        assert report["entry"] == "distributed_louvain"
        assert report["summary"]["divergence_free"] is True
        # No heuristic variant guards a collective any more (ETC's
        # inactive count rides the modularity allreduce), so the space
        # projects onto coloring x refine alone: four rows, each its
        # own schedule.
        assert report["summary"]["variants"] == 4
        assert report["summary"]["distinct_schedules"] == 4
        for row in report["rows"]:
            assert row["divergence_free"], row
            assert "exscan" not in row["collectives"]

    def test_rows_project_onto_guarding_fields(self, report):
        fields = report["config_fields"]
        # One schedule for every variant: ``variant`` selects what a
        # sweep computes, never whether a collective is issued.
        assert "variant" not in fields
        assert {"use_coloring", "refine"} <= set(fields)
        for row in report["rows"]:
            assert set(row["config"]) == set(fields)
            assert row["collectives"]

    def test_distinct_schedules_have_distinct_signatures(self, report):
        sigs = {row["signature"] for row in report["rows"]}
        assert len(sigs) == report["summary"]["distinct_schedules"]

    def test_report_is_json_serialisable(self, report):
        text = json.dumps(report, sort_keys=True)
        assert "distributed_louvain" in text

    def test_unknown_entry_raises(self):
        program = build_program([REPO_ROOT / "src" / "repro"])
        with pytest.raises(ValueError, match="no_such_entry"):
            schedule_matrix(program.analysis, entry="no_such_entry")


class TestInterproceduralTaint:
    def test_rank_predicate_helper_taints_caller(self, tmp_path):
        program = program_from(
            tmp_path,
            """
            def is_root(comm):
                return comm.rank == 0

            def entry(comm, x):
                if is_root(comm):
                    comm.barrier()
                return x
            """,
        )
        from repro.analysis.spmdlint import lint_paths

        result = lint_paths([tmp_path / "mod.py"])
        assert "SPMD001" in {f.rule for f in result.findings}

    def test_data_selection_return_does_not_taint(self, tmp_path):
        # Returning this rank's *share* of replicated data is the SPMD
        # norm; it must not mark the helper rank-returning.
        program = program_from(
            tmp_path,
            """
            def my_share(comm, parts):
                return parts[comm.rank]

            def entry(comm, parts):
                share = my_share(comm, parts)
                if share is not None:
                    comm.barrier()
                comm.barrier()
                return share
            """,
        )
        assert program.callgraph.rank_returning_names() == frozenset()

    def test_rank_argument_taints_callee_parameter(self, tmp_path):
        program = program_from(
            tmp_path,
            """
            def inner(comm, who, x):
                if who == 0:
                    comm.barrier()
                return x

            def entry(comm, x):
                return inner(comm, comm.rank, x)
            """,
        )
        from repro.analysis.spmdlint import lint_paths

        result = lint_paths([tmp_path / "mod.py"])
        findings = {f.rule for f in result.findings}
        assert "SPMD001" in findings


if __name__ == "__main__":
    SCHEDULE_GOLDEN.write_text(
        json.dumps(golden_rows(src_report()), indent=1, sort_keys=True) + "\n"
    )
