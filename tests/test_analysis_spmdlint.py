"""spmdlint: fixtures trigger, near-misses stay quiet, CLI gates."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    RULES,
    SEVERITIES,
    SEVERITY_ORDER,
    build_program,
    lint_paths,
    rule,
    spmdlint,
)
from repro.analysis.rules import COLLECTIVE_METHODS
from repro.cli import main as cli_main

CASES_DIR = Path(__file__).parent / "data" / "lint_cases"
REPO_ROOT = Path(__file__).parent.parent

RULE_IDS = (
    "SPMD001",
    "SPMD002",
    "SPMD003",
    "SPMD101",
    "SPMD102",
    "SPMD103",
    "SPMD104",
    "SPMD201",
    "SPMD301",
    "SPMD302",
    "SPMD303",
)

#: Fixture stem -> the rule its ``bad_`` case must trigger.  SPMD004
#: (divergence through an inlined callee) was folded into SPMD001; its
#: fixtures stay as SPMD001's transitive-helper cases.  ``world_call``
#: moves no data but is a rendezvous, so skipping it is SPMD001 too.
#: ``solo``: a rank-guarded collective is SPMD001 on the world's
#: communicator and fine on the one-rank ``comm.solo()``.
FIXTURE_RULES = {rule_id: rule_id for rule_id in RULE_IDS} | {
    "SPMD004": "SPMD001",
    "WORLD_CALL": "SPMD001",
    "SOLO": "SPMD001",
}


def rules_found(path: Path) -> set[str]:
    return {f.rule for f in lint_paths([path]).findings}


class TestFixtures:
    @pytest.mark.parametrize("rule_id", FIXTURE_RULES)
    def test_bad_fixture_triggers_exactly_its_rule(self, rule_id):
        path = CASES_DIR / f"bad_{rule_id.lower()}.py"
        assert rules_found(path) == {FIXTURE_RULES[rule_id]}

    @pytest.mark.parametrize("rule_id", FIXTURE_RULES)
    def test_near_miss_is_quiet(self, rule_id):
        path = CASES_DIR / f"ok_{rule_id.lower()}.py"
        assert rules_found(path) == set()

    def test_findings_carry_location_and_severity(self):
        result = lint_paths([CASES_DIR / "bad_spmd001.py"])
        assert result.files_checked == 1
        # One rule reports every fork, around a bare collective or a
        # helper call (module-local helper at 56, nested closure at 66).
        assert [f.line for f in result.findings] == [
            9, 19, 28, 34, 40, 56, 66,
        ]
        for f in result.findings:
            assert f.rule == "SPMD001"
            assert f.severity == "error"
            assert f.line > 0
            assert str(f.path).endswith("bad_spmd001.py")
            assert "rank-dependent" in f.message
        formatted = result.findings[0].format()
        assert "bad_spmd001.py" in formatted
        assert "SPMD001 [error]" in formatted


class TestSuppression:
    def test_targeted_and_bare_ignores_silence_matching_rules(self):
        # suppressed.py has four violations: three silenced, one with a
        # non-matching rule id that must still be reported.
        result = lint_paths([CASES_DIR / "suppressed.py"])
        assert [f.rule for f in result.findings] == ["SPMD001"]

    def test_skip_file_silences_everything(self):
        assert rules_found(CASES_DIR / "skipped_file.py") == set()


class TestShippedTree:
    def test_src_repro_lints_clean(self):
        result = lint_paths([REPO_ROOT / "src" / "repro"])
        assert result.parse_errors == []
        assert result.files_checked > 40
        assert result.findings == []

    def test_widened_tree_lints_clean(self):
        # The CI gate: benchmarks, examples, and the test suite itself
        # (fault-injection fixtures carry explicit suppressions).
        result = lint_paths(
            [
                REPO_ROOT / "src",
                REPO_ROOT / "benchmarks",
                REPO_ROOT / "examples",
                REPO_ROOT / "tests",
            ],
            exclude=["tests/data/*"],
        )
        assert result.parse_errors == []
        assert result.findings == []


class TestEngine:
    def test_select_and_ignore(self):
        bad = sorted(CASES_DIR.glob("bad_*.py"))
        only = lint_paths(bad, select=["SPMD101"])
        assert {f.rule for f in only.findings} == {"SPMD101"}
        without = lint_paths(bad, ignore=["SPMD101"])
        assert "SPMD101" not in {f.rule for f in without.findings}

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="SPMD999"):
            lint_paths([CASES_DIR], select=["SPMD999"])

    def test_parse_error_is_reported_not_raised(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        result = lint_paths([broken])
        assert result.files_checked == 0
        assert len(result.parse_errors) == 1
        assert "broken.py" in result.parse_errors[0]

    def test_json_output_structure(self):
        result = lint_paths([CASES_DIR / "bad_spmd102.py"])
        doc = json.loads(result.to_json())
        assert doc["summary"]["total"] == len(doc["findings"]) == 3
        assert doc["summary"]["by_severity"] == {"error": 3}
        assert doc["summary"]["files_checked"] == 1
        first = doc["findings"][0]
        assert set(first) == {
            "rule", "severity", "path", "line", "col", "message",
        }

    def test_findings_sorted_by_location(self):
        result = lint_paths(sorted(CASES_DIR.glob("bad_*.py")))
        keys = [(f.path, f.line, f.col) for f in result.findings]
        assert keys == sorted(keys)

    def test_exclude_globs(self):
        full = lint_paths([CASES_DIR])
        filtered = lint_paths(
            [CASES_DIR], exclude=["bad_*.py", "suppressed.py"]
        )
        assert filtered.files_checked < full.files_checked
        assert filtered.findings == []

    def test_label_array_named_local_comm_is_not_a_communicator(self, tmp_path):
        # ``local_comm`` is the community-label array in core/; only a
        # ``comm`` parameter or a ``Communicator`` annotation makes a
        # function SPMD.
        mod = tmp_path / "labels.py"
        mod.write_text(
            "def relabel(local_comm, rank):\n"
            "    return local_comm + rank\n"
            "\n"
            "def reduce(comm: 'Communicator', x):\n"
            "    return comm.allreduce(x)\n"
        )
        program = build_program([mod])
        spmd = {f.name: f.is_spmd for f in program.modules[0].functions}
        assert spmd == {"relabel": False, "reduce": True}

    def test_github_format(self):
        result = lint_paths([CASES_DIR / "bad_spmd001.py"])
        out = result.format_github()
        assert "::error file=" in out
        assert "title=SPMD001" in out
        # The trailing summary line matches the text format's.
        assert out.splitlines()[-1] == result.format_text().splitlines()[-1]


class TestRegistry:
    def test_catalog_covers_all_fixture_rules(self):
        assert set(RULE_IDS) <= set(RULES)
        for r in RULES.values():
            assert r.severity in SEVERITIES
            assert r.scope in ("function", "module", "program")
            assert r.summary

    def test_severity_order_is_monotone(self):
        assert SEVERITY_ORDER["info"] < SEVERITY_ORDER["warning"]
        assert SEVERITY_ORDER["warning"] < SEVERITY_ORDER["error"]

    def test_duplicate_rule_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            rule("SPMD001", "error", "clash")(lambda fn: iter(()))

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            rule("SPMD998", "fatal", "bad severity")(lambda fn: iter(()))

    def test_collective_method_table_matches_runtime(self):
        from repro.runtime.comm import Communicator

        for name in COLLECTIVE_METHODS:
            assert hasattr(Communicator, name), name


class TestCli:
    def test_fail_on_gating(self, capsys):
        bad = str(CASES_DIR / "bad_spmd001.py")
        assert cli_main(["lint", bad, "--fail-on", "error"]) == 1
        assert cli_main(["lint", bad, "--fail-on", "never"]) == 0
        capsys.readouterr()

    def test_warning_threshold(self, capsys):
        bad = str(CASES_DIR / "bad_spmd002.py")  # SPMD002 is a warning
        assert cli_main(["lint", bad, "--fail-on", "warning"]) == 1
        assert cli_main(["lint", bad, "--fail-on", "error"]) == 0
        capsys.readouterr()

    def test_clean_tree_exits_zero(self, capsys):
        target = str(REPO_ROOT / "src" / "repro")
        assert cli_main(["lint", target, "--fail-on", "warning"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_json_format(self, capsys):
        bad = str(CASES_DIR / "bad_spmd101.py")
        assert cli_main(["lint", bad, "--format", "json",
                         "--fail-on", "never"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["total"] == 2

    def test_select_and_ignore_flags(self, capsys):
        bad = str(CASES_DIR / "bad_spmd201.py")
        assert cli_main(["lint", bad, "--select", "SPMD104",
                         "--fail-on", "warning"]) == 0
        assert cli_main(["lint", bad, "--ignore", "SPMD201",
                         "--fail-on", "warning"]) == 0
        capsys.readouterr()

    def test_unknown_rule_exits_two(self, capsys):
        bad = str(CASES_DIR / "bad_spmd001.py")
        assert cli_main(["lint", bad, "--select", "SPMD999"]) == 2
        assert "SPMD999" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert cli_main(["lint", ".", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out

    def test_github_format_flag(self, capsys):
        bad = str(CASES_DIR / "bad_spmd001.py")
        assert cli_main(["lint", bad, "--format", "github",
                         "--fail-on", "never"]) == 0
        assert "::error file=" in capsys.readouterr().out

    def test_schedule_report(self, tmp_path, capsys):
        target = str(REPO_ROOT / "src" / "repro")
        out_file = tmp_path / "schedule-report.json"
        assert cli_main(["lint", target, "--schedule-report",
                         str(out_file), "--fail-on", "error"]) == 0
        capsys.readouterr()
        doc = json.loads(out_file.read_text())
        assert doc["entry"] == "distributed_louvain"
        assert doc["summary"]["divergence_free"] is True
        # coloring x refine: no heuristic variant guards a collective.
        assert doc["summary"]["variants"] == 4
        for row in doc["rows"]:
            assert row["divergences"] == []
            assert row["collectives"]

    def test_one_program_per_invocation(self, tmp_path, capsys, monkeypatch):
        # The rules and the schedule matrix share one parsed program.
        built = []

        class Counting(spmdlint.ProgramContext):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(spmdlint, "ProgramContext", Counting)
        target = tmp_path / "entry.py"
        target.write_text(
            "def distributed_louvain(comm, config):\n"
            "    return comm.allreduce(1)\n"
        )
        out_file = tmp_path / "schedule-report.json"
        assert cli_main(["lint", str(target), "--schedule-report",
                         str(out_file), "--fail-on", "error"]) == 0
        assert "1 variant(s)" in capsys.readouterr().out
        assert len(built) == 1


class TestToolingConfig:
    """The satellite lint gate is config-only locally (ruff/mypy run in
    CI); pin the wiring so it cannot silently disappear."""

    def test_pyproject_has_ruff_and_mypy_sections(self):
        text = (REPO_ROOT / "pyproject.toml").read_text()
        assert "[tool.ruff]" in text
        assert "[tool.mypy]" in text
        assert 'extend-exclude = ["tests/data"]' in text
        assert "repro.analysis.*" in text
        # The whole-program analysis modules are held to strict checks.
        assert "repro.analysis.callgraph" in text
        assert "repro.analysis.summaries" in text
        assert "disallow_untyped_defs = true" in text

    def test_ci_runs_lint_job(self):
        text = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert "repro-louvain lint src/ benchmarks/ examples/ tests/" in text
        assert "--exclude 'tests/data/*'" in text
        assert "--schedule-report schedule-report.json" in text
        assert "--fail-on error" in text
        assert "name: schedule-report" in text
        assert "ruff check ." in text
        assert "mypy -p repro.analysis" in text
