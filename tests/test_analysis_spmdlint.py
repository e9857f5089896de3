"""spmdlint: fixtures trigger, near-misses stay quiet, CLI gates."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.analysis import (
    RULES,
    SEVERITIES,
    SEVERITY_ORDER,
    lint_paths,
    rule,
    spmdlint,
)
from repro.cli import main as cli_main

CASES_DIR = Path(__file__).parent / "data" / "lint_cases"
REPO_ROOT = Path(__file__).parent.parent
#: Every ``(file, rule, line, col)`` finding over ``CASES_DIR``; rewrite
#: with ``python -m tests.test_analysis_spmdlint`` after an intended move.
FINDINGS_GOLDEN = Path(__file__).parent / "data" / "lint_findings.json"

RULE_IDS = ("SPMD101", "SPMD102", "SPMD103", "SPMD104", "SPMD201")


def rules_found(path: Path) -> set[str]:
    return {f.rule for f in lint_paths([path]).findings}


def fixture_findings() -> list[list]:
    """``[file, rule, line, col]`` of every finding, each fixture linted
    as its own one-module program."""
    return [
        [path.name, f.rule, f.line, f.col + 1]
        for path in sorted(CASES_DIR.glob("*.py"))
        for f in lint_paths([path]).findings
    ]


class TestFixtures:
    def test_every_finding_matches_the_golden(self):
        assert fixture_findings() == json.loads(FINDINGS_GOLDEN.read_text())

    def test_findings_are_unique(self):
        # One finding per (file, rule, line, col), however many of the
        # rule's checks reach the node (both keys of one id()-keyed dict).
        findings = [tuple(row) for row in fixture_findings()]
        assert len(findings) == len(set(findings))

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_bad_fixture_triggers_exactly_its_rule(self, rule_id):
        path = CASES_DIR / f"bad_{rule_id.lower()}.py"
        assert rules_found(path) == {rule_id}

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_near_miss_is_quiet(self, rule_id):
        path = CASES_DIR / f"ok_{rule_id.lower()}.py"
        assert rules_found(path) == set()

    def test_findings_carry_location_and_severity(self):
        result = lint_paths([CASES_DIR / "bad_spmd201.py"])
        assert result.files_checked == 1
        # A set call, a set display and a generator, one per line.
        assert [f.line for f in result.findings] == [7, 8, 9]
        for f in result.findings:
            assert f.rule == "SPMD201"
            assert f.severity == "error"
            assert str(f.path).endswith("bad_spmd201.py")
            assert "sending a" in f.message
        formatted = result.findings[0].format()
        assert "bad_spmd201.py" in formatted
        assert "SPMD201 [error]" in formatted


class TestSuppression:
    def test_targeted_and_bare_ignores_silence_matching_rules(self):
        # suppressed.py has three violations: two silenced, one with a
        # non-matching rule id that must still be reported.
        result = lint_paths([CASES_DIR / "suppressed.py"])
        assert [f.rule for f in result.findings] == ["SPMD101"]

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
        module = spmdlint.ModuleContext(mod, mod.read_text(), str(mod))
        spmd = {f.node.name: f.is_spmd for f in module.functions}
        assert spmd == {"relabel": False, "reduce": True}

    def test_github_format(self):
        result = lint_paths([CASES_DIR / "bad_spmd201.py"])
        out = result.format_github()
        assert "::error file=" in out
        assert "title=SPMD201" in out
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
            rule("SPMD101", "error", "clash")(lambda fn: iter(()))

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            rule("SPMD998", "fatal", "bad severity")(lambda fn: iter(()))


class TestCli:
    def test_fail_on_gating(self, capsys):
        bad = str(CASES_DIR / "bad_spmd201.py")
        assert cli_main(["lint", bad, "--fail-on", "error"]) == 1
        assert cli_main(["lint", bad, "--fail-on", "never"]) == 0
        capsys.readouterr()

    def test_warning_threshold(self, capsys):
        bad = str(CASES_DIR / "bad_spmd104.py")  # SPMD104 is info
        assert cli_main(["lint", bad, "--fail-on", "info"]) == 1
        assert cli_main(["lint", bad, "--fail-on", "warning"]) == 0
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
        bad = str(CASES_DIR / "bad_spmd201.py")
        assert cli_main(["lint", bad, "--select", "SPMD999"]) == 2
        assert "SPMD999" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert cli_main(["lint", ".", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out

    def test_github_format_flag(self, capsys):
        bad = str(CASES_DIR / "bad_spmd201.py")
        assert cli_main(["lint", bad, "--format", "github",
                         "--fail-on", "never"]) == 0
        assert "::error file=" in capsys.readouterr().out


class TestToolingConfig:
    """The satellite lint gate is config-only locally (ruff/mypy run in
    CI); pin the wiring so it cannot silently disappear."""

    def test_pyproject_has_ruff_and_mypy_sections(self):
        text = (REPO_ROOT / "pyproject.toml").read_text()
        assert "[tool.ruff]" in text
        assert "[tool.mypy]" in text
        assert 'extend-exclude = ["tests/data"]' in text
        assert "repro.analysis.*" in text
        # No module of the package is gone but still named.
        for module in re.findall(r"repro\.analysis\.(\w+)", text):
            assert (REPO_ROOT / "src/repro/analysis" / f"{module}.py").exists()

    def test_ci_runs_lint_job(self):
        text = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert "repro-louvain lint src/ benchmarks/ examples/ tests/" in text
        assert "--exclude 'tests/data/*'" in text
        assert "--fail-on error" in text
        # The schedule matrix and its artifact went with the summaries.
        assert "schedule-report" not in text
        assert "ruff check ." in text
        assert "mypy -p repro.analysis" in text


if __name__ == "__main__":
    FINDINGS_GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(r) for r in fixture_findings()) + "\n]\n"
    )
