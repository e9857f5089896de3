"""Unit tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.resultio import read_communities_text, load_result
from repro.generators import SCALES
from repro.graph import EdgeList, read_header
from repro.graph.textio import write_snap_edgelist


class TestGenerate:
    def test_writes_binary(self, tmp_path, capsys):
        out = str(tmp_path / "g.bin")
        assert main(["generate", "channel", out, "--scale", "tiny"]) == 0
        header = read_header(out)
        assert header.num_vertices > 0
        assert "stand-in for channel" in capsys.readouterr().out

    def test_unknown_dataset(self, tmp_path):
        with pytest.raises(KeyError):
            main(["generate", "nope", str(tmp_path / "g.bin")])

    def test_seed_changes_output(self, tmp_path):
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        main(["generate", "com-orkut", a, "--scale", "tiny", "--seed", "1"])
        main(["generate", "com-orkut", b, "--scale", "tiny", "--seed", "2"])
        assert open(a, "rb").read() != open(b, "rb").read()

    def test_scale_choices_are_the_registry_scales(self, capsys):
        # Parsed, not generated: "large" is for benchmarks and the CLI.
        parser = build_parser()
        for scale in SCALES:
            args = parser.parse_args(["generate", "channel", "g.bin", "--scale", scale])
            assert args.scale == scale
        with pytest.raises(SystemExit):
            parser.parse_args(["generate", "channel", "g.bin", "--scale", "huge"])
        assert "'large'" in capsys.readouterr().err


class TestConvertInfo:
    def test_convert_and_info(self, tmp_path, capsys):
        src = tmp_path / "g.txt"
        el = EdgeList.from_arrays(4, [0, 1, 2], [1, 2, 3])
        write_snap_edgelist(src, el)
        dst = str(tmp_path / "g.bin")
        assert main(["convert", str(src), dst]) == 0
        assert main(["info", dst]) == 0
        out = capsys.readouterr().out
        assert "n=4" in out


class TestDetect:
    @pytest.fixture
    def graph_file(self, tmp_path):
        from tests.conftest import planted_blocks_graph
        from repro.graph import write_edgelist

        g = planted_blocks_graph(
            blocks=4, per_block=10, p_in=0.8, inter_edges=6, seed=3
        )
        path = str(tmp_path / "g.bin")
        write_edgelist(path, EdgeList.from_csr(g))
        return path

    def test_detect_writes_outputs(self, tmp_path, capsys, graph_file):
        comm_file = str(tmp_path / "c.txt")
        npz_file = str(tmp_path / "r.npz")
        rc = main([
            "detect", graph_file, "--ranks", "2",
            "--variant", "etc", "--alpha", "0.25",
            "--out", comm_file, "--save", npz_file, "--trace",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ETC(0.25) on 2 ranks" in out
        assert "trace over 2 rank(s)" in out
        assignment = read_communities_text(comm_file)
        assert len(assignment) == 40
        result = load_result(npz_file)
        assert result.modularity > 0.5

    def test_detect_chrome_trace(self, tmp_path, graph_file, capsys):
        import json

        out = str(tmp_path / "timeline.json")
        rc = main([
            "detect", graph_file, "--ranks", "2", "--chrome-trace", out,
        ])
        assert rc == 0
        doc = json.load(open(out))
        assert doc["traceEvents"]
        assert "Perfetto" in capsys.readouterr().out

    def test_detect_with_coloring_and_resolution(self, graph_file, capsys):
        rc = main([
            "detect", graph_file, "--ranks", "2", "--coloring",
            "--resolution", "1.5",
        ])
        assert rc == 0
        assert "Baseline" in capsys.readouterr().out


class TestCheckpointCli:
    @pytest.fixture
    def graph_file(self, tmp_path):
        from tests.conftest import planted_blocks_graph
        from repro.graph import write_edgelist

        g = planted_blocks_graph(
            blocks=4, per_block=10, p_in=0.8, inter_edges=6, seed=3
        )
        path = str(tmp_path / "g.bin")
        write_edgelist(path, EdgeList.from_csr(g))
        return path

    def test_detect_checkpoint_then_resume(self, tmp_path, capsys, graph_file):
        ck = str(tmp_path / "ck")
        rc = main([
            "detect", graph_file, "--ranks", "2", "--variant", "etc",
            "--checkpoint-dir", ck,
        ])
        assert rc == 0
        first = capsys.readouterr().out
        rc = main([
            "detect", graph_file, "--ranks", "2", "--variant", "etc",
            "--checkpoint-dir", ck, "--resume",
        ])
        assert rc == 0
        resumed = capsys.readouterr().out
        # same Q= summary line: the resumed run reproduces the original
        assert first.splitlines()[0] == resumed.splitlines()[0]

    def test_resume_requires_checkpoint_dir(self, graph_file, capsys):
        rc = main(["detect", graph_file, "--ranks", "2", "--resume"])
        assert rc == 1
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_ckpt_list_and_validate(self, tmp_path, capsys, graph_file):
        ck = str(tmp_path / "ck")
        main(["detect", graph_file, "--ranks", "2", "--checkpoint-dir", ck,
              "--checkpoint-every-iterations", "1"])
        capsys.readouterr()
        assert main(["ckpt", "list", ck]) == 0
        listed = capsys.readouterr().out
        assert "phase checkpoint" in listed
        # The last phase's boundary checkpoint and the delta extending it.
        full, delta = listed.splitlines()
        assert ", full" in full
        assert f", delta of {full.split(':')[0]}" in delta
        assert main(["ckpt", "validate", ck]) == 0
        assert "2/2 checkpoint(s) valid" in capsys.readouterr().out

    def test_ckpt_validate_reports_delta_with_bad_base(
        self, tmp_path, capsys, graph_file
    ):
        from repro.resilience import corrupt_checkpoint_shard, scan_checkpoints

        ck = str(tmp_path / "ck")
        main(["detect", graph_file, "--ranks", "2", "--checkpoint-dir", ck,
              "--checkpoint-every-iterations", "1"])
        capsys.readouterr()
        (base_name, base, _), (delta_name, delta, _) = scan_checkpoints(ck)
        assert delta.base.step == base_name
        corrupt_checkpoint_shard(base.shard_path(1), seed=0)
        assert main(["ckpt", "validate", ck]) == 1
        out = capsys.readouterr().out
        assert f"{base_name}: INVALID" in out
        # The delta's own shards are intact; its base is what fails.
        assert f"{delta_name}: INVALID (base {base_name}: " in out
        assert "0/2 checkpoint(s) valid" in out

    def test_ckpt_validate_detects_corruption(self, tmp_path, capsys,
                                              graph_file):
        from repro.resilience import corrupt_checkpoint_shard, scan_checkpoints

        ck = str(tmp_path / "ck")
        main(["detect", graph_file, "--ranks", "2", "--checkpoint-dir", ck])
        capsys.readouterr()
        for _name, manifest, _err in scan_checkpoints(ck):
            corrupt_checkpoint_shard(manifest.shard_path(0), seed=0)
        assert main(["ckpt", "validate", ck]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_ckpt_empty_directory(self, tmp_path, capsys):
        empty = str(tmp_path / "nothing")
        assert main(["ckpt", "list", empty]) == 0
        assert main(["ckpt", "validate", empty]) == 1
        assert "no checkpoints found" in capsys.readouterr().out


class TestCompare:
    def test_compare_scores(self, tmp_path, capsys):
        det = tmp_path / "d.txt"
        tru = tmp_path / "t.txt"
        det.write_text("0 0\n1 0\n2 1\n3 1\n")
        tru.write_text("0 0\n1 0\n2 1\n3 1\n")
        assert main(["compare", str(det), str(tru)]) == 0
        out = capsys.readouterr().out
        assert "F-score=1.000000" in out
        assert "NMI=1.000000" in out

    def test_compare_length_mismatch(self, tmp_path, capsys):
        det = tmp_path / "d.txt"
        tru = tmp_path / "t.txt"
        det.write_text("0 0\n")
        tru.write_text("0 0\n1 1\n")
        assert main(["compare", str(det), str(tru)]) == 1
        assert "error" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_bad_variant_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["detect", "x.bin", "--variant", "magic"])


class TestServiceCli:
    @pytest.fixture
    def graph_file(self, tmp_path):
        from tests.conftest import planted_blocks_graph
        from repro.graph import write_edgelist

        g = planted_blocks_graph(
            blocks=4, per_block=10, p_in=0.8, inter_edges=6, seed=3
        )
        path = str(tmp_path / "g.bin")
        write_edgelist(path, EdgeList.from_csr(g))
        return path

    def test_submit_basic(self, tmp_path, capsys, graph_file):
        npz = str(tmp_path / "r.npz")
        rc = main([
            "submit", graph_file, "--ranks", "2", "--seed", "1",
            "--save", npz,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "done" in out
        assert load_result(npz).num_communities > 0

    def test_submit_disk_cache_hit(self, tmp_path, capsys, graph_file):
        cache = str(tmp_path / "cache")
        argv = [
            "submit", graph_file, "--ranks", "2", "--cache-dir", cache,
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "cache hit" not in first
        # A second process-level invocation is served from disk.
        assert main(argv) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_serve_jobs_file(self, tmp_path, capsys, graph_file):
        import json

        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([
            {"graph": graph_file, "ranks": 2, "tag": "a"},
            {"graph": graph_file, "ranks": 2, "repeat": 2,
             "config": {"seed": 1}, "priority": 5, "tag": "b"},
        ]))
        metrics_file = str(tmp_path / "m.json")
        rc = main([
            "serve", str(jobs), "--workers", "2",
            "--metrics", metrics_file,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("done") >= 3
        assert "service metrics" in out
        snapshot = json.loads(open(metrics_file).read())
        assert snapshot["counters"]["completed"] == 3

    def test_serve_bad_config_key(self, tmp_path, capsys, graph_file):
        import json

        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([
            {"graph": graph_file, "config": {"warp_speed": True}},
        ]))
        assert main(["serve", str(jobs)]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_serve_rejects_non_list(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.json"
        jobs.write_text('{"graph": "x"}')
        assert main(["serve", str(jobs)]) == 2


class TestTuneCli:
    @pytest.fixture
    def graph_file(self, tmp_path):
        from tests.conftest import planted_blocks_graph
        from repro.graph import write_edgelist

        g = planted_blocks_graph(
            blocks=4, per_block=10, p_in=0.8, inter_edges=6, seed=3
        )
        path = str(tmp_path / "g.bin")
        write_edgelist(path, EdgeList.from_csr(g))
        return path

    def test_tune_then_db_hit(self, tmp_path, capsys, graph_file):
        db = str(tmp_path / "tune.json")
        argv = [
            "tune", graph_file, "--db", db, "--trials", "3",
            "--max-ranks", "2",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "plan stored" in first
        assert "rung" in first
        # Second process-level invocation: pure DB hit, zero trials.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "database hit" in second
        assert "no trials run" in second

    def test_tune_json_report(self, tmp_path, capsys, graph_file):
        import json

        db = str(tmp_path / "tune.json")
        report = str(tmp_path / "report.json")
        rc = main([
            "tune", graph_file, "--db", db, "--trials", "3",
            "--max-ranks", "2", "--format", "json", "--report", report,
        ])
        assert rc == 0
        doc = json.loads(open(report).read())
        assert doc["cached"] is False
        assert doc["record"]["ranks"] >= 1
        assert doc["candidates_screened"] <= 3

    def test_tune_force_reruns(self, tmp_path, capsys, graph_file):
        db = str(tmp_path / "tune.json")
        base = ["tune", graph_file, "--db", db, "--trials", "3",
                "--max-ranks", "2"]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--force"]) == 0
        assert "plan stored" in capsys.readouterr().out

    def test_tune_unknown_machine(self, graph_file, capsys):
        rc = main(["tune", graph_file, "--machine", "cray-1"])
        assert rc == 2
        assert "unknown machine" in capsys.readouterr().err

    def test_tune_bad_trials(self, graph_file, capsys):
        assert main(["tune", graph_file, "--trials", "0"]) == 2

    def test_submit_with_tune_db(self, tmp_path, capsys, graph_file):
        db = str(tmp_path / "tune.json")
        assert main([
            "tune", graph_file, "--db", db, "--trials", "3",
            "--max-ranks", "2",
        ]) == 0
        capsys.readouterr()
        rc = main(["submit", graph_file, "--tune-db", db])
        assert rc == 0
        assert "(tuned)" in capsys.readouterr().out


class TestMultiResolution:
    @pytest.fixture
    def graph_file(self, tmp_path):
        from tests.conftest import planted_blocks_graph
        from repro.graph import write_edgelist

        g = planted_blocks_graph(
            blocks=4, per_block=10, p_in=0.8, inter_edges=6, seed=3
        )
        path = str(tmp_path / "g.bin")
        write_edgelist(path, EdgeList.from_csr(g))
        return path

    def test_sweep_prints_one_line_per_level(self, graph_file, capsys):
        rc = main([
            "detect", graph_file, "--ranks", "2",
            "--resolutions", "0.5,1.0,2.0",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resolution 0.5:" in out
        assert "resolution 1:" in out
        assert "resolution 2:" in out

    def test_sweep_writes_leveled_outputs(self, tmp_path, graph_file, capsys):
        comm = str(tmp_path / "c.txt")
        npz = str(tmp_path / "r.npz")
        rc = main([
            "detect", graph_file, "--ranks", "2",
            "--resolutions", "0.5,2.0", "--out", comm, "--save", npz,
        ])
        assert rc == 0
        for suffix in ("r0.5", "r2"):
            labels = read_communities_text(
                str(tmp_path / f"c.{suffix}.txt")
            )
            assert len(labels) == 40
            assert load_result(
                str(tmp_path / f"r.{suffix}.npz")
            ).num_communities > 0

    def test_bad_levels_rejected(self, graph_file, capsys):
        assert main([
            "detect", graph_file, "--resolutions", "fast,1.0",
        ]) == 2
        assert "resolutions" in capsys.readouterr().err

    def test_sweep_refuses_resume(self, graph_file, capsys):
        rc = main([
            "detect", graph_file, "--resolutions", "1.0", "--resume",
            "--checkpoint-dir", "/tmp/nope",
        ])
        assert rc == 1
        assert "--resolutions" in capsys.readouterr().err

    def test_heuristic_flags_accepted(self, graph_file, capsys):
        rc = main([
            "detect", graph_file, "--ranks", "2",
            "--refine", "leiden", "--vertex-following",
        ])
        assert rc == 0
        assert "Baseline" in capsys.readouterr().out

    def test_submit_shares_config_flags(self, tmp_path, graph_file, capsys):
        rc = main([
            "submit", graph_file, "--ranks", "2",
            "--resolution", "2.0", "--refine", "leiden",
            "--vertex-following",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "done" in out
