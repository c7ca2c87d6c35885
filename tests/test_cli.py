"""Tests for the command-line interface."""

import pytest

from repro.cli import main, parse_size
from repro.exceptions import InputFormatError
from repro.graph.io_formats import read_edge_text, write_edge_text
from repro.graph.generators import cycle_graph


class TestParseSize:
    def test_plain_number(self):
        assert parse_size("4096") == 4096

    def test_suffixes(self):
        assert parse_size("64K") == 64 * 1024
        assert parse_size("4M") == 4 * 1024 * 1024
        assert parse_size("1G") == 1 << 30

    def test_lowercase_and_spaces(self):
        assert parse_size(" 2k ") == 2048

    def test_fractional(self):
        assert parse_size("0.5M") == 512 * 1024

    def test_invalid(self):
        with pytest.raises(InputFormatError):
            parse_size("lots")


class TestGenerate:
    def test_generate_text(self, tmp_path):
        out = tmp_path / "g.txt"
        code = main(["generate", "large-scc", str(out),
                     "--nodes", "300", "--seed", "3"])
        assert code == 0
        edges = list(read_edge_text(out))
        assert len(edges) > 300

    def test_generate_binary(self, tmp_path):
        out = tmp_path / "g.bin"
        code = main(["generate", "webspam", str(out),
                     "--nodes", "200", "--binary"])
        assert code == 0
        from repro.graph.io_formats import read_edge_binary

        assert len(list(read_edge_binary(out))) > 0

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["generate", "small-scc", str(a), "--nodes", "300", "--seed", "9"])
        main(["generate", "small-scc", str(b), "--nodes", "300", "--seed", "9"])
        assert a.read_text() == b.read_text()


class TestScc:
    @pytest.fixture
    def edge_path(self, tmp_path):
        path = tmp_path / "cycle.txt"
        write_edge_text(path, cycle_graph(50).edges)
        return path

    def test_scc_labels_file(self, tmp_path, edge_path, capsys):
        labels_path = tmp_path / "labels.txt"
        code = main(["scc", str(edge_path), "-o", str(labels_path),
                     "-m", "300", "-b", "64"])
        assert code == 0
        lines = labels_path.read_text().splitlines()
        assert len(lines) == 50
        labels = {int(l.split()[1]) for l in lines}
        assert labels == {0}  # one SCC
        assert "sccs: 1" in capsys.readouterr().err

    def test_scc_baseline_algorithm(self, edge_path, capsys):
        code = main(["scc", str(edge_path), "-m", "300", "-b", "64",
                     "--algorithm", "ext-scc"])
        assert code == 0
        assert "iterations:" in capsys.readouterr().err

    def test_scc_explicit_node_count(self, tmp_path, capsys):
        path = tmp_path / "e.txt"
        write_edge_text(path, [(0, 1)])
        code = main(["scc", str(path), "--nodes", "5", "-m", "16K"])
        assert code == 0
        assert "sccs: 5" in capsys.readouterr().err

    def test_missing_input(self, capsys):
        code = main(["scc", "/nonexistent/file.txt"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["abc", "12Q", "xK", "1e999K", ""])
    def test_bad_memory_size_is_one_line_error(self, edge_path, capsys, size):
        code = main(["scc", str(edge_path), "--memory", size])
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: invalid size {size!r}: expected bytes like 4096, 64K, 4M or 1G"
        ]

    @pytest.mark.parametrize("line, token", [("1 x", "x"), ("y 2", "y"),
                                             ("1.5 2", "1.5")])
    def test_bad_edge_token_names_file_line_and_token(self, tmp_path, capsys,
                                                      line, token):
        path = tmp_path / "bad.txt"
        path.write_text(f"# header\n0 1\n{line}\n")
        code = main(["scc", str(path), "-m", "16K"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: {path}:3: node id {token!r} is not an integer"
        ]

    def test_wrong_field_count_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2\n")
        assert main(["scc", str(path), "-m", "16K"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:1: expected 'u v'")


class TestSccCheckpoint:
    @pytest.fixture
    def edge_path(self, tmp_path):
        path = tmp_path / "cycle.txt"
        write_edge_text(path, cycle_graph(50).edges)
        return path

    def test_checkpointed_run_writes_labels(self, tmp_path, edge_path, capsys):
        labels_path = tmp_path / "labels.txt"
        ckpt = tmp_path / "ckpt"
        code = main(["scc", str(edge_path), "-o", str(labels_path),
                     "-m", "300", "-b", "64", "--checkpoint-dir", str(ckpt)])
        assert code == 0
        lines = labels_path.read_text().splitlines()
        assert len(lines) == 50
        assert {int(l.split()[1]) for l in lines} == {0}
        assert (ckpt / "manifest.json").exists()
        assert "sccs: 1" in capsys.readouterr().err

    def test_crash_then_resume(self, tmp_path, edge_path, capsys, monkeypatch):
        """A killed checkpointed run is picked back up by --resume."""
        import repro.io.persistent as persistent
        from repro.recovery import FaultInjector

        real = persistent.PersistentBlockDevice

        class Crashing(real):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                FaultInjector(crash_at_io=100).attach(self)

        monkeypatch.setattr(persistent, "PersistentBlockDevice", Crashing)
        labels_path = tmp_path / "labels.txt"
        ckpt = tmp_path / "ckpt"
        argv = ["scc", str(edge_path), "-o", str(labels_path),
                "-m", "300", "-b", "64", "--checkpoint-dir", str(ckpt)]
        code = main(argv)
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not labels_path.exists()

        monkeypatch.setattr(persistent, "PersistentBlockDevice", real)
        code = main(argv + ["--resume"])
        err = capsys.readouterr().err
        assert code == 0
        assert "resumed from checkpoint" in err
        lines = labels_path.read_text().splitlines()
        assert len(lines) == 50
        assert {int(l.split()[1]) for l in lines} == {0}

    def test_huge_id_is_one_error_line(self, tmp_path, capsys):
        """An id past int64 cannot be stored on the persistent device: one
        ``error:`` line and exit 3, never a traceback."""
        path = tmp_path / "big.txt"
        path.write_text(f"0 1\n1 {1 << 63}\n{1 << 63} 0\n")
        code = main(["scc", str(path), "-o", str(tmp_path / "L"),
                     "--checkpoint-dir", str(tmp_path / "ckpt")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "Traceback" not in err


class TestCorruptBlockResume:
    """A corrupt block is answered by the journal: the checkpointed run
    exits 4, and ``--resume`` finishes it with the fault-free labels.  The
    three cells are the chaos matrix's ``corrupt`` phases; contract-1 and
    expand-1 both damage the stored input edge list, which ``--resume``
    re-stages from the source file."""

    @pytest.fixture
    def workload(self, tmp_path):
        from repro.graph.datasets import build_dataset

        path = tmp_path / "webspam.txt"
        write_edge_text(path, build_dataset("webspam", num_nodes=400, seed=3).edges)
        clean = tmp_path / "clean.txt"
        argv = ["scc", str(path), "-m", "2560", "-b", "256"]
        assert main(argv + ["-o", str(clean)]) == 0
        return argv, clean.read_text()

    @pytest.mark.parametrize("phase", ["contract-1", "semi-scc", "expand-1"])
    def test_exit_4_then_resume_matches_clean(self, tmp_path, workload, phase,
                                              capsys, monkeypatch):
        import repro.io.persistent as persistent
        from repro.recovery import FaultSchedule

        real = persistent.PersistentBlockDevice

        class Rotting(real):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                FaultSchedule.single("corrupt", in_phase=phase).attach(self)

        argv, clean_labels = workload
        labels = tmp_path / "labels.txt"
        argv = argv + ["-o", str(labels), "--checkpoint-dir", str(tmp_path / "ckpt")]
        capsys.readouterr()
        monkeypatch.setattr(persistent, "PersistentBlockDevice", Rotting)
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "fails its checksum" in err and "--resume" in err
        assert not labels.exists()

        monkeypatch.setattr(persistent, "PersistentBlockDevice", real)
        assert main(argv + ["--resume"]) == 0
        err = capsys.readouterr().err
        assert "resumed from checkpoint" in err
        if phase == "contract-1":  # its first read is of the input edges
            assert "re-staged damaged input-edges" in err
        assert labels.read_text() == clean_labels

    def test_damaged_stored_nodes_are_restaged(self, tmp_path, workload,
                                               capsys, monkeypatch):
        import repro.io.persistent as persistent
        from repro.recovery import FaultInjector

        real = persistent.PersistentBlockDevice

        class Crashing(real):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                FaultInjector(crash_at_io=2000).attach(self)

        argv, _ = workload
        argv = argv + ["--nodes", "400"]
        clean = tmp_path / "clean-nodes.txt"
        assert main(argv + ["-o", str(clean)]) == 0
        ckpt = tmp_path / "ckpt"
        labels = tmp_path / "labels.txt"
        argv += ["-o", str(labels), "--checkpoint-dir", str(ckpt)]
        monkeypatch.setattr(persistent, "PersistentBlockDevice", Crashing)
        assert main(argv) == 2  # the simulated crash
        monkeypatch.setattr(persistent, "PersistentBlockDevice", real)

        device = real(str(ckpt), block_size=256)
        device._damage_block(device.open("input-nodes"), 0)
        device.close()
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        err = capsys.readouterr().err
        assert "re-staged damaged input-nodes" in err
        assert labels.read_text() == clean.read_text()


class TestSigkillResume:
    def test_sigkilled_runs_resume_to_identical_labels(self, tmp_path):
        """Real SIGKILLs at seeded delays, one child process at a time;
        ``--resume`` still reproduces the uninterrupted labels."""
        import os
        import random
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        import repro
        from repro.graph.datasets import build_dataset

        path = tmp_path / "webspam.txt"
        write_edge_text(path, build_dataset("webspam", num_nodes=1000, seed=5).edges)
        argv = ["scc", str(path), "-m", "6K", "-b", "512"]
        clean = tmp_path / "clean.txt"
        assert main(argv + ["-o", str(clean)]) == 0

        labels = tmp_path / "labels.txt"
        argv += ["-o", str(labels), "--checkpoint-dir", str(tmp_path / "ckpt")]
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        cmd = [sys.executable, "-m", "repro"] + argv
        rng = random.Random(20260411)
        codes = []
        for kill in range(3):
            child = subprocess.Popen(
                cmd + (["--resume"] if kill else []),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
            )
            time.sleep(rng.uniform(0.3, 1.0))
            child.send_signal(signal.SIGKILL)
            codes.append(child.wait())
        assert -signal.SIGKILL in codes, codes
        done = subprocess.run(cmd + ["--resume"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert labels.read_text() == clean.read_text()


class TestBench:
    @pytest.fixture
    def edge_path(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_text(path, cycle_graph(80).edges)
        return path

    def test_bench_ok(self, edge_path, capsys):
        code = main(["bench", str(edge_path), "-a", "Ext-SCC-Op",
                     "-m", "400", "-b", "64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Ext-SCC-Op: OK" in out

    def test_bench_inf_exit_code(self, edge_path, capsys):
        code = main(["bench", str(edge_path), "-a", "DFS-SCC",
                     "-m", "400", "-b", "64", "--io-budget", "10"])
        assert code == 1
        assert "INF" in capsys.readouterr().out

    def test_bench_derives_node_count(self, edge_path, capsys):
        code = main(["bench", str(edge_path), "-m", "16K"])
        assert code == 0
        assert "sccs: 1" in capsys.readouterr().out


class TestStats:
    def test_stats_output(self, tmp_path, capsys):
        path = tmp_path / "star.txt"
        write_edge_text(path, [(0, i) for i in range(1, 6)])
        code = main(["stats", str(path), "-m", "16K"])
        assert code == 0
        out = capsys.readouterr().out
        assert "edges:           5" in out
        assert "sources/sinks:   1/5" in out

    def test_stats_histogram(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_text(path, cycle_graph(4).edges)
        code = main(["stats", str(path), "--histogram", "-m", "16K"])
        assert code == 0
        assert "deg     2: 4" in capsys.readouterr().out


class TestVerify:
    @pytest.fixture
    def workload(self, tmp_path):
        edge_path = tmp_path / "g.txt"
        write_edge_text(edge_path, cycle_graph(20).edges)
        labels_path = tmp_path / "labels.txt"
        assert main(["scc", str(edge_path), "-o", str(labels_path),
                     "-m", "16K"]) == 0
        return edge_path, labels_path

    def test_verify_ok(self, workload, capsys):
        edge_path, labels_path = workload
        assert main(["verify", str(edge_path), str(labels_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_detects_corruption(self, workload, tmp_path, capsys):
        edge_path, labels_path = workload
        lines = labels_path.read_text().splitlines()
        lines[3] = "3 3"  # break node 3 out of the cycle's SCC
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(edge_path), str(bad)]) == 1
        assert "MISMATCH" in capsys.readouterr().err

    @pytest.mark.parametrize("line, token", [("1 x", "'x'"), ("1", "'1'")])
    def test_malformed_labels_line_is_input_error(self, workload, tmp_path,
                                                  capsys, line, token):
        edge_path, labels_path = workload
        lines = labels_path.read_text().splitlines()
        lines[2] = line
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(edge_path), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {bad}:3: ")
        assert token in err


class TestExplain:
    def test_feasible_plan(self, capsys):
        code = main(["explain", "--nodes", "10000", "--edges", "40000",
                     "-m", "40K", "-b", "512"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Ext-SCC plan" in out
        assert "TOTAL predicted" in out

    def test_infeasible_plan_exit_code(self, capsys):
        code = main(["explain", "--nodes", "10000", "--edges", "40000",
                     "-m", "40K", "-b", "512", "--node-retention", "1.0"])
        assert code == 1
        assert "NOT FEASIBLE" in capsys.readouterr().out

    def test_no_iterations_when_fits(self, capsys):
        code = main(["explain", "--nodes", "100", "--edges", "300", "-m", "1M"])
        assert code == 0
        assert "(0 iterations)" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--node-retention", "nan"),
        ("--node-retention", "inf"),
        ("--node-retention", "-0.5"),
        ("--node-retention", "0"),
        ("--edge-growth", "-1"),
        ("--edge-growth", "-inf"),
        ("--edge-growth", "lots"),
    ])
    def test_nonsense_coefficient_is_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["explain", "--nodes", "10000", "--edges", "40000",
                  "-m", "40K", "-b", "512", f"{flag}={value}"])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--nodes", "--edges"])
    @pytest.mark.parametrize("value", ["-5", "inf", "nan"])
    def test_bad_count_is_usage_error(self, capsys, flag, value):
        argv = {"--nodes": "100", "--edges": "300"}
        argv[flag] = value
        with pytest.raises(SystemExit) as excinfo:
            main(["explain", "--nodes", argv["--nodes"],
                  "--edges", argv["--edges"]])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err


class TestInputValidation:
    """Bad sizes and node counts are usage errors (exit 2) with one
    ``error:`` line, never a traceback."""

    @pytest.fixture
    def two_cycle(self, tmp_path):
        path = tmp_path / "two.txt"
        write_edge_text(path, [(0, 1), (1, 0)])
        return path

    @pytest.mark.parametrize("command", ["scc", "bench", "serve"])
    def test_nodes_below_an_endpoint(self, tmp_path, two_cycle, capsys,
                                     command):
        if command == "serve":
            argv = ["serve", str(tmp_path / "store"), "--build",
                    str(two_cycle), "--build-only"]
        else:
            argv = [command, str(two_cycle), "-m", "16K"]
        assert main(argv + ["--nodes", "1"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: edge (0, 1) has an endpoint outside --nodes 1 "
            "(node ids must lie in 0..0)"
        ]

    def test_checkpointed_scc_checks_nodes_too(self, tmp_path, two_cycle,
                                               capsys):
        assert main(["scc", str(two_cycle), "-m", "16K", "--nodes", "1",
                     "--checkpoint-dir", str(tmp_path / "ckpt")]) == 2
        assert "outside --nodes 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["scc", "serve"])
    def test_id_beyond_int64_on_a_persistent_device(self, tmp_path, capsys,
                                                    command):
        # The persistent device stores int64 fields; a wider id is one
        # storage error line (exit 3), not a struct.error traceback.
        path = tmp_path / "wide.txt"
        write_edge_text(path, [(0, 1), (1, 2**63), (2**63, 0)])
        if command == "serve":
            argv = ["serve", str(tmp_path / "store"), "--build", str(path),
                    "--build-only"]
        else:
            argv = ["scc", str(path), "-m", "16K", "-o",
                    str(tmp_path / "labels.txt"),
                    "--checkpoint-dir", str(tmp_path / "ckpt")]
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: file ")
        assert "9223372036854775808 does not fit" in err[0]

    @pytest.mark.parametrize("command", ["scc", "bench"])
    def test_negative_nodes_is_usage_error(self, two_cycle, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(two_cycle), "--nodes", "-3"])
        assert excinfo.value.code == 2
        assert "--nodes" in capsys.readouterr().err

    def test_nodes_covering_the_edges_is_fine(self, two_cycle, capsys):
        assert main(["bench", str(two_cycle), "-m", "16K",
                     "--nodes", "2"]) == 0
        assert "sccs: 1" in capsys.readouterr().out

    def test_empty_edge_file(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert main(["scc", str(path), "-m", "16K"]) == 0
        assert "sccs: 0" in capsys.readouterr().err
        assert main(["bench", str(path), "-m", "16K"]) == 0
        assert "sccs: 0" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["scc", "bench", "stats", "serve"])
    @pytest.mark.parametrize("size", ["0", "-4K"])
    def test_non_positive_block_size(self, tmp_path, two_cycle, capsys,
                                     command, size):
        if command == "serve":
            argv = ["serve", str(tmp_path / "store"), "--build",
                    str(two_cycle), "--build-only"]
        else:
            argv = [command, str(two_cycle)]
        assert main(argv + [f"--block-size={size}"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: invalid block size {size!r}: must be a positive "
            "number of bytes"
        ]


class TestVerboseScc:
    def test_verbose_prints_iterations(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_text(path, cycle_graph(60).edges)
        code = main(["scc", str(path), "-m", "300", "-b", "64", "-v"])
        assert code == 0
        assert "iteration 1:" in capsys.readouterr().err


class TestWorkerValidation:
    """The CLI runs on one disk and one core: ``--workers`` and
    ``--parity`` are not options, so any use of them is an argparse error
    (exit 2), like ``--executor``."""

    @pytest.fixture
    def edge_path(self, tmp_path):
        path = tmp_path / "cycle.txt"
        write_edge_text(path, cycle_graph(20).edges)
        return path

    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    @pytest.mark.parametrize("command", ["scc", "bench"])
    def test_bad_workers_rejected(self, edge_path, capsys, command, value):
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(edge_path), "--workers", value])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["scc", "bench"])
    def test_parity_rejected(self, edge_path, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(edge_path), "--parity"])
        assert excinfo.value.code == 2
        assert "--parity" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["scc", "bench"])
    def test_unknown_executor_rejected(self, edge_path, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(edge_path), "--executor", "fibers"])
        assert excinfo.value.code == 2
        assert "--executor" in capsys.readouterr().err


class TestExplainAndTrace:
    @pytest.fixture
    def edge_path(self, tmp_path):
        path = tmp_path / "cycle.txt"
        write_edge_text(path, cycle_graph(60).edges)
        return path

    def test_explain_prints_stages(self, edge_path, capsys):
        code = main(["scc", str(edge_path), "-m", "300", "-b", "64",
                     "--explain"])
        assert code == 0
        out = capsys.readouterr().out
        assert "plan contract-1" in out
        assert "pred.I/Os" in out
        for stage in ("sort-edges", "get-v", "get-e", "removed-set"):
            assert f"  {stage} " in out
        assert "ckpt:contract" in out
        assert "rewrites:" not in out
        assert "Ext-SCC plan:" in out  # the analytic schedule follows

    def test_explain_semi_when_input_fits(self, edge_path, capsys):
        code = main(["scc", str(edge_path), "-m", "16K", "--explain"])
        assert code == 0
        assert "plan semi-scc" in capsys.readouterr().out

    def test_explain_runs_nothing(self, tmp_path, edge_path, capsys):
        labels = tmp_path / "labels.txt"
        code = main(["scc", str(edge_path), "-m", "300", "-b", "64",
                     "--explain", "-o", str(labels)])
        assert code == 0
        assert not labels.exists()
        assert "sccs:" not in capsys.readouterr().err

    def test_trace_json_written(self, tmp_path, edge_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        code = main(["scc", str(edge_path), "-m", "300", "-b", "64",
                     "--trace-json", str(trace_path)])
        assert code == 0
        payload = json.loads(trace_path.read_text())
        assert payload["spans"]
        assert payload["total_measured"] > 0
        stages = {(s["plan"], s["stage"]) for s in payload["spans"]}
        assert ("semi-scc", "semi-scc") in stages
        assert "trace (" in capsys.readouterr().err

    def test_trace_json_carries_plans_and_context(self, tmp_path, edge_path):
        import json

        trace_path = tmp_path / "trace.json"
        code = main(["scc", str(edge_path), "-m", "300", "-b", "64",
                     "--trace-json", str(trace_path)])
        assert code == 0
        payload = json.loads(trace_path.read_text())
        assert payload["plans"], "executed plans must be serialized"
        plan = payload["plans"][0]
        assert plan["name"] == "contract-1"
        assert not {"ops", "rewrites", "predicted_makespan"} & set(plan)
        assert [s["label"] for s in plan["stages"]] == [
            "sort-edges", "get-v", "get-e", "removed-set"
        ]
        assert all(
            set(s) == {"label", "checkpoint", "predicted_ios"}
            for s in plan["stages"]
        )
        assert plan["stages"][-1]["checkpoint"] == "contract"
        assert plan["predicted_total"] == sum(
            s["predicted_ios"] for s in plan["stages"]
        )
        assert all("operators" not in span for span in payload["spans"])
        assert all("makespan" not in span for span in payload["spans"])
        context = payload["context"]
        assert context["codec"] == "gap-varint"
        assert context["bytes_by_width"]
        assert not {"executor", "objective", "autotune", "cache",
                    "workers"} & set(context)
        assert all(s["phase"] != "planning" for s in payload["spans"])


class TestExecutorCli:
    """``--solver`` takes the registered solvers; the deleted choices and
    the deleted ``--executor`` / autotune flags are usage errors
    (exit 2)."""

    @pytest.fixture
    def edge_path(self, tmp_path):
        path = tmp_path / "cycle.txt"
        write_edge_text(path, cycle_graph(20).edges)
        return path

    @pytest.mark.parametrize("argv", [
        ["scc", "--executor", "processes"],
        ["bench", "--executor", "processes"],
        ["scc", "--solver", "coloring"],
        ["scc", "--solver", "parallel-fw-bw"],
        ["scc", "--executor", "threads"],
        ["bench", "--executor", "threads"],
        ["scc", "--autotune"],
        ["bench", "--autotune"],
        ["scc", "--objective", "io"],
        ["bench", "--objective", "wallclock"],
        ["scc", "--calibration", "profile.json"],
        ["bench", "--calibration", "profile.json"],
        ["scc", "--plan-cache", "plans.json"],
    ], ids=["scc-processes", "bench-processes", "coloring", "parallel-fw-bw",
            "scc-threads", "bench-threads", "scc-autotune", "bench-autotune",
            "scc-objective", "bench-objective", "scc-calibration",
            "bench-calibration", "scc-plan-cache"])
    def test_removed_choice_is_usage_error(self, edge_path, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main([argv[0], str(edge_path), *argv[1:]])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err or "unrecognized arguments" in err

    def test_verbose_scc_reports_wall_by_phase(self, edge_path, capsys):
        assert main(["scc", str(edge_path), "-m", "300", "-b", "64",
                     "-v"]) == 0
        err = capsys.readouterr().err
        assert "wall by phase:" in err
        assert "semi-scc" in err

    def test_bench_reports_wall_by_phase(self, edge_path, capsys):
        assert main(["bench", str(edge_path), "-m", "300", "-b", "64"]) == 0
        out = capsys.readouterr().out
        assert "wall:" in out
        assert "wall by phase:" in out


class TestFaultToleranceFlags:
    @pytest.fixture
    def edge_path(self, tmp_path):
        path = tmp_path / "cycle.txt"
        write_edge_text(path, cycle_graph(50).edges)
        return path

    def test_fault_policy_run_clean(self, edge_path, capsys):
        code = main(["scc", str(edge_path), "-m", "16K", "-v",
                     "--fault-policy", "retries=5,seed=7"])
        assert code == 0
        err = capsys.readouterr().err
        assert "health: retries=0 escalations=0 backoff=0.000s" in err

    def test_health_line_absent_without_fault_machinery(self, edge_path, capsys):
        assert main(["scc", str(edge_path), "-m", "16K", "-v"]) == 0
        assert "health:" not in capsys.readouterr().err

    def test_bench_accepts_fault_flags(self, edge_path, capsys):
        code = main(["bench", str(edge_path), "-m", "16K",
                     "--fault-policy", "retries=2"])
        assert code == 0
        assert "health:" in capsys.readouterr().out

    def test_bad_fault_policy_spec_is_usage_error(self, edge_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scc", str(edge_path), "--fault-policy", "bogus=1"])
        assert excinfo.value.code == 2
        assert "fault-policy" in capsys.readouterr().err

    def test_trace_json_carries_health(self, edge_path, tmp_path):
        import json

        trace_path = tmp_path / "trace.json"
        code = main(["scc", str(edge_path), "-m", "16K",
                     "--trace-json", str(trace_path)])
        assert code == 0
        health = json.loads(trace_path.read_text())["context"]["health"]
        assert health["retries"] == 0
        assert not {"repairs", "redispatches", "parity_writes"} & set(health)


class TestFaultExitCodes:
    """The documented exit-code contract: 5 = retries exhausted,
    4 = unrecoverable corruption, 3 = storage fault, 2 = everything else
    (including the fail-stop SimulatedCrash, unchanged since PR 3)."""

    @pytest.fixture
    def edge_path(self, tmp_path):
        path = tmp_path / "e.txt"
        write_edge_text(path, [(0, 1), (1, 0)])
        return path

    def _run_raising(self, monkeypatch, edge_path, exc):
        import repro.cli as cli

        def boom(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "compute_sccs", boom)
        return main(["scc", str(edge_path), "-m", "16K"])

    def test_retry_exhaustion_exits_5(self, edge_path, capsys, monkeypatch):
        from repro.exceptions import RetryExhaustedError, TransientIOError

        code = self._run_raising(
            monkeypatch, edge_path,
            RetryExhaustedError(4, TransientIOError("flaky read")),
        )
        assert code == 5
        err = capsys.readouterr().err
        assert "error:" in err
        assert "retries exhausted" in err and "--fault-policy" in err

    def test_corrupt_block_exits_4(self, edge_path, capsys, monkeypatch):
        from repro.exceptions import CorruptBlockError

        code = self._run_raising(
            monkeypatch, edge_path, CorruptBlockError("edges", 3)
        )
        assert code == 4
        err = capsys.readouterr().err
        assert "error:" in err and "--resume" in err
        assert "--parity" not in err

    def test_storage_error_exits_3(self, edge_path, capsys, monkeypatch):
        from repro.exceptions import StorageError

        code = self._run_raising(monkeypatch, edge_path, StorageError("no such file"))
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_repro_error_still_exits_2(self, edge_path, capsys, monkeypatch):
        from repro.exceptions import NonTermination

        code = self._run_raising(monkeypatch, edge_path, NonTermination("loop"))
        assert code == 2

    def test_real_retry_exhaustion_through_the_device(self, edge_path, capsys,
                                                      monkeypatch):
        # End-to-end: a persistent transient fault escalates out of the
        # device, through compute_sccs, to exit code 5.
        import repro.cli as cli
        from repro.core import compute_sccs as real_compute
        from repro.recovery import FaultSchedule

        def with_fault(*args, **kwargs):
            kwargs["fault_schedule"] = FaultSchedule.single(
                "transient-read", at_io=1, failures=100
            )
            return real_compute(*args, **kwargs)

        monkeypatch.setattr(cli, "compute_sccs", with_fault)
        code = main(["scc", str(edge_path), "-m", "16K",
                     "--fault-policy", "retries=2"])
        assert code == 5
        assert "retries exhausted" in capsys.readouterr().err


class TestServeAndQuery:
    EDGES = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3)]

    def build(self, tmp_path, capsys):
        edge_path = tmp_path / "edges.txt"
        write_edge_text(edge_path, self.EDGES)
        rc = main(["serve", str(tmp_path / "store"),
                   "--build", str(edge_path), "--build-only",
                   "--block-size", "64"])
        assert rc == 0
        assert "store built" in capsys.readouterr().err
        return tmp_path / "store"

    def serve(self, store_dir):
        from repro.service import LabelStore, QueryDaemon

        store = LabelStore(store_dir)
        daemon = QueryDaemon(store, epoch_seconds=0.001, owns_store=True)
        daemon.start()
        return daemon

    def test_build_only(self, tmp_path, capsys):
        store_dir = self.build(tmp_path, capsys)
        assert (store_dir / "service-meta.json").exists()

    def test_query_labels(self, tmp_path, capsys):
        daemon = self.serve(self.build(tmp_path, capsys))
        try:
            rc = main(["query", "scc-label", "0", "1", "3", "9",
                       "--port", str(daemon.address[1])])
            assert rc == 0
            out = capsys.readouterr().out
            assert "0 0" in out and "3 3" in out and "9 -" in out
        finally:
            daemon.close()

    def test_query_relations_and_stats(self, tmp_path, capsys):
        daemon = self.serve(self.build(tmp_path, capsys))
        port = str(daemon.address[1])
        try:
            assert main(["query", "same-component", "0", "2",
                         "--port", port]) == 0
            assert "same" in capsys.readouterr().out
            assert main(["query", "reachable", "0", "4", "--port", port]) == 0
            assert "reachable" in capsys.readouterr().out
            assert main(["query", "topo-order", "0", "3",
                         "--port", port]) == 0
            out = capsys.readouterr().out
            assert "layer=" in out
            assert main(["query", "server-stats", "--port", port]) == 0
            assert "physical I/O" in capsys.readouterr().out
        finally:
            daemon.close()

    def test_query_trace_json(self, tmp_path, capsys):
        import json

        daemon = self.serve(self.build(tmp_path, capsys))
        trace = tmp_path / "trace.json"
        try:
            rc = main(["query", "scc-label", "0", "--port",
                       str(daemon.address[1]), "--tenant", "acme",
                       "--trace-json", str(trace)])
            assert rc == 0
            payload = json.loads(trace.read_text())
            assert payload["session"]["tenant"] == "acme"
            assert "physical_io" in payload["server"]
        finally:
            daemon.close()

    def test_query_unknown_node_exit_2(self, tmp_path, capsys):
        daemon = self.serve(self.build(tmp_path, capsys))
        try:
            rc = main(["query", "same-component", "99", "0",
                       "--port", str(daemon.address[1])])
            assert rc == 2
            assert "not in the label store" in capsys.readouterr().err
        finally:
            daemon.close()

    def test_query_throttled_exit_2(self, tmp_path, capsys):
        daemon = self.serve(self.build(tmp_path, capsys))
        try:
            rc = main(["query", "scc-label", "0", "--port",
                       str(daemon.address[1]), "--io-budget", "0"])
            # The daemon's label cache may already hold node 0 from no
            # prior query here — cold store, so the lookup needs a read.
            assert rc == 2
            assert "budget" in capsys.readouterr().err
        finally:
            daemon.close()

    def test_query_arity_validation(self, tmp_path, capsys):
        rc = main(["query", "same-component", "1", "--port", "1"])
        assert rc == 2
        assert "exactly two" in capsys.readouterr().err
        rc = main(["query", "scc-label", "--port", "1"])
        assert rc == 2
        assert "at least one" in capsys.readouterr().err

    def test_query_connection_refused_exit_2(self, tmp_path):
        # Port 1 is never listening; OSError maps to exit 2.
        assert main(["query", "server-stats", "--port", "1"]) == 2
