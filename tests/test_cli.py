"""Tests for the CLI (dia-cap / python -m repro)."""

import numpy as np
import pytest

from repro.cli import main


class TestDataset:
    def test_describe(self, capsys):
        assert main(["dataset", "--nodes", "50", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "50 nodes" in out

    def test_write_npy(self, tmp_path, capsys):
        out_path = tmp_path / "m.npy"
        assert (
            main(["dataset", "--nodes", "20", "--out", str(out_path)]) == 0
        )
        matrix = np.load(out_path)
        assert matrix.shape == (20, 20)

    def test_write_text(self, tmp_path):
        out_path = tmp_path / "m.txt"
        assert main(["dataset", "--nodes", "10", "--out", str(out_path)]) == 0
        assert out_path.exists()

    def test_mit_kind(self, capsys):
        assert main(["dataset", "--nodes", "30", "--kind", "mit"]) == 0


class TestSolve:
    @pytest.mark.parametrize(
        "algorithm", ["nearest-server", "longest-first-batch", "greedy"]
    )
    def test_algorithms(self, capsys, algorithm):
        code = main(
            [
                "solve",
                "--nodes",
                "60",
                "--servers",
                "6",
                "--algorithm",
                algorithm,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "normalized interactivity" in out

    def test_capacitated(self, capsys):
        code = main(
            [
                "solve",
                "--nodes",
                "60",
                "--servers",
                "6",
                "--capacity",
                "15",
                "--algorithm",
                "distributed-greedy",
            ]
        )
        assert code == 0

    def test_kcenter_placement(self, capsys):
        code = main(
            [
                "solve",
                "--nodes",
                "60",
                "--servers",
                "6",
                "--placement",
                "k-center-b",
            ]
        )
        assert code == 0


class TestFig:
    def test_fig7(self, capsys, monkeypatch):
        assert main(["fig", "7", "--profile", "quick"]) == 0
        assert "Fig.7" in capsys.readouterr().out

    def test_fig8(self, capsys):
        assert main(["fig", "8", "--profile", "quick"]) == 0
        assert "Fig.8" in capsys.readouterr().out

    def test_fig9(self, capsys):
        assert main(["fig", "9", "--profile", "quick"]) == 0
        assert "Fig.9" in capsys.readouterr().out

    def test_fig10(self, capsys):
        assert main(["fig", "10", "--profile", "quick"]) == 0
        assert "Fig.10" in capsys.readouterr().out

    def test_fig7_kcenter_panel(self, capsys):
        assert (
            main(["fig", "7", "--profile", "quick", "--placement", "k-center-a"])
            == 0
        )

    def test_fig7_workers_flag_matches_serial(self, capsys):
        assert main(["fig", "7", "--profile", "quick"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["fig", "7", "--profile", "quick", "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial_out


class TestClaims:
    def test_quick_claims_pass(self, capsys):
        assert main(["claims", "--profile", "quick"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out


class TestSimulate:
    def test_no_jitter_healthy(self, capsys):
        code = main(
            ["simulate", "--nodes", "40", "--servers", "4", "--ops-rate", "0.01"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "healthy: True" in out

    def test_jitter_with_percentile(self, capsys):
        code = main(
            [
                "simulate",
                "--nodes",
                "40",
                "--servers",
                "4",
                "--ops-rate",
                "0.01",
                "--jitter-sigma",
                "0.2",
                "--percentile",
                "99",
            ]
        )
        assert code == 0


class TestMeta:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestAblate:
    @pytest.mark.parametrize(
        "study", ["dga-initial", "greedy-cost", "placement"]
    )
    def test_matrix_studies(self, capsys, study):
        code = main(
            [
                "ablate",
                study,
                "--nodes",
                "70",
                "--servers",
                "7",
                "--runs",
                "2",
            ]
        )
        assert code == 0
        assert "Ablation" in capsys.readouterr().out

    def test_triangle_study(self, capsys):
        code = main(
            ["ablate", "triangle", "--nodes", "50", "--servers", "5", "--runs", "1"]
        )
        assert code == 0
        assert "violation rate" in capsys.readouterr().out

    def test_estimated_latencies_study(self, capsys):
        code = main(
            ["ablate", "estimated-latencies", "--nodes", "60", "--servers", "6"]
        )
        assert code == 0
        assert "Vivaldi" in capsys.readouterr().out


class TestChurn:
    def test_policies_compared(self, capsys):
        code = main(
            [
                "churn",
                "--nodes",
                "80",
                "--servers",
                "8",
                "--events",
                "60",
                "--rebalance-every",
                "15",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "nearest-server joins" in out
        assert "rebalance" in out


class TestFigPersistence:
    def test_save_then_load(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        assert (
            main(["fig", "9", "--profile", "quick", "--save", str(path)]) == 0
        )
        assert path.exists()
        capsys.readouterr()
        assert main(["fig", "9", "--load", str(path)]) == 0
        assert "Fig.9" in capsys.readouterr().out


class TestAnalyze:
    def test_synthetic_matrix(self, capsys):
        assert main(["analyze", "--nodes", "60", "--clusters", "4"]) == 0
        out = capsys.readouterr().out
        assert "stretch vs metric closure" in out
        assert "k-medoids" in out

    def test_load_file(self, capsys, tmp_path):
        path = tmp_path / "m.npy"
        assert main(["dataset", "--nodes", "30", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--load", str(path), "--clusters", "3"]) == 0
        assert "asymmetry" in capsys.readouterr().out


class TestFaults:
    def test_fault_injection_run(self, capsys):
        code = main(
            [
                "faults",
                "--nodes",
                "80",
                "--servers",
                "6",
                "--events",
                "80",
                "--mttf",
                "40",
                "--mttr",
                "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "crash(es)" in out
        assert "nearest joins" in out
        assert "greedy joins" in out
        assert "mean D" in out
        assert "evacuated" in out


class TestChaos:
    def test_smoke_verdict_ok(self, capsys, tmp_path):
        code = main(
            [
                "chaos",
                "--nodes",
                "50",
                "--servers",
                "4",
                "--events",
                "30",
                "--kill-at",
                "7",
                "19",
                "--checkpoint-every",
                "8",
                "--seed",
                "0",
                "--dir",
                str(tmp_path / "chaos"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: OK" in out
        assert "kill  replayed" in out

    def test_default_temp_dir_is_removed(self, capsys):
        import glob
        import os
        import tempfile

        code = main(
            ["chaos", "--nodes", "40", "--servers", "3", "--events", "12",
             "--kill-at", "5", "--no-torn-tail"]
        )
        assert code == 0
        assert "verdict: OK" in capsys.readouterr().out
        # No leftover working directories.
        leftovers = glob.glob(
            os.path.join(tempfile.gettempdir(), "repro-chaos-*")
        )
        assert leftovers == []


class TestServiceCommands:
    def test_loadgen_spawn_verified(self, capsys):
        code = main(
            ["loadgen", "--spawn", "--events", "1000", "--batch-size", "100",
             "--nodes", "60", "--servers", "5", "--seed", "1",
             "--fault-every", "97", "--verify"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "VERIFIED (wire == library)" in out
        assert "events/s" in out

    def test_loadgen_wal_session(self, capsys):
        code = main(
            ["loadgen", "--spawn", "--events", "500", "--nodes", "60",
             "--servers", "5", "--durability", "wal", "--verify"]
        )
        assert code == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_loadgen_min_throughput_failure(self, capsys):
        # An absurd floor must flip the exit code.
        code = main(
            ["loadgen", "--spawn", "--events", "300", "--nodes", "60",
             "--servers", "5", "--min-throughput", "1e12"]
        )
        assert code == 1
        assert "below the required" in capsys.readouterr().err

    def test_serve_then_drive_over_tcp(self):
        # Exercise `serve` end to end: spawn the CLI in a subprocess on
        # an ephemeral port, read the bound address off its stdout, and
        # drive it with the client.
        import os
        import re
        import subprocess
        import sys

        from repro.service import ServiceClient

        env = dict(os.environ)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on [\d.]+:(\d+)", line)
            assert match, f"unexpected server banner: {line!r}"
            port = int(match.group(1))
            with ServiceClient("127.0.0.1", port) as client:
                assert client.ping()["pong"] is True
                sid = client.open_session(nodes=40, n_servers=4)["session"]
                result = client.call("join", session=sid, node=1)
                assert result["outcome"] == "assigned"
        finally:
            proc.terminate()
            proc.wait(10)
