"""Tests for repro.obs.report (trace summarization and rendering)."""

import pytest

from repro.obs.report import render_summary, summarize, summarize_file


def _span(name, span_id, parent_id, depth, start, duration, **fields):
    event = {
        "type": "span",
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "depth": depth,
        "start": start,
        "duration": duration,
    }
    event.update(fields)
    return event


@pytest.fixture
def nested_trace():
    """cli.fig (10 s) -> fig.fig7 (8 s) -> pool.map_trials (2x3 s)."""
    return [
        _span("pool.map_trials", 3, 2, 2, 1.0, 3.0),
        _span("pool.map_trials", 4, 2, 2, 4.0, 3.0),
        _span("fig.fig7", 2, 1, 1, 0.5, 8.0),
        _span("cli.fig", 1, None, 0, 0.0, 10.0),
        {
            "type": "metrics",
            "ts": 10.0,
            "metrics": {
                "counters": {"pool.trials": 6},
                "gauges": {},
                "histograms": {},
            },
        },
        {
            "type": "manifest",
            "ts": 10.0,
            "manifest": {
                "command": "fig",
                "package_version": "1.0.0",
                "dataset_fingerprint": "abcd1234abcd1234",
            },
        },
    ]


class TestSummarize:
    def test_wall_and_coverage(self, nested_trace):
        summary = summarize(nested_trace)
        assert summary.n_events == 6
        assert summary.n_spans == 4
        assert summary.wall_seconds == pytest.approx(10.0)
        assert summary.root_seconds == pytest.approx(10.0)
        assert summary.coverage == pytest.approx(1.0)
        assert summary.root_name == "cli.fig"

    def test_phases_are_root_children(self, nested_trace):
        summary = summarize(nested_trace)
        by_name = {row.name: row for row in summary.phases}
        assert "fig.fig7" in by_name
        fig_row = by_name["fig.fig7"]
        assert fig_row.calls == 1
        assert fig_row.total_seconds == pytest.approx(8.0)
        # self time excludes the two pool spans
        assert fig_row.self_seconds == pytest.approx(2.0)
        # root's own untracked remainder shows up as a synthetic row
        assert "(cli.fig self)" in by_name
        assert by_name["(cli.fig self)"].total_seconds == pytest.approx(2.0)

    def test_hottest_ranked_by_self_time(self, nested_trace):
        summary = summarize(nested_trace)
        assert summary.hottest[0].name == "pool.map_trials"
        assert summary.hottest[0].self_seconds == pytest.approx(6.0)

    def test_top_limits_hottest(self, nested_trace):
        summary = summarize(nested_trace, top=1)
        assert len(summary.hottest) == 1

    def test_metrics_and_manifest_extracted(self, nested_trace):
        summary = summarize(nested_trace)
        assert summary.metrics["counters"] == {"pool.trials": 6}
        assert summary.manifest["command"] == "fig"

    def test_multiple_metrics_events_merged(self, nested_trace):
        extra = {
            "type": "metrics",
            "ts": 11.0,
            "metrics": {
                "counters": {"pool.trials": 4},
                "gauges": {},
                "histograms": {},
            },
        }
        summary = summarize(nested_trace + [extra])
        assert summary.metrics["counters"] == {"pool.trials": 10}

    def test_no_spans(self):
        summary = summarize([{"type": "metrics", "ts": 0.0, "metrics": {}}])
        assert summary.n_spans == 0
        assert summary.wall_seconds == 0.0

    def test_multiple_roots(self):
        events = [
            _span("a", 1, None, 0, 0.0, 1.0),
            _span("b", 2, None, 0, 1.0, 1.0),
        ]
        summary = summarize(events)
        assert summary.root_name is None
        assert {row.name for row in summary.phases} == {"a", "b"}


class TestRenderSummary:
    def test_contains_key_sections(self, nested_trace):
        text = render_summary(summarize(nested_trace))
        assert "per-phase breakdown" in text
        assert "hottest spans by self time" in text
        assert "merged metrics" in text
        assert "pool.trials = 6" in text
        assert "manifest: command='fig'" in text
        assert "dataset abcd1234abcd1234" in text

    def test_renders_without_metrics_or_manifest(self):
        events = [_span("a", 1, None, 0, 0.0, 1.0)]
        text = render_summary(summarize(events))
        assert "merged metrics" not in text
        assert "manifest:" not in text


class TestSummarizeFile:
    def test_round_trip_through_cli_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "fig", "9", "--profile", "quick",
                    "--trace", str(trace_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        summary = summarize_file(trace_path)
        assert summary.root_name == "cli.fig"
        # The span tree must account for (nearly) the whole trace.
        assert summary.coverage >= 0.9
        assert summary.metrics["counters"]["dga.runs"] >= 1
        assert summary.manifest is not None
        assert summary.manifest["dataset_fingerprint"]

    def test_obs_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.jsonl"
        assert (
            main(
                ["fig", "9", "--profile", "quick", "--trace", str(trace_path)]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["obs", str(trace_path), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "root span: cli.fig" in out
        assert "per-phase breakdown" in out
        assert "dga.runs" in out


class TestKernelTiming:
    def _trace_with_kernels(self):
        return [
            _span("cli.solve", 1, None, 0, 0.0, 1.0),
            {
                "type": "metrics",
                "ts": 1.0,
                "metrics": {
                    "counters": {
                        "kernel.numpy.move_context.calls": 40,
                        "kernel.numpy.move_context.seconds": 0.02,
                        "kernel.numpy.reduction_top2.calls": 7,
                        "kernel.numpy.reduction_top2.seconds": 0.001,
                        "other.counter": 3,
                    },
                    "gauges": {},
                    "histograms": {},
                },
            },
        ]

    def test_kernel_section_rendered(self):
        text = render_summary(summarize(self._trace_with_kernels()))
        assert "kernel timing (per backend)" in text
        assert "numpy.move_context" in text
        assert "numpy.reduction_top2" in text
        # Sorted within a backend by total seconds, descending.
        assert text.index("numpy.move_context") < text.index(
            "numpy.reduction_top2"
        )

    def test_no_kernel_counters_no_section(self):
        events = [_span("a", 1, None, 0, 0.0, 1.0)]
        assert "kernel timing" not in render_summary(summarize(events))

    def test_solve_trace_carries_kernel_counters(self, tmp_path, capsys):
        import os

        from repro.cli import main

        trace_path = tmp_path / "trace.jsonl"
        os.environ["REPRO_OBS_TRACE"] = str(trace_path)
        try:
            assert (
                main(
                    [
                        "solve", "--nodes", "50", "--servers", "5",
                        "--algorithm", "greedy",
                    ]
                )
                == 0
            )
        finally:
            os.environ.pop("REPRO_OBS_TRACE", None)
        capsys.readouterr()
        assert main(["obs", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "kernel timing (per backend)" in out
        assert "numpy.reduction_top2" in out
