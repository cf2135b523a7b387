"""Tests for the experiment runner, report rendering and markdown export."""

import pytest

from repro.experiments.config import preset, tiny
from repro.experiments.report import render_bars, render_table
from repro.experiments.runner import EXPERIMENTS, run_all, write_markdown


class TestRenderTable:
    def test_alignment_and_headers(self):
        text = render_table(["A", "Blong"], [["x", 1.23456], ["yy", 2]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "A" in lines[1] and "Blong" in lines[1]
        assert "1.235" in text  # floats formatted to 3 decimals
        assert "-+-" in lines[2]

    def test_column_width_adapts(self):
        text = render_table(["h"], [["a very long cell value"]])
        header_line = text.splitlines()[0]
        assert len(header_line) >= len("a very long cell value")


class TestRenderBars:
    def test_bars_scale_to_peak(self):
        text = render_bars(["x", "y"], {"s": [1.0, 0.5]}, width=10)
        lines = [l for l in text.splitlines() if l]
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_title_and_values(self):
        text = render_bars(["k"], {"a": [0.25]}, title="Chart")
        assert text.startswith("Chart")
        assert "0.250" in text


class TestRunner:
    def test_experiment_names_cover_stages(self):
        assert set(EXPERIMENTS) >= {
            "table1", "table2", "figure1", "figure2", "speed", "replay",
            "ablations", "extensions", "fidelity",
        }

    def test_run_all_skip_everything_but_table1(self, capsys):
        config = tiny(seed=1)
        skip = tuple(e for e in EXPERIMENTS if e != "table1")
        results = run_all(config, skip=skip)
        assert set(results) == {"table1"}
        out = capsys.readouterr().out
        assert "table1" in out
        assert "Measured flows" in out

    def test_write_markdown(self, tmp_path, capsys):
        config = tiny(seed=1)
        skip = tuple(e for e in EXPERIMENTS if e != "table1")
        results = run_all(config, skip=skip)
        path = tmp_path / "report.md"
        write_markdown(results, str(path), config)
        text = path.read_text()
        assert text.startswith("# Experiment report")
        assert "## table1" in text
        assert "```" in text

    def test_preset_seed_propagates(self):
        config = preset("tiny", seed=7)
        assert config.seed == 7
        assert config.pipeline.seed == 7

    def test_banner_announces_start_and_reports_timing(self, capsys):
        config = tiny(seed=1)
        skip = tuple(e for e in EXPERIMENTS if e != "table1")
        timings = {}
        run_all(config, skip=skip, timings=timings)
        out = capsys.readouterr().out
        # Start banner precedes the stage output; the done banner carries
        # the measured wall-clock.
        assert out.index("=== table1 ===") < out.index("Measured flows")
        assert "=== table1 done (" in out
        assert set(timings) == {"table1"}
        assert timings["table1"] > 0

    def test_markdown_includes_stage_timings(self, tmp_path):
        config = tiny(seed=1)
        skip = tuple(e for e in EXPERIMENTS if e != "table1")
        timings = {}
        results = run_all(config, skip=skip, timings=timings)
        path = tmp_path / "report.md"
        write_markdown(results, str(path), config, timings=timings)
        text = path.read_text()
        assert "## Stage timings" in text
        assert "| table1 |" in text
        assert "| **total** |" in text
        # Timings section renders before the per-stage result blocks.
        assert text.index("## Stage timings") < text.index("## table1")


class TestParallelRunner:
    def test_parallel_matches_sequential(self, tmp_path, capsys):
        from repro import perf
        from repro.experiments import data

        config = tiny(seed=1)
        skip = tuple(e for e in EXPERIMENTS
                     if e not in ("table1", "figure2"))
        data.clear_contexts()
        seq = run_all(config, skip=skip, output_dir=str(tmp_path / "seq"))

        data.clear_contexts()
        perf.reset()
        timings = {}
        par = run_all(
            config, skip=skip, output_dir=str(tmp_path / "par"), jobs=2,
            cache_dir=str(tmp_path / "cache"), timings=timings,
        )
        out = capsys.readouterr().out

        assert list(par) == [e for e in EXPERIMENTS if e not in skip]
        # Deterministic per-stage seeds: same numbers either way.
        assert seq["table1"].render() == par["table1"].render()
        assert seq["figure2"].render() == par["figure2"].render()
        # The parent prewarms the shared pipeline into the cache and the
        # workers load it back; their perf snapshots merge into ours.
        assert "prewarm" in timings
        assert {"table1", "figure2"} <= set(timings)
        assert "=== figure2 started ===" in out
        # Stages are submitted largest declared cost first.
        assert out.index("=== table1 started ===") < out.index(
            "=== figure2 started ===")
        assert "=== figure2 done (" in out
        registry = perf.get_registry()
        assert registry.count("pipeline.cache_hit") >= 1
        assert registry.count("denoiser.forward") > 0
        assert list((tmp_path / "cache").glob("pipeline-*.npz"))
