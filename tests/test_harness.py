"""Harness tests: stats, experiment runner, table/figure generators."""

import math

import numpy as np
import pytest

from repro.bench import benchmark_by_name
from repro.harness import (ExperimentRunner, geomean, mean_and_rsd, median,
                           relative_std, simulate_runs)
from repro.harness.fig6 import Fig6Point, format_figure as fmt6, series as s6
from repro.harness.fig7 import format_figure as fmt7, series as s7
from repro.harness.fig8 import format_figure as fmt8, series as s8
from repro.harness.indepth import compare, format_comparison
from repro.harness.table1 import build_row, format_table


class TestStats:
    def test_median(self):
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_geomean_ignores_nonpositive(self):
        assert geomean([2.0, 0.0, 8.0]) == pytest.approx(4.0)

    def test_relative_std(self):
        assert relative_std([5.0, 5.0, 5.0]) == 0.0
        assert relative_std([4.0, 6.0]) > 0

    def test_simulated_runs_deterministic_and_scaled(self):
        a = simulate_runs(100.0, 2.0, runs=20, seed=7)
        b = simulate_runs(100.0, 2.0, runs=20, seed=7)
        assert a == b
        mean, rsd = mean_and_rsd(a)
        assert mean == pytest.approx(100.0, rel=0.05)
        assert 0.5 < rsd < 5.0


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(max_instructions=4000, compile_timeout=30)


@pytest.fixture(scope="module")
def small_benches():
    return [benchmark_by_name("mandelbrot"), benchmark_by_name("complex")]


class TestRunner:
    def test_cells_cached(self, runner, small_benches):
        bench = small_benches[0]
        a = runner.baseline(bench)
        b = runner.baseline(bench)
        assert a is b

    def test_speedup_metrics(self, runner, small_benches):
        bench = small_benches[0]
        base = runner.baseline(bench)
        cell = runner.cell(bench, "unmerge", bench.loop_ids()[0], 1)
        assert cell.speedup_over(base) > 0
        # Unmerging can shrink code below baseline when the exposed facts
        # delete more than the duplication added, so only positivity holds.
        assert cell.size_ratio_over(base) > 0
        assert cell.compile_ratio_over(base) > 0

    def test_complex_slows_down_under_uu(self, runner, small_benches):
        # The paper's worst case must reproduce directionally.
        bench = small_benches[1]
        base = runner.baseline(bench)
        cell = runner.cell(bench, "uu", "complex_pow:0", 8)
        if not cell.timed_out:
            assert cell.speedup_over(base) < 0.9


class TestExhibits:
    def test_fig6_series_and_rendering(self, runner, small_benches):
        points = s6(runner, small_benches[:1])
        # 1 loop x 3 factors + 1 heuristic point.
        assert len(points) == 4
        heur = [p for p in points if p.loop_id is None]
        assert len(heur) == 1
        for metric in ("speedup", "size_ratio", "compile_ratio"):
            text = fmt6(points, metric)
            assert "mandelbrot" in text

    def test_fig7_series(self, runner, small_benches):
        rows = s7(runner, small_benches[:1])
        assert len(rows) == 3  # Factors 2, 4, 8.
        assert {r.factor for r in rows} == {2, 4, 8}
        assert "u&u" in fmt7(rows)

    def test_fig8_series(self, runner, small_benches):
        pts_a = s8("unroll", runner, small_benches[:1])
        pts_b = s8("unmerge", runner, small_benches[:1])
        assert len(pts_a) == 3 and len(pts_b) == 3
        assert "unroll" in fmt8(pts_a, "unroll")
        with pytest.raises(ValueError):
            s8("bogus", runner, small_benches[:1])

    def test_table1_row(self, runner, small_benches):
        row = build_row(small_benches[0], runner)
        assert row.name == "mandelbrot"
        assert row.baseline_mean_ms == pytest.approx(
            small_benches[0].paper.baseline_ms, rel=0.2)
        assert row.loops == 1
        text = format_table([row])
        assert "mandelbrot" in text and "TABLE I" in text

    def test_table1_noise_seeds_are_the_same_in_every_process(
            self, runner, small_benches, monkeypatch):
        # Python salts ``hash(str)`` per process; the noise model's seeds
        # come from a stable digest of the app name, pinned here.
        from repro.harness import table1

        seeds = []

        def spy(base_ms, rsd, runs=20, seed=0):
            seeds.append(seed)
            return [base_ms] * runs
        monkeypatch.setattr(table1, "simulate_runs", spy)
        build_row(small_benches[0], runner)
        assert seeds == [60784, 65239]

    def test_indepth_compare(self, runner, small_benches):
        cmp = compare("mandelbrot", "mandelbrot_escape:0", 2, runner)
        assert cmp.baseline["cycles"] > 0
        assert cmp.transformed["cycles"] > 0
        text = format_comparison(cmp)
        assert "inst_misc" in text
