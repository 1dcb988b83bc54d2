"""Regenerates the Section V in-depth analyses (XSBench, rainflow, complex,
bezier-surface) and checks the counter-level shape the paper reports.
"""

from conftest import write_artifact

from repro.harness.indepth import compare, format_comparison


def test_indepth_xsbench(benchmark, runner, results_dir):
    """Paper: selp -> branches; inst_misc -55%; IPC x1.88; WEE 62.9 -> 18.9."""
    cmp = benchmark.pedantic(lambda: compare("XSBench", "grid_search:0", 4,
                                             runner),
                             iterations=1, rounds=1)
    text = format_comparison(cmp)
    write_artifact(results_dir, "indepth_xsbench.txt", text)
    print("\n" + text)

    assert cmp.reduction("inst_misc") > 25.0         # Data moves eliminated.
    assert cmp.ratio("ipc") > 1.1                    # IPC rises.
    assert cmp.transformed["warp_execution_efficiency"] < \
        cmp.baseline["warp_execution_efficiency"]    # WEE drops...
    assert cmp.speedup > 1.0                         # ...yet it is faster.


def test_indepth_rainflow(benchmark, runner, results_dir):
    """Paper: inst_misc -77%, inst_control -45%, gld -17%, IPC x2.04 @ u4."""
    cmp = benchmark.pedantic(lambda: compare("rainflow", "rainflow_count:0", 4,
                                             runner),
                             iterations=1, rounds=1)
    text = format_comparison(cmp)
    write_artifact(results_dir, "indepth_rainflow.txt", text)
    print("\n" + text)

    assert cmp.reduction("inst_misc") > 30.0
    assert cmp.reduction("inst_control") > 10.0
    assert cmp.ratio("ipc") > 1.2
    assert cmp.speedup > 1.0


def test_indepth_complex(benchmark, runner, results_dir):
    """Paper: WEE 100 -> 19.4, stall_inst_fetch 3.7 -> 79.6, slowdown 0.11x."""
    cmp = benchmark.pedantic(lambda: compare("complex", "complex_pow:0", 8,
                                             runner),
                             iterations=1, rounds=1)
    text = format_comparison(cmp)
    write_artifact(results_dir, "indepth_complex.txt", text)
    print("\n" + text)

    assert cmp.baseline["warp_execution_efficiency"] > 80.0
    assert cmp.transformed["warp_execution_efficiency"] < 50.0
    assert cmp.transformed["stall_inst_fetch"] > \
        cmp.baseline["stall_inst_fetch"]
    assert cmp.speedup < 0.8                         # Clear slowdown.


def test_indepth_bezier(benchmark, runner, results_dir):
    """Paper Section III-B: ~30% faster on the blend loop at factor 2."""
    cmp = benchmark.pedantic(lambda: compare("bezier-surface",
                                             "bezier_blend:0", 2, runner),
                             iterations=1, rounds=1)
    text = format_comparison(cmp)
    write_artifact(results_dir, "indepth_bezier.txt", text)
    print("\n" + text)

    assert cmp.speedup > 1.0
    assert cmp.reduction("inst_misc") > 15.0
