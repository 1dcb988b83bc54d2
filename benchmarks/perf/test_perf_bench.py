"""Self-test of the benchmark: run it at --quick size, validate what it emits.

Not part of tier-1 (``pyproject.toml`` has ``testpaths = ["tests"]``); run it
with ``PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_bench.py``
(``benchmarks/conftest.py`` imports the program).  It takes
under a minute.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR))
from perfbench.spec import workload_names  # noqa: E402

SPEC = json.loads((PERF_DIR.parents[1] / "BENCHMARK.json").read_text())
#: The declared workloads and the two the driver does not gate.
WORKLOADS = workload_names(SPEC)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def run(*args):
    return subprocess.run([sys.executable, str(PERF_DIR / "run.py"), *args],
                          capture_output=True, text=True, timeout=300)


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_emits_every_declared_metric(workload, trace):
    done = run("--workload", workload, "--quick", "--seed", "7",
               "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, metric["name"]
    if trace:
        assert result["metrics"]["trace.coverage_share"]["value"] >= 0.9


def test_same_seed_same_inputs():
    """The seed fixes the operation order; the work is seed-independent."""
    sys.path.insert(0, str(PERF_DIR.parents[1] / "src"))
    from perfbench.workloads import WORKLOADS as classes
    for name in ("kernel_exec", "sweep_warm"):
        plans = []
        for seed in (1, 1, 2):
            workload = classes[name](seed, True, PERF_DIR / ".work" / "t")
            workload.prepare()
            plans.append(getattr(workload, "plan", None) or workload.order)
        assert plans[0] == plans[1]
        assert sorted(plans[0]) == sorted(plans[2])


def test_compare_flags_a_regression(tmp_path):
    def result_set(wall):
        metrics = {m["name"]: {"values": [1.0, 1.01, 0.99]}
                   for m in SPEC["end_to_end"]}
        metrics["wall_s"] = {"values": [wall, wall * 1.01, wall * 0.99]}
        return {"repeats": 3, "workloads": {"sweep_cold": {
            "end_to_end": metrics, "attempted": 3, "failed": 0}}}
    for name, wall in (("a", 1.0), ("same", 1.02), ("slow", 1.5)):
        (tmp_path / f"{name}.json").write_text(json.dumps(result_set(wall)))
    same = run("--compare", str(tmp_path / "a.json"),
               str(tmp_path / "same.json"))
    assert same.returncode == 0 and "regressed" in same.stdout
    slow = run("--compare", str(tmp_path / "a.json"),
               str(tmp_path / "slow.json"))
    assert slow.returncode == 1
    assert re.search(r"wall_s .* regressed", slow.stdout)


def test_refuses_to_run_without_the_program(tmp_path):
    """In a tree with only BENCHMARK.json and the benchmark's own files the
    run must fail without printing a result."""
    import shutil
    shutil.copy(PERF_DIR.parents[1] / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF_DIR, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert not done.stdout.strip()
