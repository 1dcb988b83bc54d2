"""Perf-history library tests: record shape, history IO and the gate.

The ``repro perf`` verbs that drove this library are gone; it and
``results/perf/history.jsonl`` go next (ROADMAP, "One perf instrument").
"""

import copy
import json

import pytest

from repro.harness.perfhistory import (PERF_SCHEMA_VERSION, RATIO_KEYS,
                                       Regression, append_record,
                                       check_regression, format_report,
                                       load_baseline, read_history,
                                       record_from_bench)


def bench_payload():
    return {
        "schema": 2,
        "source": "microbench",
        "warps": 16,
        "trips": 200,
        "provenance": {"python": "3.x", "platform": "test",
                       "timing_model": "7"},
        "kernels": [
            {"kernel": "uniform", "batched_speedup": 4.0,
             "jit_speedup": 16.0, "jit_vs_batched": 4.0,
             "fused_speedup": 1.5},
            {"kernel": "chain", "batched_speedup": 6.0,
             "jit_speedup": 36.0, "jit_vs_batched": 6.0,
             "fused_speedup": 2.0},
        ],
    }


class TestRecord:
    def test_record_flattens_ratios_and_geomeans(self):
        record = record_from_bench(bench_payload(), source="test")
        assert record["schema"] == PERF_SCHEMA_VERSION
        assert record["source"] == "test"
        assert record["provenance"]["timing_model"] == "7"
        m = record["metrics"]
        assert m["uniform/jit_speedup"] == 16.0
        assert m["chain/batched_speedup"] == 6.0
        # Geomean of 16 and 36 is 24; of 4 and 6 is sqrt(24).
        assert m["geomean/jit_speedup"] == pytest.approx(24.0)
        assert m["geomean/batched_speedup"] == pytest.approx(24.0 ** 0.5)
        assert all(f"geomean/{key}" in m for key in RATIO_KEYS)

    def test_record_tolerates_sparse_schema1_payloads(self):
        payload = {"kernels": [{"kernel": "k", "batched_speedup": 2.0}]}
        record = record_from_bench(payload)
        assert record["metrics"] == {"k/batched_speedup": 2.0,
                                     "geomean/batched_speedup": 2.0}
        assert record["provenance"] == {}
        assert record["source"] == "unknown"

    def test_extra_metrics_fold_in(self):
        record = record_from_bench(
            bench_payload(), extra_metrics={"sweep/heuristic_speedup": 1.05})
        assert record["metrics"]["sweep/heuristic_speedup"] == 1.05


class TestHistoryIO:
    def test_append_read_round_trip(self, tmp_path):
        path = tmp_path / "history.jsonl"
        first = record_from_bench(bench_payload(), source="a")
        second = record_from_bench(bench_payload(), source="b")
        append_record(first, path)
        append_record(second, path)
        records = read_history(path)
        assert [r["source"] for r in records] == ["a", "b"]
        assert records[0]["metrics"] == first["metrics"]

    def test_read_skips_corrupt_and_stale_lines(self, tmp_path):
        path = tmp_path / "history.jsonl"
        good = record_from_bench(bench_payload(), source="good")
        path.write_text("not json\n"
                        + json.dumps({"schema": 999, "metrics": {}}) + "\n"
                        + json.dumps(good, sort_keys=True) + "\n"
                        + "[1, 2]\n")
        records = read_history(path)
        assert [r["source"] for r in records] == ["good"]

    def test_read_missing_file_is_empty(self, tmp_path):
        assert read_history(tmp_path / "absent.jsonl") == []

    def test_load_baseline_by_index(self, tmp_path):
        path = tmp_path / "history.jsonl"
        for source in ("a", "b", "c"):
            append_record(record_from_bench(bench_payload(), source=source),
                          path)
        assert load_baseline("-2", path)["source"] == "b"
        assert load_baseline("-1", path)["source"] == "c"
        assert load_baseline("-9", path) is None

    def test_load_baseline_from_paths(self, tmp_path):
        history = tmp_path / "history.jsonl"
        append_record(record_from_bench(bench_payload(), source="hist"),
                      history)
        assert load_baseline(str(history))["source"] == "hist"
        bench = tmp_path / "BENCH_test.json"
        bench.write_text(json.dumps(bench_payload()))
        loaded = load_baseline(str(bench))
        assert loaded["source"] == str(bench)
        assert loaded["metrics"]["geomean/jit_speedup"] == \
            pytest.approx(24.0)
        assert load_baseline(str(tmp_path / "absent.json")) is None


class TestGate:
    def test_ten_percent_drop_is_caught(self):
        base = record_from_bench(bench_payload())
        bad = copy.deepcopy(base)
        for name in bad["metrics"]:
            bad["metrics"][name] *= 0.90
        found = check_regression(base, bad)
        assert found, "a 10% drop must exceed the 8% default threshold"
        assert all(isinstance(r, Regression) for r in found)
        assert found[0].ratio == pytest.approx(0.90)
        assert "%" in found[0].describe()

    def test_noise_sized_drop_passes(self):
        base = record_from_bench(bench_payload())
        wobble = copy.deepcopy(base)
        for name in wobble["metrics"]:
            wobble["metrics"][name] *= 0.95
        assert check_regression(base, wobble) == []

    def test_prefix_restricts_and_missing_metrics_ignored(self):
        base = record_from_bench(bench_payload())
        cur = copy.deepcopy(base)
        cur["metrics"]["uniform/jit_speedup"] *= 0.5
        del cur["metrics"]["chain/jit_speedup"]      # Kernels come and go.
        base["metrics"]["retired/only_in_baseline"] = 1.0
        assert check_regression(base, cur, prefix="geomean/") == []
        names = [r.metric for r in check_regression(base, cur)]
        assert "uniform/jit_speedup" in names
        assert "chain/jit_speedup" not in names
        assert "retired/only_in_baseline" not in names

    def test_report_renders_trend_table(self):
        records = [record_from_bench(bench_payload(), source=s)
                   for s in ("a", "b")]
        text = format_report(records)
        assert "2 records" in text
        assert "geomean/jit_speedup" in text
        assert format_report([]) == "perf history: no records"
        assert "no tracked metrics" in format_report(records,
                                                     prefix="nope/")


class TestCli:
    """The two ``TestCli`` ids whose checked behaviour is the library's
    and the committed file's, not the retired ``repro perf`` verbs'."""

    def test_check_ignores_a_metric_retired_from_the_report(self):
        """``fused_speedup`` left the report with the fusion fork; the
        committed seed record still carries it and stays a valid baseline
        for records that no longer do."""
        seed = read_history()[0]
        retired = [n for n in seed["metrics"] if n.endswith("/fused_speedup")]
        assert retired, "the committed seed record lost its fused_speedup keys"
        kernels = sorted({n.split("/")[0] for n in seed["metrics"]}
                         - {"geomean"})
        current = record_from_bench({"kernels": [
            {"kernel": k, **{key: seed["metrics"][f"{k}/{key}"]
                             for key in RATIO_KEYS}} for k in kernels]})
        assert not set(retired) & set(current["metrics"])
        assert check_regression(seed, current) == []

    def test_committed_history_passes_the_gate(self):
        """The in-repo history must never ship a regressed tip."""
        records = read_history()
        assert records, "results/perf/history.jsonl must be seeded"
        if len(records) >= 2:
            assert check_regression(records[-2], records[-1],
                                    threshold=0.5, prefix="geomean/") == []
