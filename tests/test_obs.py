"""Observability subsystem tests (:mod:`repro.obs`).

Covers the contracts ISSUE-critical consumers rely on: the remark JSONL
schema round-trips for every kind, exported traces are valid Chrome
trace-event JSON (Perfetto-loadable shape), execution profiling never
perturbs simulation results, and parallel sweeps aggregate worker
remarks/statistics deterministically (jobs=1 and jobs=N produce the same
stream).
"""

import json
import os

import numpy as np
import pytest

from repro import obs
from repro.bench import benchmark_by_name
from repro.gpu.counters import Counters
from repro.gpu.timing import TICKS_PER_CYCLE
from repro.harness.cache import CellCache
from repro.harness.experiment import Cell, ExperimentRunner
from repro.obs import ExecutionProfile, Remark, Tracer
from repro.transforms.heuristic import LoopDecision


@pytest.fixture(autouse=True)
def _clean_slot():
    """Never leak a session into other tests."""
    yield
    obs.uninstall()


# -- remark schema -----------------------------------------------------------

class TestRemarkStream:
    def test_jsonl_round_trip_every_kind(self, tmp_path):
        remarks = [
            Remark("applied", "uu", "k", "unroll-and-unmerge with u'=4",
                   loop_id="k:0",
                   args={"p": 2, "s": 24, "u_prime": 4, "cost": 360},
                   context={"app": "bench", "config": "uu_heuristic"}),
            Remark("missed", "uu", "k", "f(p,s,2) >= c", loop_id="k:1",
                   args={"p": 9, "s": 80}),
            Remark("analysis", "dce", "k", "erased dead instructions",
                   args={"erased": 12}),
        ]
        assert sorted(r.kind for r in remarks) == sorted(obs.KINDS)
        path = tmp_path / "r.jsonl"
        assert obs.write_jsonl(remarks, path) == 3
        assert obs.read_jsonl(path) == remarks

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Remark("info", "uu", "k", "nope").validate()
        with pytest.raises(ValueError):
            Remark.from_json({"kind": "info", "pass": "uu",
                              "function": "k", "message": "m"})

    def test_render_is_grepable(self):
        line = obs.render_remark(
            Remark("missed", "uu", "k", "divergent branch",
                   loop_id="k:2", args={"p": 3}))
        assert "[missed ]" in line
        assert "k:2" in line
        assert "p=3" in line


class TestHeuristicRemarks:
    """run-heuristic --report and the remark stream share this rendering."""

    def test_three_decision_shapes(self):
        decisions = [
            LoopDecision("k:0", paths=2, size=24, factor=5,
                         reason="f(2,24,5)=744 < 1024", applied=True),
            LoopDecision("k:1", paths=9, size=80, factor=None,
                         reason="f(p,s,2) >= c", applied=False),
            LoopDecision("k:2", paths=2, size=10, factor=3,
                         reason="selected", applied=False),
        ]
        remarks = obs.decision_remarks(decisions)
        assert [r.kind for r in remarks] == ["applied", "missed", "missed"]
        applied = remarks[0]
        assert applied.args["u_prime"] == 5
        # cost = sum_{i<5} 2^i * 24 = 24 * 31
        assert applied.args["cost"] == 24 * 31
        assert remarks[1].message == "f(p,s,2) >= c"
        assert "not applied" in remarks[2].message
        # Every remark is loop-scoped and carries the heuristic inputs.
        for remark in remarks:
            assert remark.loop_id is not None
            assert "p" in remark.args and "s" in remark.args


# -- Chrome trace shape ------------------------------------------------------

class TestChromeTrace:
    def test_event_shape_is_perfetto_loadable(self):
        tracer = Tracer(pid=100)
        start = tracer.now()
        tracer.complete("gvn", "pass", start, 0.002,
                        args={"insts_before": 10, "insts_after": 8})
        tracer.absorb([{"name": "uu", "cat": "pass", "ph": "X",
                        "ts": 1.0, "dur": 2.0, "pid": 0, "tid": 0}],
                      pid=200)
        data = json.loads(json.dumps(tracer.to_json()))
        assert isinstance(data["traceEvents"], list)
        assert data["displayTimeUnit"] == "ms"
        for event in data["traceEvents"]:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
            assert isinstance(event["ts"], (int, float))
            if event["ph"] == "X":
                assert event["dur"] >= 0
        # One lane label per distinct pid, worker events re-homed.
        labels = {e["pid"]: e["args"]["name"]
                  for e in data["traceEvents"] if e["ph"] == "M"}
        assert labels[100] == "repro harness"
        assert labels[200] == "worker 200"
        assert any(e["pid"] == 200 for e in data["traceEvents"]
                   if e["ph"] == "X")

    def test_write_and_span(self, tmp_path):
        session = obs.install()
        with obs.span("phase-x", cat="phase", note=1):
            pass
        path = tmp_path / "t.json"
        assert session.tracer.write(path) == 1
        data = json.loads(path.read_text())
        (event,) = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert event["name"] == "phase-x"
        assert event["cat"] == "phase"
        assert event["args"] == {"note": 1}


# -- execution profile -------------------------------------------------------

class TestExecutionProfile:
    def test_record_merge_and_occupancy(self):
        a = ExecutionProfile()
        a.note_block("entry", 1, 10, 32, 32)
        a.note_block("loop", 2, 20, 16, 64)
        b = ExecutionProfile()
        b.note_block("loop", 1, 5, 8, 32)
        b.note_block("loop", 0, 3, 0, 0)        # a split's phi moves
        b.note_split("loop", classes=2, rows=4)
        b.note_demotion("tail", warp=3)
        a.merge(b)
        assert a.block_hits == {"entry": 1, "loop": 3}
        assert a.block_ticks["loop"] == 28
        assert a.block_cycles["loop"] == 28 / TICKS_PER_CYCLE
        assert a.block_lanes == {"entry": [32, 32], "loop": [24, 96]}
        assert a.mean_occupancy() == pytest.approx((32 + 16 + 8) / 128)
        assert a.splits == [{"block": "loop", "classes": 2, "rows": 4}]
        assert a.demotions == [{"block": "tail", "warp": 3}]
        back = ExecutionProfile.from_json(
            json.loads(json.dumps(a.to_json())))
        assert back.to_json() == a.to_json()
        text = a.format()
        assert "loop" in text and "occupancy" in text and "splits" in text


# -- session mechanics -------------------------------------------------------

class TestSession:
    def test_disabled_hooks_are_inert(self):
        assert obs.active() is None
        assert obs.tracer() is None
        assert obs.profile() is None
        obs.remark("applied", "uu", "k", "ignored")  # must not raise
        with obs.span("nothing"):
            pass

    def test_context_stamps_remarks(self):
        session = obs.install()
        with obs.context(app="bench", config="uu", sweep_factor=None):
            obs.remark("applied", "uu", "k", "msg", loop_id="k:0", p=2)
        (remark,) = session.remarks
        assert remark.context == {"app": "bench", "config": "uu"}
        assert remark.args == {"p": 2}

    def test_capture_is_isolated(self):
        outer = obs.install()
        with obs.capture() as inner:
            obs.remark("analysis", "gvn", "k", "inner")
        obs.remark("analysis", "gvn", "k", "outer")
        assert [r.message for r in inner.remarks] == ["inner"]
        assert [r.message for r in outer.remarks] == ["outer"]

    def test_worker_lifecycle_round_trip(self):
        parent = obs.install()
        registry = obs.metrics.install()
        obs.remark("analysis", "gvn", "k", "parent-only")
        obs.metrics.inc("c_total", 40)
        # A fork()ed worker inherits the parent session and registry:
        # begin_worker must discard both so the payload holds only what
        # the worker itself collected.
        obs.begin_worker(True, True)
        worker = obs.active()
        assert worker is not parent and not worker.remarks
        assert obs.metrics.active() is not registry
        obs.remark("applied", "uu", "k", "from-worker", loop_id="k:0")
        obs.metrics.inc("c_total", 2)
        payload = obs.end_worker()
        assert obs.active() is None and obs.metrics.active() is None
        obs.install(parent)
        obs.metrics.install(registry)
        try:
            obs.absorb(payload)
        finally:
            obs.metrics.uninstall()
        assert [r.message for r in parent.remarks] == \
            ["parent-only", "from-worker"]
        assert registry.counter("c_total").value == 42

    def test_begin_worker_respects_env(self):
        """The task's flags decide, not what the fork inherited (the id
        predates the flags: they used to be environment variables)."""
        parent = obs.install()
        obs.remark("analysis", "gvn", "k", "parent-only")
        obs.begin_worker(False, False)
        assert obs.active() is None and obs.metrics.active() is None
        assert obs.end_worker() == {"session": None, "metrics": None}
        obs.install(parent)
        obs.begin_worker(True, False)
        worker = obs.active()
        assert worker is not parent
        assert not worker.remarks and not worker.tracer.events
        payload = obs.end_worker()
        assert payload["session"]["remarks"] == []
        assert payload["metrics"] is None


# -- cell cache counters -----------------------------------------------------

class TestCacheCounters:
    def test_hit_miss_put_counters(self, tmp_path):
        cache = CellCache(root=tmp_path)
        cell = Cell(app="a", config="baseline", loop_id=None, factor=1,
                    cycles=1.0, code_size=10, compile_seconds=0.1,
                    counters=Counters(), outputs_match_baseline=True)
        key = "0" * 64
        assert cache.get(key) is None
        cache.put(key, cell)
        assert cache.get(key) is not None
        assert (cache.hits, cache.misses, cache.puts) == (1, 1, 1)
        stats = cache.stats()
        assert stats["session_hits"] == 1
        assert stats["session_misses"] == 1
        assert stats["session_puts"] == 1
        assert "1 hits / 1 misses" in cache.session_line()
        assert "1 entries written" in cache.session_line()


# -- end-to-end: traced runs -------------------------------------------------

BENCH = "bspline-vgh"


class TestTracedRuns:
    def test_traced_uu_run_emits_applied_remark(self):
        session = obs.install()
        runner = ExperimentRunner()
        runner.prefetch([benchmark_by_name(BENCH)],
                        configs=("baseline", "uu_heuristic"))
        applied = [r for r in session.remarks if r.kind == "applied"
                   and r.pass_name == "uu"]
        assert applied, "heuristic u&u must emit an applied remark"
        for key in ("p", "s", "u_prime", "cost"):
            assert key in applied[0].args
        # Pass spans record the IR delta alongside the timing.
        pass_spans = [e for e in session.tracer.events
                      if e.get("cat") == "pass"]
        assert pass_spans
        assert {"insts_before", "insts_after", "blocks_before",
                "blocks_after"} <= set(pass_spans[0]["args"])

    def test_profiling_preserves_bit_identical_execution(self):
        bench = benchmark_by_name("complex")
        for engine in ("jit", "warp"):
            module = bench.build_module()
            off_outputs, off_counters = bench.run(module, engine=engine)
            session = obs.install()
            on_outputs, on_counters = bench.run(module, engine=engine)
            obs.uninstall()
            assert on_counters.cycles == off_counters.cycles, engine
            for name in off_outputs:
                assert np.array_equal(on_outputs[name],
                                      off_outputs[name]), (engine, name)
            assert session.profile.block_hits, engine
            assert session.profile.mean_occupancy() is not None, engine

    @staticmethod
    def _assert_jobs_agree(app, **sweep):
        def stream(jobs):
            session = obs.install()
            runner = ExperimentRunner(jobs=jobs)
            cells = runner.prefetch([benchmark_by_name(app)], **sweep)
            obs.uninstall()
            assert all(c.error is None for c in cells)
            return session, cells

        s1, c1 = stream(1)
        s2, c2 = stream(2)
        assert [r.to_json() for r in s1.remarks] == \
            [r.to_json() for r in s2.remarks]
        # Trace timestamps/pids differ across processes; the set of work
        # performed (span names per category) must not.
        def spans(session):
            return sorted((e["name"], e["cat"])
                          for e in session.tracer.events
                          if e.get("ph") == "X")
        assert spans(s1) == spans(s2)
        assert [(c.cycles, c.code_size) for c in c1] == \
            [(c.cycles, c.code_size) for c in c2]

    def test_parallel_aggregation_is_deterministic(self):
        self._assert_jobs_agree(BENCH, configs=("baseline", "uu_heuristic"))

    def test_parallel_aggregation_covers_per_loop_cells(self):
        """Per-loop cells reuse the functions their plan does not name
        from their process's memo, and which cell compiles a function
        first differs between one process and a pool: a reuse re-emits
        the remarks and pass spans the compile emitted, so the stream is
        the same either way."""
        self._assert_jobs_agree("bezier-surface",
                                configs=("baseline", "unroll", "uu"),
                                factors=(2, 4))


class TestCliExport:
    def test_trace_out_produces_perfetto_and_remarks(self, tmp_path, capsys):
        from repro.cli import main
        trace_path = tmp_path / "run.trace.json"
        environ = dict(os.environ)
        assert main(["run-heuristic", "--app", BENCH,
                     "--trace-out", str(trace_path)]) == 0
        data = json.loads(trace_path.read_text())
        assert data["traceEvents"]
        assert all({"name", "ph", "ts", "pid", "tid"} <= set(e)
                   for e in data["traceEvents"])
        remarks = obs.read_jsonl(tmp_path / "run.trace.remarks.jsonl")
        assert any(r.kind == "applied" for r in remarks)
        # Neither a session nor an environment write leaks past main().
        assert obs.active() is None
        assert dict(os.environ) == environ


# -- the disabled path -------------------------------------------------------

def test_obs_disabled_path_does_no_work():
    """With no session installed, the obs hooks must construct nothing.

    The <3% disabled-overhead contract is enforced structurally: a full
    compile + simulate with no session installed may touch the obs layer
    only through ``is None`` tests, so remark construction, session
    emission, and trace-event recording are patched to raise.  Any code
    path that does observable work while disabled fails loudly here,
    independent of machine speed.
    """
    from unittest import mock

    from repro.obs import metrics as obs_metrics
    from repro.obs import session as obs_session
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.session import ObsSession
    from repro.obs.trace import Tracer
    from repro.transforms.pipeline import compile_module

    assert obs_session.active() is None, "a test leaked a live session"
    assert obs_metrics.active() is None, "a test leaked a live registry"

    def forbid(name):
        def _raise(*args, **kwargs):
            raise AssertionError(
                f"{name} ran with tracing disabled — the obs disabled "
                "path must be a bare `is None` test")
        return _raise

    bench = benchmark_by_name("bspline-vgh")
    module = bench.build_module()
    with mock.patch.object(obs_session, "Remark",
                           side_effect=forbid("Remark()")), \
            mock.patch.object(ObsSession, "emit", forbid("ObsSession.emit")), \
            mock.patch.object(Tracer, "complete", forbid("Tracer.complete")), \
            mock.patch.object(obs_metrics, "Counter",
                              side_effect=forbid("metrics.Counter()")), \
            mock.patch.object(obs_metrics, "Gauge",
                              side_effect=forbid("metrics.Gauge()")), \
            mock.patch.object(obs_metrics, "Histogram",
                              side_effect=forbid("metrics.Histogram()")), \
            mock.patch.object(MetricsRegistry, "inc",
                              forbid("MetricsRegistry.inc")), \
            mock.patch.object(MetricsRegistry, "observe",
                              forbid("MetricsRegistry.observe")):
        compile_module(module, "uu_heuristic")
        bench.run(module)
