"""Metrics-plane tests: registry semantics, deterministic folds, the
daemon's Prometheus surface, and per-request stream isolation.

The load-bearing assertions:

* the registry's take/absorb fold is order-independent, so ``-j1`` and
  ``-jN`` sweeps of the same cells render byte-identical Prometheus text;
* a served job increments the same jit counters as the identical request
  executed directly in-process;
* ``GET /metrics`` on a live daemon is valid exposition text covering the
  queue, cache, and jit families;
* ``repro trace --request <id>`` isolates exactly one job's spans from a
  multi-job daemon's merged export;
* the daemon releases the process registry slot on shutdown.
"""

import json
import os
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.bench import benchmark_by_name
from repro.harness.experiment import ExperimentRunner
from repro.obs import metrics
from repro.obs.metrics import LATENCY_BUCKETS_S, MetricsRegistry
from repro.serve import (OptimizeRequest, ServeClient, ServeDaemon,
                         content_hash, execute_request)
from repro.serve.client import ServeError
from repro.serve.protocol import SERVE_SCHEMA_VERSION

from tests.test_serve import ir_request


@pytest.fixture(autouse=True)
def _clean_slot():
    """Every test starts and ends with no live registry."""
    assert metrics.active() is None, "a previous test leaked a registry"
    yield
    metrics.uninstall()


# -- registry semantics -------------------------------------------------------

class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricsRegistry()
        reg.inc("c_total", 2)
        reg.inc("c_total", 3)
        reg.set("g", 7)
        reg.set("g", 4)
        reg.observe("h_seconds", 0.002)
        reg.observe("h_seconds", 999.0)
        assert reg.counter("c_total").value == 5
        assert reg.gauge("g").value == 4
        hist = reg.histogram("h_seconds")
        assert hist.count == 2
        assert hist.sum == pytest.approx(999.002)
        # 0.002 lands in the 0.005 bucket; 999 only in the implicit +Inf.
        assert hist.counts[LATENCY_BUCKETS_S.index(0.005)] == 1
        assert sum(hist.counts) == 1

    def test_labels_are_order_insensitive(self):
        reg = MetricsRegistry()
        reg.inc("c_total", 1, a="x", b="y")
        reg.inc("c_total", 1, b="y", a="x")
        assert reg.counter("c_total", a="x", b="y").value == 2

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.inc("c_total")
        with pytest.raises(ValueError, match="counter"):
            reg.set("c_total", 1)

    def test_render_is_valid_prometheus_text(self):
        reg = MetricsRegistry()
        reg.inc("repro_jit_deopts_total", 3)
        reg.set("repro_serve_queue_depth", 2)
        reg.observe("repro_serve_execute_seconds", 0.05)
        text = reg.render()
        assert text.endswith("\n")
        assert "# TYPE repro_jit_deopts_total counter" in text
        assert "# HELP repro_jit_deopts_total" in text
        assert "repro_jit_deopts_total 3" in text
        assert "# TYPE repro_serve_queue_depth gauge" in text
        assert "# TYPE repro_serve_execute_seconds histogram" in text
        # Histogram buckets are cumulative and close with +Inf/sum/count.
        assert 'repro_serve_execute_seconds_bucket{le="0.05"} 1' in text
        assert 'repro_serve_execute_seconds_bucket{le="120"} 1' in text
        assert 'repro_serve_execute_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_serve_execute_seconds_sum 0.05" in text
        assert "repro_serve_execute_seconds_count 1" in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.inc("c_total", 1, path='a"b\\c')
        assert 'path="a\\"b\\\\c"' in reg.render()

    def test_absorb_is_order_independent(self):
        ops = [("inc", "c_total", 2), ("inc", "c_total", 5),
               ("set", "g", 3), ("set", "g", 9),
               ("obs", "h_seconds", 0.01), ("obs", "h_seconds", 2.0)]

        def registry_for(order):
            shards = [MetricsRegistry() for _ in range(2)]
            for i, (op, name, value) in enumerate(order):
                shard = shards[i % 2]
                getattr(shard, {"inc": "inc", "set": "set",
                                "obs": "observe"}[op])(name, value)
            parent = MetricsRegistry()
            for shard in shards:
                parent.absorb(shard.snapshot())
            return parent

        fwd = registry_for(ops)
        rev = registry_for(list(reversed(ops)))
        assert fwd.render() == rev.render()
        assert fwd.gauge("g").value == 9          # Gauges fold by max.

    def test_snapshot_absorb_round_trip(self):
        reg = MetricsRegistry()
        reg.inc("repro_cache_hits_total", 4, cache="cell")
        reg.observe("h_seconds", 0.3)
        clone = MetricsRegistry()
        clone.absorb(json.loads(json.dumps(reg.snapshot())))
        assert clone.render() == reg.render()

    def test_hooks_are_noops_without_registry(self):
        metrics.inc("c_total")
        metrics.set_gauge("g", 1)
        metrics.raise_gauge("g", 2)
        metrics.observe("h_seconds", 0.1)
        obs.absorb({"session": None, "metrics": {"families": []}})
        assert metrics.active() is None

    def test_worker_lifecycle_respects_env(self):
        """The task's flag decides, not what the fork inherited (the id
        predates the flag: it used to be an environment variable)."""
        inherited = metrics.install()
        metrics.inc("c_total", 40)
        obs.begin_worker(False, False)
        assert metrics.active() is None
        assert obs.end_worker()["metrics"] is None
        metrics.install(inherited)
        obs.begin_worker(False, True)
        reg = metrics.active()
        assert reg is not None and reg is not inherited
        assert reg.render() == ""
        metrics.inc("c_total", 2)
        payload = obs.end_worker()
        assert payload["metrics"] is not None
        assert metrics.active() is None           # Snapshot clears the slot.
        parent = metrics.install()
        obs.absorb(payload)
        assert parent.counter("c_total").value == 2

    def test_preregister_covers_core_families(self):
        reg = MetricsRegistry()
        metrics.preregister(reg)
        text = reg.render()
        for family in ("repro_serve_queue_depth",
                       "repro_serve_queue_wait_seconds",
                       "repro_cache_hits_total",
                       "repro_jit_selections_total",
                       "repro_jit_regions_total",
                       "repro_jit_guard_failures_total",
                       "repro_jit_max_chain"):
            assert f"# TYPE {family} " in text
        assert 'repro_cache_hits_total{cache="cell"} 0' in text
        assert reg.summary()["families"] >= 10


# -- deterministic sweep folds ------------------------------------------------

BENCH = "bspline-vgh"


class TestSweepFold:
    def test_j1_and_jN_registries_render_identically(self):
        def render(jobs):
            registry = metrics.install()
            runner = ExperimentRunner(jobs=jobs, engine="jit")
            cells = runner.prefetch([benchmark_by_name(BENCH)],
                                    configs=("baseline", "uu_heuristic"))
            metrics.uninstall()
            assert all(c.error is None for c in cells)
            return registry.render()

        serial = render(1)
        pooled = render(2)
        assert serial == pooled
        assert "repro_sweep_cells_total 2" in serial
        assert "repro_jit_regions_total" in serial

    def test_cli_meters_pool_workers_and_leaves_the_environment_alone(
            self, capsys):
        """``repro metrics --app`` at ``-j2``: the installed registry is
        the whole switch — worker-side counters arrive, and ``main()``
        neither writes the process environment nor leaks the registry."""
        from repro.cli import main
        environ = dict(os.environ)
        assert main(["metrics", "--app", BENCH, "-j", "2", "--no-cache",
                     "--engine", "jit"]) == 0
        out = capsys.readouterr().out
        assert "repro_sweep_cells_total 2" in out
        assert 'repro_jit_regions_total{result="compiled"} 1' in out
        assert dict(os.environ) == environ
        assert metrics.active() is None


# -- the daemon's metrics surface ---------------------------------------------

@pytest.fixture
def daemon():
    d = ServeDaemon(workers=2, use_cache=False)
    d.start()
    try:
        yield d
    finally:
        d.shutdown()


def _counter_values(registry, prefix):
    out = {}
    for family in registry.snapshot()["families"]:
        if not family["name"].startswith(prefix):
            continue
        if family["kind"] != "counter":
            continue
        for entry in family["series"]:
            if entry["value"]:
                out[(family["name"],
                     tuple(tuple(kv) for kv in entry["labels"]))] = \
                    entry["value"]
    return out


@pytest.mark.usefixtures("tier_up_at_once")
class TestDaemonMetrics:
    def test_daemon_owns_and_releases_the_slot(self):
        d = ServeDaemon(workers=1, use_cache=False)
        assert metrics.active() is d.metrics
        d.start()
        d.shutdown()
        assert metrics.active() is None

    def test_metrics_endpoint_serves_prometheus_text(self, daemon):
        client = ServeClient(daemon.url)
        result = client.submit_and_wait(ir_request(lanes=2), timeout=300)
        assert result.status == "ok", result.error
        text = client.metrics_text()
        # All three families the acceptance criterion names, plus the
        # request counter this very scrape sequence incremented.
        assert "# TYPE repro_serve_queue_depth gauge" in text
        assert "# TYPE repro_cache_hits_total counter" in text
        assert "# TYPE repro_jit_regions_total counter" in text
        assert 'repro_serve_jobs_total{state="done"} 1' in text
        assert ('repro_serve_requests_total{endpoint="submit",'
                'method="POST"} 1') in text
        assert "repro_serve_queue_wait_seconds_count 1" in text
        assert "repro_serve_execute_seconds_count 1" in text

    def test_served_job_counts_like_direct_execution(self):
        req = ir_request(engine="jit")
        d = ServeDaemon(workers=2, use_cache=False)
        d.start()
        try:
            result = ServeClient(d.url).submit_and_wait(req, timeout=300)
            assert result.status == "ok", result.error
            served = _counter_values(d.metrics, "repro_jit_")
        finally:
            d.shutdown()                   # Releases the slot for `direct`.

        direct_reg = metrics.install()
        direct_result = execute_request(req)
        metrics.uninstall()
        assert direct_result.status == "ok"
        direct = _counter_values(direct_reg, "repro_jit_")
        assert served == direct
        assert direct, "expected the jit engine to record region activity"

    def test_stats_carry_metrics_summary(self, daemon):
        stats = ServeClient(daemon.url).stats()
        assert stats["metrics"]["families"] >= 10
        assert stats["metrics"]["series"] >= stats["metrics"]["families"]

    def test_serve_status_renders_metrics_row(self, daemon, capsys):
        from repro.cli import main
        assert main(["serve-status", "--url", daemon.url]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "scrape GET /metrics" in out

    def test_health_reports_uptime_and_schema(self, daemon):
        data = ServeClient(daemon.url).health()
        assert data["ok"] is True
        assert data["schema"] == SERVE_SCHEMA_VERSION
        assert data["uptime_seconds"] >= 0

    def test_known_route_wrong_verb_gets_405(self, daemon):
        # POST to a GET-only route: 405 with an Allow header, not 404.
        req = urllib.request.Request(f"{daemon.url}/health", data=b"{}",
                                     method="POST")
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 405
        assert exc.value.headers["Allow"] == "GET"
        # GET to a POST-only route.
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(f"{daemon.url}/submit", timeout=10)
        assert exc.value.code == 405
        assert exc.value.headers["Allow"] == "POST"
        # Unknown routes still 404 under either verb.
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(f"{daemon.url}/nope", timeout=10)
        assert exc.value.code == 404

    def test_metrics_cli_scrapes_daemon(self, daemon, capsys):
        from repro.cli import main
        assert main(["metrics", "--url", daemon.url]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_serve_queue_depth gauge" in out

    def test_metrics_cli_reports_unreachable_daemon(self, capsys):
        from repro.cli import main
        assert main(["metrics", "--url", "http://127.0.0.1:9"]) == 1
        assert "repro metrics:" in capsys.readouterr().err


# -- per-request correlation --------------------------------------------------

class TestRequestCorrelation:
    def test_trace_filter_isolates_one_jobs_spans(self, tmp_path, capsys):
        from repro.cli import main
        d = ServeDaemon(workers=2, use_cache=False)
        d.start()
        try:
            client = ServeClient(d.url)
            requests = [ir_request(lanes=lanes) for lanes in (2, 4, 8)]
            for req in requests:
                result = client.submit_and_wait(req, timeout=300)
                assert result.status == "ok", result.error
            trace = tmp_path / "daemon.trace.json"
            remarks = tmp_path / "daemon.remarks.jsonl"
            written = d.export_obs(str(trace), str(remarks))
            assert written["events"] > 0
        finally:
            d.shutdown()

        ids = [content_hash(req) for req in requests]
        assert len(set(ids)) == 3
        merged = json.loads(trace.read_text())["traceEvents"]
        stamped = {e["args"]["request"] for e in merged
                   if e.get("args", {}).get("request")}
        assert set(ids) <= stamped

        out = tmp_path / "one.trace.json"
        assert main(["trace", "--in", str(trace),
                     "--request", ids[0], "--out", str(out)]) == 0
        events = json.loads(out.read_text())["traceEvents"]
        assert events, "the filtered trace must keep the job's spans"
        assert all(e["args"]["request"] == ids[0] for e in events)
        # Not just the top-level serve span: the pass manager records
        # its spans via tracer.complete() directly, and those must be
        # request-stamped too for the filter to tell one job's story.
        assert {e["cat"] for e in events} >= {"cell", "pass"}
        assert f"{len(events)} events" in capsys.readouterr().out

        # The remarks filter isolates the same job's remark stream.
        assert main(["remarks", "--in", str(remarks),
                     "--request", ids[1], "--json"]) == 0
        lines = [json.loads(line) for line
                 in capsys.readouterr().out.splitlines() if line]
        assert lines
        assert all(r["context"]["request"] == ids[1] for r in lines)

    def test_result_carries_trace_events_and_optional_profile(self):
        plain = execute_request(ir_request(lanes=2))
        assert plain.status == "ok"
        assert plain.trace_events, "results must ship their spans"
        assert all(e["args"]["request"] == content_hash(ir_request(lanes=2))
                   for e in plain.trace_events
                   if e.get("ph") == "X" and "request" in e.get("args", {}))
        assert plain.profile is None, "profiles are opt-in"

        with_profile = execute_request(ir_request(lanes=2,
                                                  include_profile=True))
        assert with_profile.status == "ok"
        assert with_profile.profile is not None
        assert with_profile.profile.get("request") == \
            content_hash(ir_request(lanes=2, include_profile=True))
