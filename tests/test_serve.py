"""Optimization-service tests: protocol, job queue, daemon end to end.

The load-bearing assertions:

* a served result is bit-identical (modulo honest compile wall-clock) to
  the same request executed directly in-process;
* N identical submissions perform exactly one computation (dedup both
  in-flight and via the finished-job memo);
* shutdown — explicit or via SIGTERM — joins every thread the daemon
  started.
"""

import json
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.directive import LoopDirective
from repro.frontend import ast as F
from repro.frontend.lower import lower_kernels
from repro.harness.cache import CellCache
from repro.harness.experiment import ExperimentRunner
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.serve import (OptimizeRequest, OptimizeResult, ServeClient,
                         ServeDaemon, ast_from_json, ast_to_json,
                         content_hash, execute_request, parse_plan)
from repro.serve.client import ServeError
from repro.serve.jobs import JobQueue, JobState
from repro.serve.protocol import ProtocolError
from repro.transforms.pipeline import compile_module

CORPUS_IR = (Path(__file__).parent / "corpus"
             / "fuzz_seed7_structured.ll").read_text()
#: One loop, ``fuzz80:0``, with two paths through its body.
BRANCHY_IR = (Path(__file__).parent / "corpus"
              / "phi_parallel_copy.ll").read_text()


def ir_request(**overrides):
    kwargs = dict(ir=CORPUS_IR, config="uu_heuristic", lanes=8)
    kwargs.update(overrides)
    return OptimizeRequest(**kwargs)


def semantic(data):
    """A result minus its honest nondeterminism (wall-clock): compile
    seconds and the trace-event stream, whose ts/dur are wall-clock."""
    return {k: v for k, v in data.items()
            if k not in ("compile_seconds", "trace_events")}


def sample_kernel():
    return F.KernelDef(
        name="axpy",
        params=[F.Param("n", "i64"), F.Param("a", "i64")],
        body=[
            F.Assign("acc", F.Lit(0, "i64")),
            F.For("i", F.Lit(0, "i64"), F.Var("n"),
                  [F.Assign("acc", F.BinOp(
                      "+", F.Var("acc"),
                      F.BinOp("*", F.Var("i"), F.Var("a"))))]),
            F.Return(F.Var("acc")),
        ],
        ret_type="i64")


# -- protocol -----------------------------------------------------------------

class TestProtocol:
    def test_request_wire_round_trip(self):
        req = ir_request(loop_id=None, priority=3,
                         directives=("unroll(4)@k/L0",))
        back = OptimizeRequest.from_json(json.loads(
            json.dumps(req.to_json())))
        assert back == req
        assert content_hash(back) == content_hash(req)

    def test_request_needs_exactly_one_source(self):
        with pytest.raises(ProtocolError):
            OptimizeRequest(config="baseline").validate()
        with pytest.raises(ProtocolError):
            OptimizeRequest(app="complex", ir="x").validate()

    def test_per_loop_config_needs_loop_id(self):
        with pytest.raises(ProtocolError, match="loop_id"):
            OptimizeRequest(ir="x", config="uu").validate()

    def test_unknown_fields_and_schema_rejected(self):
        base = ir_request().to_json()
        with pytest.raises(ProtocolError, match="unknown request fields"):
            OptimizeRequest.from_json(dict(base, surprise=1))
        with pytest.raises(ProtocolError, match="schema"):
            OptimizeRequest.from_json(dict(base, schema=999))

    def test_content_hash_excludes_engine_and_priority(self):
        # Engines are bit-identical by contract; priority only schedules.
        assert content_hash(ir_request()) == \
            content_hash(ir_request(engine="warp", priority=9))
        assert content_hash(ir_request()) != \
            content_hash(ir_request(config="baseline"))
        assert content_hash(ir_request()) != \
            content_hash(ir_request(lanes=4))

    def test_ast_codec_round_trips_to_identical_ir(self):
        kernel = sample_kernel()
        data = json.loads(json.dumps(ast_to_json(kernel)))
        back = ast_from_json(data)
        assert print_module(lower_kernels([kernel], "m")) == \
            print_module(lower_kernels([back], "m"))

    def test_ast_codec_preserves_loop_pragmas(self):
        kernel = sample_kernel()
        kernel.loop_pragmas[0] = "unroll(2)"
        back = ast_from_json(ast_to_json(kernel))
        assert back.loop_pragmas == {0: "unroll(2)"}

    def test_ast_codec_rejects_unknown_node(self):
        with pytest.raises(ProtocolError, match="unknown AST node"):
            ast_from_json({"node": "EvalStmt", "expr": None})

    def test_parse_directive(self):
        plan = parse_plan(["unroll(4)@k/L0", "unmerge@k/L0", " uu(2)@k:1 "])
        assert plan == (LoopDirective("k/L0", 4, False),
                        LoopDirective("k/L0", 1, True),
                        LoopDirective("k:1", 2, True))
        # The pragma spelling round-trips through str().
        assert parse_plan([str(d) for d in plan]) == plan
        for bad in ("Unroll[4]", "unmerge", "unroll(4)", "unroll@k:0",
                    "unroll(x)@k:0", "unroll(0)@k:0", "unmerge(2)@k:0",
                    "unroll(1)@k:0", "uu(1)@k:0",   # the identity factor
                    "interchange(i,j)@k:0", "interchange(2)@k:0"):
            with pytest.raises(ProtocolError):
                parse_plan([bad])

    def test_directives_rejected_at_execution(self):
        """Fail closed: a directive list the one parser cannot turn into
        a plan is an error result, never a silently ignored field."""
        for directives in (("unroll(4)",),              # names no loop
                           ("interchange(2)@fuzz7:0",),  # unknown name
                           ("unroll(4)@fuzz7:0", "Unroll[4]")):
            result = execute_request(ir_request(directives=directives))
            assert result.status == "error", directives
            assert "bad directive" in result.error
        # Directives name their own loops: a per-loop coordinate on top
        # is ambiguous, and the loops must exist — in an app and in a
        # submitted module alike (no function would claim the directive,
        # so it would otherwise vanish without a row or a remark).
        result = execute_request(ir_request(
            config="uu", loop_id="fuzz7:0", factor=2,
            directives=("unmerge@fuzz7:0",)))
        assert result.status == "error" and "drop loop_id" in result.error
        for request in (
                OptimizeRequest(app="coordinates",
                                directives=("unmerge@nope:9",)),
                ir_request(directives=("unmerge@nosuch:0",)),
                ir_request(directives=("unmerge@fuzz7:0", "uu(2)@fuzz7:9")),
                ir_request(config="uu", loop_id="nosuch:0", factor=2)):
            result = execute_request(request)
            assert result.status == "error", request
            assert "unknown loop" in result.error


# -- job queue ----------------------------------------------------------------

class TestJobQueue:
    def test_priority_order_with_fifo_ties(self):
        queue = JobQueue(lambda req: req, workers=1, autostart=False)
        low1, _ = queue.submit({"n": 1}, "h1", priority=0)
        high, _ = queue.submit({"n": 2}, "h2", priority=5)
        low2, _ = queue.submit({"n": 3}, "h3", priority=0)
        order = [queue._pop().id for _ in range(3)]
        assert order == [high.id, low1.id, low2.id]

    def test_dedup_inflight_and_memo(self):
        ran = []

        def executor(req):
            ran.append(req)
            time.sleep(0.05)
            return {"status": "ok"}

        queue = JobQueue(executor, workers=1)
        try:
            jobs = [queue.submit({"k": 1}, "same")[0] for _ in range(3)]
            assert len({job.id for job in jobs}) == 1
            queue.wait(jobs[0].id, timeout=10)
            memo, deduped = queue.submit({"k": 1}, "same")
            assert deduped and memo.id == jobs[0].id
            assert memo.state == JobState.DONE
            stats = queue.stats()
            assert stats["executed"] == 1 and len(ran) == 1
            assert stats["submitted"] == 4 and stats["deduped"] == 3
            assert jobs[0].clients == 4
        finally:
            queue.shutdown()

    def test_cancel_queued_not_running(self):
        queue = JobQueue(lambda req: req, workers=1, autostart=False)
        job, _ = queue.submit({}, "h")
        assert queue.cancel(job.id)
        assert job.state == JobState.CANCELLED and job.done_event.is_set()
        assert not queue.cancel(job.id)          # Already terminal.
        assert not queue.cancel("j999999")       # Unknown.
        # A cancelled job no longer serves dedup hits: resubmit runs fresh.
        job2, deduped = queue.submit({}, "h")
        assert not deduped and job2.id != job.id

    def test_failed_job_keeps_traceback_and_reruns(self):
        queue = JobQueue(lambda req: 1 / 0, workers=1)
        try:
            job, _ = queue.submit({}, "boom")
            queue.wait(job.id, timeout=10)
            assert job.state == JobState.FAILED
            assert "ZeroDivisionError" in job.error
            job2, deduped = queue.submit({}, "boom")
            assert not deduped                   # Failures are not memoized.
        finally:
            queue.shutdown()

    def test_shutdown_cancels_queued_and_joins_workers(self):
        queue = JobQueue(lambda req: time.sleep(0.02) or {}, workers=2,
                         autostart=False)
        jobs = [queue.submit({}, f"h{i}")[0] for i in range(4)]
        queue.shutdown(wait=True)
        assert all(job.state == JobState.CANCELLED for job in jobs)
        assert queue.alive_workers == 0
        with pytest.raises(RuntimeError):
            queue.submit({}, "late")

    def test_memo_retention_is_bounded(self):
        queue = JobQueue(lambda req: {}, workers=1, retain=2)
        try:
            jobs = [queue.submit({}, f"h{i}")[0] for i in range(4)]
            for job in jobs:
                queue.wait(job.id, timeout=10)
            assert queue.get(jobs[0].id) is None     # Trimmed.
            assert queue.get(jobs[-1].id) is not None
        finally:
            queue.shutdown()


# -- execution core -----------------------------------------------------------

class TestExecuteRequest:
    def test_ir_subject_measured_against_baseline(self):
        result = execute_request(ir_request())
        assert result.status == "ok", result.error
        assert result.outputs_match_baseline
        assert result.baseline_cycles > 0 and result.cycles > 0
        assert result.optimized_ir and "define" in result.optimized_ir
        assert result.remarks and result.outputs
        assert all(r.get("context", {}).get("request") ==
                   result.content_hash for r in result.remarks)

    def test_kernel_subject_round_trips(self):
        req = OptimizeRequest(kernel=ast_to_json(sample_kernel()),
                              config="uu_heuristic", lanes=4)
        result = execute_request(req)
        assert result.status == "ok", result.error
        assert result.outputs_match_baseline

    def test_kernel_named_like_an_app_does_not_read_its_tuned_file(self):
        """``tuned`` files are per registered app: a client's kernel name
        is never a path into the tuned directory — the submission gets the
        announced heuristic fallback, not the app's (unmatchable) plan."""
        import dataclasses
        from repro.tune.store import resolve_decisions

        assert resolve_decisions("complex")[0]      # the file is there
        kernel = ast_to_json(dataclasses.replace(sample_kernel(),
                                                 name="complex"))
        with pytest.warns(RuntimeWarning, match="not a registered app"):
            tuned = execute_request(OptimizeRequest(
                kernel=kernel, config="tuned", lanes=4))
        assert tuned.status == "ok" and tuned.name == "complex"
        heuristic = execute_request(OptimizeRequest(
            kernel=kernel, config="uu_heuristic", lanes=4))
        assert tuned.optimized_ir == heuristic.optimized_ir
        assert tuned.decisions == heuristic.decisions
        assert any(r["kind"] == "missed" and r["pass"] == "tuned-uu"
                   for r in tuned.remarks)

    def test_app_submission_matches_harness(self, tmp_path):
        runner = ExperimentRunner(cache=CellCache(tmp_path))
        req = OptimizeRequest(app="coordinates", config="uu_heuristic")
        result = execute_request(req, runner=runner)
        assert result.status == "ok", result.error

        from repro.bench import benchmark_by_name
        serial = ExperimentRunner()
        bench_base = serial.baseline(benchmark_by_name("coordinates"))
        assert result.baseline_cycles == bench_base.cycles
        assert result.speedup > 0 and result.decisions
        assert result.optimized_ir

    def test_app_cell_is_the_committed_exhibit(self):
        """Without a runner an app cell compiles under the growth cap of
        the CLI and of every committed exhibit.  This cell compiles to
        different code under a larger cap, so it reads Fig 6a's value
        only if the caps agree."""
        fig6a = (Path(__file__).parent.parent / "results"
                 / "fig6a.txt").read_text().splitlines()
        (row,) = [line.split() for line in fig6a if line.split()[:3]
                  == ["mandelbrot", "mandelbrot_escape:0", "4"]]
        result = execute_request(OptimizeRequest(
            app="mandelbrot", config="uu", loop_id="mandelbrot_escape:0",
            factor=4, include_ir=False))
        assert result.status == "ok", result.error
        assert f"{result.speedup:.3f}x" == row[3] == "1.453x"

    def test_unknown_loop_id_is_protocol_error(self):
        result = execute_request(
            OptimizeRequest(app="coordinates", config="uu",
                            loop_id="nope/L9", factor=2))
        assert result.status == "error"
        assert "unknown loop" in result.error

    def test_broken_ir_reports_error_result(self):
        result = execute_request(OptimizeRequest(ir="this is not IR",
                                                 config="baseline"))
        assert result.status == "error" and result.error
        assert result.content_hash          # Hash still computed.


# -- daemon end to end --------------------------------------------------------

@pytest.fixture
def daemon():
    d = ServeDaemon(workers=2, use_cache=False)
    d.start()
    try:
        yield d
    finally:
        d.shutdown()


class TestDaemon:
    def test_served_result_bit_identical_to_direct(self, daemon):
        req = ir_request()
        direct = execute_request(req)
        client = ServeClient(daemon.url)
        served = client.submit_and_wait(req, timeout=120)
        assert served.status == "ok", served.error
        assert semantic(served.to_json()) == semantic(direct.to_json())

    def test_served_directives_equal_direct_plan(self, daemon):
        """A served directive list is the direct compile of the same plan,
        bit for bit: IR, cycles and counters."""
        from repro.fuzz.oracle import BARE_MAX_INSTRUCTIONS, run_one_warp
        from repro.harness.cache import counters_to_json
        req = ir_request(ir=BRANCHY_IR, directives=("unroll(4)@fuzz80:0",
                                                    "unmerge@fuzz80:0"))
        served = ServeClient(daemon.url).submit_and_wait(req, timeout=120)
        assert served.status == "ok", served.error

        module = parse_module(BRANCHY_IR, "submission")
        compiled = compile_module(
            module, req.config, max_instructions=BARE_MAX_INSTRUCTIONS,
            plan=[LoopDirective("fuzz80:0", 4, False),
                  LoopDirective("fuzz80:0", 1, True)])
        _, counters = run_one_warp(module, req.lanes, None)
        assert served.optimized_ir == print_module(module)
        assert served.cycles == counters.cycles
        assert served.counters == json.loads(
            json.dumps(counters_to_json(counters)))
        assert served.outputs_match_baseline
        # Both directives ran, and a different list is different code.
        assert [(d["reason"], d["applied"]) for d in served.decisions] == \
            [("unroll", True), ("unmerge", True)]
        assert [d.applied for d in compiled.heuristic_decisions] == \
            [True, True]
        other = execute_request(ir_request(
            ir=BRANCHY_IR, directives=("unmerge@fuzz80:0",)))
        assert other.status == "ok", other.error
        assert other.optimized_ir != served.optimized_ir

    def test_identical_submissions_compute_once(self, daemon):
        client = ServeClient(daemon.url)
        req = ir_request(lanes=4)
        tickets = [client.submit(req) for _ in range(3)]
        assert len({t["job_id"] for t in tickets}) == 1
        results = [client.result(tickets[i]["job_id"], wait=60)
                   for i in range(3)]
        assert len({json.dumps(semantic(r), sort_keys=True)
                    for r in results}) == 1
        stats = client.stats()["queue"]
        assert stats["executed"] == 1
        assert stats["submitted"] == 3 and stats["deduped"] == 2

    def test_status_result_cancel_endpoints(self, daemon):
        client = ServeClient(daemon.url)
        ticket = client.submit(ir_request(lanes=2))
        status = client.status(ticket["job_id"])
        assert status["job_id"] == ticket["job_id"]
        assert status["state"] in ("queued", "running", "done")
        with pytest.raises(ServeError) as err:
            client.status("j424242")
        assert err.value.code == 404
        cancelled = client.cancel("j424242")
        assert cancelled["cancelled"] is False
        assert client.health()["ok"] is True

    def test_malformed_submission_is_400(self, daemon):
        client = ServeClient(daemon.url)
        with pytest.raises(ServeError) as err:
            client._call("/submit", {"schema": 1, "config": "nope"})
        assert err.value.code == 400

    def test_retired_engine_value_fails_closed(self, daemon):
        """``batched`` named an engine once.  The hash excludes the
        engine, so the retired value arrives as a duplicate of a request
        already memoized — and must still be refused, not served."""
        client = ServeClient(daemon.url)
        client.submit_and_wait(ir_request(lanes=3), timeout=120)
        with pytest.raises(ServeError) as err:
            client.submit(ir_request(lanes=3, engine="batched"))
        assert err.value.code == 400
        assert "unknown engine 'batched'" in str(err.value)
        with pytest.raises(ProtocolError, match="unknown engine"):
            ir_request(engine="batched").validate()

    def test_shutdown_leaves_no_threads(self):
        before = {t.ident for t in threading.enumerate()}
        d = ServeDaemon(workers=3, use_cache=False)
        d.start()
        client = ServeClient(d.url)
        client.submit_and_wait(ir_request(lanes=2), timeout=120)
        d.shutdown()
        d.shutdown()                         # Idempotent.
        leaked = [t for t in threading.enumerate()
                  if t.ident not in before and t.is_alive()]
        assert leaked == []

    def test_sigterm_triggers_clean_shutdown(self):
        d = ServeDaemon(workers=2, use_cache=False)
        previous = d.install_signal_handlers()
        try:
            d.start()
            os.kill(os.getpid(), signal.SIGTERM)
            deadline = time.time() + 15
            while time.time() < deadline and not d._stopped:
                time.sleep(0.05)
            assert d._stopped
            assert d.queue.alive_workers == 0
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            d.shutdown()

    def test_daemon_serves_the_cells_the_cli_computed(self, tmp_path,
                                                      monkeypatch):
        """A default daemon keys its cells as the CLI does: after `repro
        run-uu` warmed the cache, the same cell is served without a
        single miss."""
        from repro import cli
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        args = cli.build_parser().parse_args(
            ["run-uu", "--app", "mandelbrot", "--factor", "4"])
        cli.cmd_run_uu(args)
        d = ServeDaemon(workers=1)
        d.start()
        try:
            served = ServeClient(d.url).submit_and_wait(OptimizeRequest(
                app="mandelbrot", config="uu", loop_id="mandelbrot_escape:0",
                factor=4), timeout=300)
            assert served.status == "ok", served.error
            assert d.runner.cache.misses == 0
            assert d.runner.cache.hits >= 2      # baseline + the uu cell.
        finally:
            d.shutdown()

    def test_app_request_uses_shared_cache(self, tmp_path):
        cache = CellCache(tmp_path)
        runner = ExperimentRunner(cache=cache)
        d = ServeDaemon(workers=2, runner=runner)
        d.start()
        try:
            client = ServeClient(d.url)
            req = OptimizeRequest(app="coordinates", config="uu_heuristic",
                                  include_ir=False)
            first = client.submit_and_wait(req, timeout=300)
            assert first.status == "ok", first.error
            assert cache.stats()["entries"] >= 2   # baseline + heuristic.
            # Same coordinates via a second daemon on the same cache dir:
            # the cells are read back, not recomputed.
            d2 = ServeDaemon(workers=1,
                             runner=ExperimentRunner(
                                 cache=CellCache(tmp_path)))
            d2.start()
            try:
                again = ServeClient(d2.url).submit_and_wait(req, timeout=300)
                assert again.status == "ok", again.error
                assert d2.runner.cache.hits >= 2
                assert semantic(again.to_json()) == semantic(first.to_json())
            finally:
                d2.shutdown()
        finally:
            d.shutdown()
