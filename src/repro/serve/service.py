"""The service's execution core: optimize one submission.

One function, :func:`execute_request`, shared verbatim by the daemon's
queue workers and by any direct in-process caller — which is what makes
"served results are bit-identical to direct runs" a construction rather
than a hope (tests/test_serve.py pins it end to end anyway).

* **app** submissions reuse the harness: cycles/speedup/decisions come
  from :class:`ExperimentRunner` cells (the daemon shares one runner
  with a persistent cell cache, so cells are reused across requests),
  and the optimized IR plus the typed remark stream come from one fresh
  compile of the same module under a request-scoped observability
  capture.
* **ir**/**kernel** submissions are measured the way the fuzz oracle
  measures subjects: every function runs one warp of ``lanes`` threads
  with deterministic scalar arguments; the baseline anchor is the
  ``baseline``-config compilation of the same source, and outputs are
  compared bitwise against it.

Every remark in the result is stamped with ``request=<content hash>``
(:func:`repro.obs.request_capture`), so merged streams keep per-request
provenance; the hash — not a job id — keeps identical submissions'
streams bit-identical wherever they were computed.
"""

from __future__ import annotations

import dataclasses
import traceback
from typing import Optional

from ..analysis.loops import LoopInfo
from ..bench import benchmark_by_name
from ..frontend.lower import lower_kernels
from ..fuzz.oracle import BARE_MAX_INSTRUCTIONS, compare, run_one_warp
from ..harness.cache import counters_to_json, outputs_to_json
from ..harness.experiment import ExperimentRunner
from ..ir.module import Module
from ..ir.parser import parse_module
from ..ir.printer import print_module
from ..ir.verifier import verify_module
from ..obs import session as obs
from ..transforms.pipeline import compile_module
from .protocol import (OptimizeRequest, OptimizeResult, ProtocolError,
                       content_hash, parse_plan)


def _check_loops(request: OptimizeRequest, plan, known, name: str) -> None:
    """Fail closed on a loop the subject does not have: a directive (or
    per-loop coordinate) no function claims would otherwise compile to the
    baseline without a row or a remark."""
    named = [d.loop_id for d in plan] if plan else [request.loop_id]
    for loop_id in named:
        if loop_id is not None and loop_id not in known:
            raise ProtocolError(
                f"unknown loop {loop_id!r} for {name}; loops: {known}")


def _execute_subject(request: OptimizeRequest, req_hash: str,
                     result: OptimizeResult, runner: ExperimentRunner,
                     plan) -> None:
    """ir/kernel submission: compile + one-warp differential measurement."""
    if request.ir is not None:
        def build() -> Module:
            return parse_module(request.ir, "submission")
    else:
        from .protocol import ast_from_json
        kernel = ast_from_json(request.kernel)
        def build() -> Module:
            return lower_kernels([kernel], kernel.name)

    module = build()
    verify_module(module)  # A broken submission is the client's bug.
    result.name = module.name
    _check_loops(request, plan,
                 [loop.loop_id for func in module.functions.values()
                  for loop in LoopInfo.compute(func).loops], module.name)

    # Baseline anchor: same source through the baseline pipeline.
    base_module = build()
    compile_module(base_module, "baseline",
                   max_instructions=BARE_MAX_INSTRUCTIONS)
    base_outputs, base_counters = run_one_warp(base_module, request.lanes)
    result.baseline_cycles = base_counters.cycles

    with obs.request_capture(req_hash) as session:
        with obs.context(config=request.config), \
                obs.span(f"serve/{request.config}", cat="cell"):
            if plan is None:
                # Resolved under the capture: a tuned / predicted fallback
                # announces itself in this request's remark stream.
                plan = runner.resolve_plan(module, request.config,
                                           request.loop_id, request.factor)
            compiled = compile_module(
                module, request.config,
                max_instructions=BARE_MAX_INSTRUCTIONS, plan=plan)
            outputs, counters = run_one_warp(module, request.lanes)
    result.remarks = [r.to_json() for r in session.remarks]
    result.trace_events = list(session.tracer.events)
    if request.include_profile and not session.profile.is_empty():
        result.profile = session.profile.to_json()
    result.decisions = [dataclasses.asdict(d)
                        for d in compiled.heuristic_decisions]
    result.cycles = counters.cycles
    result.counters = counters_to_json(counters)
    result.code_size = compiled.code_size
    result.compile_seconds = compiled.compile_seconds
    result.timed_out = compiled.timed_out
    result.speedup = (base_counters.cycles / counters.cycles
                      if counters.cycles > 0 else 0.0)
    result.outputs_match_baseline = compare(base_outputs, outputs) is None
    result.outputs = outputs_to_json(outputs)
    if request.include_ir:
        result.optimized_ir = print_module(module)


def _execute_app(request: OptimizeRequest, req_hash: str,
                 result: OptimizeResult, runner: ExperimentRunner,
                 plan) -> None:
    """Benchmark submission: harness cells + one captured compile."""
    bench = benchmark_by_name(request.app)
    result.name = bench.name
    _check_loops(request, plan, bench.loop_ids(), bench.name)

    base = runner.baseline(bench)
    cell = runner.cell(bench, request.config, request.loop_id,
                       request.factor, plan)
    result.baseline_cycles = base.cycles
    result.cycles = cell.cycles
    result.speedup = cell.speedup_over(base)
    result.code_size = cell.code_size
    result.compile_seconds = cell.compile_seconds
    result.timed_out = cell.timed_out
    result.outputs_match_baseline = cell.outputs_match_baseline
    result.counters = counters_to_json(cell.counters)
    result.decisions = [dataclasses.asdict(d)
                        for d in cell.heuristic_decisions]
    if cell.error is not None:
        raise RuntimeError(cell.error)

    # Optimized IR + typed remarks: one fresh compile of the same module
    # under the request's capture, with the harness's provenance context
    # so the stream matches a traced sweep's for this cell.
    if request.include_ir:
        # Silent resolve: the measured cell above already emitted any
        # fallback / prediction telemetry; this recompile only needs the
        # plan.
        resolved = plan if plan is not None else runner.resolve_plan(
            bench, request.config, request.loop_id, request.factor,
            emit=False)
        module = bench.build_module()
        with obs.request_capture(req_hash) as session:
            with obs.context(app=bench.name, config=request.config,
                             sweep_loop=request.loop_id,
                             sweep_factor=(request.factor
                                           if request.loop_id else None)), \
                    obs.span(f"serve/{bench.name}/{request.config}",
                             cat="cell"):
                compile_module(module, request.config,
                               heuristic=runner.heuristic,
                               max_instructions=runner.max_instructions,
                               timeout_seconds=runner.compile_timeout,
                               plan=resolved)
        result.remarks = [r.to_json() for r in session.remarks]
        result.trace_events = list(session.tracer.events)
        result.optimized_ir = print_module(module)
    else:
        # No recompile: render the decision stream the way the CLI's
        # --report does, so the result still carries typed remarks.
        from ..obs import decision_remarks
        result.remarks = [
            r.to_json() for r in decision_remarks(cell.heuristic_decisions,
                                                  function=bench.name)]


def execute_request(request: OptimizeRequest,
                    runner: Optional[ExperimentRunner] = None
                    ) -> OptimizeResult:
    """Optimize one submission; never raises — errors become the result.

    ``runner`` lets the daemon share one (cache-backed) runner — and its
    tuned / similarity-index directories — across requests; a direct
    caller can omit it for a self-contained run.
    """
    req_hash = content_hash(request)
    result = OptimizeResult(status="ok", content_hash=req_hash,
                            config=request.config)
    try:
        request.validate()
        if runner is None:
            runner = ExperimentRunner()
        # An explicit plan when the request carries directives, else None
        # (the runner resolves ``config``).
        plan = parse_plan(request.directives) or None
        if request.app is not None:
            _execute_app(request, req_hash, result, runner, plan)
        else:
            _execute_subject(request, req_hash, result, runner, plan)
    except ProtocolError as exc:
        result.status = "error"
        result.error = str(exc)
    except Exception:
        result.status = "error"
        result.error = traceback.format_exc()
    return result
