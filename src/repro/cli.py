"""Command-line driver, mirroring the paper artifact's run scripts.

The paper's artifact exposes ``run_uu.sh <factor>``, ``run_unroll.sh``,
``run_unmerge.sh``, ``run_heuristic.sh`` and the plot scripts; this module
provides the same operations:

    python -m repro list                      # benchmarks + their loops
    python -m repro run-uu --factor 2         # per-loop u&u sweep
    python -m repro run-uu --app XSBench --factor 4
    python -m repro run-unroll --factor 2
    python -m repro run-unmerge
    python -m repro run-heuristic             # Table I's heuristic column
    python -m repro table1                    # regenerate Table I
    python -m repro fig6 | fig7 | fig8        # regenerate the figures
    python -m repro indepth                   # Section V counter analyses
    python -m repro ptx --app XSBench --kernel grid_search [--config uu ...]
    python -m repro cache stats|clear         # persistent cell cache
    python -m repro summary                   # headline geomeans
    python -m repro tune bspline-vgh          # empirical per-loop autotuning
    python -m repro tune --all --budget 16    # tune every benchmark, capped
    python -m repro tune show                 # tuned vs heuristic decisions
    python -m repro run-tuned                 # tuned pipeline per app
    python -m repro similarity build|stats    # tuning-transfer index
    python -m repro predict bspline-vgh       # predicted config, no evaluations
    python -m repro remarks --app XSBench     # optimization-remark stream
    python -m repro trace --app XSBench --out run.trace.json
    python -m repro trace --in daemon.trace.json --request <id>
    python -m repro metrics [--url URL]       # Prometheus metrics text
    python -m repro fuzz run --seed 0 --count 200   # differential fuzzing
    python -m repro fuzz reduce --seed 41           # shrink one failure
    python -m repro fuzz corpus                     # re-check tests/corpus/
    python -m repro serve                     # optimization service daemon
    python -m repro submit --app XSBench --url http://127.0.0.1:PORT
    python -m repro submit --ir kernel.ll --config uu --loop-id k/L0
    python -m repro serve-status --url http://127.0.0.1:PORT

Sweeps fan out over worker processes (``--jobs/-j``, default all cores)
and reuse cells from the persistent cache under ``results/.cellcache/``
(``--no-cache`` bypasses it).  Every simulation runs on the ``jit``
engine: the lattice interpreter that compiles a memory-free superblock
where a launch gets hot and replays it on scalar accounts.  The
per-warp reference engine is a
:class:`~repro.gpu.machine.SimtMachine` argument only, for the tests
that pin the two bit-identical (``tests/test_engine_equivalence.py``).

Observability (see :mod:`repro.obs`): every sweep command accepts
``--trace-out run.trace.json`` (Chrome trace-event JSON, load in Perfetto
or ``chrome://tracing``) and ``--remarks-out run.remarks.jsonl`` (the
typed optimization-remark stream).  Traced runs bypass the persistent
cache — a cache hit skips compilation, and an empty trace would lie.
``repro serve --trace-out/--remarks-out`` exports the daemon's merged
streams at shutdown; ``repro trace/remarks --in <file> --request <id>``
then isolates one service request's story.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import sys
import warnings
from pathlib import Path
from typing import List, Optional

from . import obs
from .bench import all_benchmarks, benchmark_by_name
from .harness import fig6, fig7, fig8, indepth, table1
from .harness.cache import CellCache
from .harness.experiment import ExperimentRunner, resolve_jobs
from .obs import metrics as obs_metrics
from .transforms.pipeline import CONFIGS


@contextlib.contextmanager
def _obs_session():
    """Install an observability session for the duration of a command.

    The installed session is the whole switch: a runner's pool
    fan-out during the command sees it and tells its workers to ship
    their remarks, trace events, and profiles home.  Nested use (e.g.
    ``repro remarks --trace-out t.json``) folds the inner session into
    the outer one on exit, so both consumers see the full stream.
    """
    prior = obs.active()
    session = obs.install()
    try:
        yield session
    finally:
        if prior is not None:
            obs.install(prior)
            prior.merge_payload(session.export_payload())
        else:
            obs.uninstall()


@contextlib.contextmanager
def _metrics_registry():
    """Install a fresh metrics registry for the duration of a command.

    Every count a command makes — the jit's among them — lands in it, so
    a command reports what it did and nothing an earlier command in the
    same process did.  Nested use folds the inner registry into the one
    installed before on exit, as :func:`_obs_session` does for traces.
    """
    prior = obs_metrics.active()
    registry = obs_metrics.install()
    try:
        yield registry
    finally:
        if prior is not None:
            obs_metrics.install(prior)
            prior.absorb(registry.snapshot())
        else:
            obs_metrics.uninstall()


def _default_remarks_path(trace_out: str) -> str:
    """``run.trace.json`` -> ``run.trace.remarks.jsonl``."""
    return str(Path(trace_out).with_suffix(".remarks.jsonl"))


def _export_session(session, trace_out: Optional[str],
                    remarks_out: Optional[str]) -> None:
    if trace_out:
        session.tracer.write(trace_out)
        print(f"trace: {len(session.tracer.events)} events -> {trace_out}")
        if remarks_out is None:
            remarks_out = _default_remarks_path(trace_out)
    if remarks_out:
        count = obs.write_jsonl(session.remarks, remarks_out)
        print(f"remarks: {count} -> {remarks_out}")
    if not session.profile.is_empty():
        print(session.profile.format())


def _finish_sweep(runner: ExperimentRunner) -> None:
    """Per-sweep cache telemetry (hits/misses/puts this session).

    Two lines can print: the cell-cache line (always, for cache-enabled
    runners) and the jit line, read from the command's registry (only
    when some launch of the sweep got hot enough to select regions — for
    a sweep that never tiered up, it is empty).  A pool worker ships only what its own task counted and the
    runner folds that in, so ``-j1`` and ``-jN`` print the same totals.
    """
    if runner.cache is not None:
        print(runner.cache.session_line())
    summary = obs_metrics.jit_summary(
        obs_metrics.jit_counts(obs_metrics.active()))
    if summary:
        print(f"jit: {summary}")


def _runner(args) -> ExperimentRunner:
    cache = None if getattr(args, "no_cache", False) else CellCache()
    return ExperimentRunner(jobs=resolve_jobs(getattr(args, "jobs", None)),
                            cache=cache)


def _benches(args) -> List:
    if args.app:
        return [benchmark_by_name(args.app)]
    return all_benchmarks()


def cmd_list(args) -> int:
    for bench in _benches(args):
        loops = bench.loop_ids()
        print(f"{bench.name:<16} [{bench.category}]  {len(loops)} loops")
        for loop_id in loops:
            print(f"    {loop_id}")
    return 0


def _per_loop_sweep(args, config: str, factor: int) -> int:
    runner = _runner(args)
    runner.prefetch(_benches(args), configs=("baseline", config),
                    factors=(factor,))
    print(f"{'app':<16} {'loop':<24} {'u':>3} {'speedup':>8} "
          f"{'size':>7} {'ok':>4}")
    print("-" * 68)
    for bench in _benches(args):
        base = runner.baseline(bench)
        for loop_id in bench.loop_ids():
            cell = runner.cell(bench, config, loop_id, factor)
            if cell.timed_out:
                print(f"{bench.name:<16} {loop_id:<24} {factor:>3} "
                      f"{'timeout':>8}")
                continue
            ok = "yes" if cell.outputs_match_baseline else "NO"
            print(f"{bench.name:<16} {loop_id:<24} {factor:>3} "
                  f"{cell.speedup_over(base):>7.3f}x "
                  f"{cell.size_ratio_over(base):>6.2f}x {ok:>4}")
    _finish_sweep(runner)
    return 0


def cmd_run_uu(args) -> int:
    return _per_loop_sweep(args, "uu", args.factor)


def cmd_run_unroll(args) -> int:
    return _per_loop_sweep(args, "unroll", args.factor)


def cmd_run_unmerge(args) -> int:
    return _per_loop_sweep(args, "unmerge", 1)


def cmd_run_heuristic(args) -> int:
    runner = _runner(args)
    runner.prefetch(_benches(args), configs=("baseline", "uu_heuristic"))
    print(f"{'app':<16} {'speedup':>8} {'size':>7} {'compile':>8} {'ok':>4}")
    print("-" * 50)
    for bench in _benches(args):
        base = runner.baseline(bench)
        cell = runner.heuristic_cell(bench)
        ok = "yes" if cell.outputs_match_baseline else "NO"
        print(f"{bench.name:<16} {cell.speedup_over(base):>7.3f}x "
              f"{cell.size_ratio_over(base):>6.2f}x "
              f"{cell.compile_ratio_over(base):>7.2f}x {ok:>4}")
        if args.report:
            # The report *is* the remark stream: the very same
            # decision_remarks() that feeds --remarks-out renders each
            # LoopDecision here, so the two can never drift apart.
            for remark in obs.decision_remarks(cell.heuristic_decisions,
                                               function=bench.name):
                print("    " + obs.render_remark(remark))
            skipped = [d for d in cell.heuristic_decisions
                       if d.factor is not None and d.applied is False]
            if skipped:
                print(f"    ! {len(skipped)} selected loop(s) were skipped")
    _finish_sweep(runner)
    return 0


def cmd_table1(args) -> int:
    runner = _runner(args)
    rows = table1.build_table(runner, _benches(args))
    print(table1.format_table(rows))
    _finish_sweep(runner)
    return 0


def cmd_fig6(args) -> int:
    runner = _runner(args)
    points = fig6.series(runner, _benches(args))
    for metric in ("speedup", "size_ratio", "compile_ratio"):
        print(fig6.format_figure(points, metric))
        print()
    _finish_sweep(runner)
    return 0


def cmd_fig7(args) -> int:
    runner = _runner(args)
    print(fig7.format_figure(fig7.series(runner, _benches(args))))
    _finish_sweep(runner)
    return 0


def cmd_fig8(args) -> int:
    runner = _runner(args)
    benches = _benches(args)
    for comparator in ("unroll", "unmerge"):
        print(fig8.format_figure(
            fig8.series(comparator, runner, benches), comparator))
        print()
    _finish_sweep(runner)
    return 0


def cmd_indepth(args) -> int:
    runner = _runner(args)
    for comparison in indepth.case_studies(runner):
        print(indepth.format_comparison(comparison))
        print()
    _finish_sweep(runner)
    return 0


def cmd_cache(args) -> int:
    cache = CellCache()
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached files (entries + orphaned tmp) "
              f"from {cache.root}")
        return 0
    stats = cache.stats()
    sweep_entries = stats["entries"] - stats["tune_entries"]
    sweep_bytes = stats["bytes"] - stats["tune_bytes"]
    print(f"cell cache at {stats['root']}")
    print(f"  entries: {stats['entries']}")
    print(f"    sweep: {sweep_entries} ({sweep_bytes / 1024:.1f} KiB)")
    print(f"    tuner: {stats['tune_entries']} "
          f"({stats['tune_bytes'] / 1024:.1f} KiB)")
    print(f"  size:    {stats['bytes'] / 1024:.1f} KiB")
    if stats["max_bytes"] is not None:
        print(f"  cap:     {stats['max_bytes'] / 1024:.1f} KiB (LRU; set "
              f"via repro serve --cache-cap or REPRO_CACHE_MAX_BYTES)")
    if stats["tmp_files"]:
        print(f"  orphans: {stats['tmp_files']} tmp file(s) "
              f"({stats['tmp_bytes'] / 1024:.1f} KiB) from writers that "
              "died mid-put; `repro cache clear` sweeps them")
    return 0


def cmd_ptx(args) -> int:
    from .codegen import lower_function, render
    from .transforms import compile_module

    bench = benchmark_by_name(args.app)
    module = bench.build_module()
    with warnings.catch_warnings(record=True) as fallbacks:
        warnings.simplefilter("always")
        plan = ExperimentRunner().resolve_plan(bench, args.config, args.loop,
                                               args.factor)
    for warning in fallbacks:
        print(f"note: {warning.message}", file=sys.stderr)
    compile_module(module, args.config, plan=plan)
    kernels = [args.kernel] if args.kernel else list(module.functions)
    for name in kernels:
        print(render(lower_function(module.get_function(name))))
        print()
    return 0


def _fuzz_reduce_and_save(seed: int, lanes: int, out_dir,
                          name: Optional[str] = None) -> int:
    """Shared reduce flow: regenerate, reduce, bisect, persist, report."""
    from .fuzz.bisect import bisect_divergence
    from .fuzz.corpus import save_regression
    from .fuzz.generator import generate_kernel
    from .fuzz.oracle import run_differential, subject_from_kernel
    from .fuzz.reduce import block_count, first_failure, reduce_failure

    kernel = generate_kernel(seed)
    report = run_differential(subject_from_kernel(kernel, seed=seed),
                              lanes=lanes)
    spec = first_failure(report)
    if spec is None:
        print(f"seed {seed}: no divergence across "
              f"{len(report.outcomes)} configs — nothing to reduce")
        return 0
    print(f"seed {seed}: reducing {spec.label} failure "
          f"({block_count(kernel)} blocks)...")
    reduced = reduce_failure(kernel, spec)
    subject = subject_from_kernel(reduced, seed=seed)
    found = bisect_divergence(subject, spec, lanes=lanes)
    outcome = next(iter(run_differential(subject, lanes=lanes).failures),
                   None)
    meta = {
        "seed": seed,
        "config": spec.config,
        "loop_id": spec.loop_id,
        "factor": spec.factor,
        "kind": outcome.kind if outcome else "unknown",
        "detail": outcome.detail if outcome else "",
        "culprit": found.culprit if found else None,
        "culprit_remarks": found.remarks if found else [],
        "blocks": block_count(reduced),
        "source": "repro fuzz reduce",
    }
    stem = name or f"fuzz_seed{seed}_{spec.config}"
    path = save_regression(subject.ir, stem, meta, out_dir)
    culprit = f", culprit pass: {found.culprit}" if found else ""
    print(f"reduced to {meta['blocks']} blocks{culprit}")
    print(f"saved {path}")
    return 1


def cmd_fuzz_run(args) -> int:
    from .fuzz.campaign import run_campaign

    result = run_campaign(args.seed, args.count, jobs=args.jobs,
                          lanes=args.lanes, bisect=not args.no_bisect,
                          progress=print)
    last = args.seed + args.count - 1
    print(f"fuzzed {args.count} kernels (seeds {args.seed}..{last}): "
          f"{result.checked_configs} config runs, "
          f"{len(result.failures)} divergences, "
          f"{len(result.errors)} harness errors")
    if result.ok:
        print("no divergences found")
        return 0
    for failure in result.failures:
        print(f"  {failure.describe()}")
    for error in result.errors:
        print(f"  {error.splitlines()[0]} ...")
    if args.save_corpus:
        for seed in result.failing_seeds:
            _fuzz_reduce_and_save(seed, args.lanes, args.out)
    return 1


def cmd_fuzz_reduce(args) -> int:
    return _fuzz_reduce_and_save(args.seed, args.lanes, args.out, args.name)


def cmd_fuzz_corpus(args) -> int:
    from .fuzz.corpus import check_corpus, default_corpus_dir

    directory = args.dir or default_corpus_dir()
    reports = check_corpus(directory, lanes=args.lanes)
    if not reports:
        print(f"no corpus entries under {directory}")
        return 0
    failed = 0
    for report in reports:
        status = "ok" if report.ok else "FAIL"
        print(f"{report.name:<40} {len(report.outcomes):>3} configs  "
              f"{status}")
        for outcome in report.failures:
            failed += 1
            print(f"    {outcome.describe()}")
    return 1 if failed else 0


def cmd_summary(args) -> int:
    from .harness.summary import heuristic_summary, tuned_summary

    runner = _runner(args)
    print(heuristic_summary(runner, _benches(args)).format())
    print()
    print(tuned_summary(runner, _benches(args)).format())
    _finish_sweep(runner)
    return 0


def cmd_run_tuned(args) -> int:
    from .harness.summary import tuned_summary

    runner = _runner(args)
    print(tuned_summary(runner, _benches(args)).format())
    _finish_sweep(runner)
    return 0


def cmd_tune(args) -> int:
    from .tune import TuneParams, render_tuned, tune_benchmark

    out = Path(args.out) if args.out else None
    if args.target == "show":
        for bench in _benches(args):
            print(render_tuned(bench, out))
            print()
        return 0
    if args.target:
        benches = [benchmark_by_name(args.target)]
    elif args.all:
        benches = all_benchmarks()
    elif args.app:
        benches = [benchmark_by_name(args.app)]
    else:
        print("repro tune: name a benchmark, pass --all, or use "
              "`repro tune show`", file=sys.stderr)
        return 2
    params = TuneParams(u_max=args.u_max, budget=args.budget)
    rc = 0
    for bench in benches:
        result = tune_benchmark(
            bench, params=params,
            jobs=getattr(args, "jobs", None),
            use_cache=not getattr(args, "no_cache", False),
            tuned_dir=out)
        c = result.config
        print(f"{bench.name:<16} winner {c.source:<20} "
              f"{c.speedup_over_baseline:>6.3f}x vs baseline  "
              f"{c.speedup_over_heuristic:>6.3f}x vs heuristic  "
              f"[{result.candidates_total} candidates, "
              f"{result.candidates_pruned} pruned, "
              f"{result.candidates_truncated} over budget, "
              f"{result.fresh_evaluations} fresh evaluations]")
        if result.persisted:
            print(f"    -> {result.path}")
        elif not result.verified:
            rc = 1
            print(f"    NOT persisted — oracle verification failed: "
                  f"{result.verify_detail}")
    return rc


def cmd_predict(args) -> int:
    from .similarity.index import SimilarityIndex
    from .similarity.predict import (DEFAULT_K, DEFAULT_MAX_DISTANCE,
                                     predict_bench)

    k = args.k if args.k is not None else DEFAULT_K
    max_distance = (args.max_distance if args.max_distance is not None
                    else DEFAULT_MAX_DISTANCE)
    if args.target is None:
        # No target: the transfer scoreboard (predicted is leave-one-out,
        # so this is the EXPERIMENTS.md "tuning transfer" recipe).
        from .harness.summary import transfer_summary
        runner = _runner(args)
        print(transfer_summary(runner, _benches(args)).format())
        _finish_sweep(runner)
        return 0
    bench = benchmark_by_name(args.target)
    index = SimilarityIndex(Path(args.index_dir) if args.index_dir else None)
    prediction = predict_bench(bench, index, k=k, max_distance=max_distance,
                               emit=False)
    print(f"{bench.name}: predicted from {prediction.corpus_loops} corpus "
          f"loops (k={k}, max distance {max_distance:g}, leave-one-out)")
    if prediction.fallback:
        print("  no usable index entries — the predicted pipeline would "
              "fall back to the static heuristic\n"
              "  (populate with `repro similarity build`)")
        return 1
    for lp in prediction.loops:
        onoff = "on" if lp.unmerge else "off"
        print(f"  {lp.loop_id:<28} u={lp.factor} unmerge={onoff:<3} "
              f"[{lp.source}, confidence {lp.confidence:.2f}]")
        for v in lp.neighbors:
            v_onoff = "on" if v.unmerge else "off"
            print(f"      <- {v.app}/{v.loop_id}  distance {v.distance:.4f}"
                  f"  (u={v.factor} unmerge={v_onoff})")
    if not prediction.decisions:
        print("  (identity prediction: leave every loop alone)")
    return 0


def cmd_similarity(args) -> int:
    from .similarity.index import SimilarityIndex, build_index

    index = SimilarityIndex(Path(args.index_dir) if args.index_dir else None)
    if args.sim_action == "build":
        summary = build_index(index=index)
        print(f"indexed {len(summary['added'])} tuned apps")
        for app, why in sorted(summary["skipped"].items()):
            print(f"  skipped {app}: {why}")
        if args.fuzz_count:
            from .similarity.corpus import build_from_fuzz
            fz = build_from_fuzz(
                args.fuzz_count, start_seed=args.start_seed, index=index,
                budget=args.budget,
                use_cache=not getattr(args, "no_cache", False))
            print(f"fuzz corpus: {len(fz['indexed'])} tuned+indexed, "
                  f"{len(fz['unverified'])} unverified (skipped)")
        print(f"index: {index.stats()['entries']} entries at {index.root}")
        return 0

    # stats
    stats = index.stats()
    entries = index.load_entries()
    by_source = collections.Counter(str(e.get("source", "?"))
                                    for e in entries)
    loops = sum(len(e.get("loops", [])) for e in entries)
    if args.json:
        stats["by_source"] = dict(by_source)
        stats["loops"] = loops
        print(json.dumps(stats, sort_keys=True))
        return 0
    schema = stats["schema"]
    print(f"similarity index at {stats['root']}")
    print(f"  entries:  {stats['entries']} kernels, {loops} loops, "
          f"{stats['bytes']} bytes")
    for source in sorted(by_source):
        print(f"    {source:<10} {by_source[source]}")
    print(f"  schema:   feature v{schema['feature']} x timing "
          f"v{schema['timing']} x tune v{schema['tune']}")
    if stats["tmp_files"]:
        print(f"  tmp:      {stats['tmp_files']} files, "
              f"{stats['tmp_bytes']} bytes")
    return 0


def _traced_sweep(args) -> None:
    """Compute the requested app x config cells under the live session."""
    args.no_cache = True  # Cached cells skip compilation: nothing to trace.
    runner = _runner(args)
    runner.prefetch(_benches(args), configs=("baseline", args.config))


def _load_trace_events(path: str) -> List[dict]:
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        return list(data.get("traceEvents", []))
    return list(data)


def cmd_remarks(args) -> int:
    """Print a remark stream: a fresh traced run, or a saved JSONL."""
    src = getattr(args, "in_path", None)
    if src:
        remarks = obs.read_jsonl(src)
    else:
        with _obs_session() as session:
            _traced_sweep(args)
        remarks = session.remarks
    request = getattr(args, "request", None)
    if request:
        # Service requests stamp their remarks' context (see
        # obs.session.request_capture); local sweeps carry no ids.
        remarks = [r for r in remarks
                   if r.context.get("request") == request]
    kind = getattr(args, "kind", None)
    if kind:
        # A remark stream mixes transform decisions (kind applied/missed)
        # with analysis notes whose origin is the pass name, so the filter
        # matches either axis: `--kind jit` selects the execution-engine
        # remarks, `--kind missed` the not-applied transform decisions.
        remarks = [r for r in remarks
                   if r.kind == kind or r.pass_name == kind]
    for remark in remarks:
        if args.json:
            print(json.dumps(remark.to_json(), sort_keys=True))
        else:
            print(obs.render_remark(remark))
    if not args.json:
        suffix = f" matching {kind!r}" if kind else ""
        if request:
            suffix += f" for request {request}"
        print(f"({len(remarks)} remarks{suffix}; rerun with --json for "
              "the machine-readable stream)")
    return 0


def cmd_trace(args) -> int:
    """Export a Chrome trace: from a fresh run, or filter a saved one."""
    src = getattr(args, "in_path", None)
    request = getattr(args, "request", None)
    if src:
        events = _load_trace_events(src)
        if request:
            # Spans fold the serving request id into args (see
            # obs.session.span); metadata rows carry none and drop out.
            events = [e for e in events
                      if e.get("args", {}).get("request") == request]
        Path(args.out).write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"}))
        print(f"trace: {len(events)} events -> {args.out}")
        return 0
    with _obs_session() as session:
        _traced_sweep(args)
    if request:
        session.tracer.events[:] = [
            e for e in session.tracer.events
            if e.get("args", {}).get("request") == request]
    _export_session(session, args.out, getattr(args, "remarks_out", None))
    return 0


def cmd_metrics(args) -> int:
    """Prometheus text: scrape a daemon, or meter a local sweep."""
    if args.url:
        from .serve import ServeClient
        from .serve.client import ServeError
        try:
            text = ServeClient(args.url).metrics_text()
        except ServeError as exc:
            print(f"repro metrics: {exc}", file=sys.stderr)
            return 1
        sys.stdout.write(text)
        return 0
    # Local mode: run one sweep and render the command's registry (pool
    # workers of the sweep ship their snapshots home because it is
    # installed).
    _runner(args).prefetch(_benches(args), configs=("baseline", args.config))
    sys.stdout.write(obs_metrics.active().render())
    return 0


def cmd_serve(args) -> int:
    from .serve import ServeDaemon

    daemon = ServeDaemon(host=args.host, port=args.port,
                         workers=args.serve_workers,
                         cache_max_bytes=args.cache_cap,
                         use_cache=not getattr(args, "no_cache", False))
    daemon.install_signal_handlers()
    daemon.start()
    cache = daemon.runner.cache
    cap = (f", cache cap {cache.max_bytes} bytes"
           if cache is not None and cache.max_bytes is not None else "")
    print(f"repro serve listening on {daemon.url} "
          f"({args.serve_workers} workers{cap}); SIGTERM/Ctrl-C to stop")
    daemon.wait()
    if cache is not None:
        print(cache.session_line())
    trace_out = getattr(args, "serve_trace_out", None)
    remarks_out = getattr(args, "serve_remarks_out", None)
    if trace_out or remarks_out:
        written = daemon.export_obs(trace_out, remarks_out)
        if trace_out:
            print(f"trace: {written.get('events', 0)} events -> "
                  f"{trace_out}")
        if remarks_out:
            print(f"remarks: {written.get('remarks', 0)} -> {remarks_out}")
    return 0


def _submit_request(args):
    from .serve import OptimizeRequest

    ir = None
    if args.ir:
        ir = (sys.stdin.read() if args.ir == "-"
              else Path(args.ir).read_text())
    return OptimizeRequest(
        app=args.app, ir=ir, config=args.config, loop_id=args.loop_id,
        factor=args.factor,
        lanes=args.lanes, include_ir=not args.no_ir,
        priority=args.priority, refine=getattr(args, "refine", False),
        directives=tuple(args.directive or ())).validate()


def cmd_submit(args) -> int:
    from .serve import ServeClient
    from .serve.client import ServeError
    from .serve.protocol import ProtocolError

    try:
        request = _submit_request(args)
    except ProtocolError as exc:
        print(f"repro submit: {exc}", file=sys.stderr)
        return 2
    client = ServeClient(args.url) if args.url else ServeClient()
    try:
        if args.no_wait:
            ticket = client.submit(request)
            print(json.dumps(ticket, sort_keys=True))
            return 0
        result = client.submit_and_wait(request, timeout=args.wait)
    except ServeError as exc:
        print(f"repro submit: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result.to_json(), sort_keys=True))
    else:
        if result.status != "ok":
            print(f"error: {result.error}", file=sys.stderr)
            return 1
        ok = "yes" if result.outputs_match_baseline else "NO"
        print(f"{result.name}  config={result.config}  "
              f"{result.speedup:.3f}x  cycles {result.cycles:.1f} "
              f"(baseline {result.baseline_cycles:.1f})  ok={ok}  "
              f"{len(result.remarks)} remarks")
        if args.show_ir and result.optimized_ir:
            print(result.optimized_ir)
    if args.out:
        Path(args.out).write_text(
            json.dumps(result.to_json(), sort_keys=True, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0 if result.status == "ok" else 1


def cmd_serve_status(args) -> int:
    from .serve import ServeClient
    from .serve.client import ServeError

    client = ServeClient(args.url) if args.url else ServeClient()
    try:
        stats = client.stats()
    except ServeError as exc:
        print(f"repro serve-status: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(stats, sort_keys=True))
        return 0
    queue = stats["queue"]
    print(f"daemon at {stats['url']} (schema {stats['schema']})")
    print(f"  workers:   {queue['alive_workers']}/{queue['workers']} alive")
    print(f"  submitted: {queue['submitted']} "
          f"({queue['deduped']} deduped: {queue['deduped_inflight']} "
          f"in-flight, {queue['deduped_memo']} memo)")
    print(f"  executed:  {queue['executed']}  failed: {queue['failed']}  "
          f"cancelled: {queue['cancelled']}")
    cache = stats.get("cache")
    if cache:
        cap = (f" / cap {cache['max_bytes']}" if cache.get("max_bytes")
               else "")
        print(f"  cache:     {cache['entries']} entries, "
              f"{cache['bytes']} bytes{cap}; this session "
              f"{cache['session_hits']} hits, {cache['session_misses']} "
              f"misses, {cache['session_evictions']} evictions")
    jit = obs_metrics.jit_summary(stats["jit"])
    print(f"  jit:       {jit or 'no region selected'}")
    similarity = stats.get("similarity")
    if similarity:
        index = similarity.get("index") or {}
        print(f"  predicted: {similarity['predictions_served']} served; "
              f"index {index.get('entries', 0)} entries "
              f"({index.get('bytes', 0)} bytes)")
        print(f"  refine:    {similarity['refinements_pending']} pending, "
              f"{similarity['refinements_completed']} completed, "
              f"{similarity['refinements_failed']} failed "
              f"(of {similarity['refinements_submitted']} submitted)")
    metrics = stats.get("metrics")
    if metrics:
        print(f"  metrics:   {metrics['families']} families, "
              f"{metrics['series']} series (scrape GET /metrics)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--app", help="restrict to one benchmark")
    common.add_argument("-j", "--jobs", type=int, default=None,
                        help="worker processes for sweeps "
                             "(default: REPRO_JOBS or all cores)")
    common.add_argument("--no-cache", action="store_true",
                        help="ignore the persistent cell cache")
    common.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write a Chrome trace-event JSON of this run "
                             "(open in Perfetto); also writes "
                             "PATH-with-.remarks.jsonl unless --remarks-out "
                             "is given.  Implies --no-cache.")
    common.add_argument("--remarks-out", metavar="PATH", default=None,
                        help="write the optimization-remark stream as "
                             "JSONL.  Implies --no-cache.")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction driver for 'Control-Flow Unmerging and "
                    "Loop Unrolling on GPUs' (CGO 2024)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", parents=[common],
                   help="list benchmarks and loop ids") \
        .set_defaults(fn=cmd_list)

    p = sub.add_parser("run-uu", parents=[common], help="per-loop u&u sweep")
    p.add_argument("--factor", type=int, default=2)
    p.set_defaults(fn=cmd_run_uu)

    p = sub.add_parser("run-unroll", parents=[common],
                       help="per-loop plain-unroll sweep")
    p.add_argument("--factor", type=int, default=2)
    p.set_defaults(fn=cmd_run_unroll)

    sub.add_parser("run-unmerge", parents=[common],
                   help="per-loop unmerge sweep") \
        .set_defaults(fn=cmd_run_unmerge)

    p = sub.add_parser("run-heuristic", parents=[common],
                       help="heuristic u&u per app")
    p.add_argument("--report", action="store_true",
                   help="print per-loop heuristic decisions, and flag "
                        "selected loops whose transform was skipped "
                        "(header not re-found)")
    p.set_defaults(fn=cmd_run_heuristic)

    sub.add_parser("table1", parents=[common],
                   help="regenerate Table I").set_defaults(fn=cmd_table1)
    sub.add_parser("fig6", parents=[common],
                   help="regenerate Figures 6a/6b/6c") \
        .set_defaults(fn=cmd_fig6)
    sub.add_parser("fig7", parents=[common],
                   help="regenerate Figure 7").set_defaults(fn=cmd_fig7)
    sub.add_parser("fig8", parents=[common],
                   help="regenerate Figures 8a/8b").set_defaults(fn=cmd_fig8)
    sub.add_parser("indepth", parents=[common],
                   help="Section V counter analyses") \
        .set_defaults(fn=cmd_indepth)

    sub.add_parser("summary", parents=[common],
                   help="headline heuristic geomeans (paper Section IV)") \
        .set_defaults(fn=cmd_summary)

    p = sub.add_parser("remarks", parents=[common],
                       help="run one config under tracing and print the "
                            "optimization-remark stream")
    p.add_argument("--config", default="uu_heuristic",
                   choices=list(CONFIGS),
                   help="pipeline configuration to trace "
                        "(default: uu_heuristic)")
    p.add_argument("--json", action="store_true",
                   help="print raw JSONL instead of rendered lines")
    p.add_argument("--kind", metavar="NAME", default=None,
                   help="only remarks whose kind or pass name matches "
                        "NAME (e.g. `--kind jit` for execution-engine "
                        "region remarks, `--kind missed` for not-applied "
                        "transform decisions)")
    p.add_argument("--in", dest="in_path", metavar="PATH", default=None,
                   help="read a saved remarks JSONL (e.g. from `repro "
                        "serve --remarks-out`) instead of running a sweep")
    p.add_argument("--request", metavar="ID", default=None,
                   help="only remarks stamped with this service "
                        "request id (the content hash `repro submit` "
                        "tickets carry)")
    p.set_defaults(fn=cmd_remarks)

    p = sub.add_parser("trace", parents=[common],
                       help="run one config under tracing and write a "
                            "Chrome trace-event JSON (Perfetto-loadable)")
    p.add_argument("--config", default="uu_heuristic",
                   choices=list(CONFIGS),
                   help="pipeline configuration to trace "
                        "(default: uu_heuristic)")
    p.add_argument("--out", default="run.trace.json",
                   help="trace file path (default: run.trace.json)")
    p.add_argument("--in", dest="in_path", metavar="PATH", default=None,
                   help="filter a saved trace (e.g. from `repro serve "
                        "--trace-out`) instead of running a sweep")
    p.add_argument("--request", metavar="ID", default=None,
                   help="only spans stamped with this service request id")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("run-tuned", parents=[common],
                       help="tuned pipeline vs static heuristic per app")
    p.set_defaults(fn=cmd_run_tuned)

    p = sub.add_parser("tune", parents=[common],
                       help="empirical per-loop autotuning "
                            "(searches unroll x unmerge per loop)")
    p.add_argument("target", nargs="?", default=None,
                   help="benchmark to tune, or `show` to render persisted "
                        "decisions vs the static heuristic")
    p.add_argument("--all", action="store_true",
                   help="tune every benchmark")
    p.add_argument("--budget", type=int, default=None,
                   help="max per-loop candidates measured per benchmark "
                        "(default: unlimited)")
    p.add_argument("--u-max", type=int, default=8,
                   help="largest unroll factor searched (default 8)")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="tuned-config directory "
                        "(default: results/tuned or REPRO_TUNED_DIR)")
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("predict", parents=[common],
                       help="instant predicted config from the similarity "
                            "index (zero empirical evaluations)")
    p.add_argument("target", nargs="?", default=None,
                   help="benchmark to predict; omit for the "
                        "predicted-vs-tuned-vs-heuristic scoreboard over "
                        "all apps (leave-one-out)")
    p.add_argument("--k", type=int, default=None,
                   help="neighbors voting per loop (default 3)")
    p.add_argument("--max-distance", type=float, default=None,
                   help="nearest-neighbor distance beyond which a loop "
                        "falls back to the heuristic (default 0.35)")
    p.add_argument("--index-dir", metavar="DIR", default=None,
                   help="similarity-index directory (default: "
                        "results/.simindex or REPRO_SIMINDEX_DIR)")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("similarity",
                       help="tuning-transfer index maintenance")
    ssub = p.add_subparsers(dest="sim_action", required=True)
    sb = ssub.add_parser("build",
                         help="(re)index every persisted tuned config, "
                              "optionally densified with tuned fuzz "
                              "kernels")
    sb.add_argument("--fuzz-count", type=int, default=0, metavar="N",
                    help="also tune N fuzz-generated kernels offline and "
                         "index the verified winners (default 0)")
    sb.add_argument("--start-seed", type=int, default=0,
                    help="first fuzz seed (default 0)")
    sb.add_argument("--budget", type=int, default=64,
                    help="per-kernel candidate budget for fuzz tuning "
                         "(default 64)")
    sb.add_argument("--no-cache", action="store_true",
                    help="ignore the persistent cell cache while tuning "
                         "fuzz kernels")
    sb.add_argument("--index-dir", metavar="DIR", default=None,
                    help="similarity-index directory (default: "
                         "results/.simindex or REPRO_SIMINDEX_DIR)")
    sb.set_defaults(fn=cmd_similarity)
    st = ssub.add_parser("stats", help="index population and store health")
    st.add_argument("--json", action="store_true")
    st.add_argument("--index-dir", metavar="DIR", default=None,
                    help="similarity-index directory (default: "
                         "results/.simindex or REPRO_SIMINDEX_DIR)")
    st.set_defaults(fn=cmd_similarity)

    p = sub.add_parser("cache", help="persistent cell-cache maintenance")
    p.add_argument("action", choices=["stats", "clear"],
                   help="show cache statistics or delete every entry")
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser("fuzz", help="differential fuzzing of the pipelines")
    fsub = p.add_subparsers(dest="fuzz_action", required=True)
    fr = fsub.add_parser("run", help="fuzz a seed range under every config")
    fr.add_argument("--seed", type=int, default=0, help="first seed")
    fr.add_argument("--count", type=int, default=100,
                    help="number of kernels to generate")
    fr.add_argument("-j", "--jobs", type=int, default=None,
                    help="worker processes (default: REPRO_JOBS or cores)")
    fr.add_argument("--lanes", type=int, default=32)
    fr.add_argument("--no-bisect", action="store_true",
                    help="skip pass-prefix bisection of failures")
    fr.add_argument("--save-corpus", action="store_true",
                    help="reduce each failure and persist it as a "
                         "regression kernel")
    fr.add_argument("--out", default=None,
                    help="corpus directory (default: tests/corpus)")
    fr.set_defaults(fn=cmd_fuzz_run)
    fd = fsub.add_parser("reduce",
                         help="shrink one failing seed to a minimal repro")
    fd.add_argument("--seed", type=int, required=True)
    fd.add_argument("--lanes", type=int, default=32)
    fd.add_argument("--out", default=None,
                    help="corpus directory (default: tests/corpus)")
    fd.add_argument("--name", default=None, help="corpus entry name")
    fd.set_defaults(fn=cmd_fuzz_reduce)
    fc = fsub.add_parser("corpus",
                         help="re-run the oracle over the corpus")
    fc.add_argument("--dir", default=None)
    fc.add_argument("--lanes", type=int, default=32)
    fc.set_defaults(fn=cmd_fuzz_corpus)

    p = sub.add_parser("serve",
                       help="optimization-as-a-service daemon "
                            "(HTTP over localhost)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (default: ephemeral; the chosen "
                        "port is printed)")
    p.add_argument("--serve-workers", type=int, default=2, metavar="N",
                   help="concurrent job-queue workers (default 2)")
    p.add_argument("--cache-cap", type=int, default=None, metavar="BYTES",
                   help="LRU total-bytes cap for the persistent cell "
                        "cache (default: REPRO_CACHE_MAX_BYTES or "
                        "unbounded)")
    p.add_argument("--no-cache", action="store_true",
                   help="serve without the persistent cell cache")
    p.add_argument("--trace-out", dest="serve_trace_out", metavar="PATH",
                   default=None,
                   help="at shutdown, write the daemon's merged Chrome "
                        "trace (every job's spans, stamped with their "
                        "request ids) to PATH")
    p.add_argument("--remarks-out", dest="serve_remarks_out",
                   metavar="PATH", default=None,
                   help="at shutdown, write the daemon's merged remark "
                        "stream as JSONL to PATH")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("submit",
                       help="submit one kernel to a running daemon")
    p.add_argument("--url", default=None,
                   help="daemon URL (default: REPRO_SERVE_URL or "
                        "http://127.0.0.1:8377)")
    p.add_argument("--app", help="registered benchmark to optimize")
    p.add_argument("--ir", metavar="FILE",
                   help="textual-IR module to optimize ('-' for stdin)")
    p.add_argument("--config", default="uu_heuristic",
                   choices=list(CONFIGS))
    p.add_argument("--loop-id", default=None,
                   help="loop id for per-loop configs (uu/unroll/unmerge)")
    p.add_argument("--factor", type=int, default=2)
    p.add_argument("--lanes", type=int, default=32,
                   help="warp width for ir submissions (default 32)")
    p.add_argument("--priority", type=int, default=0,
                   help="larger runs first (default 0)")
    p.add_argument("--directive", action="append", metavar="DIRECTIVE",
                   help="pragma-style transformation directive, e.g. "
                        "'unroll(4)@kernel:0'; the list is compiled as "
                        "an explicit plan in place of --config "
                        "(repeatable, applied in order)")
    p.add_argument("--refine", action="store_true",
                   help="for --config predicted app submissions: also "
                        "enqueue a background tune refinement at idle "
                        "priority; its verified winner upgrades the "
                        "daemon's similarity index")
    p.add_argument("--no-ir", action="store_true",
                   help="omit the optimized IR from the result")
    p.add_argument("--no-wait", action="store_true",
                   help="print the job ticket instead of waiting")
    p.add_argument("--wait", type=float, default=600.0,
                   help="seconds to wait for the result (default 600)")
    p.add_argument("--json", action="store_true",
                   help="print the full result as JSON")
    p.add_argument("--show-ir", action="store_true",
                   help="print the optimized IR after the summary line")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="also write the full result JSON to PATH")
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("serve-status",
                       help="counters of a running daemon (queue, dedup, "
                            "cache, metrics)")
    p.add_argument("--url", default=None,
                   help="daemon URL (default: REPRO_SERVE_URL or "
                        "http://127.0.0.1:8377)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_serve_status)

    p = sub.add_parser("metrics", parents=[common],
                       help="Prometheus metrics text: scrape a running "
                            "daemon, or meter one local sweep")
    p.add_argument("--url", default=None,
                   help="scrape GET /metrics from a daemon instead of "
                        "sweeping locally")
    p.add_argument("--config", default="uu_heuristic",
                   choices=list(CONFIGS),
                   help="config for the local metered sweep "
                        "(default: uu_heuristic)")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("ptx", parents=[common],
                       help="print PTX-style assembly for a kernel")
    p.add_argument("--kernel", help="kernel name (default: all)")
    p.add_argument("--config", default="baseline",
                   choices=list(CONFIGS))
    p.add_argument("--loop", help="loop id for per-loop configs")
    p.add_argument("--factor", type=int, default=2)
    p.set_defaults(fn=cmd_ptx)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "ptx" and not args.app:
        parser.error("ptx requires --app")
    if args.command != "ptx" and getattr(args, "loop", None):
        parser.error("--loop only applies to the ptx command")
    trace_out = getattr(args, "trace_out", None)
    remarks_out = getattr(args, "remarks_out", None)
    with _metrics_registry():
        if not (trace_out or remarks_out):
            return args.fn(args)
        # Tracing observes compilation; a cache hit skips compilation
        # entirely, so traced runs bypass the persistent cache.
        args.no_cache = True
        with _obs_session() as session:
            rc = args.fn(args)
        _export_session(session, trace_out, remarks_out)
        return rc


if __name__ == "__main__":
    sys.exit(main())
