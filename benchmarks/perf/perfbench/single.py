"""One run of one workload: the unit the driver invokes.

``--trace 0`` measures the end-to-end metrics with tracing off: rounds, each
in a fresh process, for ``--seconds`` seconds.  ``--trace 1`` does one
untraced and one traced pass in this process and reports the per-layer
metrics.  Either way the last line printed is the result object the
benchmark contract asks for; the line before it (``detail {...}``) carries
what ``run.py``'s multi-run modes need on top.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List, Tuple

from .env import hermetic, provenance
from .meters import (Op, PassSample, cpu_seconds, end_to_end,
                     self_peak_rss_mb)
from .spans import Tracer
from .spec import (GOLDEN_PATH, PERF_DIR, WORK_ROOT, fill_declared, load_spec,
                   metric_table)

now = time.perf_counter

#: Rounds (and so set-ups and passes) per run at least.
MIN_ROUNDS = 3
#: Seconds a round's process may take; the longest takes about seven.
ROUND_TIMEOUT = 150


def _timed_pass(wl, state) -> Tuple[PassSample, List[Op]]:
    children = list(wl.live_children(state))
    cpu0, wall0 = cpu_seconds(children), now()
    ops = wl.run_pass(state)
    wall = now() - wall0
    cpu = cpu_seconds(children) - cpu0
    return PassSample(wall, cpu, [op.seconds for op in ops]), ops


def round_main(name: str, seed: int, quick: bool, verify: bool,
               began: float) -> int:
    """One round in this process, which ``timed_run`` started for it:
    set-up (``began`` is when the process entered ``run.py``, so the
    imports count), the timed passes, their checks, teardown."""
    from .workloads import WORKLOADS

    with hermetic(name) as work:
        wl = WORKLOADS[name](seed, quick, work)
        wl.prepare()
        state = wl.setup()
        setup_s = now() - began
        passes: List[PassSample] = []
        attempted = failed = 0
        try:
            for _ in range(wl.passes_per_setup):
                sample, ops = _timed_pass(wl, state)
                passes.append(sample)
                attempted += len(ops)
                failed += wl.check_pass(state, ops)
        finally:
            wl.teardown(state)
        peak_rss_mb = self_peak_rss_mb() + wl.child_peak_rss_mb
        if verify:
            checked, wrong = wl.verify(ops)
            attempted += checked
            failed += wrong
    print(json.dumps({"setup_s": setup_s, "attempted": attempted,
                      "failed": failed, "peak_rss_mb": peak_rss_mb,
                      "passes": [dataclasses.asdict(p) for p in passes]}))
    return 0


def _round_in_fresh_process(name: str, seed: int, quick: bool,
                            verify: bool) -> Dict:
    cmd = [sys.executable, str(PERF_DIR / "run.py"), "--workload", name,
           "--seed", str(seed), "--round", "verify" if verify else "plain"]
    if quick:
        cmd.append("--quick")
    # Its own session, so whatever the round started (the daemon of
    # ``serve_mix``) can be stopped with it if this process is interrupted.
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=ROUND_TIMEOUT)
    except BaseException:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.communicate()
        raise
    if child.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {child.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["passes"] = [PassSample(**p) for p in result["passes"]]
    return result


def timed_run(name: str, seed: int, quick: bool, seconds: float,
              min_rounds: int):
    """Rounds, each in a fresh process, until ``seconds`` are used."""
    rounds: List[Dict] = []
    lengths: List[float] = []
    began = now()
    while True:
        round_start = now()
        # Once per run, in its first round, the workload's ``verify``.
        rounds.append(_round_in_fresh_process(name, seed, quick,
                                              verify=not rounds))
        lengths.append(now() - round_start)
        # Stop rather than start a round that would overrun the budget.
        if (len(rounds) >= min_rounds
                and now() - began + median(lengths) > seconds):
            break
    measured = now() - began
    passes = [p for r in rounds for p in r["passes"]]
    setups = [r["setup_s"] for r in rounds]
    peak_rss_mb = median(r["peak_rss_mb"] for r in rounds)
    metrics = end_to_end(passes, setups, peak_rss_mb)
    detail = {
        "rounds": len(rounds), "passes": len(passes),
        "ops_per_pass": passes[-1].ops, "measured_s": measured,
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_cpu_s": [p.cpu_s for p in passes], "setup_s": setups,
    }
    return (metrics, sum(r["attempted"] for r in rounds),
            sum(r["failed"] for r in rounds), detail)


def _flatten(prefix: str, value, out: Dict[str, object]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else key, sub, out)
    else:
        out[prefix] = value


def golden_match_share(workload: str, quick: bool,
                       counts: Dict[str, object]) -> Tuple[float, List[str]]:
    """Share of the committed exact counts this run reproduced."""
    try:
        golden = json.loads(GOLDEN_PATH.read_text())
        want = golden["quick" if quick else "full"][workload]
    except (OSError, KeyError, ValueError):
        return 0.0, ["no committed counts for this workload and size"]
    flat_want: Dict[str, object] = {}
    flat_got: Dict[str, object] = {}
    _flatten("", want, flat_want)
    _flatten("", counts, flat_got)
    keys = sorted(set(flat_want) | set(flat_got))
    differing = [k for k in keys if flat_want.get(k) != flat_got.get(k)]
    return 1.0 - len(differing) / len(keys), differing


def traced_run(wl, quick: bool):
    """One untraced pass, then the traced run of the same round."""
    tracer = Tracer()
    state = wl.setup()
    try:
        untraced, ops = _timed_pass(wl, state)
        failed = wl.check_pass(state, ops)
        report = wl.traced(tracer, state, ops)
    finally:
        wl.teardown(state)
    layer = dict(report.layer)
    layer["trace.overhead_share"] = (
        (report.traced_wall_s - untraced.wall_s) / untraced.wall_s)
    layer["trace.coverage_share"] = tracer.root_seconds() / report.span_wall_s
    share, differing = golden_match_share(wl.name, quick, report.counts)
    layer["ledger.golden_match_share"] = share
    summary = {
        "workload": wl.name,
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": report.traced_wall_s,
        "layer_self_s": tracer.layer_self_seconds(),
        "spans": len(tracer.spans),
    }
    trace_path = WORK_ROOT / f"trace-{wl.name}.json"
    tracer.write(trace_path, summary)
    detail = dict(summary, counts=report.counts, notes=report.notes,
                  golden_differing=differing,
                  trace_file=str(trace_path.relative_to(WORK_ROOT.parent)))
    return (layer, len(ops) + report.attempted, failed + report.failed,
            detail)


def _print_metrics(values: Dict[str, Dict], declared: Dict[str, Dict],
                   skip_zero: bool) -> None:
    for name, decl in declared.items():
        value = values[name]["value"]
        if skip_zero and value == 0:
            continue    # A layer this workload does not exercise.
        bound = f"  bound {decl['bound']}" if "bound" in decl else ""
        print(f"  {name:<34} {value:>16.6g} {decl['unit']:<6} "
              f"{decl['better']} is better{bound}")


def run_single(name: str, seed: int, seconds: float, trace: bool,
               quick: bool) -> int:
    spec = load_spec()
    group = "per_layer" if trace else "end_to_end"
    declared = metric_table(spec, group)
    if trace:
        from .workloads import WORKLOADS
        with hermetic(name) as work:
            wl = WORKLOADS[name](seed, quick, work)
            wl.prepare()
            produced, attempted, failed, detail = traced_run(wl, quick)
    else:
        produced, attempted, failed, detail = timed_run(
            name, seed, quick, seconds, 1 if quick else MIN_ROUNDS)
    detail["provenance"] = provenance(seed)
    metrics = fill_declared(declared, produced, require_all=not trace)
    correct = failed == 0 and attempted > 0

    print(f"workload {name}  seed {seed}  trace {int(trace)}"
          f"{'  quick' if quick else ''}")
    _print_metrics(metrics, declared, skip_zero=trace)
    if not trace:
        print(f"  (each timing is the quietest of its samples: "
              f"{detail['passes']} passes of {detail['ops_per_pass']} "
              f"operations, {detail['rounds']} set-ups, one fresh process "
              "each; latencies are over the operations)")
    print(f"  {'fail_share':<34} {failed / max(1, attempted):>16.6g} "
          f"ratio  ({failed} failed of {attempted} attempted)")
    detail.update(workload=name, seed=seed, trace=int(trace), quick=quick,
                  fail_share=failed / max(1, attempted))
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1
