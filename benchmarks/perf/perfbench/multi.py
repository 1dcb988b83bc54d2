"""Result sets: every workload, repeated in fresh processes.

Each repeat is one ``run.py --workload ...`` child (see ``single.py``), so
no repeat inherits another's imports, heap or caches.  A result set is what
``--compare`` compares and what ``baseline/BENCH_<date>.json`` holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from statistics import quantiles
from typing import Dict, List, Optional, Sequence, Tuple

from .spec import PERF_DIR, load_spec, metric_table

SET_SCHEMA = 1


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              quick: bool) -> Tuple[Dict, Dict]:
    """One single run in a fresh process; returns (result, detail)."""
    cmd = [sys.executable, str(PERF_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    if quick:
        cmd.append("--quick")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2].split(" ", 1)[1])
    except (IndexError, ValueError):
        raise ChildFailed(f"{' '.join(cmd)} exited {done.returncode} "
                          f"without a result:\n{done.stdout}{done.stderr}")
    return result, detail


def run_set(workloads: Sequence[str], seed: int, seconds: float,
            repeats: int, trace: bool, quick: bool) -> Dict:
    spec = load_spec()
    declared = metric_table(spec, "end_to_end")
    result_set: Dict = {"schema": SET_SCHEMA, "seed": seed,
                        "repeats": repeats, "seconds": seconds,
                        "quick": quick, "workloads": {}}
    for name in workloads:
        values: Dict[str, List[float]] = {m: [] for m in declared}
        attempted = failed = 0
        for repeat in range(repeats):
            print(f"[{name}] repeat {repeat + 1}/{repeats}", file=sys.stderr)
            result, detail = run_child(name, seed, seconds, False, quick)
            attempted += result["attempted"]
            failed += result["failed"]
            for metric in declared:
                values[metric].append(result["metrics"][metric]["value"])
            result_set.setdefault("provenance", detail["provenance"])
        entry: Dict = {"attempted": attempted, "failed": failed,
                       "fail_share": failed / max(1, attempted),
                       "end_to_end": {}}
        for metric, samples in values.items():
            q1, med, q3 = quartiles(samples)
            entry["end_to_end"][metric] = {
                "values": samples, "q1": q1, "median": med, "q3": q3}
        if trace:
            print(f"[{name}] traced run", file=sys.stderr)
            result, detail = run_child(name, seed, seconds, True, quick)
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["fail_share"] = entry["failed"] / max(1, entry["attempted"])
            entry["per_layer"] = {m: v["value"]
                                  for m, v in result["metrics"].items()}
            entry["counts"] = detail["counts"]
            entry["trace"] = {k: detail[k] for k in (
                "untraced_wall_s", "traced_wall_s", "layer_self_s", "spans",
                "notes", "golden_differing")}
        result_set["workloads"][name] = entry
    return result_set


def print_set(result_set: Dict) -> None:
    spec = load_spec()
    e2e = metric_table(spec, "end_to_end")
    layers = metric_table(spec, "per_layer")
    prov = result_set.get("provenance", {})
    print("provenance: " + "  ".join(f"{k}={v}" for k, v in prov.items())
          + f"  repeats={result_set['repeats']}"
          + ("  quick" if result_set["quick"] else ""))
    for name, entry in result_set["workloads"].items():
        print(f"\n{name}  (median of {result_set['repeats']} fresh-process "
              f"runs; q1..q3)")
        for metric, decl in e2e.items():
            row = entry["end_to_end"][metric]
            print(f"  {metric:<14} {row['median']:>12.6g} {decl['unit']:<4} "
                  f"[{row['q1']:.6g} .. {row['q3']:.6g}]  "
                  f"{decl['better']} is better, bound {decl['bound']}")
        print(f"  {'fail_share':<14} {entry['fail_share']:>12.6g} ratio "
              f"({entry['failed']} failed of {entry['attempted']}; "
              "any failure fails the run)")
        if "per_layer" not in entry:
            continue
        wall = entry["trace"]["traced_wall_s"]
        print(f"  traced run: wall {wall:.4g} s, layer self time "
              + ", ".join(f"{layer} {secs:.3g} s"
                          for layer, secs in
                          entry["trace"]["layer_self_s"].items()))
        for metric, value in entry["per_layer"].items():
            if value:
                decl = layers[metric]
                print(f"    {metric:<34} {value:>14.6g} {decl['unit']:<6} "
                      f"{decl['better']} is better")


def check_determinism(workloads: Sequence[str], seed: int,
                      quick: bool) -> Tuple[Dict, int]:
    """Run every workload's traced run twice; the counts must repeat."""
    counts: Dict[str, Dict] = {}
    status = 0
    for name in workloads:
        first = run_child(name, seed, 0, True, quick)
        second = run_child(name, seed, 0, True, quick)
        counts[name] = first[1]["counts"]
        same = first[1]["counts"] == second[1]["counts"]
        clean = first[0]["correct"] and second[0]["correct"]
        golden = first[0]["metrics"]["ledger.golden_match_share"]["value"]
        print(f"{name:<12} counts repeat: {'yes' if same else 'NO'}  "
              f"outputs correct: {'yes' if clean else 'NO'}  "
              f"golden_match_share {golden:.3f}"
              + ("" if golden == 1.0 else
                 f"  differing: {first[1]['golden_differing']}"))
        if not (same and clean):
            status = 1
    return counts, status


def write_json(path: Optional[str], data: Dict) -> None:
    if path:
        Path(path).write_text(json.dumps(data, indent=1, sort_keys=True)
                              + "\n")
        print(f"wrote {path}", file=sys.stderr)
