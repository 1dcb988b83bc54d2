"""``--compare A.json B.json``: is B worse than A beyond the bounds?

One row per (workload, end-to-end metric).  A is the base of every ratio.
A metric whose run-to-run spread is wider than its bound cannot show
"no change": it is reported ``unresolved`` unless every run of one side
reads better than every run of the other.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from .multi import quartiles
from .spec import load_spec, metric_table


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Dict[str, object]:
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b_med - a_med) / a_med
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    if better == "lower":
        disjoint = max(b) < min(a) or min(b) > max(a)
    else:
        disjoint = min(b) > max(a) or max(b) < min(a)
    if spread > bound and not disjoint:
        state = "unresolved"
    elif worsening > bound:
        state = "regressed"
    else:
        state = "ok"
    return {"a": (a_q1, a_med, a_q3), "b": (b_q1, b_med, b_q3),
            "ratio": b_med / a_med, "worsening": worsening,
            "spread": spread, "state": state}


def compare_sets(a: Dict, b: Dict) -> int:
    declared = metric_table(load_spec(), "end_to_end")
    tally = {"ok": 0, "unresolved": 0, "regressed": 0}
    problems: List[str] = []
    print(f"A (base of every ratio): commit "
          f"{a.get('provenance', {}).get('git_commit', '?')[:12]}, "
          f"{a['repeats']} runs   B: commit "
          f"{b.get('provenance', {}).get('git_commit', '?')[:12]}, "
          f"{b['repeats']} runs")
    print(f"{'workload':<12} {'metric':<12} {'unit':<4} "
          f"{'A median [q1..q3]':<34} {'B median [q1..q3]':<34} "
          f"{'B/A':>7} {'bound':>6}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            problems.append(f"{name}: missing from B")
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, decl in declared.items():
            row = verdict(wa["end_to_end"][metric]["values"],
                          wb["end_to_end"][metric]["values"],
                          decl["better"], decl["bound"])
            tally[row["state"]] += 1

            def cell(q):
                return f"{q[1]:.5g} [{q[0]:.5g}..{q[2]:.5g}]"
            print(f"{name:<12} {metric:<12} {decl['unit']:<4} "
                  f"{cell(row['a']):<34} {cell(row['b']):<34} "
                  f"{row['ratio']:>7.3f} {decl['bound']:>6}  {row['state']}"
                  + (f" (spread {row['spread']:.1%})"
                     if row["state"] == "unresolved" else ""))
        for side, entry in (("A", wa), ("B", wb)):
            if entry["failed"]:
                problems.append(f"{name}: {side} has {entry['failed']} "
                                f"failed of {entry['attempted']} operations")
        if "counts" in wa and "counts" in wb and wa["counts"] != wb["counts"]:
            problems.append(f"{name}: exact counts differ between A and B")
    print(f"\n{tally['ok']} ok, {tally['unresolved']} unresolved, "
          f"{tally['regressed']} regressed; fail_share and exact counts: "
          + ("identical and clean" if not problems else "; ".join(problems)))
    return 1 if tally["regressed"] or problems else 0


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        return compare_sets(json.load(fa), json.load(fb))
