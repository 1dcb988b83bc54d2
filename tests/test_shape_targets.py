"""DESIGN.md §4's shape targets, asserted over the committed exhibits.

``pytest benchmarks/`` regenerates ``results/*.txt`` and checks these
shapes as it goes, in about twenty minutes.  This file reads the
committed text back — parsed the way the figures print it — so a change
that moves an exhibit off its shape fails tier-1 too, not only the next
regeneration.  It simulates nothing.
"""

from __future__ import annotations

import math
import pathlib
import re
from typing import Dict, List, Tuple

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

APPS = 16


def ratio(cell: str) -> float:
    """``1.113x`` -> 1.113."""
    assert cell.endswith("x"), cell
    return float(cell[:-1])


def rows(name: str, width: int) -> List[List[str]]:
    """The whitespace-split body rows of a figure table: everything after
    its ``----`` rule that has ``width`` cells."""
    lines = (RESULTS / name).read_text().splitlines()
    rule = next(i for i, line in enumerate(lines) if line.startswith("---"))
    body = [line.split() for line in lines[rule + 1:] if line.strip()]
    assert all(len(cells) == width for cells in body), name
    return body


def fig6(name: str) -> Tuple[Dict[Tuple[str, str, int], float],
                             Dict[str, float]]:
    """A Fig 6 table: ``{(app, loop, u): value}`` and the heuristic row
    of every app."""
    per_loop, heuristic = {}, {}
    for app, loop, factor, value in rows(name, 4):
        if loop == "(heuristic)":
            heuristic[app] = ratio(value)
        else:
            per_loop[(app, loop, int(factor))] = ratio(value)
    return per_loop, heuristic


def fig7() -> Dict[Tuple[str, int], Dict[str, float]]:
    """``{(app, u): {"uu", "unroll", "unmerge", "tuned"}}``."""
    return {(app, int(factor)): dict(zip(("uu", "unroll", "unmerge",
                                          "tuned"), map(ratio, values)))
            for app, factor, *values in rows("fig7.txt", 6)}


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def test_uu_beats_baseline_on_nearly_every_app_but_complex():
    per_loop, _ = fig6("fig6a.txt")
    best: Dict[str, float] = {}
    for (app, _loop, _u), speedup in per_loop.items():
        best[app] = max(best.get(app, 0.0), speedup)
    assert len(best) == APPS
    profitable = sorted(app for app, s in best.items() if s > 1.0)
    assert len(profitable) >= 10, profitable
    assert best["complex"] < 1.0


def test_complex_slows_down_monotonically_with_the_factor():
    figure = fig7()
    uu = [figure[("complex", u)]["uu"] for u in (2, 4, 8)]
    assert uu[0] > uu[1] > uu[2], uu
    assert uu[2] < 0.5
    # Traced to warp-execution-efficiency collapse and fetch stalls.
    metrics = {}
    for line in (RESULTS / "indepth_complex.txt").read_text().splitlines():
        cells = line.split()
        if len(cells) == 4 and re.fullmatch(r"[\d.]+x", cells[3]):
            metrics[cells[0]] = (float(cells[1]), float(cells[2]))
    wee = metrics["warp_execution_efficiency"]
    fetch = metrics["stall_inst_fetch"]
    assert wee[1] < wee[0] / 2, wee
    assert fetch[1] > fetch[0] * 2, fetch


def test_uu_beats_unroll_and_unmerge_on_most_apps():
    figure = fig7()
    assert len(figure) == APPS * 3
    best: Dict[str, Dict[str, float]] = {}
    for (app, _u), row in figure.items():
        entry = best.setdefault(app, {"uu": 0.0, "unroll": 0.0,
                                      "unmerge": row["unmerge"]})
        entry["uu"] = max(entry["uu"], row["uu"])
        entry["unroll"] = max(entry["unroll"], row["unroll"])
    wins = sorted(app for app, e in best.items()
                  if e["uu"] >= e["unroll"] and e["uu"] >= e["unmerge"])
    assert len(wins) >= 8, wins
    mandelbrot = best["mandelbrot"]
    assert mandelbrot["unmerge"] > 1.1
    assert mandelbrot["unmerge"] > mandelbrot["unroll"]
    haccmk = figure[("haccmk", 8)]
    assert haccmk["unroll"] > haccmk["uu"]
    assert best["complex"]["uu"] < min(best["complex"]["unroll"],
                                       best["complex"]["unmerge"])


def test_unmerge_alone_is_near_one_for_most_loops():
    unmerge: Dict[Tuple[str, str], float] = {}
    best_uu: Dict[Tuple[str, str], float] = {}
    body = rows("fig8b.txt", 6)
    assert len(body) >= 30
    for app, loop, _u, uu, alone, _winner in body:
        unmerge[(app, loop)] = ratio(alone)
        best_uu[(app, loop)] = max(best_uu.get((app, loop), 0.0), ratio(uu))
    near_one = [s for s in unmerge.values() if 0.9 <= s <= 1.15]
    assert len(near_one) >= len(unmerge) * 0.5
    assert geomean(best_uu.values()) > geomean(unmerge.values())


def test_heuristic_wins_on_average_without_the_outliers():
    summary = (RESULTS / "summary.txt").read_text()
    speedup = re.search(r"speedup\s+([\d.]+)x", summary)
    assert speedup and float(speedup.group(1)) > 1.0
    speedups = fig6("fig6a.txt")[1]
    assert len(speedups) == APPS
    for app in ("ccs", "complex", "contract"):
        assert speedups[app] < 1.0, app
    for name in ("fig6b.txt", "fig6c.txt"):
        per_loop, heuristic = fig6(name)
        assert max(heuristic.values()) < max(per_loop.values()), name
    assert geomean(fig6("fig6b.txt")[1].values()) < 4.0


def test_code_size_grows_with_the_factor_and_bspline_saturates():
    per_loop, _ = fig6("fig6b.txt")
    by_factor = {u: geomean(v for (_a, _l, f), v in per_loop.items()
                            if f == u) for u in (2, 4, 8)}
    assert by_factor[8] > by_factor[2], by_factor
    bspline = {u: per_loop[("bspline-vgh", "bspline_vgh:0", u)]
               for u in (4, 8)}
    assert bspline[8] <= bspline[4] * 1.25, bspline
