"""Unit tests for the jit's session telemetry (``gpu.region_cache``).

Region plans live and die with a ``SimtMachine``: every machine selects
its own when a function gets hot.  This file pins the session counters
that surface in the sweep line / ``repro summary --profile`` / serve
``/stats``, and that a second machine selects what the first one did.
Regions are selected when a block gets hot, so the launching tests run
with the tier-up threshold at 1 (``tier_up_at_once``).
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.bench import benchmark_by_name
from repro.gpu import Memory, SimtMachine
from repro.gpu.region_cache import RegionSession, session, take_session
from repro.gpu.regions import R_GUARD
from repro.ir.parser import parse_module

IR = """
define i64 @k(i64 %n) {
entry:
  %tid = call i64 @tid.x()
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %loop ]
  %acc = phi i64 [ %tid, %entry ], [ %acc.next, %loop ]
  %t1 = mul i64 %acc, 7
  %t2 = add i64 %t1, %i
  %t3 = xor i64 %t2, 5
  %acc.next = and i64 %t3, 1048575
  %i.next = add i64 %i, 1
  %done = icmp sge i64 %i.next, %n
  br i1 %done, label %exit, label %loop
exit:
  ret i64 %acc.next
}
"""


def jit_context(ir_text: str = IR):
    module = parse_module(ir_text, "m")
    func = next(iter(module.functions.values()))
    return SimtMachine(module, Memory(), engine="jit"), func


def launch(machine, func):
    """One launch of ``@k``: its regions are selected and every block it
    reaches compiled; returns the function's region map."""
    machine.launch(func, 1, 32, [3])
    return machine._regions[id(func)]


def plan_shape(regions):
    """A region map's selected plans by name, comparable across machines:
    ``{head: ([(block, decision kind, guard's expected side)], guards,
    loopback)}``."""
    def op(db, decision):
        kind = decision[0]
        return db.name, kind, decision[2] if kind == R_GUARD else None

    return {decisions[0][0].name: ([op(db, decision)
                                    for db, decision in decisions],
                                   n_guards, loopback)
            for decisions, n_guards, loopback in regions.plans.values()}


# -- session counters ---------------------------------------------------------

def test_session_line_is_empty_without_activity():
    assert RegionSession().line() == ""


def test_session_absorb_sums_and_maxes():
    sess = RegionSession(selections=1, fused_steps=10, max_chain=5, puts=2)
    sess.absorb({"selections": 2, "fused_steps": 3, "max_chain": 9,
                 "puts": 1, "bogus": "ignored"})
    assert sess.selections == 3
    assert sess.fused_steps == 13
    assert sess.max_chain == 9, "max_chain folds by max, not sum"
    assert sess.puts == 3


def test_take_session_snapshots_and_resets(fresh_jit_session, tier_up_at_once):
    machine, func = jit_context()
    launch(machine, func)
    snap = take_session()
    assert snap["selections"] == 1
    assert not session().any(), "take_session must leave a fresh session"


def test_successive_fanouts_fold_like_a_serial_run(fresh_jit_session):
    """A pool forked after the parent has absorbed counts must not ship
    them home again: after each of three successive fan-outs of one
    runner the session reads at ``jobs=2`` what it reads at ``jobs=1``
    (a worker that keeps the session it inherited by fork reads
    4 / 10 / 13 / 55 after the third)."""
    from repro.harness.experiment import ExperimentRunner

    def snapshots(jobs):
        runner = ExperimentRunner(jobs=jobs)
        seen = []
        for app in ("XSBench", "bezier-surface", "complex"):
            runner.prefetch([benchmark_by_name(app)],
                            configs=("baseline", "uu_heuristic"))
            seen.append(session().snapshot())
        take_session()
        return seen

    serial = snapshots(1)
    assert serial[-1] == RegionSession(
        selections=2, regions=6, fused_segments=7, fused_steps=29,
        max_chain=5).snapshot()
    assert snapshots(2) == serial


# -- one selection path -------------------------------------------------------

def test_cold_then_warm_counts_and_plans(fresh_jit_session, tier_up_at_once):
    """A second machine in the same process — warm ``fuser._CODE_CACHE``
    — selects again, and selects what the first one did."""
    machine, func = jit_context()
    cold = launch(machine, func)
    assert session().selections == 1
    machine2, func2 = jit_context()
    warm = launch(machine2, func2)
    assert session().selections == 2, "every machine selects its own plans"
    assert plan_shape(warm) == plan_shape(cold)
    assert sorted(r.head_name for r in warm.values()) == \
        sorted(r.head_name for r in cold.values())
    snap = take_session()
    assert snap["hits"] == snap["misses"] == snap["puts"] == 0


# -- nothing under gpu/ reaches the harness or the disk ------------------------

REPO = pathlib.Path(__file__).resolve().parent.parent


def test_importing_gpu_does_not_load_the_harness():
    code = ("import sys, repro.gpu; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.harness')))")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def _files(root: pathlib.Path):
    return {path: path.stat().st_mtime_ns
            for path in root.rglob("*") if path.is_file()}


def test_a_jit_run_writes_no_file(fresh_jit_session, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HOME", str(tmp_path))
    results = _files(REPO / "results")
    bench = benchmark_by_name("complex")
    bench.run(bench.build_module(), engine="jit")
    assert session().regions > 0, "the run was meant to tier up"
    assert not _files(tmp_path)
    assert _files(REPO / "results") == results
