"""Unit tests for the jit's telemetry (``repro_jit_*`` metric series).

Region plans live and die with a ``SimtMachine``: every machine selects
its own when a function gets hot.  This file pins the jit's counts in
the metrics registry — what the sweep line, ``repro summary --profile``,
serve ``/stats`` and ``repro serve-status`` render — that one command
reports only what it did, and that a second machine selects what the
first one did.  Regions are selected when a block gets hot, so the
launching tests run with the tier-up threshold at 1 (``tier_up_at_once``).
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro import obs
from repro.bench import benchmark_by_name
from repro.gpu import Memory, SimtMachine
from repro.gpu.regions import R_GUARD
from repro.ir.parser import parse_module
from repro.obs.metrics import MetricsRegistry, jit_counts, jit_summary

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


# -- the jit's counts ---------------------------------------------------------

def test_session_line_is_empty_without_activity():
    assert jit_summary(jit_counts(None)) == ""
    assert jit_summary(jit_counts(MetricsRegistry())) == ""


def test_session_absorb_sums_and_maxes():
    registry = MetricsRegistry()
    registry.inc("repro_jit_selections_total")
    registry.inc("repro_jit_fused_steps_total", 10)
    registry.raise_gauge("repro_jit_max_chain", 5)
    worker = MetricsRegistry()
    worker.inc("repro_jit_selections_total", 2)
    worker.inc("repro_jit_fused_steps_total", 3)
    worker.raise_gauge("repro_jit_max_chain", 9)
    worker.raise_gauge("repro_jit_max_chain", 4)
    registry.absorb(worker.snapshot())
    counts = jit_counts(registry)
    assert counts["selections"] == 3
    assert counts["fused_steps"] == 13
    assert counts["max_chain"] == 9, "max_chain folds by max, not sum"


def test_take_session_snapshots_and_resets(tier_up_at_once):
    """A pool worker's payload carries what its task counted and leaves
    the slot empty behind it."""
    obs.begin_worker(False, True)
    machine, func = jit_context()
    launch(machine, func)
    payload = obs.end_worker()
    assert obs.metrics.active() is None, "end_worker must clear the slot"
    parent = MetricsRegistry()
    parent.absorb(payload["metrics"])
    assert jit_counts(parent)["selections"] == 1


def test_successive_fanouts_fold_like_a_serial_run():
    """A pool forked after the parent has absorbed counts must not ship
    them home again: after each of three successive fan-outs of one
    runner the registry reads at ``jobs=2`` what it reads at ``jobs=1``
    (a worker that keeps the counts it inherited by fork reads
    4 / 10 / 13 / 55 after the third)."""
    from repro.harness.experiment import ExperimentRunner

    def snapshots(jobs):
        registry = obs.metrics.install()
        try:
            runner = ExperimentRunner(jobs=jobs)
            seen = []
            for app in ("XSBench", "bezier-surface", "complex"):
                runner.prefetch([benchmark_by_name(app)],
                                configs=("baseline", "uu_heuristic"))
                seen.append(jit_counts(registry))
        finally:
            obs.metrics.uninstall()
        return seen

    serial = snapshots(1)
    assert serial[-1] == {"selections": 2, "regions": 6,
                          "fused_segments": 7, "fused_steps": 29,
                          "max_chain": 5}
    assert snapshots(2) == serial


# -- one command, one count ---------------------------------------------------

def test_a_command_reports_only_its_own_jit_work(capsys):
    """The same command twice in one process prints the same jit line:
    the registry ``main`` installs lives exactly as long as the command."""
    from repro.cli import main

    def jit_line(jobs):
        assert main(["run-heuristic", "--app", "complex", "--no-cache",
                     "-j", jobs]) == 0
        (line,) = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("jit: ")]
        return line

    expected = ("jit: 1 functions selected, 4 regions compiled, 16 steps "
                "fused in 4 segments (max chain 4)")
    for jobs in ("1", "2"):
        assert [jit_line(jobs), jit_line(jobs)] == [expected, expected]
    assert obs.metrics.active() is None


def test_a_new_daemon_reports_no_earlier_jit_work(capsys):
    """A daemon built after a jit sweep in the same process starts from
    zero: ``/stats`` reads the daemon's own registry."""
    from repro.cli import main
    from repro.serve import ServeClient, ServeDaemon

    assert main(["run-heuristic", "--app", "complex", "--no-cache",
                 "-j", "1"]) == 0
    assert "jit: 1 functions selected" in capsys.readouterr().out
    daemon = ServeDaemon(workers=1, use_cache=False)
    daemon.start()
    try:
        stats = ServeClient(daemon.url).stats()
    finally:
        daemon.shutdown()
    session = stats["region_cache"]["session"]
    assert session["selections"] == 0 and session["regions"] == 0, session


# -- one selection path -------------------------------------------------------

def test_cold_then_warm_counts_and_plans(fresh_jit_session, tier_up_at_once):
    """A second machine in the same process — warm ``fuser._CODE_CACHE``
    — selects again, and selects what the first one did."""
    machine, func = jit_context()
    cold = launch(machine, func)
    assert jit_counts(fresh_jit_session)["selections"] == 1
    machine2, func2 = jit_context()
    warm = launch(machine2, func2)
    counts = jit_counts(fresh_jit_session)
    assert counts["selections"] == 2, "every machine selects its own plans"
    assert plan_shape(warm) == plan_shape(cold)
    assert sorted(r.head_name for r in warm.values()) == \
        sorted(r.head_name for r in cold.values())
    assert counts["regions"] == len(cold) + len(warm)


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
    assert jit_counts(fresh_jit_session)["regions"] > 0, \
        "the run was meant to tier up"
    assert not _files(tmp_path)
    assert _files(REPO / "results") == results
