"""Engine micro-benchmark: batched vs per-warp interpreter throughput.

``python -m repro bench-interp`` times three IR micro-kernels chosen to
pin down the launch-vectorized engine's performance envelope:

* ``uniform``   — every warp runs the same arithmetic loop.  The batched
  engine executes the whole launch as one ``(n_warps, 32)`` lattice and
  is expected to clear the 2x acceptance floor comfortably.
* ``divergent`` — lanes split on ``tid & 1`` *inside* every warp.  Both
  branch edges are live in every row, so the rows never disagree on
  scheduling and the launch stays batched: intra-warp divergence costs
  masked lanes (in both engines, identically), not batching.
* ``staggered`` — the loop trip count depends on the warp index, so the
  warps' control decisions disagree as soon as the shortest warp exits
  and rows demote to the per-warp path one by one.  This is the worst
  case for batching; the acceptance bar is "within ~10% of the serial
  engine", i.e. the batched attempt must be nearly free when it fails.
* ``briefdiv``  — one warp takes a three-instruction prelude the others
  skip, then every warp runs the same long loop.  Before demotion
  hysteresis the lone warp was permanently handed to the per-warp
  engine at the split; with hysteresis it continues as a one-row batch
  and keeps the vectorized (and jit-compiled) fast path.
* ``chain``     — a long memory-free binop/select chain in a uniform
  self-loop: the jit's expression fuser collapses the whole body into
  one generated closure, so this kernel measures fusion headroom pure.
* ``chaindia``  — the same chain split around an intra-warp divergent
  diamond: fused segments bracket a masked R_DIAMOND, pinning the cost
  of fusion boundaries at control flow the fuser must not cross.

Before any timing is reported the two engines' :class:`Counters` (and
return buffers) are asserted equal — a benchmark comparing two engines
that computed different things would be meaningless, and the check
doubles as a quick sanity pass over the bit-identicality contract that
``tests/test_engine_equivalence.py`` enforces exhaustively.

Throughput is *warp-steps/sec*: ``inst_executed`` (one count per
instruction issued per warp) divided by median-of-``repeats`` wall time.
Warp-steps are engine-invariant, so the ratio of the two throughputs is
a pure wall-clock speedup.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from ..gpu.counters import Counters
from ..gpu.machine import ENGINES, WARP_SIZE, SimtMachine
from ..gpu.memory import Memory
from ..ir.parser import parse_module

#: (name, needs output buffer, IR text).  The loop bound arrives as %n so
#: the workload scales without reparsing.
_KERNELS: Tuple[Tuple[str, bool, str], ...] = (
    ("uniform", False, """
define i64 @uniform(i64 %n) {
entry:
  %tid = call i64 @tid.x()
  %ctaid = call i64 @ctaid.x()
  %ntid = call i64 @ntid.x()
  %base = mul i64 %ctaid, %ntid
  %gid = add i64 %base, %tid
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %acc.next, %loop ]
  %t = mul i64 %i, 1103515245
  %t2 = add i64 %t, %gid
  %t3 = lshr i64 %t2, 7
  %t4 = and i64 %t3, 1023
  %acc.next = add i64 %acc, %t4
  %i.next = add i64 %i, 1
  %done = icmp sge i64 %i.next, %n
  br i1 %done, label %exit, label %loop
exit:
  ret i64 %acc.next
}
"""),
    ("divergent", False, """
define i64 @divergent(i64 %n) {
entry:
  %tid = call i64 @tid.x()
  %bit = and i64 %tid, 1
  %odd = icmp eq i64 %bit, 1
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %latch ]
  %acc = phi i64 [ 0, %entry ], [ %acc.next, %latch ]
  br i1 %odd, label %oddpath, label %evenpath
oddpath:
  %a = mul i64 %acc, 3
  %a1 = add i64 %a, %i
  br label %latch
evenpath:
  %b = add i64 %acc, %i
  %b1 = mul i64 %b, 5
  br label %latch
latch:
  %acc.next = phi i64 [ %a1, %oddpath ], [ %b1, %evenpath ]
  %i.next = add i64 %i, 1
  %done = icmp sge i64 %i.next, %n
  br i1 %done, label %exit, label %loop
exit:
  ret i64 %acc.next
}
"""),
    ("staggered", True, """
define void @staggered(i64* %buf, i64 %n) {
entry:
  %tid = call i64 @tid.x()
  %ctaid = call i64 @ctaid.x()
  %ntid = call i64 @ntid.x()
  %base = mul i64 %ctaid, %ntid
  %gid = add i64 %base, %tid
  %warp = lshr i64 %gid, 5
  %extra = mul i64 %warp, 3
  %trip = add i64 %n, %extra
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %acc.next, %loop ]
  %t = mul i64 %acc, 7
  %acc.next = add i64 %t, %i
  %i.next = add i64 %i, 1
  %done = icmp sge i64 %i.next, %trip
  br i1 %done, label %exit, label %loop
exit:
  %addr = gep i64* %buf, i64 %gid
  store i64 %acc.next, i64* %addr
  ret void
}
"""),
    ("briefdiv", False, """
define i64 @briefdiv(i64 %n) {
entry:
  %tid = call i64 @tid.x()
  %ctaid = call i64 @ctaid.x()
  %ntid = call i64 @ntid.x()
  %base = mul i64 %ctaid, %ntid
  %gid = add i64 %base, %tid
  %first = icmp slt i64 %gid, 32
  br i1 %first, label %prelude, label %main
prelude:
  %p0 = mul i64 %gid, 17
  %p = add i64 %p0, 3
  br label %main
main:
  %seed = phi i64 [ %p, %prelude ], [ %gid, %entry ]
  br label %loop
loop:
  %i = phi i64 [ 0, %main ], [ %i.next, %loop ]
  %acc = phi i64 [ %seed, %main ], [ %acc.next, %loop ]
  %t = mul i64 %acc, 1103515245
  %t2 = add i64 %t, %i
  %t3 = lshr i64 %t2, 7
  %acc.next = add i64 %t3, %t2
  %i.next = add i64 %i, 1
  %done = icmp sge i64 %i.next, %n
  br i1 %done, label %exit, label %loop
exit:
  ret i64 %acc.next
}
"""),
    ("chain", False, """
define i64 @chain(i64 %n) {
entry:
  %tid = call i64 @tid.x()
  %ctaid = call i64 @ctaid.x()
  %ntid = call i64 @ntid.x()
  %base = mul i64 %ctaid, %ntid
  %gid = add i64 %base, %tid
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %loop ]
  %acc = phi i64 [ %gid, %entry ], [ %acc.next, %loop ]
  %t1 = mul i64 %acc, 1103515245
  %t2 = add i64 %t1, 12345
  %t3 = xor i64 %t2, %i
  %t4 = lshr i64 %t3, 9
  %t5 = add i64 %t4, %t2
  %t6 = mul i64 %t5, 69069
  %t7 = xor i64 %t6, %t4
  %t8 = lshr i64 %t7, 5
  %t9 = add i64 %t8, %t6
  %t10 = and i64 %t9, 1048575
  %big = icmp sgt i64 %t10, 524287
  %sel = select i1 %big, i64 %t9, i64 %t10
  %acc.next = and i64 %sel, 16777215
  %i.next = add i64 %i, 1
  %done = icmp sge i64 %i.next, %n
  br i1 %done, label %exit, label %loop
exit:
  ret i64 %acc.next
}
"""),
    ("chaindia", False, """
define i64 @chaindia(i64 %n) {
entry:
  %tid = call i64 @tid.x()
  %bit = and i64 %tid, 1
  %odd = icmp eq i64 %bit, 1
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %join ]
  %acc = phi i64 [ %tid, %entry ], [ %acc.next, %join ]
  %t1 = mul i64 %acc, 1103515245
  %t2 = add i64 %t1, 12345
  %t3 = xor i64 %t2, %i
  %t4 = lshr i64 %t3, 9
  %t5 = add i64 %t4, %t2
  br i1 %odd, label %a, label %b
a:
  %x = mul i64 %t5, 3
  br label %join
b:
  %y = add i64 %t5, 7
  br label %join
join:
  %m = phi i64 [ %x, %a ], [ %y, %b ]
  %u1 = xor i64 %m, %t4
  %u2 = lshr i64 %u1, 3
  %u3 = add i64 %u2, %m
  %acc.next = and i64 %u3, 1048575
  %i.next = add i64 %i, 1
  %done = icmp sge i64 %i.next, %n
  br i1 %done, label %exit, label %loop
exit:
  ret i64 %acc.next
}
"""),
)

#: Loop bound handed to every kernel as %n.
DEFAULT_TRIPS = 200


@dataclass
class KernelTiming:
    """Median timing of one kernel under both engines."""

    kernel: str
    warp_steps: int                 #: inst_executed, engine-invariant
    seconds: Dict[str, float]       #: engine -> median wall seconds
    cycles: float                   #: simulated cycles (identical)

    def throughput(self, engine: str) -> float:
        return self.warp_steps / self.seconds[engine]

    @property
    def speedup(self) -> float:
        """Batched throughput over per-warp throughput."""
        return self.seconds["warp"] / self.seconds["batched"]

    @property
    def jit_speedup(self) -> float:
        """Jit throughput over per-warp throughput."""
        return self.seconds["warp"] / self.seconds["jit"]

    @property
    def jit_vs_batched(self) -> float:
        """Jit throughput over batched throughput."""
        return self.seconds["batched"] / self.seconds["jit"]


class EngineMismatch(AssertionError):
    """The two engines disagreed — the benchmark refuses to time them."""


def _launch_once(text: str, name: str, needs_buf: bool, engine: str,
                 warps: int, trips: int):
    """One fresh launch; returns ``(counters, return_or_buffer_bytes)``."""
    module = parse_module(text, name)
    memory = Memory()
    block_dim = warps * WARP_SIZE
    args: List = []
    if needs_buf:
        args.append(memory.alloc("buf", "i64", block_dim))
    args.append(trips)
    machine = SimtMachine(module, memory, engine=engine)
    result = machine.launch(name, 1, block_dim, args)
    if needs_buf:
        payload = memory.read_back("buf").tobytes()
    else:
        payload = result.return_values.tobytes()
    return result.counters, payload


def _check_identical(kernel: str, ref: Counters, ref_payload: bytes,
                     got: Counters, got_payload: bytes) -> None:
    if got_payload != ref_payload:
        raise EngineMismatch(f"{kernel}: engines produced different outputs")
    if got != ref:
        raise EngineMismatch(
            f"{kernel}: engines produced different counters:\n"
            f"  batched: {ref}\n  warp:    {got}")


def bench_kernel(name: str, needs_buf: bool, text: str, warps: int,
                 repeats: int, trips: int = DEFAULT_TRIPS) -> KernelTiming:
    """Time one kernel under both engines (median of ``repeats``)."""
    reference: Optional[Tuple[Counters, bytes]] = None
    seconds: Dict[str, float] = {}
    for engine in ENGINES:
        samples = []
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            counters, payload = _launch_once(text, name, needs_buf, engine,
                                             warps, trips)
            samples.append(time.perf_counter() - start)
        if reference is None:
            reference = (counters, payload)
        else:
            _check_identical(name, reference[0], reference[1],
                             counters, payload)
        seconds[engine] = median(samples)
    assert reference is not None
    return KernelTiming(kernel=name, warp_steps=reference[0].inst_executed,
                        seconds=seconds, cycles=reference[0].cycles)


def bench_all(warps: int = 8, repeats: int = 3,
              trips: int = DEFAULT_TRIPS) -> List[KernelTiming]:
    if warps < 2:
        raise ValueError("bench-interp needs >= 2 warps to batch anything")
    return [bench_kernel(name, needs_buf, text, warps, repeats, trips)
            for name, needs_buf, text in _KERNELS]


def format_report(rows: List[KernelTiming], warps: int) -> str:
    lines = [
        f"Interpreter engine micro-benchmark "
        f"({warps} warps x {WARP_SIZE} lanes, warp-steps/sec, "
        f"median wall time; engines verified bit-identical):",
        f"{'kernel':<12} {'warp-steps':>10} {'warp':>12} "
        f"{'batched':>12} {'jit':>12} {'batched':>8} {'jit':>8}",
        "-" * 80,
    ]
    for row in rows:
        lines.append(
            f"{row.kernel:<12} {row.warp_steps:>10} "
            f"{row.throughput('warp'):>12.0f} "
            f"{row.throughput('batched'):>12.0f} "
            f"{row.throughput('jit'):>12.0f} "
            f"{row.speedup:>7.2f}x "
            f"{row.jit_speedup:>7.2f}x")
    return "\n".join(lines)


def format_compare(rows: List[KernelTiming], warps: int) -> str:
    """Per-engine wall times side by side (``bench-interp --compare``).

    One row per (kernel, engine) with the median wall milliseconds and
    the ratios against per-warp and batched — the view to read when
    deciding which engine a workload shape favors, where
    :func:`format_report` answers "how fast is each engine overall".
    """
    lines = [
        f"Engine comparison ({warps} warps x {WARP_SIZE} lanes, median "
        f"wall ms, lower is better; engines verified bit-identical):",
        f"{'kernel':<12} {'engine':<10} {'ms':>10} "
        f"{'vs warp':>9} {'vs batched':>11}",
        "-" * 56,
    ]
    for row in rows:
        warp_s = row.seconds["warp"]
        batched_s = row.seconds["batched"]
        for i, engine in enumerate(("warp", "batched", "jit")):
            s = row.seconds[engine]
            lines.append(
                f"{row.kernel if i == 0 else '':<12} {engine:<10} "
                f"{s * 1e3:>10.2f} {warp_s / s:>8.2f}x "
                f"{batched_s / s:>10.2f}x")
    return "\n".join(lines)


def run_report(warps: int = 8, repeats: int = 3,
               trips: int = DEFAULT_TRIPS) -> str:
    return format_report(bench_all(warps, repeats, trips), warps)


# -- machine-readable export -------------------------------------------------

def default_bench_json_path() -> Path:
    """``results/BENCH_<YYYY-MM-DD>.json`` at the repository root."""
    root = Path(__file__).resolve().parents[3] / "results"
    return root / f"BENCH_{date.today().isoformat()}.json"


def bench_provenance() -> Dict[str, str]:
    """Where a benchmark record came from, so perf-history entries are
    comparable across environments (satellite of the perf sentinel)."""
    from ..gpu.timing import TIMING_MODEL_VERSION
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "timing_model": str(TIMING_MODEL_VERSION),
    }


def bench_json_payload(rows: List[KernelTiming], warps: int, trips: int,
                       source: str) -> Dict:
    """The shared machine-readable shape (``repro bench-interp --json``
    and the perf-smoke benchmark both emit it).

    Schema v2 added ``provenance``; readers tolerate v1 records (the
    perf sentinel treats provenance as optional).
    """
    return {
        "schema": 2,
        "source": source,
        "provenance": bench_provenance(),
        "warps": warps,
        "lanes": WARP_SIZE,
        "trips": trips,
        "kernels": [
            {
                "kernel": row.kernel,
                "warp_steps": row.warp_steps,
                "cycles": row.cycles,
                "seconds": {engine: row.seconds[engine]
                            for engine in sorted(row.seconds)},
                "warp_steps_per_sec": {engine: row.throughput(engine)
                                       for engine in sorted(row.seconds)},
                "batched_speedup": row.speedup,
                "jit_speedup": row.jit_speedup,
                "jit_vs_batched": row.jit_vs_batched,
            }
            for row in rows
        ],
    }


def write_bench_json(rows: List[KernelTiming], warps: int, trips: int,
                     path: Optional[os.PathLike] = None,
                     source: str = "bench-interp") -> Path:
    """Write the engine-throughput payload; returns the path written."""
    target = Path(path) if path is not None else default_bench_json_path()
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = bench_json_payload(rows, warps, trips, source)
    target.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return target


if __name__ == "__main__":
    print(run_report())
