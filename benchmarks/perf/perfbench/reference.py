"""Independent reference outputs.

Nothing here goes through the optimisation pipeline or the engine under
test.  Applications and served subjects are referenced by their
*unoptimised* lowering run on the per-warp (``warp``) engine; the fixture
kernels of ``kernel_exec`` by plain numpy transcriptions of their IR,
because the per-warp engine would need ~6 s a run at that size.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.fuzz.oracle import execute

REFERENCE_ENGINE = "warp"


def same_bits(got: Dict[str, np.ndarray], want: Dict[str, np.ndarray]) -> bool:
    """Bit-for-bit equality of two named-buffer sets."""
    if got.keys() != want.keys():
        return False
    return all(got[n].dtype == want[n].dtype and got[n].shape == want[n].shape
               and got[n].tobytes() == want[n].tobytes() for n in want)


def app_reference(bench) -> Dict[str, np.ndarray]:
    outputs, _ = bench.run(bench.build_module(), engine=REFERENCE_ENGINE)
    return outputs


def subject_reference(module, lanes: int) -> Dict[str, np.ndarray]:
    """Per-function return lattices of an unoptimised ir/kernel subject,
    measured the way the service measures subjects (one warp, the fuzz
    oracle's deterministic scalar arguments)."""
    return execute(module, lanes, engine=REFERENCE_ENGINE)


# -- numpy transcriptions of kernels/*.ir ------------------------------------
# All arithmetic is i64 with wrap-around; uint64 arrays give exactly that
# (and make lshr a plain shift).  Each function returns the per-thread
# result for threads 0..threads-1 of a one-block launch.

_U = np.uint64


def _gid(threads: int) -> np.ndarray:
    return np.arange(threads, dtype=_U)


def _uniform(threads: int, n: int) -> np.ndarray:
    gid, acc = _gid(threads), np.zeros(threads, _U)
    for i in range(n):
        acc += ((_U(i) * _U(1103515245) + gid) >> _U(7)) & _U(1023)
    return acc


def _divergent(threads: int, n: int) -> np.ndarray:
    odd = (_gid(threads) & _U(1)) == 1
    acc = np.zeros(threads, _U)
    for i in range(n):
        acc = np.where(odd, acc * _U(3) + _U(i), (acc + _U(i)) * _U(5))
    return acc


def _staggered(threads: int, n: int) -> np.ndarray:
    trip = _U(n) + (_gid(threads) >> _U(5)) * _U(3)
    acc = np.zeros(threads, _U)
    for i in range(int(trip.max())):
        acc = np.where(_U(i) < trip, acc * _U(7) + _U(i), acc)
    return acc


def _briefdiv(threads: int, n: int) -> np.ndarray:
    gid = _gid(threads)
    acc = np.where(gid < 32, gid * _U(17) + _U(3), gid)
    for i in range(n):
        t2 = acc * _U(1103515245) + _U(i)
        acc = (t2 >> _U(7)) + t2
    return acc


def _chain(threads: int, n: int) -> np.ndarray:
    acc = _gid(threads)
    for i in range(n):
        t2 = acc * _U(1103515245) + _U(12345)
        t4 = (t2 ^ _U(i)) >> _U(9)
        t6 = (t4 + t2) * _U(69069)
        t9 = ((t6 ^ t4) >> _U(5)) + t6
        t10 = t9 & _U(1048575)
        acc = np.where(t10 > 524287, t9, t10) & _U(16777215)
    return acc


def _chaindia(threads: int, n: int) -> np.ndarray:
    tid = _gid(threads)
    odd = (tid & _U(1)) == 1
    acc = tid
    for i in range(n):
        t2 = acc * _U(1103515245) + _U(12345)
        t4 = (t2 ^ _U(i)) >> _U(9)
        t5 = t4 + t2
        m = np.where(odd, t5 * _U(3), t5 + _U(7))
        acc = (((m ^ t4) >> _U(3)) + m) & _U(1048575)
    return acc


KERNEL_REFERENCES: Dict[str, Callable[[int, int], np.ndarray]] = {
    "uniform": _uniform, "divergent": _divergent, "staggered": _staggered,
    "briefdiv": _briefdiv, "chain": _chain, "chaindia": _chaindia,
}


def kernel_reference(name: str, threads: int, trips: int) -> bytes:
    """Expected result bytes (i64 per thread) of one fixture kernel."""
    return KERNEL_REFERENCES[name](threads, trips).view(np.int64).tobytes()
