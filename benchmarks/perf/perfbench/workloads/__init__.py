"""The six workloads, by name (``BENCHMARK.json`` records why each exists)."""

from .execs import KernelExec, SuiteExec
from .serve import ServeMix
from .sweep import SweepCold, UuTail
from .warm import SweepWarm

WORKLOADS = {cls.name: cls for cls in (SweepCold, UuTail, SuiteExec,
                                       KernelExec, SweepWarm, ServeMix)}
