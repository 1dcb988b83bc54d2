"""Names the perf benchmark under ``benchmarks/perf/`` imports from here.

The one runner, the cell space it enumerates and the process pool it fans
out over all live in :mod:`repro.harness.experiment`.
"""

from .experiment import (CellSpec, ExperimentRunner, sweep_specs,  # noqa: F401
                         workload_fingerprint)

# benchmarks/perf/ constructs the runner under its name from before the merge.
ParallelRunner = ExperimentRunner
