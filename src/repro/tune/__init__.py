"""repro.tune — empirical per-loop autotuner.

The paper's selection heuristic predicts one unroll factor per loop from a
static cost model (``f(p, s, u) < c``); its own Figure 8 scatter shows the
best factor varies widely per benchmark.  This package searches the space
{unroll factor u in 1..u_max} x {unmerge on/off} x {heuristic budget c}
*empirically* — by compiling and timing candidates on the simulator — and
persists the winners as ``results/tuned/<bench>.json``, which plug in as
the ``tuned`` pipeline configuration everywhere a config name is accepted.

* :mod:`repro.tune.space`  — candidate enumeration with cost-model pruning;
* :mod:`repro.tune.search` — the measurement-driven search (successive
  halving over launch geometries, fan-out through
  :class:`~repro.harness.parallel.ParallelRunner`, deterministic
  tie-breaking, oracle verification before persisting);
* :mod:`repro.tune.store`  — the versioned on-disk tuned-config format and
  its staleness rules;
* :mod:`repro.tune.show`   — rendering tuned decisions against what the
  static heuristic would have picked.
"""

from .search import BUDGET_ENV, TuneResult, tune_benchmark
from .show import render_tuned
from .space import TuneParams, enumerate_candidates, loop_facts
from .store import (TUNE_SCHEMA_VERSION, TunedConfig, default_tuned_dir,
                    load_tuned, resolve_decisions, save_tuned, tuned_path)

__all__ = [
    "BUDGET_ENV", "TUNE_SCHEMA_VERSION", "TuneParams", "TuneResult",
    "TunedConfig", "default_tuned_dir", "enumerate_candidates",
    "load_tuned", "loop_facts", "render_tuned", "resolve_decisions",
    "save_tuned", "tune_benchmark", "tuned_path",
]
