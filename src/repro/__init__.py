"""repro — reproduction of "Enhancing Performance through Control-Flow
Unmerging and Loop Unrolling on GPUs" (CGO 2024).

Layered public API:

* :mod:`repro.ir` — the SSA IR everything operates on;
* :mod:`repro.analysis` — dominators, loops, cost model, divergence;
* :mod:`repro.transforms` — u&u and the -O3-like cleanup pipeline
  (``compile_module`` is the main entry point);
* :mod:`repro.frontend` — structured kernel AST + SSA lowering;
* :mod:`repro.gpu` — the SIMT simulator standing in for the paper's V100;
* :mod:`repro.codegen` — PTX-style assembly backend for inspection and
  assembly-level statistics (the paper's Listing 4/5 view);
* :mod:`repro.bench` — the 16 HeCBench benchmark analogs (Table I);
* :mod:`repro.harness` — regenerates Table I and Figures 6-8.

Quickstart::

    from repro.bench import benchmark_by_name
    from repro.harness import ExperimentRunner

    runner = ExperimentRunner()
    bench = benchmark_by_name("XSBench")
    base = runner.baseline(bench)
    uu = runner.cell(bench, "uu", loop_id="grid_search:0", factor=2)
    print("speedup:", uu.speedup_over(base))
"""

__version__ = "1.0.0"

# Every layer below the harness loads eagerly; the harness (figures, SVG,
# process pools) is imported by whoever uses it, so ``import repro.gpu``
# stays a simulator import.
from . import analysis, bench, codegen, frontend, gpu, ir, transforms

__all__ = ["analysis", "bench", "codegen", "frontend", "gpu", "harness",
           "ir", "transforms", "__version__"]
