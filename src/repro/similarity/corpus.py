"""Growing the similarity index with fuzz-generated tuned kernels.

The 16 committed apps give the index one loop-shape per benchmark
category; :func:`build_from_fuzz` densifies the corpus by wrapping
deterministic fuzz kernels (:mod:`repro.fuzz.generator`) as benchmarks,
running the *existing* ``repro tune`` search over each, and indexing
every verified winner.  Fuzz entries carry ``source="fuzz"`` so
``repro similarity stats`` can report the committed and generated
populations separately.

Fuzz kernels are scalar (no buffers); :class:`FuzzBenchmark` runs them
oracle-style — every function on one warp with
:func:`repro.fuzz.oracle.default_args` — and exposes the per-lane return
values as the observable outputs, which is exactly what the differential
oracle itself compares.  The tuner runs with ``jobs=1`` and
``persist=False``: fuzz benches are not in the benchmark registry, so
pool workers could not rebuild them by name, and their tunings belong in
the index, not in ``results/tuned/``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..fuzz.generator import GeneratorConfig, generate_kernel
from ..fuzz.oracle import BARE_MAX_INSTRUCTIONS, LANES, run_one_warp
from ..ir.module import Module
from ..obs import session as obs
from .index import SimilarityIndex


class FuzzBenchmark:
    """One deterministic fuzz kernel wearing the Benchmark interface.

    Satisfies everything the tuner and the feature extractor touch:
    ``name``/``seed``, ``build_module()``, ``loop_ids()``, ``run()``,
    plus empty ``launches()``/``output_buffers()`` so
    :func:`repro.harness.parallel.workload_fingerprint` still produces a
    stable cache identity.
    """

    category = "fuzz"

    def __init__(self, seed: int,
                 config: GeneratorConfig = GeneratorConfig()) -> None:
        self.seed = seed
        self.name = f"fuzz-{seed}"
        self._kernel = generate_kernel(seed, config)

    def kernels(self):
        return [self._kernel]

    def launches(self):
        return []

    def output_buffers(self):
        return []

    def build_module(self) -> Module:
        from ..frontend.lower import lower_kernels
        return lower_kernels([self._kernel], self.name)

    def loop_ids(self) -> List[str]:
        from ..analysis.loops import LoopInfo
        module = self.build_module()
        ids: List[str] = []
        for func in module.functions.values():
            ids.extend(l.loop_id for l in LoopInfo.compute(func).loops)
        return ids

    def run(self, module: Module, icache_capacity=None,
            engine: Optional[str] = None, scale: int = 1):
        """Oracle-style execution: per-lane return values of every function.

        ``scale`` is accepted for interface compatibility but ignored —
        a single warp is already the minimal geometry, and scaling would
        change intra-warp divergence behaviour.
        """
        return run_one_warp(module, LANES, engine)

    def __repr__(self) -> str:
        return f"<FuzzBenchmark {self.name}>"


def fuzz_corpus(count: int, start_seed: int = 0,
                config: GeneratorConfig = GeneratorConfig()
                ) -> List[FuzzBenchmark]:
    """The first ``count`` fuzz benches (by seed) that contain a loop.

    Loop-free kernels carry no transferable evidence; skipping them keeps
    ``--fuzz-count N`` meaning "N useful corpus kernels", deterministic
    in ``start_seed``.
    """
    benches: List[FuzzBenchmark] = []
    seed = start_seed
    while len(benches) < count:
        bench = FuzzBenchmark(seed, config)
        if bench.loop_ids():
            benches.append(bench)
        seed += 1
    return benches


def build_from_fuzz(count: int, *,
                    start_seed: int = 0,
                    index: Optional[SimilarityIndex] = None,
                    budget: Optional[int] = 64,
                    use_cache: bool = True) -> Dict[str, object]:
    """Tune ``count`` fuzz kernels and index every verified winner.

    Returns a summary dict (``indexed``/``unverified`` app lists plus the
    resulting index size).  ``budget`` truncates each kernel's candidate
    enumeration — fuzz kernels have 1-2 loops, so a modest budget already
    measures every candidate.
    """
    from ..tune.search import tune_benchmark
    from ..tune.space import TuneParams

    index = index if index is not None else SimilarityIndex()
    params = TuneParams(budget=budget)
    indexed: List[str] = []
    unverified: List[str] = []
    for bench in fuzz_corpus(count, start_seed):
        result = tune_benchmark(
            bench, params=params, max_instructions=BARE_MAX_INSTRUCTIONS,
            jobs=1, use_cache=use_cache, persist=False)
        if not result.verified:
            unverified.append(bench.name)
            obs.remark("missed", "similarity-build", bench.name,
                       f"fuzz tuning unverified ({result.verify_detail}); "
                       "not indexed")
            continue
        index.add_tuned(bench.build_module(), result.config, source="fuzz")
        indexed.append(bench.name)
    return {"indexed": indexed, "unverified": unverified,
            "entries": index.stats()["entries"]}
