"""Campaign driver: fan fuzz kernels out over a process pool.

Reuses the sweep engine's worker-count plumbing
(:func:`repro.harness.parallel.resolve_jobs`: ``--jobs`` > ``REPRO_JOBS``
> all cores) and its failure-isolation pattern: a crashing seed is
recorded as a harness error, never kills the campaign.  Results are
deterministic — seeds map to kernels purely, and outcomes are collected
in seed order regardless of completion order.

Each failing configuration is bisected in the worker (cheap relative to
the differential itself), so a campaign report names the offending pass
for every divergence it finds.
"""

from __future__ import annotations

import random
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..harness.parallel import resolve_jobs
from .bisect import bisect_divergence
from .generator import generate_kernel
from .oracle import (LANES, ConfigSpec, run_differential,
                     subject_from_kernel)


@dataclass
class FailureRecord:
    """One diverging (seed, configuration) pair, with its bisection."""

    seed: int
    name: str
    spec: ConfigSpec
    kind: str                      # mismatch | verifier | crash
    detail: str
    culprit: Optional[str] = None  # pass named by the bisector
    culprit_step: Optional[int] = None

    def describe(self) -> str:
        where = f" [pass: {self.culprit}, step {self.culprit_step}]" \
            if self.culprit else ""
        return (f"seed {self.seed} {self.spec.label}: {self.kind} — "
                f"{self.detail}{where}")


@dataclass
class CampaignResult:
    """Aggregate outcome of one fuzzing campaign."""

    start_seed: int
    count: int
    lanes: int = LANES
    checked_configs: int = 0
    failures: List[FailureRecord] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)  # harness crashes

    @property
    def ok(self) -> bool:
        return not self.failures and not self.errors

    @property
    def failing_seeds(self) -> List[int]:
        return sorted({f.seed for f in self.failures})


def fuzz_one(seed: int, lanes: int = LANES, bisect: bool = True
             ) -> Tuple[int, List[FailureRecord]]:
    """Generate, differentially test, and (on failure) bisect one seed.

    Returns ``(configs_checked, failures)``.
    """
    kernel = generate_kernel(seed)
    subject = subject_from_kernel(kernel, seed=seed)
    report = run_differential(subject, lanes=lanes)
    failures: List[FailureRecord] = []
    for outcome in report.failures:
        record = FailureRecord(seed, report.name, outcome.spec,
                               outcome.kind, outcome.detail)
        if bisect:
            found = bisect_divergence(subject, outcome.spec, lanes=lanes)
            if found is not None:
                record.culprit = found.culprit
                record.culprit_step = found.step
        failures.append(record)
    return len(report.outcomes), failures


def _worker(payload: Tuple[int, int, bool]
            ) -> Tuple[int, int, List[FailureRecord], Optional[str]]:
    """Top-level (picklable) per-seed worker with failure isolation."""
    seed, lanes, bisect = payload
    # Pool workers are reused across seeds, so any code consulting the
    # global RNGs (``random``/numpy legacy) would otherwise see state that
    # depends on which seeds this worker processed before this one.
    # Re-seeding from the fuzz seed makes ``fuzz run --jobs N`` outcomes
    # independent of worker scheduling (the generator itself already uses
    # its own ``random.Random(seed)``, but pass/harness code must not be
    # able to break determinism through the globals).
    random.seed(seed)
    np.random.seed(seed & 0xFFFFFFFF)
    try:
        checked, failures = fuzz_one(seed, lanes, bisect)
        return seed, checked, failures, None
    except Exception:  # noqa: BLE001 — isolate the seed, keep the campaign
        return seed, 0, [], traceback.format_exc()


def run_campaign(start_seed: int, count: int, jobs: Optional[int] = None,
                 lanes: int = LANES, bisect: bool = True,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> CampaignResult:
    """Differentially fuzz ``count`` seeds starting at ``start_seed``."""
    jobs = resolve_jobs(jobs)
    result = CampaignResult(start_seed, count, lanes)
    payloads = [(seed, lanes, bisect)
                for seed in range(start_seed, start_seed + count)]
    if jobs <= 1 or count <= 1:
        rows = [_worker(p) for p in payloads]
    else:
        chunk = max(1, count // (jobs * 4))
        with ProcessPoolExecutor(max_workers=min(jobs, count)) as pool:
            rows = list(pool.map(_worker, payloads, chunksize=chunk))
    for seed, checked, failures, error in rows:
        result.checked_configs += checked
        result.failures.extend(failures)
        if error is not None:
            result.errors.append(f"seed {seed}: {error}")
        if progress is not None:
            if error is not None:
                progress(f"seed {seed}: harness error")
            for failure in failures:
                progress(failure.describe())
    return result
