"""Fixed-seed differential fuzz smoke (tier-1).

Runs the full fuzz stack — generator, five-config differential oracle,
verifier-after-every-pass — over a fixed seed range.  Any failure here is
a real miscompile (or a fuzzer bug), never flakiness: generation is a
pure function of the seed and kernels are deterministic by construction.

Budget control: ``REPRO_FUZZ_BUDGET`` overrides the number of kernels
(default 50); ``REPRO_FUZZ_BUDGET=0`` skips the smoke entirely.
"""

import os

import pytest

from repro.fuzz.campaign import run_campaign
from repro.fuzz.generator import generate_kernel
from repro.fuzz.oracle import config_specs, subject_from_kernel
from repro.ir.printer import print_module

BUDGET_ENV = "REPRO_FUZZ_BUDGET"
DEFAULT_BUDGET = 50


def _budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        return DEFAULT_BUDGET


class TestGeneratorDeterminism:
    def test_same_seed_same_kernel(self):
        a = print_module(subject_from_kernel(generate_kernel(123)).build())
        b = print_module(subject_from_kernel(generate_kernel(123)).build())
        assert a == b

    def test_different_seeds_differ(self):
        a = print_module(subject_from_kernel(generate_kernel(1)).build())
        b = print_module(subject_from_kernel(generate_kernel(2)).build())
        assert a != b

    def test_covers_all_configs(self):
        # Most kernels have at least one loop, so the spec list spans the
        # paper's five configurations; a multi-loop kernel (seed 0 has
        # two) adds one multi-directive plan, replayed like ``tuned``.
        module = subject_from_kernel(generate_kernel(0)).build()
        specs = config_specs(module)
        assert {s.config for s in specs} == {"baseline", "unroll", "unmerge",
                                             "uu", "uu_heuristic", "tuned"}
        (listed,) = [s for s in specs if s.plan is not None]
        assert [str(d) for d in listed.plan] == ["unmerge@fuzz0:0",
                                                 "unmerge@fuzz0:1"]


class TestFuzzSmoke:
    def test_fixed_seed_campaign_is_clean(self):
        budget = _budget()
        if budget <= 0:
            pytest.skip(f"fuzz smoke disabled via {BUDGET_ENV}=0")
        result = run_campaign(0, budget, bisect=True)
        assert not result.errors, "\n".join(result.errors)
        assert not result.failures, "\n".join(
            f.describe() for f in result.failures)
        # Each seed checked baseline + uu_heuristic at minimum.
        assert result.checked_configs >= 2 * budget
