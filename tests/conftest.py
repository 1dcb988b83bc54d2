"""Fixtures shared by the test modules."""

import pytest

from repro.gpu import jit, region_cache


@pytest.fixture
def tier_up_at_once(monkeypatch):
    """Compile a region at its head's *first* dispatch.

    The jit compiles a trace only once its head block has been
    dispatched ``jit.TIER_UP_DISPATCHES`` times, which the short kernels
    of the region, fusion and telemetry tests never reach.  There is no
    such switch in the program; this is a test seam, like the
    ``fuser.MIN_CHAIN`` one of ``test_engine_equivalence.fusion``.
    """
    monkeypatch.setattr(jit, "TIER_UP_DISPATCHES", 1)


@pytest.fixture
def fresh_jit_session():
    """Reset the jit's session counters around the test."""
    region_cache.take_session()
    yield
    region_cache.take_session()
