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
def region_cache_dir(tmp_path, monkeypatch):
    """Point the process-wide region cache at a temp dir; reset the
    instance and the session counters around the test."""
    monkeypatch.setenv("REPRO_REGION_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_REGION_CACHE", raising=False)
    monkeypatch.delenv("REPRO_REGION_CACHE_MAX_BYTES", raising=False)
    region_cache.reset_region_cache()
    region_cache.take_session()
    yield tmp_path
    region_cache.reset_region_cache()
    region_cache.take_session()
