"""Fixtures shared by the test modules."""

import contextlib
from unittest import mock

import pytest

from repro.gpu import jit
from repro.obs import metrics


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


@contextlib.contextmanager
def engine_named(label):
    """The engine a test's ``label`` runs on, for the ``with`` body.

    ``"batched"`` — the lattice interpreter without the trace tier, once
    an engine value of its own and still the id of the tests that pin
    it — is the ``jit`` engine with a tier-up threshold it never
    reaches (a dispatch count starts at 1, so it never equals 0).  Any
    other label is an engine name.  The same kind of seam as
    ``tier_up_at_once``.
    """
    if label != "batched":
        yield label
        return
    with mock.patch.object(jit, "TIER_UP_DISPATCHES", 0):
        yield "jit"


@pytest.fixture
def tier_up_never():
    """Never compile a region: the lattice interpreter, block by block."""
    with engine_named("batched"):
        yield


@pytest.fixture
def engine(request):
    """An engine label for ``parametrize("engine", ..., indirect=True)``."""
    with engine_named(request.param) as name:
        yield name


@pytest.fixture
def fresh_jit_session():
    """A fresh metrics registry for the test, which is where the jit
    counts (``metrics.jit_counts``); uninstalled afterwards."""
    yield metrics.install()
    metrics.uninstall()
