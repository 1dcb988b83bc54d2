"""Per-thread observability session.

All instrumentation in the repo funnels through the single thread-local
session slot here.  The slot is thread-local (not process-global) so the
service daemon's queue workers can each capture their own request's
remarks concurrently without cross-talk; single-threaded consumers (the
CLI, pool workers) observe exactly the old process-wide behaviour.  The
contract that keeps the disabled path near-free:

* When no session is installed (:func:`active` returns None) every hook
  reduces to one thread-local load + ``is None`` test — no objects are
  constructed, no strings formatted.  Hot engine loops hoist even that check out by
  grabbing :func:`profile` once per launch.
* Installing a session *is* the switch — :func:`install`, or a
  :func:`capture` block — for the CLI, the daemon and a library caller
  alike; nothing here reads the process environment.

Cross-process aggregation: a runner's pool fan-out tells each task
whether the parent had a session and a metrics registry installed, and
the worker passes both flags to :func:`begin_worker` — which
*unconditionally* resets both slots, because fork()ed children inherit
the parent's session and registry and would otherwise re-export
everything the parent had already collected — then ships the one
:func:`end_worker` payload back with its result tuple.  The parent folds
payloads in deterministic (task-enumeration) order via :func:`absorb`.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from typing import Dict, List, Optional

from . import metrics as obs_metrics
from .profile import ExecutionProfile
from .remarks import Remark
from .trace import Tracer

#: The slot.  One session per thread; fork() preserves the forking thread
#: as the child's main thread, so pool workers inherit (and immediately
#: reset, see :func:`begin_worker`) the parent's slot as before.
_slot = threading.local()


def _get() -> Optional["ObsSession"]:
    return getattr(_slot, "session", None)


def _set(session: Optional["ObsSession"]) -> None:
    _slot.session = session


class ObsSession:
    """One process's collected remarks, trace events, and exec profile."""

    def __init__(self) -> None:
        self.remarks: List[Remark] = []
        self.tracer = Tracer(pid=os.getpid())
        self.profile = ExecutionProfile()
        #: Harness-owned provenance stamped onto every remark at emit
        #: time (app, config, sweep loop_id/factor).
        self.context: Dict[str, object] = {}

    # -- emission ------------------------------------------------------------
    def emit(self, remark: Remark) -> None:
        if self.context:
            merged = dict(self.context)
            merged.update(remark.context)
            remark.context = merged
        self.remarks.append(remark.validate())

    # -- cross-process transport ---------------------------------------------
    def export_payload(self) -> Dict[str, object]:
        return {
            "pid": os.getpid(),
            "remarks": [r.to_json() for r in self.remarks],
            "events": list(self.tracer.events),
            "profile": self.profile.to_json(),
        }

    def merge_payload(self, payload: Dict[str, object]) -> None:
        for data in payload.get("remarks", []):
            self.remarks.append(Remark.from_json(data))
        self.tracer.absorb(list(payload.get("events", [])),
                           pid=payload.get("pid"))
        prof = payload.get("profile")
        if prof:
            self.profile.merge(ExecutionProfile.from_json(prof))


# -- the slot ----------------------------------------------------------------

def active() -> Optional[ObsSession]:
    return _get()


def install(session: Optional[ObsSession] = None) -> ObsSession:
    session = session if session is not None else ObsSession()
    _set(session)
    return session


def uninstall() -> Optional[ObsSession]:
    session = _get()
    _set(None)
    return session


# -- fast-path hooks (the only calls on instrumented code paths) -------------

def remark(kind: str, pass_name: str, function: str, message: str,
           loop_id: Optional[str] = None, **args) -> None:
    """Emit a remark if a session is live; a no-op slot test otherwise."""
    session = _get()
    if session is None:
        return
    session.emit(Remark(kind=kind, pass_name=pass_name, function=function,
                        message=message, loop_id=loop_id, args=args))


def emit(r: Remark) -> None:
    session = _get()
    if session is not None:
        session.emit(r)


def tracer() -> Optional[Tracer]:
    session = _get()
    return session.tracer if session is not None else None


def profile() -> Optional[ExecutionProfile]:
    """The live profile, or None — engines hoist this per launch."""
    session = _get()
    return session.profile if session is not None else None


@contextlib.contextmanager
def span(name: str, cat: str = "phase", **args):
    """Record the wrapped block as a complete trace event (no-op when off).

    Request provenance (the ``request``/``job`` keys a
    :func:`request_capture` puts in the session context) is folded into
    the event args, so every span a service job produces is recoverable
    from a merged stream by request id (``repro trace --request``).
    Only those two keys are folded — harness context (app/config/sweep
    coordinates) already names the enclosing cell span and would bloat
    every pass-level event.
    """
    session = _get()
    t = session.tracer if session is not None else None
    if t is None:
        yield
        return
    for key in ("request", "job"):
        value = session.context.get(key)
        if value is not None and key not in args:
            args[key] = value
    start = t.now()
    t0 = time.perf_counter()
    try:
        yield
    finally:
        t.complete(name, cat, start, time.perf_counter() - t0,
                   args=args or None)


@contextlib.contextmanager
def context(**kv):
    """Temporarily extend the session's provenance context."""
    session = _get()
    if session is None:
        yield
        return
    saved = dict(session.context)
    session.context.update({k: v for k, v in kv.items() if v is not None})
    try:
        yield
    finally:
        session.context = saved


@contextlib.contextmanager
def capture():
    """Run a block under a fresh throwaway session and hand it back.

    Used by the fuzz bisector to attach the remarks a culprit pass
    emitted to its verdict without disturbing any outer session.  The
    slot is thread-local, so concurrent captures in different threads
    (the service daemon's queue workers) never see each other's remarks.
    """
    saved = _get()
    session = ObsSession()
    _set(session)
    try:
        yield session
    finally:
        _set(saved)


@contextlib.contextmanager
def request_capture(request_id: str, **ctx):
    """Capture one service request's remarks/trace under its own session.

    Like :func:`capture`, but every remark emitted inside the block is
    stamped with the serving ``request`` id (plus any extra provenance
    the daemon supplies, e.g. the job id), so a result's remark stream
    records which submission produced it even after streams are merged.
    """
    with capture() as session:
        session.context["request"] = request_id
        session.context.update(
            {k: v for k, v in ctx.items() if v is not None})
        session.profile.request = request_id
        # Stamp at the tracer too: pass managers record spans via
        # tracer.complete() directly (no per-pass contextmanager), so
        # the session-context fold in span() never sees those events.
        session.tracer.request = request_id
        yield session


# -- pool-worker lifecycle ---------------------------------------------------

def begin_worker(trace: bool, metrics: bool) -> None:
    """Reset both slots at worker-task start.

    fork()-based pools hand children a *copy of the parent's* session and
    registry, remarks and counts and all; exporting either would
    double-count everything the parent already holds.  So: unconditionally
    drop whatever is installed, and start fresh where the task says the
    parent is collecting (``trace`` for the session, ``metrics`` for the
    registry) or leave the slot empty where it is not.
    """
    _set(ObsSession() if trace else None)
    if metrics:
        obs_metrics.install()
    else:
        obs_metrics.uninstall()


def end_worker() -> Dict[str, object]:
    """Clear both slots; one payload of what they collected (a part is
    None for a slot :func:`begin_worker` left empty)."""
    session = _get()
    _set(None)
    registry = obs_metrics.uninstall()
    return {"session": (session.export_payload()
                        if session is not None else None),
            "metrics": registry.snapshot() if registry is not None else None}


def absorb(payload: Dict[str, object]) -> None:
    """Fold an :func:`end_worker` payload into whatever is installed here:
    the session part into this thread's session, the snapshot into the
    registry; a part with no slot to take it is dropped."""
    session = _get()
    if session is not None and payload["session"]:
        session.merge_payload(payload["session"])
    registry = obs_metrics.active()
    if registry is not None and payload["metrics"]:
        registry.absorb(payload["metrics"])
