"""Request/result schemas for the optimization service.

A submission names its kernel **source** one of three ways:

* ``app`` — a registered benchmark (the full workload: launches, device
  buffers, differential check against the baseline pipeline);
* ``ir`` — a textual-IR module, measured the way the fuzz oracle
  measures subjects (every function runs one warp of ``lanes`` threads
  with deterministic scalar arguments);
* ``kernel`` — a frontend-AST kernel as JSON (see :func:`ast_to_json`),
  lowered and then measured like ``ir``.

plus a pipeline ``config`` and an optional per-loop coordinate
(``loop_id``/``factor``).  A request names no execution engine: the
service simulates on the default ``jit`` engine, which is bit-identical
to the per-warp reference by contract (tests/test_engine_equivalence.py).

**Dedup** keys submissions by :func:`content_hash` — the SHA-256 of
every request field that determines the result.  Priority is excluded
(it affects scheduling, never results).
Hashing kernels by content rather than by name is also the hook for
similarity-based tuning transfer ("A Similarity Measure for GPU Kernel
Subgraph Matching"): the hash identifies the kernel, a future feature
vector will identify its neighborhood.

**Directives** are pragma-style transformation scripts (Kruse & Finkel,
"Loop Optimization Framework"): an ordered ``directives`` list like
``["unroll(4)@k:0", "unmerge@k:0"]`` is an explicit plan — the same list
of :class:`~repro.directive.LoopDirective` every pipeline config reduces
to — compiled in place of whatever ``config`` would have resolved.
:func:`parse_plan` reads it with the one pragma parser; unknown names
(``interchange``), loop-less pragmas, the identity factor 1 and loops the
submitted app or module does not have raise :class:`ProtocolError` — fail
closed, never silently ignored.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..directive import LoopDirective
from ..frontend import ast as front
from ..gpu.timing import TIMING_MODEL_VERSION
from ..transforms.pipeline import CONFIGS, PER_LOOP_CONFIGS

#: Bump when the request or result wire shape changes incompatibly.
#: v2: requests grow ``include_profile``; results grow ``trace_events``
#: and ``profile`` (per-request correlated observability streams).
#: v3: requests may ask for the ``predicted`` config (similarity-index
#: tuning transfer) and grow ``refine`` — opt-in background empirical
#: refinement of a predicted app at low priority.
#: v4: a result's ``profile`` drops ``occupancy`` / ``occupancy_dropped``
#: (the timeline) and grows ``block_lanes`` (per-block active / possible
#: lanes, summed per warp like ``block_hits``).
#: v5: requests and results drop ``engine`` (an old client that sends it
#: fails closed on the unknown field), and ``/stats`` replaces
#: ``region_cache`` (``session`` plus three zeros) with ``jit``, the jit
#: counts alone.
#: v6: a result's ``counters`` drop ``cat_cycles`` (the per-category
#: cycle split is gone from ``Counters``).
#: v7: a result's ``counters`` carry integer ``ticks`` and
#: ``memory_stall_ticks`` for float cycles, and its ``profile`` carries
#: ``block_ticks`` for ``block_cycles``.
#: v8: a result's ``counters`` count each launch's own memory traffic,
#: so a module of several functions reports smaller ``bytes_*`` and
#: ``*_transactions``.
SERVE_SCHEMA_VERSION = 8


class ProtocolError(ValueError):
    """A malformed request (bad schema, unknown node, bad directive)."""


# ---------------------------------------------------------------------------
# Frontend-AST JSON codec
# ---------------------------------------------------------------------------

#: Every serializable frontend node, keyed by class name.  The codec is
#: generic over dataclass fields, so a new AST node only needs listing.
_AST_NODES = {
    cls.__name__: cls
    for cls in (front.Var, front.Lit, front.BinOp, front.Cmp, front.And,
                front.Or, front.Not, front.Index, front.AddrOf, front.Call,
                front.Cast, front.Assign, front.Store, front.If, front.While,
                front.For, front.Return, front.ExprStmt, front.Break,
                front.Param, front.KernelDef)
}


def ast_to_json(node):
    """Recursively encode a frontend AST node (or plain value) as JSON."""
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    if isinstance(node, (list, tuple)):
        return [ast_to_json(item) for item in node]
    if isinstance(node, dict):
        return {str(key): ast_to_json(value) for key, value in node.items()}
    name = type(node).__name__
    if name not in _AST_NODES:
        raise ProtocolError(f"unserializable AST node {name!r}")
    data = {"node": name}
    for f in dataclasses.fields(node):
        data[f.name] = ast_to_json(getattr(node, f.name))
    return data


def ast_from_json(data):
    """Inverse of :func:`ast_to_json`."""
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, list):
        return [ast_from_json(item) for item in data]
    if not isinstance(data, dict):
        raise ProtocolError(f"unexpected AST payload {type(data).__name__}")
    if "node" not in data:      # a plain mapping field (e.g. loop_pragmas)
        return {key: ast_from_json(value) for key, value in data.items()}
    name = data.get("node")
    cls = _AST_NODES.get(name)
    if cls is None:
        raise ProtocolError(f"unknown AST node {name!r}")
    kwargs = {f.name: ast_from_json(data.get(f.name))
              for f in dataclasses.fields(cls)
              if f.name in data}
    if cls is front.Call and "args" in kwargs:
        kwargs["args"] = tuple(kwargs["args"])
    if cls is front.KernelDef:
        # JSON stringifies the pragma dict's integer loop indices.
        kwargs["loop_pragmas"] = {int(k): v for k, v in
                                  (kwargs.get("loop_pragmas") or {}).items()}
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# Transformation directives
# ---------------------------------------------------------------------------

def parse_plan(directives: Sequence[str]) -> Tuple[LoopDirective, ...]:
    """A request's ``directives`` as a plan; malformed pragmas, unknown
    names and loop-less pragmas raise :class:`ProtocolError`."""
    try:
        return tuple(LoopDirective.parse(text) for text in directives)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizeRequest:
    """One kernel submission.  Exactly one of app/ir/kernel is set."""

    config: str = "uu_heuristic"
    app: Optional[str] = None
    ir: Optional[str] = None
    #: Frontend-AST kernel, already JSON-encoded (:func:`ast_to_json`).
    kernel: Optional[Dict] = None
    loop_id: Optional[str] = None
    factor: int = 1
    #: Warp width for ir/kernel subjects (apps run their full workload).
    lanes: int = 32
    #: Include the printed optimized IR in the result.
    include_ir: bool = True
    #: Include the request-tagged execution profile in the result
    #: (ir/kernel subjects only; per-block sums, one entry per block).
    include_profile: bool = False
    #: Larger runs first; ties FIFO.
    priority: int = 0
    #: For ``config == "predicted"`` app submissions: also enqueue a
    #: background ``repro tune`` refinement job at low priority whose
    #: verified winner upgrades the similarity index on completion.
    refine: bool = False
    #: Pragma-style transformation script: an explicit plan compiled in
    #: place of what ``config`` resolves to (see module docstring).
    directives: Tuple[str, ...] = ()

    def validate(self) -> "OptimizeRequest":
        sources = [s for s in (self.app, self.ir, self.kernel)
                   if s is not None]
        if len(sources) != 1:
            raise ProtocolError(
                "request needs exactly one of app/ir/kernel "
                f"(got {len(sources)})")
        if self.config not in CONFIGS:
            raise ProtocolError(
                f"unknown config {self.config!r}; expected one of {CONFIGS}")
        if self.config in PER_LOOP_CONFIGS and self.loop_id is None:
            raise ProtocolError(
                f"config {self.config!r} addresses one loop at a time; "
                "set loop_id")
        if self.lanes < 1 or self.lanes > 32:
            raise ProtocolError(f"lanes must be in 1..32, got {self.lanes}")
        if self.directives and self.loop_id is not None:
            raise ProtocolError(
                "directives name their own loops; drop loop_id (and the "
                "per-loop config that needs it)")
        parse_plan(self.directives)
        return self

    def to_json(self) -> Dict[str, object]:
        data = {"schema": SERVE_SCHEMA_VERSION}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            data[f.name] = value
        return data

    @classmethod
    def from_json(cls, data: Dict) -> "OptimizeRequest":
        if not isinstance(data, dict):
            raise ProtocolError("request body must be a JSON object")
        schema = data.get("schema", SERVE_SCHEMA_VERSION)
        if schema != SERVE_SCHEMA_VERSION:
            raise ProtocolError(
                f"request schema {schema} != {SERVE_SCHEMA_VERSION}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known - {"schema"}
        if unknown:
            raise ProtocolError(
                f"unknown request fields: {sorted(unknown)}")
        kwargs = {name: data[name] for name in known if name in data}
        if "directives" in kwargs:
            kwargs["directives"] = tuple(kwargs["directives"] or ())
        return cls(**kwargs).validate()


def content_hash(request: OptimizeRequest) -> str:
    """SHA-256 over every request field that determines the result.

    Folds the serve schema and the timing-model version (a timing-model
    bump must not serve stale memoized results), and excludes
    ``priority`` (see module docstring).
    """
    payload = {
        "schema": SERVE_SCHEMA_VERSION,
        "timing": TIMING_MODEL_VERSION,
        "config": request.config,
        "app": request.app,
        "ir": request.ir,
        "kernel": request.kernel,
        "loop_id": request.loop_id,
        "factor": request.factor,
        "lanes": request.lanes,
        "include_ir": request.include_ir,
        "include_profile": request.include_profile,
        "directives": list(request.directives),
    }
    # ``refine`` is excluded like ``priority``: it schedules extra
    # background work but never changes this request's own result, so a
    # predicted submission with refinement dedups against one without.
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class OptimizeResult:
    """What the service returns for one submission."""

    status: str                    # "ok" | "error"
    content_hash: str
    name: str = ""                 # app or kernel/module name
    config: str = ""
    error: Optional[str] = None
    baseline_cycles: float = 0.0
    cycles: float = 0.0
    speedup: float = 0.0
    code_size: int = 0
    compile_seconds: float = 0.0
    outputs_match_baseline: bool = False
    timed_out: bool = False
    counters: Dict[str, object] = field(default_factory=dict)
    decisions: List[Dict] = field(default_factory=list)
    remarks: List[Dict] = field(default_factory=list)
    #: Chrome trace events captured under the request's obs session;
    #: every span carries ``args.request = content_hash`` so merged
    #: daemon streams stay filterable per job.
    trace_events: List[Dict] = field(default_factory=list)
    #: Request-tagged :class:`~repro.obs.ExecutionProfile` JSON, present
    #: only when the request set ``include_profile``.
    profile: Optional[Dict] = None
    optimized_ir: Optional[str] = None
    #: Per-function return lattices for ir/kernel subjects (base64 numpy,
    #: the cell cache's encoding) — empty for app submissions, whose
    #: outputs live in the differential check instead.
    outputs: Dict[str, Dict] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        data = {"schema": SERVE_SCHEMA_VERSION}
        data.update(dataclasses.asdict(self))
        return data

    @classmethod
    def from_json(cls, data: Dict) -> "OptimizeResult":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{name: value for name, value in data.items()
                      if name in known})
