"""Cross-launch persistence of compiled-region plans for the JIT tier.

When a function's first block gets hot the trace-JIT
(:mod:`repro.gpu.jit`) selects its superblock regions, and the
expression fuser (:mod:`repro.gpu.fuser`) analyses the chains of every
trace it goes on to compile or serialise — work that is pure in the
function's IR and the timing model, yet would be redone by every
machine: each sweep cell, tuner candidate, and serve request that gets
hot.  This module memoizes it across launches *and processes*:

* **Keying** is content-addressed: SHA-256 over the printed function IR
  × :data:`repro.gpu.timing.TIMING_MODEL_VERSION` ×
  :data:`REGION_SCHEMA_VERSION`.  Editing a kernel or bumping the timing
  model orphans old entries structurally — there is no time-based
  invalidation.
* **What is stored** is the *plan* (:func:`repro.gpu.regions.extract_plan`),
  not compiled closures: region shapes, guard expectations, and fusion
  segment boundaries, for every selected head.  Replay re-validates the
  plan against the freshly decoded CFG; closures are generated from it
  head by head as heads get hot, so a stale or corrupt plan can only
  ever cost a fresh selection, never correctness.
* **Guard feedback** (truncations / cold-region drops discovered while
  running) marks the map dirty; :func:`flush_region_feedback` re-persists
  the improved plan so the *next* process starts with the truncated
  shape instead of rediscovering the deopt storm.
* **Disk discipline** is inherited from the cell cache
  (:class:`repro.harness.cache.ShardedLRUStore`): 256 two-hex shards
  under ``results/.regioncache``, atomic temp-file+rename puts,
  monotonic-mtime LRU eviction under ``REPRO_REGION_CACHE_MAX_BYTES``,
  and orphan-temp sweeping.

The persistent cache steps aside (fresh selection, exactly the pre-cache
behaviour) when a launch carries an execution profile — profile-seeded
selection must see the profile, not a profile-free cached plan — or when
``REPRO_TRACE`` observability is enabled, so remark streams stay
byte-identical across cold and warm runs and ``-j1``/``-jN``.
``REPRO_REGION_CACHE=0`` disables it outright.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional

from ..harness.cache import ShardedLRUStore
from ..ir.printer import print_function
from ..obs import session as obs_session
from .regions import RegionMap, extract_plan, replay_plan, select_regions
from .timing import TIMING_MODEL_VERSION

#: Bump when the persisted plan layout *or the meaning of the key*
#: changes; mismatched entries are discarded and recomputed.  2: the key
#: lost its ``fuse=`` component (fusion is unconditional), so every plan
#: written under version 1 — fused or not — is orphaned rather than
#: reachable under a key that now means something else.
REGION_SCHEMA_VERSION = 2

#: Set to ``0`` to disable the persistent region cache entirely.
REGION_CACHE_ENV = "REPRO_REGION_CACHE"

#: Environment override for the region-cache directory.
REGION_CACHE_DIR_ENV = "REPRO_REGION_CACHE_DIR"

#: LRU total-bytes cap for the region cache (absent/invalid/<= 0 means
#: unbounded).
REGION_MAX_BYTES_ENV = "REPRO_REGION_CACHE_MAX_BYTES"

#: In-process memo bound: plans are tiny, but a pathological session
#: feeding thousands of distinct functions through one process (fuzzing)
#: should not grow without bound.
_MEMO_LIMIT = 512


def region_cache_enabled() -> bool:
    return os.environ.get(REGION_CACHE_ENV, "1") != "0"


def default_region_cache_dir() -> Path:
    """``results/.regioncache`` at the repository root (env-overridable)."""
    env = os.environ.get(REGION_CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "results" / ".regioncache"


def default_region_max_bytes() -> Optional[int]:
    env = os.environ.get(REGION_MAX_BYTES_ENV)
    if not env:
        return None
    try:
        cap = int(env)
    except ValueError:
        return None
    return cap if cap > 0 else None


def region_key(func) -> str:
    """Content key: printed IR × timing model × schema."""
    payload = "\n".join([
        f"schema={REGION_SCHEMA_VERSION}",
        f"timing={TIMING_MODEL_VERSION}",
        print_function(func),
    ])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class RegionCache(ShardedLRUStore):
    """In-process + on-disk store of serialized region plans."""

    metrics_label = "region"

    def __init__(self, root: Optional[Path] = None,
                 max_bytes: Optional[int] = None) -> None:
        super().__init__(
            root if root is not None else default_region_cache_dir(),
            max_bytes if max_bytes is not None else default_region_max_bytes())
        #: Plans already decoded this process; keyed like the disk store.
        self._memo: Dict[str, Dict] = {}

    def _path(self, key: str) -> Path:
        return self.shard_path(key, f"{key}.json")

    def _remember(self, key: str, plan: Dict) -> None:
        if len(self._memo) >= _MEMO_LIMIT:
            self._memo.clear()
        self._memo[key] = plan

    def get(self, key: str) -> Optional[Dict]:
        """Load a plan (memo first, then disk); None on any miss.

        Stale-schema or corrupted entries are deleted and reported as
        misses, mirroring the cell cache's only-ever-costs-recompute
        contract.
        """
        plan = self._memo.get(key)
        if plan is not None:
            self.hits += 1
            self._metric("hits")
            return plan
        path = self._path(key)
        try:
            raw = path.read_text()
        except OSError:
            self.misses += 1
            self._metric("misses")
            return None
        try:
            data = json.loads(raw)
            if data.get("schema") != REGION_SCHEMA_VERSION:
                raise ValueError("stale region-cache schema")
            plan = data["plan"]
            if not isinstance(plan, dict):
                raise ValueError("malformed region plan")
        except Exception:
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            self._metric("misses")
            return None
        self.hits += 1
        self._metric("hits")
        self._touch(path)  # LRU recency: a hit makes the entry newest.
        self._remember(key, plan)
        return plan

    def put(self, key: str, plan: Dict) -> None:
        """Store a plan (memo + atomic disk write, then evict if capped)."""
        self._remember(key, plan)
        path = self._path(key)
        text = json.dumps({"schema": REGION_SCHEMA_VERSION, "plan": plan})
        self._atomic_write(path, text)
        self.puts += 1
        self._metric("puts")
        self._metric("bytes_written", len(text))
        self._touch(path)
        if self.max_bytes is not None:
            self.evict()

    def clear(self) -> int:
        self._memo.clear()
        return super().clear()

    def stats(self) -> Dict[str, object]:
        files = self.entries()
        n_files, files_bytes = self._sizes(files)
        n_tmp, tmp_bytes = self._sizes(self.tmp_files())
        return {
            "root": str(self.root),
            "entries": n_files,
            "bytes": files_bytes,
            "tmp_files": n_tmp,
            "tmp_bytes": tmp_bytes,
            "max_bytes": self.max_bytes,
            "session_hits": self.hits,
            "session_misses": self.misses,
            "session_puts": self.puts,
            "session_evictions": self.evictions,
        }


_CACHE: Optional[RegionCache] = None


def region_cache() -> Optional[RegionCache]:
    """The process-wide region cache, or None when disabled.

    Rebuilt whenever the resolved root or cap changes (tests repoint
    ``REPRO_REGION_CACHE_DIR`` at temp dirs mid-process).
    """
    global _CACHE
    if not region_cache_enabled():
        return None
    root = default_region_cache_dir()
    cap = default_region_max_bytes()
    if _CACHE is None or _CACHE.root != root or _CACHE.max_bytes != cap:
        _CACHE = RegionCache(root, cap)
    return _CACHE


def reset_region_cache() -> None:
    """Drop the process-wide instance (test isolation)."""
    global _CACHE
    _CACHE = None


# -- session counters ---------------------------------------------------------

@dataclasses.dataclass
class RegionSession:
    """Per-session fusion/persistence telemetry.

    Folded across parallel workers by :mod:`repro.harness.parallel` (sums
    except ``max_chain``, which takes the max — both order-independent,
    so ``-j1`` and ``-jN`` report identical lines) and surfaced by the
    per-sweep cache line, ``repro summary --profile``, ``repro cache
    stats``, and the serve daemon's ``/stats``.
    """

    selections: int = 0      # functions whose regions were selected fresh
    replays: int = 0         # functions whose plan came from the cache
    regions: int = 0         # regions compiled (hot heads), both paths
    fused_segments: int = 0  # fused SSA segments emitted
    fused_steps: int = 0     # original vsteps folded into those segments
    max_chain: int = 0       # longest fused chain seen
    hits: int = 0            # plan lookups served from the cache
    misses: int = 0          # plan lookups that missed
    puts: int = 0            # plans persisted (incl. guard feedback)
    evictions: int = 0       # LRU evictions caused by those puts
    invalid: int = 0         # stale plans that failed replay validation

    def snapshot(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    def absorb(self, data: Optional[Dict[str, int]]) -> None:
        """Fold a worker snapshot in (sums; max for ``max_chain``)."""
        if not data:
            return
        for field in dataclasses.fields(self):
            try:
                value = int(data.get(field.name, 0))
            except (TypeError, ValueError):
                continue
            if field.name == "max_chain":
                self.max_chain = max(self.max_chain, value)
            else:
                setattr(self, field.name, getattr(self, field.name) + value)

    def any(self) -> bool:
        return any(getattr(self, f.name) for f in dataclasses.fields(self))

    def line(self) -> str:
        """One-line session summary; empty when the JIT never ran."""
        if not self.any():
            return ""
        line = (f"region cache: {self.hits} hits / {self.misses} misses, "
                f"{self.replays} replayed / {self.selections} selected")
        if self.fused_segments:
            line += (f", {self.fused_steps} steps fused in "
                     f"{self.fused_segments} segments "
                     f"(max chain {self.max_chain})")
        if self.invalid:
            line += f", {self.invalid} stale"
        if self.evictions:
            line += f", {self.evictions} evicted (LRU)"
        return line


_SESSION = RegionSession()


def session() -> RegionSession:
    return _SESSION


def take_session() -> Dict[str, int]:
    """Snapshot-and-reset, for parallel worker handoff."""
    global _SESSION
    snap = _SESSION.snapshot()
    _SESSION = RegionSession()
    return snap


# -- the JIT entry points -----------------------------------------------------

def note_compiled(region) -> None:
    """Session telemetry follows compilation: one region, just compiled."""
    sess = session()
    sess.regions += 1
    sess.fused_segments += region.fused_segments
    sess.fused_steps += region.fused_steps
    if region.max_chain > sess.max_chain:
        sess.max_chain = region.max_chain


def load_or_select_plan(machine, func, regions: RegionMap) -> None:
    """Fill ``regions.plans``: replay a persisted plan, else select.

    Called once per (machine, function), when its first block gets hot —
    a function that never does is never selected, hashed or looked up.
    The persistent cache is bypassed (plain :func:`select_regions`)
    when the machine carries an execution profile — profile-seeded
    selection must stay exact — or when observability is enabled, so
    cold and warm runs emit identical remark streams.
    """
    sess = session()
    cache = None
    if machine.profile is None and not obs_session.enabled():
        cache = region_cache()
    if cache is not None:
        regions.key = key = region_key(func)
        plan = cache.get(key)
        if plan is not None:
            sess.hits += 1
            try:
                replay_plan(regions, machine, func, plan)
            except Exception:
                # Stale/corrupt plan (edited decoder, hash collision,
                # hand-mangled entry): fall through to a fresh selection,
                # whose put below overwrites the bad entry.
                sess.invalid += 1
            else:
                sess.replays += 1
                obs_session.remark(
                    "analysis", "jit", func.name,
                    f"region-cache-hit: {len(regions.plans)} regions "
                    "replayed", regions=len(regions.plans), key=key[:12])
                return
        else:
            sess.misses += 1
    select_regions(regions, machine, func)
    sess.selections += 1
    if cache is not None:
        _put(cache, regions)


def flush_region_feedback(regions: RegionMap) -> None:
    """Re-persist a plan reshaped by guard feedback (truncation/drop).

    A no-op unless the map is cache-keyed and its shape actually changed
    since it was loaded or stored.
    """
    if not regions.dirty or regions.key is None:
        return
    cache = region_cache()
    if cache is not None and _put(cache, regions):
        regions.dirty = False


def _put(cache: RegionCache, regions: RegionMap) -> bool:
    sess = session()
    before = cache.evictions
    try:
        cache.put(regions.key, extract_plan(regions))
    except OSError:
        return False  # Unwritable cache dir: the selection is still valid.
    sess.puts += 1
    sess.evictions += cache.evictions - before
    return True
