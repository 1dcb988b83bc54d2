"""Persistent, content-addressed cache of experiment cells.

Every measured cell (see :class:`repro.harness.experiment.Cell`) is a pure
function of (a) the benchmark's unoptimized IR and workload description,
(b) the pipeline configuration and its parameters, and (c) the simulator's
timing model.  This module keys cells by the SHA-256 of exactly those
inputs and stores results as JSON under ``results/.cellcache/<key[:2]>/``
(256 two-hex-char shards), so
re-running ``python -m repro table1`` or any ``benchmarks/test_fig*``
file after an unrelated edit is near-instant: only cells whose inputs
actually changed are recomputed.

Invalidation is structural, not temporal:

* the key folds in the *printed baseline IR* plus the benchmark's workload
  fingerprint (seed, launches, output buffers) — editing a kernel or its
  launch geometry changes the key;
* the key folds in :data:`repro.gpu.timing.TIMING_MODEL_VERSION` — bumping
  the tag after a timing-model change orphans every old entry;
* the key folds in the growth cap and the compile budget, whose one
  default (``MAX_INSTRUCTIONS`` / ``COMPILE_TIMEOUT``) every runner uses,
  so the CLI, the tuner and the daemon share cells;
* every entry records :data:`SCHEMA_VERSION`; bumping it (when the stored
  shape of a ``Cell`` changes) makes old entries self-invalidate on read.

Corrupted or truncated entries are treated as misses and deleted, never
raised: a cache must only ever cost recomputation.

The cache can be **LRU-bounded**: pass ``max_bytes`` (or set
``REPRO_CACHE_MAX_BYTES``) and :meth:`CellCache.put` evicts
least-recently-used entries whenever the total on-disk size exceeds the
cap.  Recency is the entry's mtime — a :meth:`get` hit and a :meth:`put`
both bump it with a strictly monotonic timestamp, so within one session
eviction order follows the logical access order exactly (deterministic
across ``-j1``/``-jN``, whose store order is pinned by
:mod:`repro.harness.experiment`), while entries from other
sessions/processes still order sensibly by wall clock.  Eviction re-stats
each victim immediately before unlinking and skips any file whose mtime
changed since enumeration: an entry another process just wrote (or
refreshed) is never removed, preserving the atomic-replace contract.

The on-disk discipline (sharding, the read and write sequences, monotonic
recency, safe eviction, orphan sweeping) lives in :class:`ShardedLRUStore`,
shared by the cell cache and the similarity index
(:mod:`repro.similarity.index`).
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import itertools
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..gpu.counters import Counters
from ..gpu.timing import TIMING_MODEL_VERSION
from ..obs import metrics as obs_metrics
from ..transforms.heuristic import HeuristicParams, LoopDecision
from .experiment import Cell

#: Bump when the on-disk entry layout changes; mismatched entries are
#: discarded and recomputed.  v2: folder/interpreter semantics unified
#: (saturating fptosi, IEEE fdiv, exact sdiv) and LoopDecision gained the
#: ``applied`` flag.  v3: interpreter phi parallel-copy fix (cells
#: simulated with phi-to-phi edge moves could hold corrupted outputs).
#: v4: Counters gained the per-category ``cat_cycles`` breakdown.
#: v5: one transform pass logs one ``LoopDecision`` row per directive for
#: every configuration, so per-loop cells now carry their one-row decision
#: log (it was empty) and replayed rows say the directive's kind where
#: they said "tuned".
#: v6: Counters drops the per-category ``cat_cycles`` breakdown again (no
#: exhibit read it), so the stored ``counters`` lose that key.
#: v7: Counters sum cycles as integer ticks: the stored ``counters`` hold
#: ``ticks`` and ``memory_stall_ticks`` where they held float cycles.
#: v8: a launch counts its own memory traffic (it counted every launch's
#: on the machine so far), so the stored ``bytes_loaded``,
#: ``bytes_stored``, ``load_transactions`` and ``store_transactions`` of
#: a multi-launch app shrink.
#:
#: The key names no execution engine: every runner simulates on the
#: default ``jit`` engine, which is bit-identical to the per-warp
#: reference by contract — whenever it tiers up —
#: (tests/test_engine_equivalence.py, tests/test_tier_up.py).
SCHEMA_VERSION = 8

#: Environment override for the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment default for the LRU total-bytes cap (absent/empty/invalid
#: or <= 0 means unbounded, the historical behaviour).
MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"

#: Distinguishes concurrent writers of the same key within one process
#: (the service daemon's queue workers share a cache across threads), so
#: two in-flight temp files never interleave their writes.
_TMP_SEQ = itertools.count()

#: Filename prefix of tuner-originated entries (scaled screening rounds and
#: combined-candidate measurements of :mod:`repro.tune`).  They share the
#: cache root with ordinary sweep cells but are distinguishable on disk, so
#: ``repro cache stats`` can report them separately and a user can reason
#: about what re-tuning versus re-sweeping will reuse.
TUNE_PREFIX = "tune-"

_CELL_FIELDS = ("app", "config", "loop_id", "factor", "cycles", "code_size",
                "compile_seconds", "outputs_match_baseline", "timed_out",
                "error")


def default_cache_dir() -> Path:
    """``results/.cellcache`` at the repository root (env-overridable)."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "results" / ".cellcache"


def default_max_bytes() -> Optional[int]:
    """The ``REPRO_CACHE_MAX_BYTES`` cap, or None for unbounded."""
    env = os.environ.get(MAX_BYTES_ENV)
    if not env:
        return None
    try:
        cap = int(env)
    except ValueError:
        return None
    return cap if cap > 0 else None


# -- (de)serialization -------------------------------------------------------

def counters_to_json(counters: Counters) -> Dict:
    return {f.name: getattr(counters, f.name)
            for f in dataclasses.fields(Counters)}


def cell_to_json(cell: Cell) -> Dict:
    data = {name: getattr(cell, name) for name in _CELL_FIELDS}
    data["counters"] = counters_to_json(cell.counters)
    data["heuristic_decisions"] = [dataclasses.asdict(d)
                                   for d in cell.heuristic_decisions]
    return data


def cell_from_json(data: Dict) -> Cell:
    counters = Counters(**data["counters"])
    decisions = [LoopDecision(**d) for d in data["heuristic_decisions"]]
    kwargs = {name: data[name] for name in _CELL_FIELDS}
    return Cell(counters=counters, heuristic_decisions=decisions, **kwargs)


def outputs_to_json(outputs: Dict[str, np.ndarray]) -> Dict:
    return {
        name: {
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
            "data": base64.b64encode(np.ascontiguousarray(arr).tobytes())
            .decode("ascii"),
        }
        for name, arr in outputs.items()
    }


def outputs_from_json(data: Dict) -> Dict[str, np.ndarray]:
    outputs = {}
    for name, spec in data.items():
        arr = np.frombuffer(base64.b64decode(spec["data"]),
                            dtype=np.dtype(spec["dtype"]))
        outputs[name] = arr.reshape(spec["shape"]).copy()
    return outputs


class ShardedLRUStore:
    """On-disk discipline shared by the cell cache and the similarity index.

    Provides 256 two-hex-char shard directories, atomic temp-file+rename
    puts, strictly monotonic mtime recency, re-stat-before-unlink LRU
    eviction, orphan-temp enumeration, and the sweep in :meth:`clear`.
    Subclasses own keying, validation and (de)serialization; they keep
    entries at :meth:`shard_path`, read them with :meth:`_load`, write
    them with :meth:`_store`, and add their own keys to :meth:`stats`.
    """

    #: ``cache=`` label for the shared metric families
    #: (``repro_cache_*_total``); "" keeps a store out of the metrics
    #: plane entirely.
    metrics_label = ""

    def __init__(self, root: Path, max_bytes: Optional[int] = None) -> None:
        self.root = Path(root)
        #: LRU total-bytes cap across *all* entries under ``root``.
        #: None = unbounded.
        self.max_bytes = max_bytes
        #: Session counters: get() hits/misses, put() writes, and LRU
        #: evictions since this store was constructed.
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        #: Last recency timestamp handed out; kept strictly increasing so
        #: same-nanosecond accesses still order by logical sequence.
        self._clock_ns = 0

    def _metric(self, kind: str, n: float = 1.0) -> None:
        """Mirror a session counter into the metrics plane (if both on)."""
        if self.metrics_label and obs_metrics.active() is not None:
            obs_metrics.inc(f"repro_cache_{kind}_total", n,
                            cache=self.metrics_label)

    # -- storage -------------------------------------------------------------
    def shard_path(self, key: str, name: str) -> Path:
        """Entry location: ``root/<key[:2]>/<name>``.

        The shard is taken from the *key*, not the filename, so entries
        whose filenames carry a prefix for the same key land in the same
        shard.
        """
        return self.root / key[:2] / name

    def _atomic_write(self, path: Path, text: str) -> None:
        """Write ``text`` to ``path`` atomically (temp file + rename)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}-{next(_TMP_SEQ)}")
        try:
            tmp.write_text(text)
            os.replace(tmp, path)  # Atomic: readers see old or new.
        except BaseException:
            # Soft failures (disk full, interrupt) must not leave a temp
            # file behind; hard deaths (SIGKILL mid-put) are swept by
            # clear() and reported by stats() instead.
            try:
                tmp.unlink()
            except OSError:
                pass
            raise

    def _load(self, path: Path, parse):
        """``parse(json)`` of the entry at ``path``, or None on any miss.

        A hit makes the entry newest.  An entry that does not read back —
        stale schema, corrupted, truncated: anything ``parse`` raises on —
        is deleted and counted as a miss, so it is transparently
        recomputed: a store must only ever cost recomputation.
        """
        value = None
        try:
            value = parse(json.loads(path.read_text()))
        except OSError:
            pass  # No such entry.
        except Exception:
            try:
                path.unlink()
            except OSError:
                pass
        if value is None:
            self.misses += 1
            self._metric("misses")
            return None
        self.hits += 1
        self._metric("hits")
        self._touch(path)
        return value

    def _store(self, path: Path, text: str) -> None:
        """Write an entry atomically, make it newest, evict to the cap."""
        self._atomic_write(path, text)
        self.puts += 1
        self._metric("puts")
        self._metric("bytes_written", len(text))
        self._touch(path)
        if self.max_bytes is not None:
            self.evict()

    # -- LRU recency and eviction --------------------------------------------
    def _touch(self, path: Path) -> None:
        """Bump ``path``'s mtime with a strictly monotonic timestamp."""
        ns = max(time.time_ns(), self._clock_ns + 1)
        self._clock_ns = ns
        try:
            os.utime(path, ns=(ns, ns))
        except OSError:
            pass  # Vanished under a concurrent clear/eviction: a miss later.

    def _scan_entries(self) -> List[Tuple[int, str, Path, int]]:
        """Every entry as ``(mtime_ns, name, path, size)``, oldest first."""
        scanned = []
        for path in self.entries():
            try:
                st = path.stat()
            except OSError:
                continue  # Vanished between glob and stat.
            scanned.append((st.st_mtime_ns, path.name, path, st.st_size))
        scanned.sort()
        return scanned

    def _evict_one(self, path: Path, expected_mtime_ns: int) -> Optional[int]:
        """Unlink one LRU victim; None if it must be spared.

        The victim is re-stat'ed immediately before the unlink: if its
        mtime moved since enumeration, another process just wrote or
        refreshed it — it is no longer least-recently-used, so eviction
        skips it rather than deleting a fresh entry.
        """
        try:
            st = path.stat()
        except OSError:
            return 0  # Already gone; its bytes are already freed.
        if st.st_mtime_ns != expected_mtime_ns:
            return None
        try:
            path.unlink()
        except OSError:
            return 0
        return st.st_size

    def evict(self, max_bytes: Optional[int] = None) -> List[str]:
        """Evict LRU entries until total size fits the cap.

        Returns the evicted file names.  A no-op when unbounded (both
        ``max_bytes`` and :attr:`max_bytes` are None).
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        if cap is None:
            return []
        scanned = self._scan_entries()
        total = sum(size for _, _, _, size in scanned)
        evicted: List[str] = []
        for mtime_ns, name, path, size in scanned:
            if total <= cap:
                break
            freed = self._evict_one(path, mtime_ns)
            if freed is None:
                continue  # Concurrently refreshed: spare it.
            total -= size
            if freed:
                self.evictions += 1
                self._metric("evictions")
                evicted.append(name)
        return evicted

    # -- maintenance ---------------------------------------------------------
    def entries(self):
        if not self.root.is_dir():
            return []
        # Both levels: sharded entries plus a pre-sharding cache's flat ones
        # (unreadable under today's keys, but still swept and evicted).
        return sorted(list(self.root.glob("*.json"))
                      + list(self.root.glob("??/*.json")))

    def tmp_files(self):
        """Orphaned ``*.tmp.*`` files left by writers that died mid-put.

        ``put`` writes a temp file and atomically renames it into place;
        a worker killed between the two leaves the temp behind, invisible
        to :meth:`entries`.  These are garbage — sized by ``stats()``,
        swept by :meth:`clear`.
        """
        if not self.root.is_dir():
            return []
        return sorted(list(self.root.glob("*.tmp.*"))
                      + list(self.root.glob("??/*.tmp.*")))

    @staticmethod
    def _sizes(files) -> Tuple[int, int]:
        """(surviving count, total bytes), tolerating vanished files.

        A concurrent ``repro cache clear``, LRU eviction, or parallel
        worker may unlink any path between enumeration and stat; such
        entries simply stop counting instead of raising.
        """
        count = 0
        total = 0
        for f in files:
            try:
                total += f.stat().st_size
            except OSError:
                continue
            count += 1
        return count, total

    def clear(self) -> int:
        """Delete every entry (and orphaned temp file); returns the count."""
        removed = 0
        for path in self.entries() + self.tmp_files():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if self.root.is_dir():
            for sub in self.root.glob("??"):
                try:
                    sub.rmdir()  # Only empty shard dirs; others survive.
                except OSError:
                    pass
        return removed

    # -- reporting -----------------------------------------------------------
    def stats(self, files=None) -> Dict[str, object]:
        """The keys every store reports (over ``files``, by default one
        enumeration of :meth:`entries`); subclasses add their own."""
        n_files, files_bytes = self._sizes(
            self.entries() if files is None else files)
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


class CellCache(ShardedLRUStore):
    """Content-addressed persistent store of ``Cell`` results."""

    metrics_label = "cell"

    def __init__(self, root: Optional[Path] = None,
                 prefix: str = "",
                 max_bytes: Optional[int] = None) -> None:
        super().__init__(
            root if root is not None else default_cache_dir(),
            max_bytes if max_bytes is not None else default_max_bytes())
        #: Filename prefix for entries read and written by this instance
        #: ("" for ordinary sweep cells, :data:`TUNE_PREFIX` for
        #: tuner-originated entries).  Prefixes partition the namespace:
        #: a tuner entry is never returned for a sweep lookup.
        self.prefix = prefix

    # -- keys ----------------------------------------------------------------
    @staticmethod
    def make_key(baseline_ir: str, workload: str, config: str,
                 loop_id: Optional[str], factor: int,
                 heuristic: HeuristicParams, max_instructions: int,
                 compile_timeout: Optional[float],
                 verify_each: bool, *,
                 scale: int = 1,
                 tuned: Optional[str] = None) -> str:
        """SHA-256 over every input that determines a cell's result.

        ``scale`` is the tuner's workload-geometry divisor (folded only
        when != 1, so pre-tuner keys are unchanged); ``tuned`` is
        :func:`repro.directive.fingerprint` of the resolved plan for
        ``tuned`` / ``predicted`` / explicit-plan cells — editing
        ``results/tuned/<app>.json`` must invalidate every cell compiled
        from it.
        """
        heur = dataclasses.asdict(heuristic)
        heur["divergent_args"] = list(heur["divergent_args"])
        payload = {
            "schema": SCHEMA_VERSION,
            "timing": TIMING_MODEL_VERSION,
            "ir": baseline_ir,
            "workload": workload,
            "config": config,
            "loop_id": loop_id,
            "factor": factor,
            "heuristic": heur,
            "max_instructions": max_instructions,
            "compile_timeout": compile_timeout,
            "verify_each": verify_each,
        }
        if scale != 1:
            payload["scale"] = scale
        if tuned is not None:
            payload["tuned"] = tuned
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        # Entries are sharded into 256 two-hex-prefix subdirectories so the
        # cache root stays listable as it grows (a full 16-benchmark sweep
        # plus tuner rounds writes thousands of cells).
        return self.shard_path(key, f"{self.prefix}{key}.json")

    # -- storage -------------------------------------------------------------
    def get(self, key: str
            ) -> Optional[Tuple[Cell, Optional[Dict[str, np.ndarray]]]]:
        """Load ``(cell, baseline_outputs_or_None)``; None on any miss."""
        def parse(data):
            if data.get("schema") != SCHEMA_VERSION:
                raise ValueError("stale cache schema")
            outputs = data.get("outputs")
            return (cell_from_json(data["cell"]),
                    outputs_from_json(outputs) if outputs else None)
        return self._load(self._path(key), parse)

    def put(self, key: str, cell: Cell,
            outputs: Optional[Dict[str, np.ndarray]] = None) -> None:
        """Store a cell (plus baseline outputs for anchor cells)."""
        data = {"schema": SCHEMA_VERSION, "cell": cell_to_json(cell)}
        if outputs is not None:
            data["outputs"] = outputs_to_json(outputs)
        self._store(self._path(key), json.dumps(data))

    # -- reporting -----------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        files = self.entries()
        stats = super().stats(files)
        stats["tune_entries"], stats["tune_bytes"] = self._sizes(
            f for f in files if f.name.startswith(TUNE_PREFIX))
        return stats

    def session_line(self) -> str:
        """One-line session hit/miss/put summary for per-sweep reporting."""
        looked = self.hits + self.misses
        rate = 100.0 * self.hits / looked if looked else 0.0
        line = (f"cache: {self.hits} hits / {self.misses} misses "
                f"({rate:.0f}% hit rate), {self.puts} entries written")
        if self.evictions:
            line += f", {self.evictions} evicted (LRU)"
        return line
