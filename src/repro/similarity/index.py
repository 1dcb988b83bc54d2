"""Content-addressed nearest-neighbor index of tuned loops.

One entry per tuned kernel: its per-loop feature vectors paired with the
decision the empirical search settled on for each loop (untransformed
loops carry the explicit identity decision ``u=1, unmerge=off`` — "leave
it alone" is evidence too), plus the whole-kernel summary vector and the
tuned provenance (source, measured speedups).

The on-disk discipline is :class:`~repro.harness.cache.ShardedLRUStore`
verbatim — 256 two-hex shards under ``results/.simindex``, atomic
temp-file+rename puts, monotonic-mtime recency, safe LRU eviction — so
the index obeys the same operational contracts as the cell and region
caches (``repro similarity stats`` mirrors ``repro cache stats``).

Invalidation is the triple product the DESIGN doc spells out:
:data:`~repro.similarity.features.FEATURE_SCHEMA_VERSION` ×
:data:`~repro.gpu.timing.TIMING_MODEL_VERSION` ×
:data:`~repro.tune.store.TUNE_SCHEMA_VERSION`.  All three are folded
into every entry key *and* recorded in the entry body; a version bump
orphans old entries (rebuilt by ``repro similarity build``), and stale
entries read back are deleted as misses, never served.

Entries are keyed by content (printed IR + decisions), so rebuilding the
index is idempotent and two corpora built in different orders converge
to identical on-disk states.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..gpu.timing import TIMING_MODEL_VERSION
from ..harness.cache import ShardedLRUStore
from ..ir.module import Module
from ..ir.printer import print_module
from ..obs import metrics as obs_metrics
from ..tune.store import TUNE_SCHEMA_VERSION, TunedConfig, load_tuned
from .features import FEATURE_SCHEMA_VERSION, kernel_features

#: Environment override for the index directory.
SIMINDEX_DIR_ENV = "REPRO_SIMINDEX_DIR"


def default_index_dir() -> Path:
    """``results/.simindex`` at the repository root (env-overridable)."""
    env = os.environ.get(SIMINDEX_DIR_ENV)
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "results" / ".simindex"


def _schema_stamp() -> Dict[str, object]:
    return {
        "feature": FEATURE_SCHEMA_VERSION,
        "timing": TIMING_MODEL_VERSION,
        "tune": TUNE_SCHEMA_VERSION,
    }


def entry_key(app: str, baseline_ir: str, decisions: Sequence[Dict]) -> str:
    """SHA-256 over everything that determines an entry's content."""
    payload = {
        "schema": _schema_stamp(),
        "app": app,
        "ir": baseline_ir,
        "decisions": sorted(
            (json.dumps(d, sort_keys=True) for d in decisions)),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def entry_from_tuned(module: Module, config: TunedConfig,
                     source: str = "tuned") -> Dict[str, object]:
    """Build one index entry from a tuned config and its (raw) module.

    Loops absent from ``config.decisions`` get the explicit identity
    label — the search measured them and chose to leave them alone.
    """
    features = kernel_features(module)
    decided = {d.loop_id: d for d in config.decisions}
    loops: List[Dict[str, object]] = []
    for lf in features.loops:
        decision = decided.get(lf.loop_id)
        loops.append({
            "loop_id": lf.loop_id,
            "vector": list(lf.vector),
            "paths": lf.paths,
            "size": lf.size,
            "factor": decision.factor if decision is not None else 1,
            "unmerge": decision.unmerge if decision is not None else False,
        })
    return {
        "schema": _schema_stamp(),
        "app": config.app,
        "source": source,
        "tuned_source": config.source,
        "kernel_vector": list(features.vector),
        "loops": loops,
        "speedup_over_baseline": config.speedup_over_baseline,
        "speedup_over_heuristic": config.speedup_over_heuristic,
    }


class SimilarityIndex(ShardedLRUStore):
    """On-disk store of tuned-kernel entries (ShardedLRUStore discipline)."""

    metrics_label = "simindex"

    def __init__(self, root: Optional[Path] = None,
                 max_bytes: Optional[int] = None) -> None:
        super().__init__(root if root is not None else default_index_dir(),
                         max_bytes)

    def _path(self, key: str) -> Path:
        return self.shard_path(key, f"{key}.json")

    # -- storage -------------------------------------------------------------
    def get_entry(self, key: str) -> Optional[Dict[str, object]]:
        """Load one entry; stale/corrupt entries are deleted as misses."""
        def parse(data):
            if data.get("schema") != _schema_stamp():
                raise ValueError("stale index schema")
            if not isinstance(data.get("loops"), list):
                raise ValueError("malformed entry")
            return data
        return self._load(self._path(key), parse)

    def put_entry(self, key: str, entry: Dict[str, object]) -> None:
        """Store one entry (canonical JSON, atomic replace)."""
        self._store(self._path(key), json.dumps(entry, sort_keys=True))

    def add_tuned(self, module: Module, config: TunedConfig,
                  source: str = "tuned") -> str:
        """Index one tuned kernel; returns the entry key (idempotent)."""
        ir = print_module(module)
        key = entry_key(config.app, ir, [dataclasses.asdict(d)
                                         for d in config.decisions])
        self.put_entry(key, entry_from_tuned(module, config, source=source))
        return key

    def load_entries(self) -> List[Dict[str, object]]:
        """Every valid entry, deterministically ordered by (app, key).

        Brute-force neighbor search reads the whole corpus; at the
        intended scale (tens to hundreds of kernels) that is cheaper
        than maintaining any sublinear structure, and keeps the store
        trivially correct under concurrent writers.
        """
        entries: List[Dict[str, object]] = []
        for path in self.entries():
            key = path.stem
            entry = self.get_entry(key)
            if entry is not None:
                entry["_key"] = key
                entries.append(entry)
        entries.sort(key=lambda e: (str(e.get("app", "")), e["_key"]))
        obs_metrics.set_gauge("repro_similarity_index_entries", len(entries))
        return entries

    # -- reporting -----------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return {**super().stats(), "schema": _schema_stamp()}


def build_index(benches: Optional[Sequence] = None,
                tuned_dir: Optional[Path] = None,
                index: Optional[SimilarityIndex] = None
                ) -> Dict[str, object]:
    """Populate the index from persisted tuned configs.

    For every benchmark with a usable ``results/tuned/<app>.json`` an
    entry is (re)written; benchmarks whose tuned file is missing or
    stale are skipped and reported.  Returns a summary dict.
    """
    from ..bench import all_benchmarks

    index = index if index is not None else SimilarityIndex()
    benches = list(benches) if benches is not None else all_benchmarks()
    added: List[str] = []
    skipped: Dict[str, str] = {}
    for bench in benches:
        config, why = load_tuned(bench.name, tuned_dir)
        if config is None:
            skipped[bench.name] = why
            continue
        index.add_tuned(bench.build_module(), config, source="tuned")
        added.append(bench.name)
    return {"added": added, "skipped": skipped,
            "entries": index.stats()["entries"]}
