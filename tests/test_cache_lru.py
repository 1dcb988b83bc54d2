"""Cell-cache lifecycle tests: LRU bounding and crash-orphan handling.

Covers the daemon-era cache contract:

* ``put`` never leaks its temp file on a soft failure, and temp files
  orphaned by a killed worker are reported by ``stats()`` and swept by
  ``clear()``;
* ``stats()`` tolerates entries vanishing between enumeration and stat
  (concurrent clear/eviction);
* the LRU bound: the cap is enforced after every put, ``get`` refreshes
  recency, survivors are deterministic across ``-j1`` vs ``-jN`` sweeps,
  and eviction spares an entry another writer just refreshed.
"""

import os

import pytest

from repro.bench import benchmark_by_name
from repro.harness.cache import CellCache, default_max_bytes
from repro.harness.experiment import CellSpec, ExperimentRunner
from tests.test_parallel_cache import make_cell


def entry_size(tmp_path) -> int:
    """On-disk size of one standard test entry."""
    probe = CellCache(tmp_path / "probe")
    probe.put("p" * 64, make_cell())
    return os.path.getsize(probe.entries()[0])


# -- satellite: orphaned temp files ------------------------------------------

def test_put_failure_leaves_no_tmp_file(tmp_path, monkeypatch):
    cache = CellCache(tmp_path)

    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError):
        cache.put("a" * 64, make_cell())
    monkeypatch.undo()
    assert cache.tmp_files() == []
    assert cache.stats()["tmp_files"] == 0


def test_orphaned_tmp_reported_and_swept(tmp_path):
    cache = CellCache(tmp_path)
    cache.put("a" * 64, make_cell())
    # A worker SIGKILLed between write_text and os.replace leaves these.
    shard = tmp_path / "bb"
    shard.mkdir()
    orphans = [tmp_path / f"{'b' * 64}.json.tmp.123-0",
               shard / f"{'b' * 64}.json.tmp.124-7"]
    for path in orphans:
        path.write_text("half-written garbage")

    stats = cache.stats()
    assert stats["entries"] == 1          # Orphans are not entries.
    assert stats["tmp_files"] == 2
    assert stats["tmp_bytes"] > 0

    # clear() sweeps entries *and* orphans.
    assert cache.clear() == 3
    assert cache.entries() == [] and cache.tmp_files() == []
    assert not any(path.exists() for path in orphans)


def test_concurrent_same_process_puts_use_distinct_tmp_names(tmp_path,
                                                             monkeypatch):
    # Two threads of one process writing the same key must not share a
    # temp path; the name carries a per-process sequence, not just a pid.
    cache = CellCache(tmp_path)
    seen = []
    real_replace = os.replace

    def recording(src, dst):
        seen.append(str(src))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording)
    cache.put("c" * 64, make_cell())
    cache.put("c" * 64, make_cell())
    assert len(seen) == 2 and seen[0] != seen[1]
    assert all(f".tmp.{os.getpid()}-" in name for name in seen)


# -- satellite: stats() races ------------------------------------------------

def test_stats_tolerates_vanishing_entries(tmp_path, monkeypatch):
    cache = CellCache(tmp_path)
    cache.put("a" * 64, make_cell())
    cache.put("b" * 64, make_cell())
    real = cache.entries()
    ghost = tmp_path / ("dead" * 16 + ".json")   # Never existed on disk.
    monkeypatch.setattr(CellCache, "entries", lambda self: real + [ghost])
    stats = cache.stats()                        # Must not raise.
    assert stats["entries"] == 2


def test_sizes_skips_vanished_files(tmp_path):
    live = tmp_path / "live.json"
    live.write_text("x" * 10)
    gone = tmp_path / "gone.json"
    count, total = CellCache._sizes([live, gone])
    assert count == 1 and total == 10


# -- LRU bound ---------------------------------------------------------------

def test_cap_enforced_after_puts(tmp_path):
    size = entry_size(tmp_path)
    cache = CellCache(tmp_path / "c", max_bytes=3 * size)
    for ch in "abcdef":
        cache.put(ch * 64, make_cell())
    stats = cache.stats()
    assert stats["bytes"] <= 3 * size
    assert cache.evictions == 3
    assert "evicted (LRU)" in cache.session_line()
    # Survivors are the three most recently written.
    assert cache.get("f" * 64) is not None
    assert cache.get("a" * 64) is None


def test_get_refreshes_recency(tmp_path):
    size = entry_size(tmp_path)
    cache = CellCache(tmp_path / "c", max_bytes=int(2.5 * size))
    cache.put("a" * 64, make_cell())
    cache.put("b" * 64, make_cell())
    assert cache.get("a" * 64) is not None     # a is now newer than b.
    cache.put("c" * 64, make_cell())           # Cap forces one eviction.
    assert cache.get("b" * 64) is None         # LRU victim was b, not a.
    assert cache.get("a" * 64) is not None
    assert cache.get("c" * 64) is not None


def test_explicit_evict_is_oldest_first(tmp_path):
    cache = CellCache(tmp_path)                # Unbounded during writes.
    for ch in "abcd":
        cache.put(ch * 64, make_cell())
    size = entry_size(tmp_path / "probe-root")
    removed = cache.evict(max_bytes=2 * size)
    assert len(removed) == 2
    assert cache.get("a" * 64) is None and cache.get("b" * 64) is None
    assert cache.get("c" * 64) is not None and cache.get("d" * 64) is not None


def test_eviction_spares_concurrently_refreshed_entry(tmp_path):
    cache = CellCache(tmp_path)
    cache.put("a" * 64, make_cell())
    cache.put("b" * 64, make_cell())
    scan = cache._scan_entries()
    victim_mtime, _, victim_path, size = scan[0]   # Oldest: entry "a".
    # Another process re-writes the victim between scan and unlink.
    cache.put("a" * 64, make_cell())
    assert cache._evict_one(victim_path, victim_mtime) is None
    assert victim_path.exists()                    # Spared, not removed.
    # A stale path that vanished entirely frees nothing but doesn't raise.
    victim_path.unlink()
    assert cache._evict_one(victim_path, victim_mtime) == 0


def test_monotonic_touch_orders_same_instant_accesses(tmp_path,
                                                      monkeypatch):
    import repro.harness.cache as cache_mod
    # Freeze the wall clock: every put lands at the "same" nanosecond.
    monkeypatch.setattr(cache_mod.time, "time_ns", lambda: 1_000_000_000)
    cache = CellCache(tmp_path)
    for ch in "bca":                     # Put order != name order.
        cache.put(ch * 64, make_cell())
    # The in-session monotonic clock still orders them by logical access.
    names = [name for _, name, _, _ in cache._scan_entries()]
    assert names == [f"{ch * 64}.json" for ch in "bca"]


def test_default_max_bytes_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
    assert default_max_bytes() is None
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "4096")
    assert default_max_bytes() == 4096
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "0")
    assert default_max_bytes() is None
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "nope")
    assert default_max_bytes() is None


# -- determinism across -j1 / -jN --------------------------------------------

def _survivors(tmp_path, jobs: int, cap_entries: int):
    bench = benchmark_by_name("coordinates")
    loop = bench.loop_ids()[0]
    root = tmp_path / f"j{jobs}"
    size = entry_size(tmp_path / f"probe-j{jobs}")
    cache = CellCache(root, max_bytes=cap_entries * size + size // 2)
    runner = ExperimentRunner(jobs=jobs, cache=cache)
    specs = [CellSpec("coordinates", "baseline", None, 1),
             CellSpec("coordinates", "uu_heuristic", None, 1),
             CellSpec("coordinates", "uu", loop, 2),
             CellSpec("coordinates", "unroll", loop, 2)]
    runner.prefetch([bench], specs=specs)
    return sorted(path.name for path in cache.entries())


def test_lru_survivors_identical_j1_vs_jN(tmp_path):
    serial = _survivors(tmp_path, jobs=1, cap_entries=2)
    parallel = _survivors(tmp_path, jobs=4, cap_entries=2)
    assert serial == parallel
    assert 0 < len(serial) <= 3   # Cells differ in size; cap ~2 entries.
