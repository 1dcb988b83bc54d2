"""Unit tests for cross-launch region persistence (``gpu.region_cache``).

The engine-equivalence suite proves warm replays are bit-identical; this
file pins the cache mechanics themselves: content keying, corrupt/stale
entry handling, LRU eviction, the session counters that surface in the
sweep line / ``repro summary --profile`` / serve ``/stats``, and the
select-fallback paths of :func:`load_or_select_plan`.  Plans are loaded
when a block gets hot, so every test here launches the kernel with the
tier-up threshold at 1 (``tier_up_at_once``, through ``cache_dir``).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.gpu import Memory, SimtMachine
from repro.gpu.region_cache import (RegionCache, RegionSession, region_key,
                                    reset_region_cache, session,
                                    take_session, flush_region_feedback)
from repro.gpu.regions import extract_plan
from repro.gpu.timing import TIMING_MODEL_VERSION
from repro.ir.parser import parse_module
from repro.ir.printer import print_function
from repro.obs import session as obs_session

IR = """
define i64 @k(i64 %n) {
entry:
  %tid = call i64 @tid.x()
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %loop ]
  %acc = phi i64 [ %tid, %entry ], [ %acc.next, %loop ]
  %t1 = mul i64 %acc, 7
  %t2 = add i64 %t1, %i
  %t3 = xor i64 %t2, 5
  %acc.next = and i64 %t3, 1048575
  %i.next = add i64 %i, 1
  %done = icmp sge i64 %i.next, %n
  br i1 %done, label %exit, label %loop
exit:
  ret i64 %acc.next
}
"""

IR_B = IR.replace("mul i64 %acc, 7", "mul i64 %acc, 9")


def jit_context(ir_text: str = IR):
    module = parse_module(ir_text, "m")
    func = next(iter(module.functions.values()))
    return SimtMachine(module, Memory(), engine="jit"), func


def launch(machine, func):
    """One launch of ``@k``: its plan is loaded or selected and every
    block it reaches compiled; returns the function's region map."""
    machine.launch(func, 1, 32, [3])
    return machine._regions[id(func)]


@pytest.fixture
def cache_dir(region_cache_dir, tier_up_at_once):
    return region_cache_dir


# -- keying -------------------------------------------------------------------

def test_key_covers_content_and_fuse_flag():
    # (The fuse flag left the key when fusion became unconditional.)
    _, func_a = jit_context(IR)
    _, func_b = jit_context(IR_B)
    assert region_key(func_a) != region_key(func_b), \
        "IR content must key entries"
    # Same content hashes the same across parses (content, not identity).
    _, func_a2 = jit_context(IR)
    assert region_key(func_a2) == region_key(func_a)


# -- store mechanics ----------------------------------------------------------

def test_put_get_roundtrip_survives_a_new_instance(cache_dir):
    machine, func = jit_context()
    regions = launch(machine, func)
    plan = extract_plan(regions)
    key = region_key(func)
    store = RegionCache(cache_dir)
    assert store.get(key) == plan       # Disk, not the other instance's memo.
    assert store.hits == 1


def test_corrupt_entry_is_deleted_and_misses(cache_dir):
    store = RegionCache(cache_dir)
    key = "ab" + "0" * 62
    store.put(key, {"regions": []})
    path = store._path(key)
    path.write_text("{not json")
    fresh = RegionCache(cache_dir)      # No memo: must read the bad file.
    assert fresh.get(key) is None
    assert fresh.misses == 1
    assert not path.exists(), "corrupt entries must be unlinked"


def test_stale_schema_is_deleted_and_misses(cache_dir):
    store = RegionCache(cache_dir)
    key = "cd" + "1" * 62
    store.put(key, {"regions": []})
    path = store._path(key)
    path.write_text(json.dumps({"schema": -1, "plan": {"regions": []}}))
    fresh = RegionCache(cache_dir)
    assert fresh.get(key) is None
    assert not path.exists()


def _schema1_key(func, fuse: int) -> str:
    """``region_key`` as the last schema-1 commit computed it."""
    payload = "\n".join(["schema=1", f"timing={TIMING_MODEL_VERSION}",
                         f"fuse={fuse}", print_function(func)])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_schema1_plans_are_orphaned_never_replayed(cache_dir):
    """Plans persisted while ``fuse=`` was part of the key — the fused
    ones *and* the fusion-disabled ones — must not come back under
    today's key: it no longer says which of the two a plan was."""
    machine, func = jit_context()
    # An unfused schema-1 plan: no "fuse" spans on any op.
    unfused = {"regions": [{"head": "loop", "loopback": True, "guards": 1,
                            "ops": [{"name": "loop", "kind": 2, "next": 0,
                                     "expected": False}]}]}
    store = RegionCache(cache_dir)
    old_keys = [_schema1_key(func, fuse) for fuse in (0, 1)]
    for key in old_keys:
        path = store._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"schema": 1, "plan": unfused}))
    assert region_key(func) not in old_keys

    regions = launch(machine, func)
    sess = take_session()
    assert (sess["replays"], sess["selections"]) == (0, 1), \
        "a schema-1 plan was replayed under the schema-2 key"
    assert sum(r.fused_steps for r in regions.values()) > 0

    # Even sitting at today's path, a schema-1 record is deleted, not read.
    path = store._path(region_key(func))
    path.write_text(json.dumps({"schema": 1, "plan": unfused}))
    fresh = RegionCache(cache_dir)
    assert fresh.get(region_key(func)) is None
    assert not path.exists()


def test_lru_eviction_respects_byte_cap(cache_dir):
    store = RegionCache(cache_dir, max_bytes=1)   # Everything over budget.
    for i in range(4):
        store.put(f"{i:02x}" + "f" * 62, {"regions": [], "pad": "x" * 64})
    assert store.evictions > 0
    n_entries, _ = store._sizes(store.entries())
    assert n_entries <= 1, "cap of 1 byte must evict down to the last put"


# -- session counters ---------------------------------------------------------

def test_session_line_is_empty_without_activity():
    assert RegionSession().line() == ""


def test_session_absorb_sums_and_maxes():
    sess = RegionSession(selections=1, fused_steps=10, max_chain=5, puts=2)
    sess.absorb({"selections": 2, "fused_steps": 3, "max_chain": 9,
                 "puts": 1, "bogus": "ignored"})
    assert sess.selections == 3
    assert sess.fused_steps == 13
    assert sess.max_chain == 9, "max_chain folds by max, not sum"
    assert sess.puts == 3


def test_take_session_snapshots_and_resets(cache_dir):
    machine, func = jit_context()
    launch(machine, func)
    snap = take_session()
    assert snap["selections"] == 1
    assert not session().any(), "take_session must leave a fresh session"


# -- load_or_select_plan -----------------------------------------------------

def test_cold_then_warm_counts_and_plans(cache_dir):
    machine, func = jit_context()
    cold = launch(machine, func)
    assert session().selections == 1 and session().puts == 1
    reset_region_cache()                 # Fresh process: memo gone.
    machine2, func2 = jit_context()
    warm = launch(machine2, func2)
    assert session().replays == 1
    assert session().selections == 1, "warm launch must not re-select"
    assert extract_plan(warm) == extract_plan(cold)


def test_invalid_persisted_plan_falls_back_to_compile(cache_dir):
    machine, func = jit_context()
    launch(machine, func)
    key = region_key(func)
    # Mangle the persisted plan so replay validation rejects it.
    store = RegionCache(cache_dir)
    store.put(key, {"regions": [{"head": "no-such-block", "ops": []}]})
    reset_region_cache()
    take_session()
    machine2, func2 = jit_context()
    regions = launch(machine2, func2)
    assert session().invalid == 1
    assert session().selections == 1, "fallback must compile fresh"
    assert regions, "fallback produced no regions"
    # The fresh compile overwrote the bad entry: next launch replays.
    reset_region_cache()
    take_session()
    machine3, func3 = jit_context()
    launch(machine3, func3)
    assert session().replays == 1 and session().invalid == 0


def test_profile_and_obs_bypass_the_cache(cache_dir, monkeypatch):
    machine, func = jit_context()
    launch(machine, func)   # Populate.
    take_session()
    # Observability enabled: fresh selection, no cache traffic, so cold
    # and warm runs emit identical remark streams.
    monkeypatch.setenv(obs_session.ENV_VAR, "1")
    machine2, func2 = jit_context()
    launch(machine2, func2)
    snap = take_session()
    assert snap["selections"] == 1
    assert snap["hits"] == snap["misses"] == snap["puts"] == 0
    monkeypatch.delenv(obs_session.ENV_VAR)
    # A live execution profile must also see exact, profile-seeded
    # selection rather than a profile-free cached plan.
    machine3, func3 = jit_context()
    machine3.profile = object()
    try:
        launch(machine3, func3)
    except Exception:
        pass  # The fake profile breaks selection; the counters still tell.
    snap = take_session()
    assert snap["hits"] == snap["misses"] == 0


def test_disabled_cache_still_compiles(cache_dir, monkeypatch):
    monkeypatch.setenv("REPRO_REGION_CACHE", "0")
    machine, func = jit_context()
    regions = launch(machine, func)
    assert regions
    snap = take_session()
    assert snap["selections"] == 1
    assert snap["puts"] == 0, "disabled cache must not write"


def test_flush_region_feedback_repersists_dirty_plans(cache_dir):
    machine, func = jit_context()
    regions = launch(machine, func)
    puts_before = session().puts
    flush_region_feedback(regions)      # Clean map: no-op.
    assert session().puts == puts_before
    regions.dirty = True                # As demote_guard/drop_cold do.
    flush_region_feedback(regions)
    assert session().puts == puts_before + 1
    assert not regions.dirty, "a successful flush must clear the flag"
