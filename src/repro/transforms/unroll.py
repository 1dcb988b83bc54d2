"""Loop unrolling.

Implements the paper's unrolling scheme (Section III-A.2, Figure 3): the
loop body — *including the header and its exit check* — is cloned ``u - 1``
times and the copies are chained:

    preheader -> H0 ... L0 -> H1 ... L1 -> ... -> L(u-1) -> H0

Each copy keeps its exit edges, so the transformation is semantics-
preserving for any trip count (the paper unrolls while-style, non-counted
loops the same way).  The cloned headers have a single predecessor — the
previous copy's latch — so their phis collapse to the previous copy's
values, which is what exposes cross-iteration redundancies to GVN/SCCP.

Full unrolling falls out for free: when the trip count is a compile-time
constant ``tc <= u``, SCCP proves the back edge dead (the chain's exit
conditions fold one after another) and SimplifyCFG deletes the loop —
reproducing the paper's bspline-vgh observation that unroll factors 4 and 8
generate identical code for a trip-count-4 loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.loops import Loop, LoopInfo
from ..analysis.tripcount import constant_trip_count
from ..ir.block import BasicBlock
from ..ir.clone import clone_blocks, map_value
from ..ir.function import Function
from ..ir.instructions import PhiInst
from ..ir.values import Value
from ..obs import session as obs
from .lcssa import form_lcssa


class UnrollError(Exception):
    """Raised when a loop cannot be unrolled (caller may skip the loop)."""


def can_unroll(loop: Loop) -> bool:
    """Structural preconditions for :func:`unroll_loop`."""
    return loop.single_latch() is not None


def unroll_loop(func: Function, loop: Loop, factor: int) -> List[BasicBlock]:
    """Unroll ``loop`` by ``factor``; returns all blocks of the widened loop.

    The returned list contains the original loop blocks plus every cloned
    block, i.e. the body of the new (wider) natural loop.
    """
    if factor < 2:
        return list(loop.blocks)
    latch = loop.single_latch()
    if latch is None:
        raise UnrollError(f"loop {loop.loop_id} has multiple latches")
    form_lcssa(func, loop)
    loop.ensure_preheader()

    header = loop.header
    original_blocks = list(loop.blocks)
    exit_blocks = loop.exit_blocks()
    region = list(original_blocks)

    # Incoming values of header phis along the back edge, per original phi.
    header_phis = header.phis()
    latch_values: Dict[int, Value] = {
        id(phi): phi.incoming_for(latch) for phi in header_phis}

    # Clone all copies first, from the *pristine* originals: rewiring the
    # chain as we go would corrupt later clones (each clone captures the
    # original latch's current back-edge target).
    copies: List[Tuple[List[BasicBlock], Dict[int, Value]]] = []
    for copy_index in range(1, factor):
        clones, vmap = clone_blocks(func, original_blocks,
                                    f"u{copy_index}", vmap=None)
        copies.append((clones, vmap))
        region.extend(clones)

    prev_latch = latch
    # The block the previous copy's back edge currently targets: the
    # original header for the original latch, the copy's own cloned header
    # for cloned latches (clone_blocks remaps back edges within the copy).
    prev_backedge_target = header
    prev_vmap: Optional[Dict[int, Value]] = None
    last_vmap: Optional[Dict[int, Value]] = None

    for clones, vmap in copies:
        new_header = vmap[id(header)]
        assert isinstance(new_header, BasicBlock)

        # Chain: previous copy's latch now branches to this copy's header.
        prev_term = prev_latch.terminator
        assert prev_term is not None
        prev_term.replace_successor(prev_backedge_target, new_header)
        prev_backedge_target = new_header

        # The cloned header has one predecessor (prev latch): each cloned
        # phi becomes the value the previous copy computed for it.
        for phi in header_phis:
            cloned_phi = vmap[id(phi)]
            assert isinstance(cloned_phi, PhiInst)
            incoming = latch_values[id(phi)]
            if prev_vmap is not None:
                incoming = map_value(prev_vmap, incoming)
            cloned_phi.replace_all_uses_with(incoming)
            cloned_phi.erase_from_parent()
            # Future copies (and the final back-edge fix-up) must see the
            # collapsed value, not the erased clone.
            vmap[id(phi)] = incoming

        # Exit blocks gain one predecessor per cloned exiting block.
        for exit_block in exit_blocks:
            for phi in exit_block.phis():
                for value, pred in list(phi.incoming()):
                    mapped_pred = vmap.get(id(pred))
                    if mapped_pred is not None:
                        phi.add_incoming(map_value(vmap, value), mapped_pred)  # type: ignore[arg-type]

        mapped_latch = vmap[id(latch)]
        assert isinstance(mapped_latch, BasicBlock)
        prev_latch = mapped_latch
        prev_vmap = vmap
        last_vmap = vmap

    # Close the chain: the last copy's latch carries the back edge.
    last_term = prev_latch.terminator
    assert last_term is not None
    if prev_latch is not latch:
        # The clone's back edge still targets its own cloned header.
        assert last_vmap is not None
        cloned_header = last_vmap[id(header)]
        assert isinstance(cloned_header, BasicBlock)
        last_term.replace_successor(cloned_header, header)
        # Original header phis: the back edge now comes from the last
        # cloned latch, carrying the last copy's values.
        for phi in header_phis:
            incoming = latch_values[id(phi)]
            for i, pred in enumerate(phi.incoming_blocks):
                if pred is latch:
                    phi.set_incoming_block(i, prev_latch)
                    phi.set_operand(i, map_value(last_vmap, incoming))
    return region


class BaselineUnroll:
    """The stock compiler's unroller, modelling LLVM -O3 defaults.

    Two behaviours, both central to the paper's pipeline-interaction
    findings:

    * **full unrolling** of counted loops whose constant trip count and
      unrolled size fit a budget — behind the `coordinates` observation
      (baseline fully unrolls; the u&u pass claiming the loop suppresses
      this, which *helps* when the unrolled body thrashes the icache);
    * **runtime unrolling** of small innermost loops by a modest factor —
      behind the `ccs`/`contract` observation ("applying u&u disables
      beneficial runtime unrolling for those loops, which LLVM otherwise
      applies"): a u&u-claimed loop loses this and may regress.

    Loops listed in ``func.attributes["uu_claimed_loops"]`` or annotated
    with an unroll pragma are skipped.
    """

    name = "baseline-unroll"

    def __init__(self, max_trip_count: int = 64,
                 size_budget: int = 4096,
                 runtime_size_limit: int = 40,
                 runtime_factor: int = 4) -> None:
        self.max_trip_count = max_trip_count
        self.size_budget = size_budget
        self.runtime_size_limit = runtime_size_limit
        self.runtime_factor = runtime_factor

    def run(self, func: Function) -> bool:
        from ..analysis.cost_model import loop_size

        changed = False
        # Re-discover loops after each transform: unrolling restructures.
        progress = True
        unrolled_headers = set()
        while progress:
            progress = False
            claimed = set(func.attributes.get("uu_claimed_loops", ()))
            pragmas = func.attributes.get("loop_pragmas", {})
            loop_info = LoopInfo.compute(func)
            for loop in loop_info.innermost_first():
                if id(loop.header) in unrolled_headers:
                    continue
                if loop.loop_id in claimed or loop.loop_id in pragmas:
                    continue
                if not can_unroll(loop):
                    continue
                size = loop_size(loop)
                factor = self._choose_factor(loop, size)
                if factor is None:
                    unrolled_headers.add(id(loop.header))
                    continue
                unroll_loop(func, loop, factor)
                if obs.active() is not None:
                    tc = constant_trip_count(loop)
                    obs.remark("applied", self.name, func.name,
                               f"unrolled by {factor}",
                               loop_id=loop.loop_id, factor=factor,
                               size=size,
                               unroll_kind="full" if tc is not None and
                               factor == tc + 1 else "runtime")
                unrolled_headers.add(id(loop.header))
                changed = True
                progress = True
                break
        return changed

    def _choose_factor(self, loop, size: int) -> Optional[int]:
        tc = constant_trip_count(loop)
        if tc is not None and 1 <= tc <= self.max_trip_count and \
                tc * size <= self.size_budget:
            # Full unroll: factor tc+1 lets SCCP prove the back edge dead
            # under the keep-exit-checks scheme.
            return tc + 1
        if loop.is_innermost and size <= self.runtime_size_limit and \
                self.runtime_factor >= 2:
            return self.runtime_factor
        return None
