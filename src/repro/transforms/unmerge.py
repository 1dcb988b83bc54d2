"""Control-flow unmerging (the paper's core transformation).

Unmerging eliminates merge blocks inside a loop body by tail duplication
(Section III-A.1, Figure 2): a block with multiple in-loop predecessors is
duplicated — together with *everything reachable from it up to the back
edge*, the paper's "aggressively duplicates the entire path leading to the
initial loop header" — so that each predecessor continues into its own
private copy.  Afterwards every root-to-backedge path through the body is a
chain of single-predecessor blocks, which is precisely the shape on which
GVN's branch facts, SCCP and load elimination can exploit control-flow
provenance.

Structural rules (matching the paper's implementation notes):

* the loop header itself is never unmerged (it is the loop boundary);
* inner-loop headers are never unmerged (their two predecessors are the
  loop entry and their own latch; duplicating them would tear the inner
  loop apart) — inner-loop *bodies* are unmerged by invoking the pass on
  the inner loop, which the u&u driver does innermost-first;
* when the duplicated tail contains a whole inner loop, the inner loop is
  cloned wholesale (its back edge stays internal to each copy);
* loop exits and the loop header act as region boundaries: they are not
  duplicated, they just gain phi entries (LCSSA makes that sufficient);
* phi nodes in duplicated merge blocks collapse to the incoming value of
  the one predecessor that reaches each copy (the paper's footnote 1 on
  "unraveling" phis when control decays to a single predecessor block);
* a growth cap bounds the exponential worst case ``f(p, s, u)`` — hitting
  it aborts the transformation for that loop, the analogue of the paper's
  5-minute compile timeouts on ccs.

One duplication costs time proportional to the tail it clones, not to the
function, which keeps the pass linear in the amount of code it produces:

* :class:`_Region` holds everything the duplication loop reads of the
  function — region membership, inner-loop blocks and back edges, each
  block's forward in-region predecessors and the function's instruction
  count.  It is built once per invocation from the caller's loop analysis
  and :func:`_duplicate_tail` updates it for exactly the blocks it clones
  and the edges it rewires.  Predecessor lists stay in function-block
  order, so the *keeper* (the first predecessor, which retains the original
  tail) is the one a scan of the whole function would pick: clones are
  appended to the function in tail order, and a clone's predecessors are
  clones of the same batch.
* :class:`_MergeWalk` picks the next merge block: the first one in reverse
  postorder of the function.  Region blocks are all discovered below the
  header, so their relative order is that of a depth-first search of the
  region's forward edges; the walk produces that order front to back by
  running the search backwards — a block is emitted when the *last* of its
  forward predecessors examines it, where the search discovers it from the
  *first*.  The walk stops at the first merge and journals its steps.
  Duplicating merge ``M`` changes no edge examined before ``M`` was first
  examined, so the walk is rewound to that point and resumed instead of
  being restarted, and it selects the same block a fresh scan would.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..analysis.loops import Loop
from ..ir.block import BasicBlock
from ..ir.clone import clone_blocks, map_value
from ..ir.function import Function
from ..ir.instructions import PhiInst
from ..ir.values import Value
from ..obs import session as obs
from .lcssa import form_lcssa
from .profitability import merge_is_profitable


#: The growth cap (instructions summed over the function) every registered
#: app is compiled under: the default of the CLI, the runners, the tuner,
#: the daemon and the functions below, and the cap of every committed
#: exhibit.  Bare modules use the fuzz oracle's ``BARE_MAX_INSTRUCTIONS``.
MAX_INSTRUCTIONS = 8_000


class UnmergeBudgetExceeded(Exception):
    """The duplication grew past the instruction cap (compile "timeout")."""


def unmerge_loop(func: Function, loop: Loop,
                 max_instructions: int = MAX_INSTRUCTIONS,
                 selective: bool = False) -> bool:
    """Unmerge all control-flow merges in ``loop``'s body.

    ``loop`` must come from a :class:`LoopInfo` of the function as it is
    now: its ``children`` say which blocks belong to nested loops.

    Returns True if the CFG changed.  Raises
    :class:`UnmergeBudgetExceeded` when duplication outgrows
    ``max_instructions`` summed over the function (the IR is left in a
    valid, partially-unmerged state).

    ``selective=True`` enables the paper's *partial unmerging* extension
    (Section VI): only merge blocks whose duplication can feed the cleanup
    passes are duplicated (see :mod:`repro.transforms.profitability`).
    """
    form_lcssa(func, loop)
    region = _Region(func, loop)
    walk = _MergeWalk(region)
    duplicated = 0
    while True:
        merge = walk.next_merge()
        if merge is None:
            if duplicated and obs.active() is not None:
                obs.remark("analysis", "unmerge", func.name,
                           "duplicated merge tails", loop_id=loop.loop_id,
                           duplicated=duplicated,
                           skipped_unprofitable=len(walk.skipped))
            return duplicated > 0
        tail = _tail_blocks(region.header, merge, region.ids)
        if selective and not merge_is_profitable(region.blocks, merge, tail):
            walk.skipped.add(id(merge))
            continue
        walk.rewind(merge)
        _duplicate_tail(func, region, merge, tail)
        duplicated += 1
        if region.instruction_count > max_instructions:
            obs.remark("analysis", "unmerge", func.name,
                       "unmerge budget exceeded", loop_id=loop.loop_id,
                       duplicated=duplicated, budget=max_instructions)
            raise UnmergeBudgetExceeded(
                f"loop {loop.loop_id}: unmerged body exceeded "
                f"{max_instructions} instructions")


class _Region:
    """The loop's blocks plus their clones, and what unmerging reads of the
    function, kept current by :func:`_duplicate_tail`.

    Blocks of nested loops (``inner``) are never unmerge candidates here:
    their merges belong to the inner loop's own unmerge invocation (the u&u
    driver runs innermost-first), and duplicating across an inner back edge
    would tear the inner loop apart.
    """

    def __init__(self, func: Function, loop: Loop) -> None:
        self.header = loop.header
        self.blocks: List[BasicBlock] = list(loop.blocks)
        self.ids: Set[int] = {id(b) for b in self.blocks}
        self.inner: Set[int] = {id(b) for child in loop.children
                                for b in child.blocks}
        #: id(latch) -> the inner-loop headers it branches back to.
        self.back_edges: Dict[int, List[BasicBlock]] = {}
        for nested in loop.nest():
            if nested is not loop:
                for latch in nested.latches():
                    self.back_edges.setdefault(id(latch), []).append(
                        nested.header)
        self._forward: Dict[int, List[BasicBlock]] = {}
        #: Forward in-region predecessors, in function-block order.
        self.preds: Dict[int, List[BasicBlock]] = {id(b): []
                                                   for b in self.blocks}
        for block in func.blocks:
            if id(block) in self.ids:
                for succ in self.forward_successors(block):
                    self.preds[id(succ)].append(block)
        self.instruction_count = func.instruction_count()

    def forward_successors(self, block: BasicBlock) -> List[BasicBlock]:
        """Distinct in-region successors of ``block``, not counting back
        edges (to the header or to an inner-loop header).  Memoized; an edge
        rewire must call :meth:`rewired`."""
        cached = self._forward.get(id(block))
        if cached is None:
            cached = []
            barred = {id(self.header)}
            barred.update(id(h) for h in self.back_edges.get(id(block), ()))
            for succ in block.successors():
                if id(succ) in self.ids and id(succ) not in barred:
                    barred.add(id(succ))
                    cached.append(succ)
            self._forward[id(block)] = cached
        return cached

    def rewired(self, block: BasicBlock) -> None:
        self._forward.pop(id(block), None)

    def add_clone(self, original: BasicBlock, clone: BasicBlock,
                  preds: List[BasicBlock], vmap: Dict[int, Value]) -> None:
        self.blocks.append(clone)
        self.ids.add(id(clone))
        self.preds[id(clone)] = preds
        if id(original) in self.inner:
            self.inner.add(id(clone))
        headers = self.back_edges.get(id(original))
        if headers is not None:
            self.back_edges[id(clone)] = [vmap[id(h)] for h in headers]


class _MergeWalk:
    """Resumable search for the next block to unmerge: in-region, outside
    inner loops, >= 2 in-region predecessors, first in reverse postorder.

    Blocks in ``skipped`` (judged unprofitable by the selective mode) are
    walked past.  See the module docstring for why the order is reverse
    postorder and why :meth:`rewind` may stand in for a restart.
    """

    def __init__(self, region: _Region) -> None:
        self.region = region
        self.skipped: Set[int] = set()
        #: Open blocks, outermost first: [block, successors examined].
        self._stack: List[list] = [[region.header, 0]]
        #: Forward predecessors that have not examined a block yet.
        self._unexamined: Dict[int, int] = {}
        #: Every step since the start — the block examined, or the frame
        #: closed — and where each block's first examination sits in it.
        self._journal: List[object] = []
        self._first_examined: Dict[int, int] = {}

    def next_merge(self) -> Optional[BasicBlock]:
        region = self.region
        while self._stack:
            frame = self._stack[-1]
            successors = region.forward_successors(frame[0])
            if frame[1] == len(successors):
                self._journal.append(self._stack.pop())
                continue
            # The search this walk reverses takes successors first to last.
            succ = successors[-1 - frame[1]]
            frame[1] += 1
            key = id(succ)
            if key not in self._unexamined:
                self._unexamined[key] = len(region.preds[key])
                self._first_examined[key] = len(self._journal)
            self._journal.append(succ)
            self._unexamined[key] -= 1
            if self._unexamined[key]:
                continue
            self._stack.append([succ, 0])
            if (len(region.preds[key]) >= 2 and key not in region.inner
                    and key not in self.skipped):
                return succ
        return None

    def rewind(self, merge: BasicBlock) -> None:
        """Undo every step from the first examination of ``merge`` on."""
        mark = self._first_examined[id(merge)]
        while len(self._journal) > mark:
            step = self._journal.pop()
            if not isinstance(step, BasicBlock):
                self._stack.append(step)
                continue
            key = id(step)
            if not self._unexamined[key]:
                self._stack.pop()  # This examination had opened the block.
            self._stack[-1][1] -= 1
            self._unexamined[key] += 1
            if self._first_examined[key] == len(self._journal):
                del self._first_examined[key]
                del self._unexamined[key]


def _duplicate_tail(func: Function, region: _Region, merge: BasicBlock,
                    tail: List[BasicBlock]) -> None:
    """Give each in-region predecessor of ``merge`` its own copy of ``tail``.

    ``tail`` is :func:`_tail_blocks` of ``merge``.  The first predecessor
    keeps the original tail; each further predecessor gets a clone.
    """
    keeper, *others = region.preds[id(merge)]
    assert others
    tail_index = {id(b): i for i, b in enumerate(tail)}

    # Out-of-tail targets (the header and exit blocks) whose phis must gain
    # entries for cloned predecessors.
    boundary_edges: List[Tuple[BasicBlock, BasicBlock]] = []
    for block in tail:
        for succ in block.successors():
            if id(succ) not in tail_index:
                boundary_edges.append((block, succ))

    # A clone's predecessors are the clones of the original's in-tail ones;
    # clones join the function in tail order, so that is their block order.
    tail_preds = [sorted((p for p in region.preds[id(b)]
                          if id(p) in tail_index),
                         key=lambda p: tail_index[id(p)]) for b in tail]

    region.instruction_count -= len(merge)
    merge_phis = merge.phis()
    for j, pred in enumerate(others, start=1):
        # The one fact unmerging creates -- which predecessor reaches this
        # copy -- is known before the clone: the merge's phis *are* that
        # predecessor's incoming values, so they are never built.
        clones, vmap = clone_blocks(
            func, tail, f"p{j}",
            {id(phi): phi.incoming_for(pred) for phi in merge_phis})
        for original, clone, preds in zip(tail, clones, tail_preds):
            region.add_clone(original, clone,
                             [vmap[id(p)] for p in preds], vmap)
        # Rewire this predecessor into its private copy.
        term = pred.terminator
        assert term is not None
        new_merge = vmap[id(merge)]
        assert isinstance(new_merge, BasicBlock)
        term.replace_successor(merge, new_merge)
        region.rewired(pred)
        region.preds[id(new_merge)] = [pred]
        # Deeper cloned blocks may also have had predecessors outside the
        # tail; those edges still target the *original* blocks, so their
        # cloned phis must drop the stale incoming entries.
        clone_ids = {id(c) for c in clones}
        for original in tail[1:]:
            clone = vmap[id(original)]
            assert isinstance(clone, BasicBlock)
            for original_phi in original.phis():
                phi = vmap[id(original_phi)]
                assert isinstance(phi, PhiInst)
                for i in reversed(range(len(phi.incoming_blocks))):
                    if id(phi.incoming_blocks[i]) not in clone_ids:
                        phi.remove_operand(i)
                        del phi.incoming_blocks[i]
                unique = phi.is_trivial()
                if unique is not None:
                    phi.replace_all_uses_with(unique)
                    phi.erase_from_parent()
                    vmap[id(original_phi)] = unique
        # Boundary targets (header / exits) gain phi entries per clone.
        for block, succ in boundary_edges:
            mapped_block = vmap[id(block)]
            assert isinstance(mapped_block, BasicBlock)
            for phi in succ.phis():
                value = phi.incoming_for(block)
                phi.add_incoming(map_value(vmap, value), mapped_block)
        region.instruction_count += sum(len(c) for c in clones)

    # The original merge keeps only the first predecessor: drop the other
    # incoming entries, then collapse now-trivial phis.
    region.preds[id(merge)] = [keeper]
    for phi in merge_phis:
        for pred in others:
            phi.remove_incoming(pred)
        unique = phi.is_trivial()
        if unique is not None:
            phi.replace_all_uses_with(unique)
            phi.erase_from_parent()
    region.instruction_count += len(merge)


def _tail_blocks(header: BasicBlock, merge: BasicBlock,
                 region: Set[int]) -> List[BasicBlock]:
    """Blocks reachable from ``merge`` inside the region, not via the header.

    Returned in deterministic DFS discovery order with ``merge`` first.
    """
    order: List[BasicBlock] = []
    seen = {id(merge), id(header)}
    stack = [merge]
    while stack:
        block = stack.pop()
        order.append(block)
        for succ in reversed(block.successors()):
            if id(succ) in seen or id(succ) not in region:
                continue
            seen.add(id(succ))
            stack.append(succ)
    return order
