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

Duplication also prunes as it copies (clone and prune): a copy never holds
code that the facts on the path into it decide against, and the keeper's
tail is folded the same way in place.  The facts are GVN's own rules
(:mod:`repro.transforms.facts`) along the single-predecessor path into the
copy, so what pruning leaves out is what the cleanup battery would delete
and the compiled code is the same.  Pruning runs only where the region's
unpruned size fits the growth cap (:func:`_unpruned_size`), so it changes
no cap decision.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..analysis.loops import Loop
from ..ir import clone as ir_clone
from ..ir.block import BasicBlock
from ..ir.clone import clone_blocks, map_value
from ..ir.constants import Constant, ConstantInt, Undef
from ..ir.function import Function
from ..ir.instructions import (BranchInst, CondBranchInst, Instruction,
                               PhiInst, TerminatorInst)
from ..ir.values import Value
from ..obs import session as obs
from .facts import FactScopes
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
                 selective: bool = False, branch_facts: bool = True) -> bool:
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

    ``branch_facts=False`` duplicates without pruning: a copy keeps every
    block of its tail, whatever the facts on its path rule out (the
    branch-facts ablation).
    """
    form_lcssa(func, loop)
    region = _Region(func, loop)
    if branch_facts and _unpruned_size(region) <= max_instructions:
        region.prune = True
        region.cone = _condition_cone(region)
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
        for block in region.lost:
            walk.rewind(block)
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
        #: Inner-loop headers: their back edges are predecessors too.
        self.inner_headers: Set[int] = set()
        for nested in loop.nest():
            if nested is not loop:
                self.inner_headers.add(id(nested.header))
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
        #: Whether duplication prunes what the facts on a copy's path rule
        #: out (see :func:`_unpruned_size`).
        self.prune = False
        #: Blocks that lost a forward predecessor to the last pruning and
        #: survived it; the merge walk re-examines them.
        self.lost: List[BasicBlock] = []
        #: Blocks pruning deleted, kept referenced so no new block reuses
        #: an id the walk or this region may still hold.
        self.dead: List[BasicBlock] = []
        #: The facts at the end of each predecessor of a merge so far (see
        #: :func:`_path_facts`).
        self.facts_at: Dict[int, FactScopes] = {}
        #: The instructions a conditional branch reads (directly or through
        #: others): no other instruction can help decide one.  Clones of
        #: these join them.
        self.cone: Set[int] = set()

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
        if id(original) in self.inner_headers:
            self.inner_headers.add(id(clone))
        headers = self.back_edges.get(id(original))
        if headers is not None:
            self.back_edges[id(clone)] = [vmap[id(h)] for h in headers]

    def drop_edge(self, block: BasicBlock, succ: BasicBlock) -> None:
        """Forget the edge ``block -> succ`` (gone from the IR)."""
        for phi in succ.phis():
            phi.remove_incoming(block)
        preds = self.preds.get(id(succ))
        if preds is not None and block in preds:
            preds.remove(block)
            self.lost.append(succ)

    def remove(self, blocks: List[BasicBlock]) -> None:
        """Forget ``blocks``, already cut off from every live block."""
        for block in blocks:
            key = id(block)
            self.ids.discard(key)
            self.inner.discard(key)
            self.inner_headers.discard(key)
            del self.preds[key]
            self.back_edges.pop(key, None)
            self._forward.pop(key, None)
        self.blocks = [b for b in self.blocks if id(b) in self.ids]
        self.dead.extend(blocks)


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

    def rewind(self, block: BasicBlock) -> None:
        """Undo every step from the first examination of ``block`` on (if
        it has been examined)."""
        mark = self._first_examined.get(id(block))
        if mark is None:
            return
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
    keeps the original tail; each further predecessor gets a clone.  When
    ``region.prune`` is set, a copy holds only what the facts on its path
    leave reachable, and the keeper's tail is folded the same way in place.
    """
    keeper, *others = region.preds[id(merge)]
    assert others
    region.lost = []
    tail_index = {id(b): i for i, b in enumerate(tail)}
    order = _forward_order(region, merge) if region.prune else []

    # A clone's forward predecessors are among the clones of the original's
    # in-tail ones; clones join the function in tail order, so that is
    # their block order.
    tail_preds = [sorted((p for p in region.preds[id(b)]
                          if id(p) in tail_index),
                         key=lambda p: tail_index[id(p)]) for b in tail]

    region.instruction_count -= len(merge)
    merge_phis = merge.phis()
    for j, pred in enumerate(others, start=1):
        # The one fact unmerging creates -- which predecessor reaches this
        # copy -- is known before the clone: the merge's phis *are* that
        # predecessor's incoming values, so they are never built.
        vmap: Dict[int, Value] = {id(phi): phi.incoming_for(pred)
                                  for phi in merge_phis}
        facts = _path_facts(region, pred, merge) if region.prune else None
        clones: List[Optional[BasicBlock]]
        if facts is None:
            clones, vmap = clone_blocks(func, tail, f"p{j}", vmap)
        else:
            clones = _clone_pruned(func, region, tail, tail_index, order,
                                   f"p{j}", vmap, facts)
            facts.pop()
        # Every clone's predecessors among the clones, back edges included.
        into: Dict[int, Set[int]] = {}
        for clone in clones:
            if clone is not None:
                for succ in clone.successors():
                    into.setdefault(id(succ), set()).add(id(clone))
        for original, clone, preds in zip(tail, clones, tail_preds):
            if clone is not None:
                region.add_clone(original, clone, [
                    vmap[id(p)] for p in preds
                    if id(vmap.get(id(p))) in into.get(id(clone), ())], vmap)
        # Rewire this predecessor into its private copy.
        term = pred.terminator
        assert term is not None
        new_merge = clones[0]
        assert new_merge is not None
        term.replace_successor(merge, new_merge)
        region.rewired(pred)
        region.preds[id(new_merge)] = [pred]
        # Deeper cloned blocks may also have had predecessors outside the
        # tail, or ones the copy pruned; those edges do not reach the
        # clone, so its phis must drop their incoming entries.  A phi left
        # trivial folds into its one value, which may fold in turn.
        collapsed: Dict[int, Value] = {}
        for original, clone in zip(tail[1:], clones[1:]):
            if clone is None:
                continue
            reaching = into.get(id(clone), ())
            for original_phi in original.phis():
                phi = vmap[id(original_phi)]
                assert isinstance(phi, PhiInst)
                for i in reversed(range(len(phi.incoming_blocks))):
                    if id(phi.incoming_blocks[i]) not in reaching:
                        phi.remove_operand(i)
                        del phi.incoming_blocks[i]
                unique = phi.is_trivial()
                if unique is not None:
                    phi.replace_all_uses_with(unique)
                    phi.erase_from_parent()
                    collapsed[id(phi)] = unique
        # Boundary targets (header / exits) gain phi entries per clone.
        clone_ids = {id(c) for c in clones if c is not None}
        for original, clone in zip(tail, clones):
            if clone is None:
                continue
            for succ in clone.successors():
                if id(succ) not in clone_ids:
                    for phi in succ.phis():
                        value = map_value(vmap, phi.incoming_for(original))
                        while id(value) in collapsed:
                            value = collapsed[id(value)]
                        phi.add_incoming(value, clone)
            region.instruction_count += len(clone)

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
    if region.prune:
        facts = _path_facts(region, keeper, merge)
        if facts is not None:
            _prune_in_place(func, region, merge, order, facts)
            facts.pop()


def _unpruned_size(region: _Region) -> int:
    """The function's size once every forward path through the region has
    its own copy of each block on it — the most any sequence of unpruned
    duplications reaches on the way.

    Pruning only ever leaves out copies, so when this fits the growth cap,
    neither unmerging as it was nor unmerging with pruning can trip it,
    and pruning changes no cap decision.
    """
    paths: Dict[int, int] = {}
    size = region.instruction_count
    for block in _forward_order(region, region.header):
        count = sum(paths[id(p)] for p in region.preds[id(block)]) or 1
        paths[id(block)] = count
        size += (count - 1) * len(block)
    return size


def _forward_order(region: _Region, start: BasicBlock) -> List[BasicBlock]:
    """The blocks forward-reachable from ``start`` in the region, each
    after all of its forward predecessors among them (reverse postorder)."""
    order: List[BasicBlock] = []
    seen = {id(start)}
    stack = [(start, iter(region.forward_successors(start)))]
    while stack:
        block, successors = stack[-1]
        for succ in successors:
            if id(succ) not in seen:
                seen.add(id(succ))
                stack.append((succ, iter(region.forward_successors(succ))))
                break
        else:
            order.append(block)
            stack.pop()
    order.reverse()
    return order


def _path_facts(region: _Region, pred: BasicBlock,
                merge: BasicBlock) -> Optional[FactScopes]:
    """What holds on entry to ``pred``'s copy of ``merge``, by GVN's rules:
    the branch facts and the numbered pure instructions of the
    single-predecessor path that ends ``-> pred -> merge``, from the loop
    header or from the first block up it with other predecessors.

    The facts at the end of ``pred``, and of each branching block on the
    path, are kept for the paths that run through it later: unmerging goes
    down the region in reverse postorder and changes only blocks below the
    merge at hand, so no block such a path crosses changes afterwards.
    """
    path = []
    block, base = pred, None
    while True:
        base = region.facts_at.get(id(block))
        if base is not None:
            break
        path.append(block)
        preds = region.preds[id(block)]
        if len(preds) != 1:
            break
        block = preds[0]
    if not path:
        facts = base
    else:
        facts = FactScopes() if base is None else base.copy()
    above = None if base is None else block
    for block in reversed(path):
        # Only a single-predecessor block gets its edge's fact; an inner
        # loop's header has its latches besides.
        if above is not None and id(block) not in region.inner_headers:
            facts.enter_edge(above, block)
        for inst in block.instructions:
            if id(inst) in region.cone:
                facts.note(inst)
        if block is not pred and len(region.forward_successors(block)) > 1:
            region.facts_at[id(block)] = facts.copy()
        above = block
    region.facts_at[id(pred)] = facts
    facts.push()    # The caller pops what it adds for the copy.
    facts.enter_edge(pred, merge)
    return facts


def _condition_cone(region: _Region) -> Set[int]:
    """The pure instructions of the region that a conditional branch in it
    reads, directly or through others: the only ones whose value can
    decide what a copy keeps."""
    cone: Set[int] = set()
    work = [b.terminator.condition for b in region.blocks
            if isinstance(b.terminator, CondBranchInst)]
    while work:
        value = work.pop()
        if (isinstance(value, Instruction) and id(value) not in cone
                and id(value.parent) in region.ids
                and value.is_pure and not isinstance(value, PhiInst)):
            cone.add(id(value))
            work.extend(value.operands)
    return cone


def _reads_only_outside(inst: Instruction, blocks: Set[int]) -> bool:
    """Whether ``inst`` reads nothing computed in ``blocks`` (ids): a value
    computed there is in no fact and no leader's key, so neither folding
    nor a leader on the path can replace an instruction that reads one."""
    for op in inst.operands:
        if isinstance(op, Instruction) and id(op.parent) in blocks:
            return False
    return True


def _decided(term: TerminatorInst, cond: Value) -> Optional[BasicBlock]:
    """The target a conditional branch on ``cond`` certainly takes, if the
    other is a different block it certainly does not."""
    if not isinstance(cond, ConstantInt) or \
            term.true_target is term.false_target:
        return None
    return term.true_target if cond.value else term.false_target


def _clone_pruned(func: Function, region: _Region, tail: List[BasicBlock],
                  tail_index: Dict[int, int], order: List[BasicBlock],
                  suffix: str, vmap: Dict[int, Value],
                  facts: FactScopes) -> List[Optional[BasicBlock]]:
    """Clone what ``facts`` leave of ``tail``: the clones, in tail order,
    None for a block no surviving edge reaches.

    Blocks are visited in ``order`` (:func:`_forward_order` of the merge),
    so a block's fate is known before its turn.  An instruction of
    ``region.cone`` that simplifies or has a leader in ``facts`` is mapped
    to that value and not built; a conditional branch whose condition the
    facts decide is built as a branch to the target taken.  Blocks join
    the function in tail order, as :func:`~repro.ir.clone.clone_blocks`
    would add them.
    """
    merge = tail[0]
    cone = region.cone
    #: This copy's blocks.  Facts say nothing about what they compute, so
    #: an instruction that reads only that and constants is left as is.
    made: Set[int] = set()

    def clone_of(block: BasicBlock) -> BasicBlock:
        clone = vmap.get(id(block))
        if clone is None:
            clone = vmap[id(block)] = BasicBlock(f"{block.name}.{suffix}")
            made.add(id(clone))
        return clone  # type: ignore[return-value]

    clone_of(merge)
    clone_instruction = ir_clone.clone_instruction
    unmapped: List = []
    phis: List[PhiInst] = []
    for block in order:
        clone = vmap.get(id(block))
        if clone is None:
            continue
        assert isinstance(clone, BasicBlock)
        term = block.instructions[-1]
        for inst in block.instructions:
            if inst is term:
                break
            if id(inst) in vmap:    # A phi of the merge.
                continue
            if isinstance(inst, PhiInst):
                new = clone_instruction(inst, vmap, unmapped)
                phis.append(new)  # type: ignore[arg-type]
            else:
                new = clone_instruction(inst, vmap)
                if id(inst) in cone:
                    if _reads_only_outside(new, made):
                        facts.rewrite_operands(new)
                        value, _ = facts.number(new, lead=block is merge)
                        if value is not None:
                            new.drop_all_operands()
                            vmap[id(inst)] = value
                            continue
                    cone.add(id(new))
            if new.name:
                new.name = func.unique_name(new.name)
            vmap[id(inst)] = new
            clone.append(new)
        if isinstance(term, CondBranchInst):
            taken = _decided(term, facts.lookup(
                map_value(vmap, term.condition)))
            if taken is not None:
                clone.append(BranchInst(clone_of(taken)
                                        if id(taken) in tail_index
                                        else taken))
                continue
        for succ in term.successors():
            if id(succ) in tail_index:
                clone_of(succ)
        clone.append(clone_instruction(term, vmap))

    # Phi operands and predecessors along inner back edges were cloned
    # after the phi.
    for new, index in unmapped:
        mapped = vmap.get(id(new.operands[index]))
        if mapped is not None:
            new.set_operand(index, mapped)
    for phi in phis:
        phi.incoming_blocks = [map_value(vmap, b) for b in phi.incoming_blocks]

    clones: List[Optional[BasicBlock]] = []
    for block in tail:
        clone = vmap.get(id(block))
        if clone is not None:
            assert isinstance(clone, BasicBlock)
            func.adopt_block(clone)
        clones.append(clone)  # type: ignore[arg-type]
    return clones


def _prune_in_place(func: Function, region: _Region, merge: BasicBlock,
                    order: List[BasicBlock], facts: FactScopes) -> None:
    """Fold by ``facts`` the blocks of the keeper's tail that ``merge``
    dominates, as :func:`_clone_pruned` folds a copy, and delete the
    blocks left unreachable.

    ``order`` is the tail's :func:`_forward_order`, so every forward
    predecessor of a block is settled before it.  A branch is folded only
    when the target it drops is in the tail, so blocks outside it keep
    every predecessor.
    """
    tail_ids = {id(block) for block in order}
    dominated = {id(merge)}
    dead: Set[int] = set()
    dead_blocks: List[BasicBlock] = []
    for block in order:
        preds = region.preds[id(block)]
        if block is not merge:
            if not preds:   # Every way in was decided against.
                dead.add(id(block))
                dead_blocks.append(block)
                for succ in dict.fromkeys(block.successors()):
                    if id(succ) not in dead:
                        region.drop_edge(block, succ)
                continue
            if not all(id(p) in dominated for p in preds):
                continue
            dominated.add(id(block))
            if block in region.lost:
                for phi in block.phis():
                    unique = phi.is_trivial()
                    if unique is not None:
                        phi.replace_all_uses_with(unique)
                        phi.erase_from_parent()
                        region.instruction_count -= 1
        for inst in list(block.instructions):
            if id(inst) not in region.cone or \
                    not _reads_only_outside(inst, tail_ids):
                continue
            facts.rewrite_operands(inst)
            value, _ = facts.number(inst, lead=block is merge)
            if value is not None:
                inst.replace_all_uses_with(value)
                inst.erase_from_parent()
                region.instruction_count -= 1
        term = block.terminator
        if isinstance(term, CondBranchInst):
            taken = _decided(term, facts.lookup(term.condition))
            if taken is not None:
                dropped = (term.false_target if taken is term.true_target
                           else term.true_target)
                if dropped in region.forward_successors(block):
                    term.erase_from_parent()
                    block.append(BranchInst(taken))
                    region.rewired(block)
                    region.drop_edge(block, dropped)

    if not dead_blocks:
        return
    for block in dead_blocks:
        instructions = block.instructions
        region.instruction_count -= len(instructions)
        # Last to first, so uses inside the block go before definitions.
        while instructions:
            inst = instructions.pop()
            if inst.is_used:
                inst.replace_all_uses_with(Undef(inst.type))
            inst.parent = None
            inst.drop_all_operands()
        block.parent = None
    func.blocks[:] = [b for b in func.blocks if id(b) not in dead]
    region.remove(dead_blocks)


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
