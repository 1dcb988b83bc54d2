"""Branch facts over a scoped value table: the rules GVN and unmerging share.

A *branch fact* holds below a single-predecessor edge: when block ``B`` is
only reachable as the true target of ``br %c, T, F``, then inside ``B``'s
dominance region ``%c`` is ``true``, any identical comparison re-evaluation
folds to ``true``, the negated comparison folds to ``false``, and an
``icmp eq x, C`` fact substitutes ``C`` for ``x``.  Value numbering maps a
pure instruction to a dominating one with the same key.

:class:`~repro.transforms.gvn.GlobalValueNumbering` applies these rules
over the dominator tree; :mod:`repro.transforms.unmerge` applies the same
rules along the single-predecessor path into a copy it is about to make, so
it never copies code the copy's own facts rule out.  One implementation
keeps the second a subset of the first by construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.block import BasicBlock
from ..ir.constants import Constant, bool_const
from ..ir.instructions import (CondBranchInst, FCmpInst, ICmpInst,
                               Instruction, PhiInst, TerminatorInst)
from ..ir.values import Value
from .instcombine import simplify_instruction

_MISSING = object()


class FactScopes:
    """Scoped dictionaries with an undo log per dominator-tree level:
    ``available`` maps a value key to its leader, ``replacements`` maps a
    value to what the facts in scope say it is.  The outermost scope is
    never popped, so it keeps no log."""

    def __init__(self) -> None:
        self.available: Dict[Tuple, Value] = {}
        self.replacements: Dict[int, Value] = {}
        self._undo: List[List[Tuple[str, object, object]]] = []

    def copy(self) -> "FactScopes":
        """The tables as they stand, as the outermost scope of a new
        object."""
        other = FactScopes()
        other.available = dict(self.available)
        other.replacements = dict(self.replacements)
        return other

    def push(self) -> None:
        self._undo.append([])

    def pop(self) -> None:
        for kind, key, old in reversed(self._undo.pop()):
            table = self.available if kind == "avail" else self.replacements
            if old is _MISSING:
                del table[key]  # type: ignore[arg-type]
            else:
                table[key] = old  # type: ignore[assignment,index]

    def set_available(self, key: Tuple, value: Value) -> None:
        if self._undo:
            old = self.available.get(key, _MISSING)
            self._undo[-1].append(("avail", key, old))
        self.available[key] = value

    def set_replacement(self, value: Value, replacement: Value) -> None:
        key = id(value)
        if self._undo:
            old = self.replacements.get(key, _MISSING)
            self._undo[-1].append(("repl", key, old))
        self.replacements[key] = replacement

    def lookup(self, value: Value) -> Value:
        seen = 0
        while True:
            repl = self.replacements.get(id(value))
            if repl is None or repl is value:
                return value
            value = repl
            seen += 1
            if seen > 32:  # Defensive: replacement chains are tiny.
                return value

    # -- the fact rules ---------------------------------------------------
    def enter_edge(self, pred: BasicBlock, block: BasicBlock) -> None:
        """Install the fact of the edge ``pred -> block``, where ``pred``
        is ``block``'s only predecessor.  The edge must be unambiguous:
        ``block`` reached only as the true or only as the false target."""
        term = pred.terminator
        if not isinstance(term, CondBranchInst):
            return
        if term.true_target is block and term.false_target is block:
            return
        self.install_fact(self.lookup(term.condition),
                          term.true_target is block)

    def install_fact(self, cond: Value, truth: bool) -> None:
        constant = bool_const(truth)
        if isinstance(cond, Constant):
            return
        self.set_replacement(cond, constant)
        if isinstance(cond, (ICmpInst, FCmpInst)):
            key = cond.value_key()
            if key is not None:
                self.set_available(key, constant)
                self.set_available(_negated_key(cond), bool_const(not truth))
            # Equality facts substitute constants for values on this path.
            if isinstance(cond, ICmpInst):
                if (cond.predicate == "eq" and truth) or \
                        (cond.predicate == "ne" and not truth):
                    self._install_equality(cond.lhs, cond.rhs)

    def _install_equality(self, lhs: Value, rhs: Value) -> None:
        if isinstance(rhs, Constant) and not isinstance(lhs, Constant):
            self.set_replacement(lhs, rhs)
        elif isinstance(lhs, Constant) and not isinstance(rhs, Constant):
            self.set_replacement(rhs, lhs)

    # -- value numbering --------------------------------------------------
    def rewrite_operands(self, inst: Instruction) -> int:
        """Rewrite ``inst``'s operands to what the facts say they are;
        returns how many changed.  Phi operands flow along *edges*, not
        through this block, so facts valid here never rewrite them."""
        if isinstance(inst, PhiInst):
            return 0
        rewrites = 0
        for i, op in enumerate(inst.operands):
            repl = self.lookup(op)
            if repl is not op:
                inst.set_operand(i, repl)
                rewrites += 1
        return rewrites

    def number(self, inst: Instruction, lead: bool = True
               ) -> Tuple[Optional[Value], bool]:
        """What ``inst`` (operands already rewritten) equals: ``(value,
        False)`` when it simplifies, ``(leader, True)`` when a dominating
        instruction in scope computes it, ``(None, False)`` when it stays
        — then, if ``lead``, it leads its key from here on."""
        if isinstance(inst, (PhiInst, TerminatorInst)) or not inst.is_pure:
            return None, False
        simplified = simplify_instruction(inst)
        if simplified is not None and simplified is not inst:
            return simplified, False
        key = inst.value_key()
        if key is None:
            return None, False
        leader = self.available.get(key)
        if leader is not None:
            return leader, True
        if lead:
            self.set_available(key, inst)
        return None, False

    def note(self, inst: Instruction) -> None:
        """Number ``inst`` without touching it: a duplicate of a leader in
        scope is recorded as a replacement, anything else leads its key."""
        if isinstance(inst, (PhiInst, TerminatorInst)) or not inst.is_pure:
            return
        key = inst.value_key([self.lookup(op) for op in inst.operands])
        if key is None:
            return
        leader = self.available.get(key)
        if leader is not None:
            self.set_replacement(inst, leader)
        else:
            self.set_available(key, inst)


def _negated_key(cond) -> Tuple:
    ops = (id(cond.lhs), id(cond.rhs))
    extra = (cond.negated_predicate(),)
    return (cond.opcode, extra, ops)
