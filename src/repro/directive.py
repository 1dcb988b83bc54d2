"""Loop directives: the one form below every pipeline configuration.

The paper's five configurations (Section IV-B) and our ``tuned`` /
``predicted`` all say "apply (unroll factor u, unmerge yes/no) to these
loops" — Kruse & Finkel's model (*Loop Optimization Framework*): a
configuration **is** an ordered list of per-loop directives, a *plan*, and
the heuristic, the autotuner, the similarity predictor and a client's
``directives`` are producers of it.  This module is the only spelling of
that triple (stdlib-only, so ``tune/store.py`` and ``obs`` stay
import-light); :func:`repro.transforms.plan.apply_directive` is the only
code that acts on a directive's kind.
"""

from __future__ import annotations

import dataclasses
import json
import re
from typing import Optional, Sequence

#: What one directive can do to one loop — and the names of the per-loop
#: pipeline configurations, which are exactly the one-directive plans.
KINDS = ("unroll", "unmerge", "uu")

_PRAGMA_RE = re.compile(
    r"^(?P<name>[a-z_]+)(?:\((?P<factor>[1-9][0-9]*)\))?@(?P<loop>\S+)$")


@dataclasses.dataclass(frozen=True)
class LoopDirective:
    """One loop's transform: unroll factor and whether to unmerge.

    ``unmerge`` with ``factor >= 2`` is unroll-and-unmerge (``uu``), with
    ``factor == 1`` the paper's single-loop ``unmerge``; without it, plain
    unrolling.  Loops a plan leaves alone are simply absent from it.
    ``str()`` writes the pragma spelling :meth:`parse` reads:
    ``unroll(4)@f:0``, ``unmerge@f:0``, ``uu(4)@f:0``.
    """

    loop_id: str
    factor: int
    unmerge: bool

    @property
    def kind(self) -> str:
        if not self.unmerge:
            return "unroll"
        return "uu" if self.factor >= 2 else "unmerge"

    @property
    def key(self) -> str:
        """Canonical, sortable identity (the deterministic tie-breaker)."""
        return (f"{self.loop_id}|u={self.factor}"
                f"|unmerge={'on' if self.unmerge else 'off'}")

    @classmethod
    def of(cls, kind: str, loop_id: str, factor: int = 1) -> "LoopDirective":
        """The directive a per-loop config or pragma name (one of
        :data:`KINDS`) denotes."""
        return cls(loop_id, 1 if kind == "unmerge" else factor,
                   kind != "unroll")

    def __str__(self) -> str:
        args = "" if self.kind == "unmerge" else f"({self.factor})"
        return f"{self.kind}{args}@{self.loop_id}"

    @classmethod
    def parse(cls, text: str) -> "LoopDirective":
        """Read one pragma; anything else — an unknown name, no ``@loop``,
        a factor where none belongs, the identity factor 1 — is a
        ``ValueError`` (fail closed)."""
        match = _PRAGMA_RE.match(text.strip())
        if match is None or match["name"] not in KINDS or \
                (match["name"] == "unmerge") == bool(match["factor"]) or \
                match["factor"] == "1":
            raise ValueError(
                f"bad directive {text!r}; expected unroll(u)@loop, "
                "unmerge@loop or uu(u)@loop with u >= 2")
        return cls.of(match["name"], match["loop"],
                      int(match["factor"] or 1))


def fingerprint(plan: Optional[Sequence[LoopDirective]]) -> str:
    """The one serialisation of a resolved plan for keys.

    Folded into the cell-cache key of every ``tuned`` / ``predicted`` /
    explicit-plan cell, so editing, deleting or staling the decisions a
    cell was compiled from orphans it.  ``None`` — the heuristic fallback
    — is ``fallback`` whatever the reason no plan was available.
    """
    if plan is None:
        return "fallback"
    return json.dumps([dataclasses.asdict(d) for d in plan], sort_keys=True)
