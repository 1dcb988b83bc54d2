"""Structured optimization remarks.

A :class:`Remark` is the unit of optimizer telemetry: one typed record per
transform decision, in the spirit of LLVM's ``-Rpass`` /
``--pass-remarks-output`` machinery.  Three kinds exist:

``applied``
    A transform fired.  Carries the inputs that justified it (for u&u:
    the heuristic triple ``(p, s, u')`` and the predicted unmerged cost).
``missed``
    A transform considered a candidate and declined.  Carries the skip
    reason verbatim (``"divergent branch"``, ``f(p,s,2) >= c``, ...).
``analysis``
    A fact worth surfacing that is neither: per-pass elimination counts,
    unmerge budget exhaustion, and similar.

Remarks serialize to JSON Lines — one object per line — so streams from
parallel workers concatenate trivially and ``repro remarks`` can re-read
them without a framing parser.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: The closed set of remark kinds; :func:`Remark.validate` rejects others.
KINDS = ("applied", "missed", "analysis")


@dataclasses.dataclass
class Remark:
    """One optimizer decision, serializable through JSONL."""

    kind: str                     # one of KINDS
    pass_name: str                # emitting pass ("uu", "gvn", "dce", ...)
    function: str                 # kernel/function name
    message: str                  # human-oriented one-liner
    loop_id: Optional[str] = None  # "func:idx" when loop-scoped
    #: Pass-specific payload: heuristic inputs, elimination counts, ...
    args: Dict[str, object] = dataclasses.field(default_factory=dict)
    #: Harness-stamped provenance: app, config, sweep loop_id/factor.
    context: Dict[str, object] = dataclasses.field(default_factory=dict)

    def validate(self) -> "Remark":
        if self.kind not in KINDS:
            raise ValueError(f"unknown remark kind {self.kind!r}")
        return self

    def to_json(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "kind": self.kind,
            "pass": self.pass_name,
            "function": self.function,
            "message": self.message,
        }
        if self.loop_id is not None:
            data["loop_id"] = self.loop_id
        if self.args:
            data["args"] = self.args
        if self.context:
            data["context"] = self.context
        return data

    @staticmethod
    def from_json(data: Dict[str, object]) -> "Remark":
        return Remark(
            kind=data["kind"],
            pass_name=data["pass"],
            function=data["function"],
            message=data["message"],
            loop_id=data.get("loop_id"),
            args=dict(data.get("args", {})),
            context=dict(data.get("context", {})),
        ).validate()


# -- JSONL stream ------------------------------------------------------------

def write_jsonl(remarks: Iterable[Remark], path) -> int:
    """Write one JSON object per line; returns the number written."""
    count = 0
    with Path(path).open("w") as fh:
        for remark in remarks:
            fh.write(json.dumps(remark.to_json(), sort_keys=True))
            fh.write("\n")
            count += 1
    return count


def read_jsonl(path) -> List[Remark]:
    remarks = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                remarks.append(Remark.from_json(json.loads(line)))
    return remarks


# -- rendering ---------------------------------------------------------------

_KIND_TAGS = {"applied": "applied", "missed": "missed ", "analysis": "note   "}


def render_remark(remark: Remark) -> str:
    """One-line human rendering, stable enough to grep."""
    tag = _KIND_TAGS.get(remark.kind, remark.kind)
    where = remark.loop_id or remark.function
    line = f"[{tag}] {remark.pass_name:<12} {where:<24} {remark.message}"
    if remark.args:
        detail = " ".join(f"{k}={remark.args[k]}"
                          for k in sorted(remark.args))
        line += f"  ({detail})"
    return line


# -- decision-log bridging ---------------------------------------------------

def decision_remarks(decisions: Sequence, function: Optional[str] = None,
                     pass_name: str = "uu") -> List[Remark]:
    """The single rendering of ``LoopDecision`` rows as remarks.

    The transform stage's remark emission (every configuration),
    ``run-heuristic --report`` and the service's IR-less results all go
    through here, so the views cannot drift apart (they are the same
    objects).  ``decisions`` is duck-typed over the ``LoopDecision`` fields
    (loop_id, paths, size, factor, reason, applied) to avoid importing
    ``repro.transforms``; ``pass_name`` is what the stage reported under
    (the heuristic's rows have always said ``uu``).
    """
    # Function-level: obs stays import-light so transforms can depend on
    # it without a cycle.
    from ..analysis.paths import estimate_unmerged_size

    remarks = []
    for d in decisions:
        args = {"p": d.paths, "s": d.size}
        if d.factor is None:
            kind, message = "missed", d.reason
        else:
            args["u_prime"] = d.factor
            # A plan's row says its directive's kind; the heuristic's
            # rows (any other reason) are always u&u.
            what = (d.reason if d.reason in ("unroll", "unmerge")
                    else "unroll-and-unmerge")
            if d.applied is False:
                kind = "missed"
                message = (f"{what} with u'={d.factor} selected but not "
                           "applied (loop vanished after relayout or "
                           "transform declined)")
            else:
                kind = "applied"
                message = f"{what} with u'={d.factor}"
                if d.reason != "unroll":
                    args["cost"] = estimate_unmerged_size(d.paths, d.size,
                                                          d.factor)
        remarks.append(Remark(
            kind=kind, pass_name=pass_name,
            function=function or str(d.loop_id).split(":", 1)[0],
            loop_id=d.loop_id, message=message, args=args))
    return remarks
