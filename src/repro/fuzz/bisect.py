"""Pass-prefix bisection: name the pass application that first diverges.

The oracle says *that* a configuration miscompiles; this module says
*where*.  It runs the real pipeline
(:func:`repro.transforms.pipeline.build_pipeline`) with every leaf pass —
top level and inside the ``cleanup`` fixpoint — replaced by a stand-in that
runs the pass and then verifies the IR and re-interprets the module against
the unoptimized reference.  Stage order, shared pass instances, the
fixpoint's skip logic and its iteration bound are the pipeline's own, so the
application sequence checked is the one a plain compile executes; the first
application whose output diverges is the culprit, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional

from ..ir.verifier import VerificationError, verify_module
from ..obs import session as obs
from ..transforms.pipeline import build_pipeline
from .oracle import (BARE_MAX_INSTRUCTIONS, LANES, ConfigSpec, Subject,
                     compare, execute)


@dataclass
class BisectResult:
    """The first diverging pass application of a pipeline replay."""

    culprit: str                 # pass name
    step: int                    # 1-based index into the application trail
    kind: str                    # mismatch | verifier | crash
    detail: str
    trail: List[str] = field(default_factory=list)
    #: Optimization remarks the culprit application emitted (JSON dicts,
    #: :meth:`repro.obs.Remark.to_json` shape) — what the pass *thought*
    #: it did when it broke the module.
    remarks: List[Dict] = field(default_factory=list)

    def describe(self) -> str:
        text = (f"step {self.step}/{len(self.trail)} ({self.culprit}): "
                f"{self.kind} — {self.detail}")
        for remark in self.remarks:
            text += f"\n      remark: {remark.get('message', '?')}"
        return text


class _Diverged(Exception):
    """Carries the verdict out through the pass managers."""


def bisect_divergence(subject: Subject, spec: ConfigSpec,
                      lanes: int = LANES,
                      max_instructions: int = BARE_MAX_INSTRUCTIONS
                      ) -> Optional[BisectResult]:
    """Run ``spec``'s pipeline on ``subject``, checking after each pass.

    Returns None when the full pipeline completes without diverging from
    the unoptimized reference (i.e. the failure did not reproduce).
    """
    reference = execute(subject.build(), lanes)
    module = subject.build()
    trail: List[str] = []

    def check() -> Optional["tuple[str, str]"]:
        try:
            verify_module(module)
        except VerificationError as exc:
            return "verifier", str(exc)
        try:
            outputs = execute(module, lanes)
        except Exception as exc:  # noqa: BLE001
            return "crash", f"{type(exc).__name__}: {exc}"
        detail = compare(reference, outputs)
        return None if detail is None else ("mismatch", detail)

    def checked(pass_, in_fixpoint: bool) -> SimpleNamespace:
        """Stand-in for one leaf pass: same name, same return value."""
        def run(func) -> bool:
            trail.append(pass_.name)
            # Each application runs under a throwaway obs session so a
            # guilty verdict carries the remarks the culprit emitted —
            # independent of (and invisible to) any outer session.
            with obs.capture() as captured:
                try:
                    changed = pass_.run(func)
                    verdict = None
                except Exception as exc:  # noqa: BLE001
                    verdict = "crash", f"{type(exc).__name__}: {exc}"
            # The fixpoint's "no change" means bit-identical IR: nothing
            # to re-check.
            if verdict is None and (changed or not in_fixpoint):
                verdict = check()
            if verdict is not None:
                raise _Diverged(BisectResult(
                    pass_.name, len(trail), *verdict, list(trail),
                    [r.to_json() for r in captured.remarks]))
            return changed
        return SimpleNamespace(name=pass_.name, run=run)

    pipeline = build_pipeline(spec.config, loop_id=spec.loop_id,
                              factor=spec.factor,
                              max_instructions=max_instructions,
                              plan=spec.plan)
    cleanup = next(p for p in pipeline.passes if p.name == "cleanup")
    for manager in (pipeline, cleanup.manager):
        manager.passes[:] = [
            p if p is cleanup else checked(p, manager is cleanup.manager)
            for p in manager.passes]
    try:
        pipeline.run(module)
    except _Diverged as found:
        return found.args[0]
    return None
