"""Pass-prefix bisection: name the pass application that first diverges.

The oracle says *that* a configuration miscompiles; this module says
*where*.  It mirrors :func:`repro.transforms.pipeline.build_pipeline`
stage by stage — the early SimplifyCFG, the configuration's transform, the
fixpoint cleanup battery (replicating
:class:`~repro.transforms.pass_manager.FixpointPassManager`'s
version-based skip logic exactly, so the pass application sequence is the
one the real pipeline executes), then the late passes — and after every
application verifies the IR and re-interprets the module against the
unoptimized reference.  The first application whose output diverges is the
culprit.

Because every pass is a deterministic function of the IR, this replay
produces exactly the IR states the monolithic pipeline went through; the
bisection is exact, not probabilistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..ir.verifier import VerificationError, verify_module
from ..obs import session as obs
from ..transforms.pipeline import cleanup_passes, late_passes, transform_passes
from ..transforms.simplifycfg import SimplifyCFG
from .oracle import (LANES, MAX_INSTRUCTIONS, ConfigSpec, Subject, compare,
                     execute)

#: Mirrors FixpointPassManager's default iteration bound.
_FIXPOINT_MAX_ITERATIONS = 8


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


def bisect_divergence(subject: Subject, spec: ConfigSpec,
                      lanes: int = LANES,
                      max_instructions: int = MAX_INSTRUCTIONS
                      ) -> Optional[BisectResult]:
    """Replay ``spec``'s pipeline on ``subject``, checking after each pass.

    Returns None when the full pipeline completes without diverging from
    the unoptimized reference (i.e. the failure did not reproduce).
    """
    reference = execute(subject.build(), lanes)
    module = subject.build()
    trail: List[str] = []

    def check(name: str) -> Optional[BisectResult]:
        try:
            verify_module(module)
        except VerificationError as exc:
            return BisectResult(name, len(trail), "verifier", str(exc),
                                list(trail))
        try:
            outputs = execute(module, lanes)
        except Exception as exc:  # noqa: BLE001
            return BisectResult(name, len(trail), "crash",
                                f"{type(exc).__name__}: {exc}", list(trail))
        detail = compare(reference, outputs)
        if detail is not None:
            return BisectResult(name, len(trail), "mismatch", detail,
                                list(trail))
        return None

    def apply_and_check(pass_, func) -> Optional[BisectResult]:
        # Each application runs under a throwaway obs session so a guilty
        # verdict carries the remarks the culprit emitted — independent of
        # (and invisible to) any outer REPRO_TRACE session.
        with obs.capture() as captured:
            try:
                pass_.run(func)
            except Exception as exc:  # noqa: BLE001
                trail.append(pass_.name)
                return BisectResult(
                    pass_.name, len(trail), "crash",
                    f"{type(exc).__name__}: {exc}", list(trail),
                    remarks=[r.to_json() for r in captured.remarks])
        trail.append(pass_.name)
        result = check(pass_.name)
        if result is not None:
            result.remarks = [r.to_json() for r in captured.remarks]
        return result

    # Pass instances are shared across functions, as in the real pipeline.
    head = [SimplifyCFG()] + transform_passes(
        spec.config, loop_id=spec.loop_id, factor=spec.factor,
        max_instructions=max_instructions, plan=spec.plan)
    cleanup = cleanup_passes()
    late = late_passes()

    for func in module.functions.values():
        for pass_ in head:
            result = apply_and_check(pass_, func)
            if result is not None:
                return result

        # Fixpoint cleanup with FixpointPassManager's skip logic: a pass
        # that reported no change is skipped until another pass mutates
        # the function (tracked by a version counter).
        version = 0
        clean_at: Dict[int, int] = {}
        for _ in range(_FIXPOINT_MAX_ITERATIONS):
            iteration_changed = False
            for index, pass_ in enumerate(cleanup):
                if clean_at.get(index) == version:
                    continue
                with obs.capture() as captured:
                    try:
                        changed = pass_.run(func)
                    except Exception as exc:  # noqa: BLE001
                        trail.append(pass_.name)
                        return BisectResult(
                            pass_.name, len(trail), "crash",
                            f"{type(exc).__name__}: {exc}", list(trail),
                            remarks=[r.to_json()
                                     for r in captured.remarks])
                trail.append(pass_.name)
                if changed:
                    version += 1
                    clean_at.pop(index, None)
                    iteration_changed = True
                    result = check(pass_.name)
                    if result is not None:
                        result.remarks = [r.to_json()
                                          for r in captured.remarks]
                        return result
                else:
                    # No change means bit-identical IR: nothing to re-check.
                    clean_at[index] = version
            if not iteration_changed:
                break

        for pass_ in late:
            result = apply_and_check(pass_, func)
            if result is not None:
                return result
    return None
