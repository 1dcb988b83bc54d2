"""Persisted tuned configurations: ``results/tuned/<bench>.json``.

One file per benchmark holds the per-loop decisions the empirical search
settled on, the measurements that justify them, and enough provenance to
detect staleness:

* :data:`TUNE_SCHEMA_VERSION` — the file layout.  Bumped when the stored
  shape changes; mismatched files are reported stale and re-tuned rather
  than silently applied.
* :data:`repro.gpu.timing.TIMING_MODEL_VERSION` — the simulator's timing
  model.  A tuning is a claim about *measured cycles*; change the timing
  model and every persisted winner is unsubstantiated, so the file
  self-invalidates.

Files are written as canonical JSON (sorted keys, fixed indentation, no
timestamps), so a fixed seed produces **byte-identical** files across
``-j1``/``-jN`` and across cold versus cache-warm runs — the determinism
contract ``tests/test_tune.py`` pins.

This module is deliberately import-light (stdlib, the timing tag and
:mod:`repro.directive`): the harness loads tuned decisions from inside
:class:`~repro.harness.experiment.ExperimentRunner` without risking
import cycles.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..directive import LoopDirective
from ..gpu.timing import TIMING_MODEL_VERSION

#: Bump when the on-disk tuned-config layout changes; stale files are
#: treated as absent (the pipeline falls back to the static heuristic with
#: a warning) and ``repro tune`` re-runs the search.
TUNE_SCHEMA_VERSION = 1

#: Environment override for the tuned-config directory.
TUNED_DIR_ENV = "REPRO_TUNED_DIR"


def default_tuned_dir() -> Path:
    """``results/tuned`` at the repository root (env-overridable)."""
    env = os.environ.get(TUNED_DIR_ENV)
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "results" / "tuned"


@dataclasses.dataclass
class TunedConfig:
    """Everything ``results/tuned/<bench>.json`` records."""

    app: str
    decisions: List[LoopDirective]
    #: Which combined candidate won: ``per_loop``, ``heuristic:c=<c>``, or
    #: ``baseline`` (the search found no improving transform).
    source: str
    baseline_cycles: float
    heuristic_cycles: float
    tuned_cycles: float
    #: The differential oracle confirmed the winning config preserves the
    #: benchmark's observable semantics.  Unverified configs are never
    #: persisted, so this is True in every file ``save_tuned`` writes.
    verified: bool = True
    #: Per-candidate audit trail of the search (see ``repro tune show``):
    #: dicts with loop_id/factor/unmerge/round/scale/cycles/status.
    trials: List[Dict] = dataclasses.field(default_factory=list)

    @property
    def speedup_over_heuristic(self) -> float:
        if self.tuned_cycles <= 0:
            return 1.0
        return self.heuristic_cycles / self.tuned_cycles

    @property
    def speedup_over_baseline(self) -> float:
        if self.tuned_cycles <= 0:
            return 1.0
        return self.baseline_cycles / self.tuned_cycles


def tuned_path(app: str, root: Optional[Path] = None) -> Path:
    root = Path(root) if root is not None else default_tuned_dir()
    return root / f"{app}.json"


def _to_json(config: TunedConfig) -> Dict:
    return {
        "schema": TUNE_SCHEMA_VERSION,
        "timing": TIMING_MODEL_VERSION,
        "app": config.app,
        "source": config.source,
        "baseline_cycles": config.baseline_cycles,
        "heuristic_cycles": config.heuristic_cycles,
        "tuned_cycles": config.tuned_cycles,
        "verified": config.verified,
        "decisions": [dataclasses.asdict(d) for d in config.decisions],
        "trials": config.trials,
    }


def save_tuned(config: TunedConfig, root: Optional[Path] = None) -> Path:
    """Write canonical JSON (atomic replace); returns the path."""
    path = tuned_path(config.app, root)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_to_json(config), sort_keys=True, indent=2) + "\n"
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)
    return path


def load_tuned(app: str, root: Optional[Path] = None
               ) -> Tuple[Optional[TunedConfig], str]:
    """``(config, "ok")`` or ``(None, reason)``.

    Reasons: ``missing``, ``corrupt``, ``stale-schema``, ``stale-timing``,
    ``unverified``.  Stale or unreadable files are *reported*, never
    silently applied — the caller decides between falling back to the
    static heuristic and re-running the search.
    """
    path = tuned_path(app, root)
    try:
        raw = path.read_text()
    except OSError:
        return None, "missing"
    try:
        data = json.loads(raw)
        schema = data.get("schema")
        timing = data.get("timing")
        if schema != TUNE_SCHEMA_VERSION:
            return None, (f"stale-schema (file v{schema}, "
                          f"current v{TUNE_SCHEMA_VERSION})")
        if timing != TIMING_MODEL_VERSION:
            return None, (f"stale-timing (file {timing!r}, "
                          f"current {TIMING_MODEL_VERSION!r})")
        if not data.get("verified"):
            return None, "unverified"
        config = TunedConfig(
            app=data["app"],
            decisions=[LoopDirective(**d) for d in data["decisions"]],
            source=data["source"],
            baseline_cycles=float(data["baseline_cycles"]),
            heuristic_cycles=float(data["heuristic_cycles"]),
            tuned_cycles=float(data["tuned_cycles"]),
            verified=bool(data["verified"]),
            trials=list(data.get("trials", ())),
        )
    except Exception:
        return None, "corrupt"
    return config, "ok"


def resolve_decisions(app: str, root: Optional[Path] = None
                      ) -> Tuple[Optional[List[LoopDirective]], str]:
    """The plan to compile ``config == "tuned"`` with, or None.

    ``None`` means "fall back to the static heuristic"; the second element
    carries the reason for the caller's warning.
    """
    config, reason = load_tuned(app, root)
    if config is None:
        return None, reason
    return config.decisions, "ok"
