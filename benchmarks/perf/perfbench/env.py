"""Hermetic environment and provenance of one run."""

from __future__ import annotations

import os
import platform
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator

from .spec import REPO_ROOT, SRC_DIR, WORK_ROOT

#: The program's own store locations, re-pointed at the run's scratch
#: directory so a run never reads or writes ``results/``.
_STORE_DIRS = {
    "REPRO_CACHE_DIR": "cellcache",
    "REPRO_REGION_CACHE_DIR": "regioncache",
    "REPRO_SIMINDEX_DIR": "simindex",
}


def require_program() -> None:
    """Make ``import repro`` resolve to this checkout, or exit non-zero."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perf bench: {SRC_DIR / 'repro'} not found - the benchmark "
            "measures the program in this checkout and has nothing to run\n")
        raise SystemExit(2)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


@contextmanager
def hermetic(tag: str) -> Iterator[Path]:
    """Scrub every ``REPRO_*`` variable and give the run a scratch dir.

    The program's defaults (engine, fusion, region cache, job count) are
    what gets measured, whatever the caller's shell exported.  Child
    processes inherit the scrubbed environment plus ``PYTHONPATH``.
    """
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    work = WORK_ROOT / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    fresh_stores(work, "stores")
    os.environ["PYTHONPATH"] = str(SRC_DIR)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def fresh_stores(work: Path, label: str) -> Path:
    """Point the program's stores at a new empty directory under ``work``."""
    root = work / label
    shutil.rmtree(root, ignore_errors=True)
    for name, sub in _STORE_DIRS.items():
        os.environ[name] = str(root / sub)
    return root


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(seed: int) -> Dict[str, object]:
    """Where a number came from; stamped on every output."""
    import numpy

    from repro.gpu.machine import resolve_engine
    from repro.gpu.timing import TIMING_MODEL_VERSION
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "timing_model": str(TIMING_MODEL_VERSION),
        "default_engine": resolve_engine(None),
        "seed": seed,
    }
