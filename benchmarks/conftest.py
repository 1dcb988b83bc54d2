"""Shared fixtures for the exhibit-regeneration benchmarks.

One :class:`ExperimentRunner` is shared across the whole session so each
(app, config, loop, factor) cell is compiled and simulated exactly once no
matter how many exhibits consume it; cells persist in the cache under
``results/.cellcache/`` so later sessions reuse them (``REPRO_JOBS`` and
``REPRO_CACHE_DIR`` override worker count and location).  Text artifacts
are written to ``results/`` next to the repository root.
"""

import pathlib

import pytest

from repro.bench import all_benchmarks
from repro.harness import CellCache, ExperimentRunner
from repro.harness.experiment import resolve_jobs
from repro.transforms.pass_manager import COMPILE_TIMEOUT
from repro.transforms.unmerge import MAX_INSTRUCTIONS

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def runner():
    return ExperimentRunner(max_instructions=MAX_INSTRUCTIONS,
                            compile_timeout=COMPILE_TIMEOUT,
                            jobs=resolve_jobs(), cache=CellCache())


@pytest.fixture(scope="session")
def benches():
    return all_benchmarks()


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_artifact(results_dir: pathlib.Path, name: str, text: str) -> None:
    (results_dir / name).write_text(text + "\n")
