"""One-off check that a change to the transform stage moved no output.

For every non-baseline cell of ``sweep_specs(bench, factors=(2, 4, 8))``
over the 16 apps, plus each app's ``tuned`` replay (the multi-directive
path; decisions read from ``results/tuned/``), run the real pipeline's own
prefix — ``build_pipeline(...).passes`` up to, not including, the pass named
``cleanup`` — at the growth cap every app is compiled under
(``repro.transforms.unmerge.MAX_INSTRUCTIONS``) and record the sha256 of
``print_module`` plus the module's instruction count.  ``--full`` hashes
the module after the *whole* ``compile_module`` at the same cap
instead and adds code size and ``timed_out`` — the check for a change to an
analysis or a cleanup / late-stage pass, which the prefix never runs.  Not a
test and not part of tier-1: run it once on each of two checkouts and
compare the files.

    PYTHONPATH=<parent>/src python3 benchmarks/transform_identity.py [--full] --out A.json
    PYTHONPATH=src          python3 benchmarks/transform_identity.py [--full] --out B.json --compare A.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from repro.bench import all_benchmarks
from repro.harness.parallel import sweep_specs
from repro.ir.printer import print_module
from repro.transforms.pipeline import build_pipeline, compile_module
from repro.transforms.unmerge import MAX_INSTRUCTIONS
from repro.tune.store import resolve_decisions


def transformed_module(bench, config, loop_id, factor, plan=None):
    """The module as it enters the cleanup battery."""
    module = bench.build_module()
    pipeline = build_pipeline(config, loop_id=loop_id, factor=factor,
                              max_instructions=MAX_INSTRUCTIONS, plan=plan)
    names = [p.name for p in pipeline.passes]
    del pipeline.passes[names.index("cleanup"):]
    pipeline.run(module)
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--full", action="store_true",
                        help="hash the output of the whole pipeline")
    parser.add_argument("--compare", help="an earlier --out file")
    args = parser.parse_args(argv)

    cells = {}
    seconds = 0.0
    for bench in all_benchmarks():
        for spec in (sweep_specs(bench, factors=(2, 4, 8))
                     + sweep_specs(bench, configs=("tuned",))):
            if spec.config == "baseline":
                continue
            plan = (resolve_decisions(bench.name)[0]
                    if spec.config == "tuned" else None)
            extra = []
            start = time.perf_counter()
            if args.full:
                result = compile_module(
                    bench.build_module(), spec.config, loop_id=spec.loop_id,
                    factor=spec.factor, max_instructions=MAX_INSTRUCTIONS,
                    plan=plan)
                module = result.module
                extra = [result.code_size, result.timed_out]
            else:
                module = transformed_module(bench, spec.config, spec.loop_id,
                                            spec.factor, plan)
            seconds += time.perf_counter() - start
            digest = hashlib.sha256(print_module(module).encode()).hexdigest()
            key = f"{spec.app}/{spec.config}/{spec.loop_id}/{spec.factor}"
            cells[key] = [digest, module.instruction_count(), *extra]
    with open(args.out, "w") as fh:
        json.dump(cells, fh, indent=0, sort_keys=True)
    stage = "whole pipeline" if args.full else "transform stage"
    print(f"{len(cells)} cells, {stage} {seconds:.1f} s")

    if args.compare:
        with open(args.compare) as fh:
            other = json.load(fh)
        differing = sorted(k for k in cells.keys() | other.keys()
                           if cells.get(k) != other.get(k))
        print(f"{len(differing)} of {len(cells)} cells differ")
        for key in differing:
            print(" ", key, other.get(key), "->", cells.get(key))
        return 1 if differing else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
