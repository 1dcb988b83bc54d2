#!/usr/bin/env python3
"""The repo's performance benchmark (README.md here explains it).

One run, in this process - what the benchmark driver invokes:

    run.py --workload W --seed N --seconds S --trace 0|1 [--quick]

A result set - every workload (or ``--workload W``), ``--repeats`` fresh
processes each, plus one traced run each with ``--trace``:

    run.py [--workload W] [--repeats K] [--trace] [--quick] [--out SET.json]

Tools on result sets and the exact-count ledger:

    run.py --compare A.json B.json
    run.py --check-determinism [--quick] [--out COUNTS.json]
"""

from __future__ import annotations

import argparse
import sys
import time

#: When this process got here: a round's set-up time counts from it, so
#: that the imports are in ``setup_s``.
ENTERED = time.perf_counter()


def main(argv=None) -> int:
    from perfbench.spec import DEFAULT_SEED, load_spec, workload_names

    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    workloads = workload_names(spec)
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run (default: "
                        f"{spec['run_seconds']}, or 1 with --quick)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="1/10-size workloads, one round each")
    parser.add_argument("--repeats", type=int, default=None)
    # One round of a single run, in the fresh process the run started for it.
    parser.add_argument("--round", choices=("plain", "verify"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--out", metavar="PATH")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--check-determinism", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(spec["run_seconds"])

    if args.compare:
        from perfbench.compare import main as compare
        return compare(*args.compare)

    from perfbench.env import require_program
    require_program()
    if args.round:
        from perfbench.single import round_main
        return round_main(args.workload, args.seed, args.quick,
                          args.round == "verify", ENTERED)
    if args.workload and args.repeats is None and not args.check_determinism:
        from perfbench.single import run_single
        return run_single(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.quick)

    from perfbench import multi
    names = [args.workload] if args.workload else workloads
    if args.check_determinism:
        counts, status = multi.check_determinism(names, args.seed, args.quick)
        multi.write_json(args.out, counts)
        return status
    repeats = args.repeats if args.repeats is not None else 3
    if repeats < 1:
        parser.error("--repeats must be at least 1")
    result_set = multi.run_set(names, args.seed, args.seconds, repeats,
                               bool(args.trace), args.quick)
    multi.print_set(result_set)
    multi.write_json(args.out, result_set)
    return 1 if any(w["failed"] for w in
                    result_set["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
