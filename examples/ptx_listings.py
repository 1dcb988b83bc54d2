"""Reproduce the paper's Listings 4 and 5: PTX before and after u&u.

Compiles the XSBench binary-search kernel under the baseline pipeline and
under unroll-and-unmerge, lowers both to PTX-style assembly, and prints
them side by side with the instruction-mix statistics the paper discusses
(selp pairs in the baseline, predicated branches and the eliminated
subtraction after u&u).

Run:  python examples/ptx_listings.py
"""

from repro.bench import benchmark_by_name
from repro.codegen import lower_function, render
from repro.transforms import compile_module
from repro.transforms.unmerge import MAX_INSTRUCTIONS


def build(config, **kw):
    bench = benchmark_by_name("XSBench")
    module = bench.build_module()
    compile_module(module, config, max_instructions=MAX_INSTRUCTIONS, **kw)
    return lower_function(module.get_function("grid_search"))


def main():
    base = build("baseline")
    uu = build("uu", loop_id="grid_search:0", factor=2)

    print("=" * 72)
    print("Listing-4 analogue — baseline PTX (predicated selp form):")
    print("=" * 72)
    print(render(base))
    print()
    print("=" * 72)
    print("Listing-5 analogue — after u&u, factor 2 (branches replace selp,")
    print("subtraction eliminated on the taken path):")
    print("=" * 72)
    print(render(uu))
    print()

    print(f"{'mnemonic':<10} {'baseline':>10} {'u&u(2)':>10}   (counts)")
    print("-" * 44)
    for mnemonic in ("selp", "setp", "sub", "bra", "mov", "ld", "st"):
        print(f"{mnemonic:<10} {base.count_opcode(mnemonic):>10} "
              f"{uu.count_opcode(mnemonic):>10}")
    print()
    b_total, u_total = base.instruction_count(), uu.instruction_count()
    print(f"total      {b_total:>10} {u_total:>10}")
    print()
    print("Per the paper's Section V: the baseline's selp pairs become")
    print("conditionally executed jumps, and `upperLimit - lowerLimit` is")
    print("replaced by the already-computed `length/2` on the taken path.")


if __name__ == "__main__":
    main()
