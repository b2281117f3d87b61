#!/usr/bin/env python3
"""Cycling Through 3 Values (Figure 13): p21.

The Hacker's Delight implementation avoids branches with bit tricks,
which production compilers transcribe literally. STOKE's search — and
this reproduction's — can instead rediscover conditional moves. This
example runs the optimization phase on the O0 compilation and checks
the verified rewrite with the validator, then shows the paper's point:
the cmov version is far cheaper than the literal translation.

Run:  python examples/hackers_delight_p21.py
"""

from repro import (SearchConfig, Session, Target, actual_runtime,
                   parse_program, program_latency)
from repro.suite import benchmark

#: The paper's Figure 13 rewrite (cmov-based), for comparison.
PAPER_REWRITE = """
cmpl edi, ecx
cmovel esi, ecx
xorl edi, esi
cmovel edx, ecx
movq rcx, rax
"""


def main() -> None:
    bench = benchmark("p21")
    target = bench.o0
    gcc = bench.gcc
    print(f"llvm -O0: {target.instruction_count} instructions, "
          f"H={program_latency(target)}, "
          f"{actual_runtime(target)} cycles")
    print(f"gcc -O3 (literal bit-trick translation): "
          f"{gcc.instruction_count} instructions, "
          f"{actual_runtime(gcc)} cycles")

    paper = parse_program(PAPER_REWRITE)
    print(f"paper's cmov rewrite: {paper.instruction_count} "
          f"instructions, {actual_runtime(paper)} cycles")

    config = SearchConfig(ell=52, beta=1.0,
                          seed=3, optimization_proposals=160_000,
                          optimization_restarts=16, testcase_count=16)
    print("\nsearching from the O0 target (a couple of minutes; "
          "p21 is one of the larger kernels)...")
    result = Session(Target.from_suite("p21"), config=config).run()
    rewrite = result.stoke.rewrite
    if rewrite is not None and result.speedup > 1.0:
        print(f"verified rewrite ({rewrite.instruction_count} "
              f"instructions, {result.rewrite_cycles} cycles, "
              f"{result.speedup:.2f}x over -O0):")
        print(rewrite)
    else:
        print("search returned only the target at this budget — the "
              "paper spent 30 cluster-minutes here; raise "
              "optimization_proposals to keep peeling stack traffic.")


if __name__ == "__main__":
    main()
