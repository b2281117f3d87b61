"""Performance model tests (the Figure 3 'actual runtime' oracle)."""

from repro.perfsim.model import actual_runtime, simulate_cycles
from repro.suite.registry import all_benchmarks
from repro.x86.latency import program_latency
from repro.x86.parser import parse_program


def test_dependent_chain_costs_latency_sum():
    chain = parse_program("""
        addq rsi, rax
        addq rax, rbx
        addq rbx, rcx
        addq rcx, rdx
    """)
    result = simulate_cycles(chain)
    assert result.cycles == result.latency_sum == 4
    assert result.ilp == 1.0


def test_independent_instructions_overlap():
    parallel = parse_program("""
        addq rsi, rax
        addq rdi, rbx
        addq r8, rcx
        addq r9, rdx
    """)
    result = simulate_cycles(parallel)
    assert result.latency_sum == 4
    assert result.cycles == 1           # all issue in one cycle
    assert result.ilp == 4.0


def test_issue_width_limits_overlap():
    five_wide = parse_program("""
        addq rsi, rax
        addq rdi, rbx
        addq r8, rcx
        addq r9, rdx
        addq r10, r11
    """)
    assert simulate_cycles(five_wide).cycles == 2    # ISSUE_WIDTH = 4


def test_mul_port_contention():
    muls = parse_program("""
        imulq rsi, rax
        imulq rdi, rbx
    """)
    result = simulate_cycles(muls)
    assert result.cycles > 3            # one mul port serializes starts


def test_flag_dependences_tracked():
    flags = parse_program("""
        addq rsi, rax
        adcq 0, rdx
    """)
    assert simulate_cycles(flags).cycles == 2


def test_memory_dependences_tracked():
    through_memory = parse_program("""
        movq rdi, -8(rsp)
        movq -8(rsp), rax
    """)
    result = simulate_cycles(through_memory)
    store_latency = 1 + 2
    load_latency = 1 + 3
    assert result.cycles == store_latency + load_latency


def test_unused_and_jumps_cost_nothing():
    prog = parse_program("jae .L1\n.L1\nmovq rdi, rax").padded(10)
    assert actual_runtime(prog) == 1


def test_cycles_never_exceed_latency_sum():
    for text in (
        "movq rdi, rax\naddq rsi, rax",
        "imulq rsi, rax\nimulq rax, rbx",
        "popcntq rsi, rax\npopcntq rdi, rbx",
    ):
        prog = parse_program(text)
        result = simulate_cycles(prog)
        assert result.cycles <= result.latency_sum
        assert result.latency_sum == program_latency(prog)


#: Modeled cycles of every suite kernel's o0, gcc and icc programs, and
#: of the paper's printed rewrites (mont, list), as the model computed
#: them when flag effects were still tabulated per opcode. Deriving the
#: effects from the shared semantics must not move any of them.
SUITE_CYCLES = {
    "p01": (24, 4, 4), "p02": (24, 4, 4), "p03": (23, 4, 4),
    "p04": (24, 4, 4), "p05": (24, 4, 4), "p06": (24, 4, 4),
    "p07": (32, 5, 5), "p08": (32, 5, 5), "p09": (32, 6, 6),
    "p10": (34, 6, 6), "p11": (34, 7, 7), "p12": (43, 9, 9),
    "p13": (41, 6, 6), "p14": (41, 6, 6), "p15": (41, 6, 6),
    "p16": (50, 8, 8), "p17": (41, 8, 8), "p18": (54, 9, 9),
    "p19": (57, 10, 10), "p20": (87, 35, 35), "p21": (94, 14, 14),
    "p22": (101, 18, 18), "p23": (114, 22, 22), "p24": (110, 20, 20),
    "p25": (152, 20, 20), "mont": (116, 15, 20), "saxpy": (206, 50, 50),
    "list": (17, 10, 10),
}
PAPER_REWRITE_CYCLES = {"mont": 10, "list": 17}


def test_suite_cycles_are_pinned():
    benches = {b.name: b for b in all_benchmarks()}
    assert set(benches) == set(SUITE_CYCLES)
    for name, bench in benches.items():
        cycles = tuple(actual_runtime(prog.compact()) for prog in
                       (bench.o0, bench.gcc, bench.icc))
        assert cycles == SUITE_CYCLES[name], name
        if bench.paper_stoke is not None:
            assert actual_runtime(bench.paper_stoke.compact()) == \
                PAPER_REWRITE_CYCLES[name], name
    assert {b.name for b in benches.values()
            if b.paper_stoke is not None} == set(PAPER_REWRITE_CYCLES)
