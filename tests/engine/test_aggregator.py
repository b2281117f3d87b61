"""Aggregator tests: dedup, testcase merging, and ranking floor."""

from repro.engine import aggregator
from repro.engine.jobs import JobResult, OPTIMIZATION
from repro.search.config import SearchConfig
from repro.suite.registry import benchmark
from repro.testgen.generator import TestcaseGenerator
from repro.x86.parser import parse_program


def _result(job_id, verified=(), new_testcases=()):
    return JobResult(job_id=job_id, kind=OPTIMIZATION,
                     verified=list(verified),
                     new_testcases=list(new_testcases))


def test_dedup_programs_keeps_first_of_equal_compactions():
    a = parse_program("movq rdi, rax")
    a_padded = a.padded(8)                   # same program, padded
    b = parse_program("movq rsi, rax")
    unique = aggregator.dedup_programs([a, a_padded, b, a])
    assert unique == [a, b]


def test_synthesis_starts_always_lead_with_target():
    target = parse_program("movq rdi, rax\naddq rsi, rax")
    synth = parse_program("movq rsi, rax\naddq rdi, rax")
    results = [_result("synth-000", verified=[synth, target]),
               _result("synth-001", verified=[synth])]
    starts = aggregator.synthesis_starts(target, results)
    assert starts == [target, synth]


def test_merge_testcases_dedups_counterexamples():
    bench = benchmark("p01")
    generator = TestcaseGenerator(bench.o0, bench.spec,
                                  bench.annotations, seed=0)
    base = generator.generate(4)
    extra = generator.generate(2)
    results = [_result("opt-a", new_testcases=[extra[0], base[0]]),
               _result("opt-b", new_testcases=[extra[0], extra[1]])]
    merged = aggregator.merge_testcases(base, results)
    assert merged == base + [extra[0], extra[1]]


def test_final_ranking_admits_the_target():
    """With no verified rewrites at all, the target still ranks."""
    bench = benchmark("p01")
    generator = TestcaseGenerator(bench.o0, bench.spec,
                                  bench.annotations, seed=0)
    base = generator.generate(4)
    config = SearchConfig(ell=12)
    ranked = aggregator.final_ranking(bench.o0, config, base,
                                      [_result("opt-a")])
    assert len(ranked) == 1
    assert ranked[0].program == bench.o0


def test_a_journaled_ranking_resolves_to_the_same_rewrites():
    """The journal form round-trips through the pool it was ranked
    on, a verified twin of the target included (the two share a key,
    so the target's row is marked), and is refused for another pool."""
    bench = benchmark("p01")
    generator = TestcaseGenerator(bench.o0, bench.spec,
                                  bench.annotations, seed=0)
    base = generator.generate(4)
    twin = bench.o0.padded(len(bench.o0.code) + 2)
    results = [_result("opt-a", verified=[twin])]
    ranked = aggregator.final_ranking(bench.o0, SearchConfig(ell=12),
                                      base, results)
    assert [r.program for r in ranked] == [twin, bench.o0]
    pool = aggregator.verified_pool(results)
    record = aggregator.ranking_to_json(ranked, bench.o0, 24, len(pool),
                                        len(base))
    resolved, target_cycles = aggregator.ranking_from_json(
        record, pool, bench.o0, len(base))
    assert target_cycles == 24
    assert [(r.program, r.cost, r.cycles) for r in resolved] \
        == [(r.program, r.cost, r.cycles) for r in ranked]
    assert all(a.program is b.program for a, b in zip(resolved, ranked))
    assert aggregator.ranking_from_json(record, pool, bench.o0,
                                        len(base) + 1) is None
    assert aggregator.ranking_from_json(
        record, aggregator.verified_pool(results[:0]), bench.o0,
        len(base)) is None
