"""Round-trip tests for the engine's JSON codecs."""

import pytest

from repro.engine import serialize
from repro.errors import EngineError
from repro.search.config import SearchConfig
from repro.search.mcmc import ChainResult
from repro.suite.registry import benchmark
from repro.telemetry import ChainTelemetry
from repro.testgen.annotations import (Annotations, ConstantInput,
                                       PointerInput, RandomInput,
                                       RangeInput)
from repro.testgen.generator import TestcaseGenerator
from repro.x86.parser import parse_program


def test_program_roundtrip_preserves_padding_and_labels():
    prog = parse_program("""
        testq rdi, rdi
        jae .L1
        movq rsi, rax
        .L1
        addq rdi, rax
    """).padded(8)
    back = serialize.program_from_json(serialize.program_to_json(prog))
    assert back == prog
    assert len(back) == 8                     # padding survived
    assert back.labels == prog.labels


def test_program_key_ignores_padding():
    prog = parse_program("movq rdi, rax")
    assert serialize.program_key(prog) == \
        serialize.program_key(prog.padded(16))


def test_testcase_roundtrip():
    bench = benchmark("saxpy")               # exercises memory fields
    generator = TestcaseGenerator(bench.o0, bench.spec,
                                  bench.annotations, seed=3)
    for testcase in generator.generate(4):
        back = serialize.testcase_from_json(
            serialize.testcase_to_json(testcase))
        assert back == testcase


def test_spec_roundtrip_with_mem_out():
    spec = benchmark("saxpy").spec
    back = serialize.spec_from_json(serialize.spec_to_json(spec))
    assert back == spec


def test_annotations_roundtrip():
    annotations = Annotations({
        "rdi": PointerInput(size=32, align=16),
        "esi": RangeInput(1, 99),
        "edx": ConstantInput(7),
        "ecx": RandomInput(mask=0xFF),
    })
    back = serialize.annotations_from_json(
        serialize.annotations_to_json(annotations))
    assert back == annotations


def test_config_roundtrip():
    config = SearchConfig(ell=17, beta=0.25, seed=42,
                          optimization_chains=3, improved_cost=False)
    back = serialize.config_from_json(serialize.config_to_json(config))
    assert back == config


def _chain():
    prog = parse_program("movq rdi, rax").padded(4)
    telemetry = ChainTelemetry()
    telemetry.record_proposal(telemetry.move_row("opcode"),
                              accepted=True, delta=-3, bounded=False,
                              testcases=2, step=0, cost=7, best=7)
    telemetry.record_proposal(telemetry.move_row("swap"),
                              accepted=False, delta=None, bounded=True,
                              testcases=1, step=1, cost=7, best=7)
    telemetry.seal(1, 7, 7)
    telemetry.runtime["seconds"] = 0.25
    return ChainResult(best_program=prog, best_cost=7,
                       current_program=prog, current_cost=7,
                       zero_cost=[(0, prog)], stats=telemetry)


def test_chain_result_roundtrip():
    chain = _chain()
    payload = serialize.chain_to_json(chain)
    assert "stats" not in payload
    back = serialize.chain_from_json(payload)
    assert back == chain
    assert back.stats.seconds == 0.25
    assert serialize.chain_from_json(None) is None


def test_chain_result_roundtrip_carries_telemetry():
    """A payload in the older two-section format (a ``stats`` copy of
    the counters and traces beside the ``telemetry`` record) still
    decodes: the whole ``stats`` section is ignored, so journals
    written before the merge resume."""
    chain = _chain()
    payload = serialize.chain_to_json(chain)
    payload["stats"] = {"proposals": 2, "accepted": 1,
                        "testcases_evaluated": 3, "seconds": 0.25,
                        "cost_trace": [[0, 7]]}
    back = serialize.chain_from_json(payload)
    assert back == chain
    assert back.stats.to_json() == chain.stats.to_json()


def test_require_fields_rejects_missing():
    with pytest.raises(EngineError):
        serialize.require_fields({"a": 1}, ("a", "b"), "record")
