"""Counterexample-to-testcase pinning tests (Eq. 12, the CEGIS seam).

The refinement loop — and the minimize subsystem built on it — is only
sound if a *failed* equivalence query yields a concrete, well-formed
:class:`Testcase` on which target and rewrite genuinely disagree under
the reference emulator. These tests pin that contract end to end:
validator refutation -> ``TestcaseGenerator.from_counterexample`` ->
both programs replayed on the packaged inputs.
"""


from repro.emulator.cpu import Emulator
from repro.testgen.annotations import Annotations
from repro.testgen.generator import TestcaseGenerator
from repro.testgen.suite import input_key
from repro.verifier.validator import LiveSpec, Validator
from repro.x86.operands import Mem
from repro.x86.parser import parse_program
from repro.x86.registers import lookup


def _spec(live_in, live_out, mem_out=()):
    return LiveSpec(live_in=tuple(live_in), live_out=tuple(live_out),
                    mem_out=tuple(mem_out))


def _refute(target_text, rewrite_text, spec):
    target = parse_program(target_text)
    rewrite = parse_program(rewrite_text)
    outcome = Validator().validate(target, rewrite, spec)
    assert not outcome.equivalent
    assert outcome.counterexample is not None
    return target, rewrite, outcome.counterexample


def _run(program, testcase):
    """Replay one program on a packaged testcase's inputs."""
    state = testcase.initial_state()
    Emulator(state, testcase.sandbox()).run(program)
    return state


def test_refutation_packages_a_wellformed_testcase():
    target, _rewrite, cex = _refute(
        "movq rdi, rax\nandq rsi, rax",
        "movq rdi, rax\norq rsi, rax",
        _spec(["rdi", "rsi"], ["rax"]))
    spec = _spec(["rdi", "rsi"], ["rax"])
    generator = TestcaseGenerator(target, spec, Annotations())
    testcase = generator.from_counterexample(cex)
    # inputs cover every live-in register, values masked to width
    inputs = dict(testcase.input_regs)
    assert set(inputs) >= {"rdi", "rsi"}
    assert all(0 <= value < (1 << 64) for value in inputs.values())
    # expected outputs are the *target's* outputs on those inputs
    state = _run(target, testcase)
    for name, expected in testcase.expected_regs:
        assert state.get_reg(name) == expected


def test_target_and_rewrite_disagree_on_the_packaged_testcase():
    spec = _spec(["rdi", "rsi"], ["rax"])
    target, rewrite, cex = _refute(
        "movq rdi, rax\nandq rsi, rax",
        "movq rdi, rax\norq rsi, rax",
        spec)
    testcase = TestcaseGenerator(target, spec, Annotations()).from_counterexample(cex)
    target_out = _run(target, testcase).get_reg("rax")
    rewrite_out = _run(rewrite, testcase).get_reg("rax")
    assert target_out != rewrite_out


def test_memory_refutation_disagrees_on_the_written_cell():
    mem_out = ((Mem(base=lookup("rsi")), 8),)
    spec = _spec(["rdi", "rsi"], [], mem_out)
    target, rewrite, cex = _refute(
        "movq rdi, (rsi)",
        "movq rdi, 8(rsi)",             # wrong slot
        spec)
    testcase = TestcaseGenerator(target, spec, Annotations()).from_counterexample(cex)
    addr = dict(testcase.input_regs)["rsi"]
    target_state = _run(target, testcase)
    rewrite_state = _run(rewrite, testcase)
    cell = [bytes(state.memory.get(addr + i, 0)
                  for i in range(8))
            for state in (target_state, rewrite_state)]
    assert cell[0] != cell[1]
    # ... and the packaged expectations pin the target's cell contents
    expected = dict(testcase.expected_memory)
    for offset in range(8):
        if addr + offset in expected:
            assert target_state.memory.get(addr + offset, 0) == \
                expected[addr + offset]


def test_packaged_testcase_distinguishes_in_a_cost_function():
    """The refined suite must actually reject the refuted rewrite —
    the property the paper's Eq. 12 loop depends on."""
    from repro.cost.function import CostFunction, Phase
    spec = _spec(["rdi", "rsi"], ["rax"])
    target, rewrite, cex = _refute(
        "movq rdi, rax\nandq rsi, rax",
        "movq rdi, rax\norq rsi, rax",
        spec)
    testcase = TestcaseGenerator(target, spec, Annotations()).from_counterexample(cex)
    cost_fn = CostFunction([testcase], target, phase=Phase.SYNTHESIS)
    assert cost_fn.evaluate(target).correct_on_tests
    assert not cost_fn.evaluate(rewrite).correct_on_tests


def test_duplicate_counterexamples_share_an_input_key():
    spec = _spec(["rdi", "rsi"], ["rax"])
    target, _rewrite, cex = _refute(
        "movq rdi, rax\nandq rsi, rax",
        "movq rdi, rax\norq rsi, rax",
        spec)
    generator = TestcaseGenerator(target, spec, Annotations())
    first = generator.from_counterexample(cex)
    second = generator.from_counterexample(cex)
    assert input_key(first) == input_key(second)


def test_refutation_counterexamples_pin_rsp():
    """Packaged inputs must keep the stack pointer in the sandboxed
    stack region, or replaying them would fault spuriously."""
    spec = _spec(["rdi"], ["rax"])
    target, _rewrite, cex = _refute(
        "movq rdi, -8(rsp)\nmovq -8(rsp), rax",
        "leaq 1(rdi), rax",
        spec)
    testcase = TestcaseGenerator(target, spec, Annotations()).from_counterexample(cex)
    state = _run(target, testcase)          # must not fault
    assert state.get_reg("rax") == dict(testcase.expected_regs)["rax"]


def test_refutes_replays_a_real_counterexample():
    spec = _spec(["rdi", "rsi"], ["rax"])
    target, rewrite, cex = _refute(
        "movq rdi, rax\nandq rsi, rax",
        "movq rdi, rax\norq rsi, rax",
        spec)
    generator = TestcaseGenerator(target, spec, Annotations())
    assert generator.refutes(rewrite, cex)
    assert not generator.refutes(target, cex)


def test_validate_reports_the_spurious_mont_refutation(capsys):
    """mont's o0/gcc refutation is a model of the 64-bit multiply UF:
    both listings compute the same outputs from it on the emulator."""
    from repro.cli import SPURIOUS_EXIT, main
    assert main(["validate", "mont"]) == SPURIOUS_EXIT
    out = capsys.readouterr().out
    assert "equivalent to llvm -O0: False" in out
    assert "spurious refutation" in out
