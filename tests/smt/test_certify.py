"""Every answer of the CDCL solver is checked by an independent checker.

An UNSAT answer must come with a refutation that ``rup.py`` certifies:
each learned clause follows by unit propagation from the CNF and the
clauses learned before it, and all of them propagate to a conflict. A
SAT answer's model must satisfy the CNF.
"""

from __future__ import annotations

import random

import pytest
from proof_audit import Tally, audit_corpus, certifying, cross_checking
from rup import certify_unsat, satisfies

from repro.api import EngineOptions, SearchConfig, Session, Target
from repro.engine.sweep import run_campaigns
from repro.smt.sat import CNF, Solver
from repro.suite.registry import benchmark
from repro.verifier.validator import LiveSpec, Validator
from repro.x86.parser import parse_program


def _cnf(num_vars: int, clauses) -> CNF:
    cnf = CNF()
    for _ in range(num_vars):
        cnf.new_var()
    for clause in clauses:
        cnf.add_clause(list(clause))
    return cnf


def _random_3sat(num_vars: int, num_clauses: int, seed: int) -> CNF:
    rng = random.Random(seed)
    return _cnf(num_vars, [
        [v if rng.random() < 0.5 else -v
         for v in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(num_clauses)])


def _pigeonhole(holes: int) -> CNF:
    """holes + 1 pigeons into ``holes`` holes: UNSAT."""
    def var(pigeon, hole):
        return pigeon * holes + hole + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(holes + 1)]
    clauses += [[-var(a, h), -var(b, h)] for h in range(holes)
                for a in range(holes + 1) for b in range(a + 1, holes + 1)]
    return _cnf((holes + 1) * holes, clauses)


def _certified(cnf: CNF, assumptions=None) -> tuple[bool, Solver]:
    solver = Solver(cnf)
    sat = solver.solve(assumptions)
    if sat:
        assert satisfies(cnf.clauses, solver.model)
    else:
        assert certify_unsat(cnf.clauses, solver.learned,
                             assumptions or ()) is None
    return sat, solver


def test_random_3sat_answers_are_certified():
    verdicts = [_certified(_random_3sat(50, 215, seed))[0]
                for seed in range(24)]
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("holes", range(2, 7))
def test_pigeonhole_refutations_are_certified(holes):
    sat, solver = _certified(_pigeonhole(holes))
    assert not sat
    assert len(solver.learned) == solver.conflicts - 1


def test_refutation_past_the_activity_rescale_is_certified():
    """The increment passes 1e100 at conflict 4,490 (1/0.95^k), and the
    next bump rescales every activity by 1e-100."""
    sat, solver = _certified(_random_3sat(170, 765, 9))
    assert not sat
    assert solver.conflicts > 4_500
    assert solver._var_inc < 1e100           # the rescale ran


def test_learned_units_are_part_of_the_refutation():
    sat, solver = _certified(_pigeonhole(5))
    units = [clause for clause in solver.learned if len(clause) == 1]
    assert units, "the solver asserts units without storing them"
    rest = [clause for clause in solver.learned if len(clause) > 1]
    assert certify_unsat(_pigeonhole(5).clauses, rest) is not None


def test_refutation_under_assumptions_is_certified():
    cnf = _cnf(3, [[1, 2], [-1, 3], [-2, 3]])
    sat, _ = _certified(cnf, [-3])
    assert not sat


def test_checker_rejects_a_wrong_refutation():
    clauses = _random_3sat(50, 215, 1).clauses
    assert certify_unsat(clauses, [[1], [-1]]) is not None
    assert certify_unsat([[1, 2], [-1, 2]], []) is not None


def test_corpus_answers_are_reproduced_and_certified():
    tally = Tally()
    audit_corpus(tally, mont=False)
    assert tally.failures == []
    assert tally.unsat >= 4 and tally.sat >= 1
    # sat-p03-1's counterexample replays on the reference emulator
    assert tally.cross_checked >= 5 and tally.replayed >= 1


def test_every_unsat_of_a_two_kernel_sweep_is_certified(tmp_path):
    config = SearchConfig(seed=101, synthesis_proposals=60,
                          optimization_proposals=60, synthesis_chains=4,
                          optimization_chains=4, ell=12, testcase_count=16,
                          optimization_restarts=4)
    sessions = [Session(Target.from_suite(kernel), config=config,
                        engine=EngineOptions(run_dir=tmp_path / kernel,
                                             interleave=True))
                for kernel in ("p01", "p03")]
    with certifying(Tally()) as tally, cross_checking(tally):
        run_campaigns([session.campaign() for session in sessions])
    assert tally.failures == []
    assert tally.cross_checked > 0
    assert tally.unsat > 0


def test_cross_check_replays_refutations_and_flags_a_spurious_one():
    """and/or differ on the emulator; mont's o0/gcc refutation comes
    from the 64-bit multiply UF and replays alike."""
    with cross_checking(Tally()) as tally:
        Validator().validate(parse_program("movq rdi, rax\nandq rsi, rax"),
                             parse_program("movq rdi, rax\norq rsi, rax"),
                             LiveSpec(("rdi", "rsi"), ("rax",)))
        assert tally.failures == [] and tally.replayed == 1
        mont = benchmark("mont")
        Validator().validate(mont.o0, mont.gcc, mont.spec)
    assert tally.cross_checked == 2 and tally.replayed == 2
    failure, = tally.failures
    assert "does not reproduce" in failure
