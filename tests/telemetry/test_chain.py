"""ChainTelemetry: recording, merging, and the wire format."""

import pytest

from repro.telemetry import ChainTelemetry


def _record(telemetry, kind, *, accepted, delta, bounded, testcases,
            step, cost, best):
    telemetry.record_proposal(telemetry.move_row(kind),
                              accepted=accepted, delta=delta,
                              bounded=bounded, testcases=testcases,
                              step=step, cost=cost, best=best)


def _sample_chain(steps=10, kind="opcode"):
    telemetry = ChainTelemetry()
    cost = 100
    for step in range(steps):
        accepted = step % 2 == 0
        if accepted:
            cost -= 1
        _record(telemetry, kind, accepted=accepted,
                delta=-1 if accepted else 3, bounded=False,
                testcases=step % 4, step=step, cost=cost, best=cost)
    telemetry.seal(steps - 1, cost, cost)
    return telemetry


def test_recording_tallies_moves_and_histogram():
    telemetry = ChainTelemetry()
    _record(telemetry, "opcode", accepted=True, delta=-5, bounded=False,
            testcases=3, step=0, cost=95, best=95)
    _record(telemetry, "opcode", accepted=False, delta=None,
            bounded=True, testcases=1, step=1, cost=95, best=95)
    _record(telemetry, "swap", accepted=False, delta=7, bounded=False,
            testcases=4, step=2, cost=95, best=95)
    assert telemetry.proposals == 3
    assert telemetry.accepted == 1
    assert telemetry.testcases_evaluated == 8
    table = dict(telemetry.move_table())
    assert table["opcode"] == {"proposed": 2, "accepted": 1,
                               "accepted_delta": -5,
                               "rejected_delta": 0, "bounded": 1}
    assert table["swap"]["rejected_delta"] == 7
    assert telemetry.acceptance_rate() == pytest.approx(1 / 3)
    assert telemetry.acceptance_rate("opcode") == pytest.approx(0.5)
    assert telemetry.acceptance_rate("missing") == 0.0
    assert telemetry.testcase_hist.nonzero() == [(1, 1), (3, 1), (4, 1)]


def test_roundtrip_through_json():
    telemetry = _sample_chain()
    telemetry.runtime["seconds"] = 1.5
    back = ChainTelemetry.from_json(telemetry.to_json())
    assert back == telemetry
    assert "runtime" not in telemetry.deterministic_json()


def test_extend_shifts_continuation_traces():
    first = _sample_chain(steps=8)
    second = _sample_chain(steps=8)
    first.runtime["seconds"] = 1.0
    second.runtime["seconds"] = 0.5
    first.extend(second, step_offset=8)
    assert first.proposals == 16
    assert first.runtime["seconds"] == pytest.approx(1.5)
    xs = [x for x, _y in first.cost_trace.points]
    assert xs == sorted(xs)              # segments continue, not overlap
    assert max(xs) >= 8                  # the shifted segment is there


def test_absorb_is_order_insensitive():
    chains = [_sample_chain(steps=n, kind=k)
              for n, k in ((5, "opcode"), (9, "swap"), (7, "operand"))]
    forward, backward = ChainTelemetry(), ChainTelemetry()
    for chain in chains:
        forward.absorb(chain)
    for chain in reversed(chains):
        backward.absorb(chain)
    # the property the in-progress report relies on: merging in any
    # order produces the same deterministic document
    assert forward.deterministic_json() == backward.deterministic_json()
    assert forward.proposals == sum(c.proposals for c in chains)
    # traces stay per-chain: absorb never invents a merged curve
    assert forward.cost_trace.points == []


def _strictly_increasing(series):
    xs = [x for x, _y in series.points]
    return all(a < b for a, b in zip(xs, xs[1:]))


def test_seal_never_duplicates_the_final_point():
    # a short chain keeps every step, so its last step is already on
    # the trace when the chain is sealed
    single = _sample_chain(steps=60)
    merged = _sample_chain(steps=60)
    merged.extend(_sample_chain(steps=60), step_offset=60)
    for telemetry, last in ((single, 59), (merged, 119)):
        for series in (telemetry.cost_trace, telemetry.best_trace):
            assert _strictly_increasing(series)
            assert series.points[-1][0] == last


def test_seal_pins_a_final_step_off_the_stride():
    telemetry = ChainTelemetry()
    telemetry.cost_trace.stride = telemetry.best_trace.stride = 4
    for step in range(6):
        _record(telemetry, "opcode", accepted=False, delta=1,
                bounded=False, testcases=1, step=step, cost=9, best=9)
    telemetry.seal(5, 9, 9)
    assert [x for x, _y in telemetry.cost_trace.points] == [0, 4, 5]
    assert [x for x, _y in telemetry.best_trace.points] == [0, 4, 5]


def test_derived_rates_use_the_exact_counters():
    telemetry = ChainTelemetry()
    assert telemetry.seconds == 0.0
    assert telemetry.testcases_per_proposal == 0.0
    assert telemetry.proposals_per_second == 0.0
    for testcases in (70, 90):          # both land in the overflow bucket
        _record(telemetry, "opcode", accepted=False, delta=1,
                bounded=False, testcases=testcases, step=0, cost=9,
                best=9)
    telemetry.runtime["seconds"] = 0.5
    assert telemetry.testcases_per_proposal == 80.0
    assert telemetry.seconds == 0.5
    assert telemetry.proposals_per_second == 4.0
