"""Correctness term of the cost function (Eqs. 8-11 and 15).

Two variants are provided:

* the *strict* distance (Eq. 9/10): per live output, the Hamming
  distance between the rewrite's value and the target's value in the
  same location;
* the *improved* distance (Eq. 15, Section 4.6): per live output, the
  minimum Hamming distance over all same-width locations, plus a small
  misplacement penalty ``wm`` — rewarding correct values in wrong
  places, which Figure 7 shows is the difference between convergence
  and random search.

Both are computed from the final :class:`MachineState` after running
the rewrite on a testcase, plus the event counters for err(·).

This is the hottest evaluator-independent code in the MCMC inner loop
(it runs once per testcase per proposal), so the register views and
same-width candidate locations are resolved once per testcase and
cached on it, and the scan over alternative locations is skipped when
the in-place distance is already within the misplacement penalty —
no candidate can beat ``best`` unless ``best > wm``, so the pruned
scan returns exactly the Eq. 15 value.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Sequence

from repro.emulator.compile import LANE_STRIDE
from repro.emulator.lanes import LaneSuite
from repro.emulator.state import MachineState
from repro.testgen.testcase import Testcase
from repro.x86.registers import lookup, registers_of_width


_LANE_BITS = (1 << LANE_STRIDE) - 1

#: Larger than any distance: the nearest alternative when none is left.
_FAR = 1 << 62

_UNWRITTEN_CACHE_LIMIT = 1 << 10


@dataclass(frozen=True)
class CostWeights:
    """Weights from Figure 11 of the paper."""

    wsf: int = 1     # segfault
    wfp: int = 1     # floating point / division exception
    wur: int = 2     # undefined register or memory read
    wm: int = 3      # misplacement penalty for the improved metric


def err_penalty(state: MachineState, weights: CostWeights) -> int:
    """err(R; T, t): weighted count of sandbox events (Eq. 11)."""
    events = state.events
    return (weights.wsf * events.sigsegv +
            weights.wfp * events.sigfpe +
            weights.wur * events.undef)


def _reg_outputs(testcase: Testcase) \
        -> tuple[tuple[str, int, int, tuple[tuple[str, int], ...]], ...]:
    """Per live-out register: (full, mask, expected, other locations).

    Resolved once per testcase: the register view lookup and the list
    of same-width alternative locations never change.
    """
    cached = testcase.__dict__.get("_reg_outputs")
    if cached is None:
        outputs = []
        for name, expected in testcase.expected_regs:
            reg = lookup(name)
            others = tuple((candidate.full, candidate.mask)
                           for candidate in registers_of_width(reg.width)
                           if candidate.name != name)
            outputs.append((reg.full, reg.mask, expected, others))
        cached = tuple(outputs)
        testcase.__dict__["_reg_outputs"] = cached
    return cached


def _mem_outputs(testcase: Testcase) \
        -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Per live-out byte: (addr, expected, other output addresses)."""
    cached = testcase.__dict__.get("_mem_outputs")
    if cached is None:
        addrs = tuple(addr for addr, _ in testcase.expected_memory)
        cached = tuple(
            (addr, expected,
             tuple(other for other in addrs if other != addr))
            for addr, expected in testcase.expected_memory)
        testcase.__dict__["_mem_outputs"] = cached
    return cached


def strict_distance(state: MachineState, testcase: Testcase) -> int:
    """reg + mem Hamming distance, strict placement (Eqs. 9, 10)."""
    total = 0
    regs = state.regs
    for full, reg_mask, expected, _others in _reg_outputs(testcase):
        total += (expected ^ (regs[full] & reg_mask)).bit_count()
    memory = state.memory
    for addr, expected in testcase.expected_memory:
        total += (expected ^ memory.get(addr, 0)).bit_count()
    return total


def improved_distance(state: MachineState, testcase: Testcase,
                      weights: CostWeights) -> int:
    """reg' + mem' distance with misplacement credit (Eq. 15)."""
    total = 0
    wm = weights.wm
    regs = state.regs
    for full, reg_mask, expected, others in _reg_outputs(testcase):
        best = (expected ^ (regs[full] & reg_mask)).bit_count()
        if best > wm:         # a misplaced value costs at least wm
            for other_full, other_mask in others:
                distance = (expected ^
                            (regs[other_full] & other_mask)).bit_count() \
                    + wm
                if distance < best:
                    best = distance
                    if best <= wm:     # exact match elsewhere: floor
                        break
        total += best
    memory = state.memory
    for addr, expected, other_addrs in _mem_outputs(testcase):
        best = (expected ^ memory.get(addr, 0)).bit_count()
        if best > wm:
            for other in other_addrs:
                distance = (expected ^ memory.get(other, 0)).bit_count() \
                    + wm
                if distance < best:
                    best = distance
                    if best <= wm:
                        break
        total += best
    return total


def testcase_cost(state: MachineState, testcase: Testcase,
                  weights: CostWeights, *, improved: bool = True) -> int:
    """Full per-testcase term of eq' (one summand of Eq. 8)."""
    if improved:
        distance = improved_distance(state, testcase, weights)
    else:
        distance = strict_distance(state, testcase)
    return distance + err_penalty(state, weights)


class LaneScorer:
    """:func:`testcase_cost` for every lane of a packed run at once.

    Built once per packed suite. When every testcase checks the same
    live outputs (the usual case: one live spec), each output's
    Hamming distance is one XOR over all lanes followed by a per-lane
    bit count. The improved metric is the lanewise minimum of that
    distance and each alternative location's distance plus ``wm``
    (the pruned scan of :func:`improved_distance` returns exactly that
    minimum). Alternative registers the candidate never wrote still
    hold the very objects the packed suite started with, so their
    minimum comes from a table sorted once per suite, cached by which
    alternatives were written; only written ones are counted afresh.
    ``uniform`` is False for a suite whose testcases check different
    outputs; such a suite must be scored lane by lane instead.
    """

    def __init__(self, lanes: LaneSuite, testcases: Sequence[Testcase],
                 weights: CostWeights, *, improved: bool = True) -> None:
        self.lanes = lanes
        self.weights = weights
        self.improved = improved
        lay = lanes.layout
        self._shifts = lay.shifts
        first = testcases[0]
        reg_names = [name for name, _ in first.expected_regs]
        mem_addrs = [addr for addr, _ in first.expected_memory]
        self.uniform = all(
            [name for name, _ in testcase.expected_regs] == reg_names and
            [addr for addr, _ in testcase.expected_memory] == mem_addrs
            for testcase in testcases)
        if not self.uniform:
            return
        wm = weights.wm
        proto = lanes.proto.regs
        self._regs = []
        for k, (full, reg_mask, _expected, others) in \
                enumerate(_reg_outputs(first)):
            expected = [testcase.expected_regs[k][1]
                        for testcase in testcases]
            # per lane, the alternatives' initial distances, nearest first
            nearest = [[(distance, other) for distance, _, other in sorted(
                ((expected[i] ^ (lay.lane(proto[other], i) & other_mask))
                 .bit_count() + wm, position, other)
                for position, (other, other_mask) in enumerate(others))]
                for i in range(lay.lanes)]
            self._regs.append((full, reg_mask.bit_length(),
                               lay.replicate(reg_mask), lay.pack(expected),
                               tuple((other, lay.replicate(other_mask))
                                     for other, other_mask in others),
                               nearest, {}))
        self._mems = []
        for k, (addr, _expected, other_addrs) in \
                enumerate(_mem_outputs(first)):
            expected = [testcase.expected_memory[k][1]
                        for testcase in testcases]
            self._mems.append((addr, lay.pack(expected), other_addrs))

    def _counts(self, packed: int, offset: int = 0) -> list[int]:
        """The bit count of every lane of ``packed``, plus ``offset``."""
        return [(packed >> shift & _LANE_BITS).bit_count() + offset
                for shift in self._shifts]

    @staticmethod
    def _unwritten(nearest: list, by_written: dict,
                   written: tuple[str, ...]) -> list[int]:
        """Per lane, the nearest alternative register not written."""
        found = by_written.get(written)
        if found is None:
            if len(by_written) >= _UNWRITTEN_CACHE_LIMIT:
                by_written.clear()
            found = by_written[written] = [
                next((distance for distance, other in lane
                      if other not in written), _FAR)
                for lane in nearest]
        return found

    def costs(self, state: MachineState) -> list[int]:
        """Every lane's per-testcase term after a run from the (uniform)
        suite."""
        wm = self.weights.wm
        improved = self.improved
        totals = [err_penalty(state, self.weights)] * len(self._shifts)
        regs = state.regs
        proto = self.lanes.proto.regs
        one = self.lanes.layout.one
        for full, width, reg_mask, packed, others, nearest, by_written in \
                self._regs:
            distances = self._counts((regs[full] & reg_mask) ^ packed)
            if improved and max(distances) > wm:
                written = tuple(other for other, _ in others
                                if regs[other] is not proto[other])
                distances = list(map(min, distances, self._unwritten(
                    nearest, by_written, written)))
                for other, other_mask in others:
                    if other not in written:
                        continue
                    worst = max(distances)
                    if worst <= wm:
                        break
                    diff = (regs[other] & other_mask) ^ packed
                    # within one bit of wm, only an exact match (a zero
                    # lane, which carries nothing past ``width`` when the
                    # mask is added) can still lower a lane
                    if worst == wm + 1 and \
                            (diff + other_mask) >> width & one == one:
                        continue
                    distances = list(map(min, distances,
                                         self._counts(diff, wm)))
            totals = list(map(add, totals, distances))
        memory = state.memory
        for addr, packed, other_addrs in self._mems:
            distances = self._counts(memory.get(addr, 0) ^ packed)
            if improved and max(distances) > wm:
                columns = [distances]
                columns += [self._counts(memory.get(other, 0) ^ packed, wm)
                            for other in other_addrs]
                distances = list(map(min, *columns))
            totals = list(map(add, totals, distances))
        return totals
