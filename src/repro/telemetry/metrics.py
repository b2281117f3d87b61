"""Deterministic metric primitives: histograms and downsampled
series.

Search telemetry has one hard requirement the usual metrics libraries
do not: *bit-identical merges*. A campaign's chains run across an
arbitrary worker count, and the merged telemetry document must not
depend on which process ran a chain or in what order results landed —
the same invariant the engine already guarantees for search results.
Every primitive here is therefore plain integer/float arithmetic over
values the chain itself computed (no wall clocks, no sampling RNG),
serializes to stable JSON, and merges associatively:

* :class:`Histogram` — fixed integer buckets ``0..cap`` plus one
  overflow bucket; merge adds bucket-wise. Used for the
  testcases-evaluated-per-proposal distribution (the paper's Fig. 5).
* :class:`Series` — a bounded (x, y) trace with deterministic
  *decimation*: samples are kept every ``stride`` steps, and when the
  capacity would overflow, every other kept point is dropped and the
  stride doubles. The kept points are a pure function of the input
  sequence, unlike reservoir sampling. Used for the cost-over-proposals
  trace (the paper's Fig. 4).

The wall-clock measurements a run also wants (chain seconds, grant
latencies, occupancy timelines) use the same classes but live in the
explicitly nondeterministic ``runtime`` section of the telemetry
document — see :mod:`repro.telemetry.journal`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError

Json = dict


class TelemetryError(ReproError):
    """A malformed telemetry record or an impossible merge."""


@dataclass
class Histogram:
    """Fixed buckets for small non-negative integers, plus overflow.

    Bucket ``i`` counts observations of exactly ``i`` for ``i < cap``;
    everything ``>= cap`` lands in the overflow bucket. The fixed shape
    is what makes merges bucket-wise adds — two histograms with
    different caps refuse to merge rather than silently rebinning.
    """

    cap: int = 64
    buckets: list[int] = field(default_factory=list)
    overflow: int = 0

    def __post_init__(self) -> None:
        if not self.buckets:
            self.buckets = [0] * self.cap
        elif len(self.buckets) != self.cap:
            raise TelemetryError(
                f"histogram has {len(self.buckets)} buckets, cap is "
                f"{self.cap}")

    def observe(self, value: int, count: int = 1) -> None:
        if value < self.cap:
            self.buckets[value] += count
        else:
            self.overflow += count

    @property
    def total(self) -> int:
        return sum(self.buckets) + self.overflow

    def nonzero(self) -> list[tuple[int, int]]:
        """(value, count) pairs for the populated buckets."""
        pairs = [(i, n) for i, n in enumerate(self.buckets) if n]
        if self.overflow:
            pairs.append((self.cap, self.overflow))
        return pairs

    def merge(self, other: Histogram) -> None:
        if other.cap != self.cap:
            raise TelemetryError(
                f"cannot merge histograms with caps {self.cap} and "
                f"{other.cap}")
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n
        self.overflow += other.overflow

    def to_json(self) -> Json:
        return {"cap": self.cap, "buckets": list(self.buckets),
                "overflow": self.overflow}

    @classmethod
    def from_json(cls, data: Json) -> Histogram:
        return cls(cap=data["cap"], buckets=list(data["buckets"]),
                   overflow=data["overflow"])


@dataclass
class Series:
    """A bounded (x, y) trace with deterministic decimation.

    ``record(x, y)`` keeps the sample only when ``x`` falls on the
    current stride; once ``capacity`` kept points accumulate, every
    other one is dropped and the stride doubles. The retained points
    are a pure function of the recorded sequence — re-running the same
    chain reproduces the same trace exactly, which reservoir sampling
    (the usual bounded-trace trick) cannot promise.

    ``x`` must be non-decreasing (proposal steps, chain indices);
    ``force`` records regardless of stride, for must-keep samples like
    a chain's final cost.
    """

    capacity: int = 256
    stride: int = 1
    points: list[list[float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.capacity < 4:
            raise TelemetryError("series capacity must be at least 4")

    def record(self, x: int, y, *, force: bool = False) -> None:
        if not force and x % self.stride:
            return
        self.points.append([x, y])
        if len(self.points) >= self.capacity:
            self._decimate()

    def _decimate(self) -> None:
        del self.points[1::2]
        self.stride *= 2

    def merge(self, other: Series) -> None:
        """Concatenate and re-decimate to this series' capacity.

        Used for traces that continue each other (segments of one
        chain); traces from *different* chains should stay separate.
        """
        self.stride = max(self.stride, other.stride)
        self.points.extend([x, y] for x, y in other.points)
        while len(self.points) >= self.capacity:
            self._decimate()

    def ys(self) -> list:
        return [y for _x, y in self.points]

    def to_json(self) -> Json:
        return {"capacity": self.capacity, "stride": self.stride,
                "points": [list(p) for p in self.points]}

    @classmethod
    def from_json(cls, data: Json) -> Series:
        return cls(capacity=data["capacity"], stride=data["stride"],
                   points=[list(p) for p in data["points"]])


_MIN_ELAPSED = 1e-9


def safe_rate(count: int, seconds: float) -> float:
    """``count / seconds`` that stays finite at timer resolution.

    A chain can finish below the timer's resolution (``seconds == 0``
    with real work done); dividing would either report a false 0.0 or
    an unserializable ``inf`` (JSON has no Infinity). Clamping the
    elapsed time to one nanosecond — below any monotonic clock's real
    resolution — keeps the rate finite, huge, and honest about its
    direction.
    """
    if count == 0:
        return 0.0
    return count / max(seconds, _MIN_ELAPSED)
