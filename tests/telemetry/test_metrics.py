"""Unit tests for the deterministic metric primitives."""

import pytest

from repro.telemetry import Histogram, Series
from repro.telemetry.metrics import TelemetryError, safe_rate


def test_histogram_buckets_and_overflow():
    hist = Histogram(cap=4)
    for value in (0, 1, 1, 3, 7, 99):
        hist.observe(value)
    assert hist.buckets == [1, 2, 0, 1]
    assert hist.overflow == 2
    assert hist.total == 6
    assert hist.nonzero() == [(0, 1), (1, 2), (3, 1), (4, 2)]


def test_histogram_merge_is_bucketwise():
    a, b = Histogram(cap=4), Histogram(cap=4)
    a.observe(1)
    b.observe(1)
    b.observe(9)
    a.merge(b)
    assert a.buckets[1] == 2 and a.overflow == 1
    assert Histogram.from_json(a.to_json()) == a


def test_histogram_refuses_mismatched_caps():
    with pytest.raises(TelemetryError, match="caps"):
        Histogram(cap=4).merge(Histogram(cap=8))
    with pytest.raises(TelemetryError, match="buckets"):
        Histogram(cap=4, buckets=[0, 0])


def test_series_decimation_is_deterministic():
    series = Series(capacity=4)
    for x in range(32):
        series.record(x, x * 10)
    # decimation is a pure function of the sequence: replaying the
    # same records reproduces the same points and stride
    replay = Series(capacity=4)
    for x in range(32):
        replay.record(x, x * 10)
    assert series == replay
    assert series.stride > 1
    assert len(series.points) < 4
    xs = [x for x, _y in series.points]
    assert xs == sorted(xs)
    assert all(x % series.stride == 0 for x in xs)


def test_series_force_bypasses_stride():
    series = Series(capacity=8, stride=16)
    series.record(3, 1.0)
    assert series.points == []          # off-stride, dropped
    series.record(3, 1.0, force=True)
    assert series.points == [[3, 1.0]]


def test_series_merge_continues_a_trace():
    a, b = Series(capacity=16), Series(capacity=16)
    for x in range(4):
        a.record(x, x)
    for x in range(4, 8):
        b.record(x, x)
    a.merge(b)
    assert [x for x, _y in a.points] == list(range(8))
    assert Series.from_json(a.to_json()) == a


def test_series_rejects_tiny_capacity():
    with pytest.raises(TelemetryError, match="capacity"):
        Series(capacity=2)


def test_safe_rate_is_finite_and_honest():
    assert safe_rate(0, 0.0) == 0.0
    assert safe_rate(100, 2.0) == 50.0
    huge = safe_rate(100, 0.0)
    assert huge > 1e10                   # sub-resolution run, not 0.0
    assert huge == safe_rate(100, 0.0)   # and deterministic
    import math
    assert math.isfinite(huge)           # JSON has no Infinity
