"""Diverse segment-selection tests (§3.2 strategy)."""

import json
import random

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.collect import CollectionConfig, collect_traces
from repro.trace.corrupt import REPAIRABLE, corrupt_trace
from repro.trace.io import trace_from_dict
from repro.trace.model import AckRecord, Trace, TraceSegment
from repro.trace.segmentation import segment_trace
from repro.trace.selection import (
    segment_shape,
    select_diverse_segments,
    shape_distance,
)
from repro.trace.signals import extract_signals
from repro.trace.triage import repair_trace


def test_shape_is_fixed_length(reno_segments):
    shape = segment_shape(reno_segments[0])
    assert shape.shape == (64,)
    assert np.isfinite(shape).all()


def test_shape_scale_invariance(reno_segments):
    """The signature divides by the mean, so absolute window size drops out."""
    shape = segment_shape(reno_segments[1])
    assert shape.mean() == 1.0 or abs(shape.mean() - 1.0) < 1e-9


def test_shape_distance_identity(reno_segments):
    shape = segment_shape(reno_segments[0])
    assert shape_distance(shape, shape) == 0.0


def test_select_all_when_count_exceeds(reno_segments):
    picked = select_diverse_segments(reno_segments, len(reno_segments) + 5)
    assert picked == list(reno_segments)


def test_select_exact_count(reno_segments):
    if len(reno_segments) < 5:
        return
    picked = select_diverse_segments(reno_segments, 4, rng=random.Random(1))
    assert len(picked) == 4
    assert len({id(segment) for segment in picked}) == 4


def test_selection_deterministic_with_seed(reno_segments):
    if len(reno_segments) < 5:
        return
    first = select_diverse_segments(reno_segments, 4, rng=random.Random(9))
    second = select_diverse_segments(reno_segments, 4, rng=random.Random(9))
    assert [id(s) for s in first] == [id(s) for s in second]


def test_selection_prefers_diversity(reno_segments):
    """The farthest-pairing half must include at least one segment far
    from its anchor, compared to uniform sampling of the same size."""
    if len(reno_segments) < 6:
        return
    picked = select_diverse_segments(reno_segments, 4, rng=random.Random(3))
    shapes = [segment_shape(segment) for segment in picked]
    spread = max(
        shape_distance(a, b) for a in shapes for b in shapes
    )
    assert spread > 0.0


# ---------------------------------------------------------------------------
# Shape parity: segment_shape reads the time and window columns through
# the helpers extract_signals uses; it must equal the shape computed from
# a full signal table, bit for bit, refusals included.


def _table_shape(segment):
    """The shape computed from the full signal table (reference)."""
    table = extract_signals(segment)
    cwnd = table.observed_cwnd()
    times = table.times()
    if len(cwnd) < 2:
        return np.ones(64)
    t_norm = (times - times[0]) / max(times[-1] - times[0], 1e-9)
    resampled = np.interp(np.linspace(0.0, 1.0, 64), t_norm, cwnd)
    mean = resampled.mean()
    return resampled / mean if mean > 0 else resampled


def _outcome(shape_fn, segment):
    try:
        return shape_fn(segment).tobytes()
    except TraceError as exc:
        return ("refused", str(exc))


def _assert_parity(segments):
    for segment in segments:
        assert _outcome(segment_shape, segment) == _outcome(
            _table_shape, segment
        ), segment.label


@pytest.fixture(scope="module")
def zoo_segments(env_matrix):
    config = CollectionConfig(
        duration=8.0, environments=env_matrix, max_acks_per_trace=4000
    )
    return {
        name: [
            segment
            for trace in collect_traces(name, config)
            for segment in segment_trace(trace)
        ]
        for name in ("reno", "cubic", "vegas")
    }


@pytest.mark.parametrize("name", ["reno", "cubic", "vegas"])
def test_shape_matches_signal_table_shape(zoo_segments, name):
    assert zoo_segments[name]
    _assert_parity(zoo_segments[name])


@pytest.mark.parametrize("corruption", sorted(REPAIRABLE))
def test_shape_parity_on_corrupted_traces(reno_trace, corruption):
    """Raw (guards and refusals) and repaired corrupted traces alike."""
    sample = corrupt_trace(reno_trace, corruption, seed=0)
    raw = trace_from_dict(json.loads(sample.text))
    repaired, _ = repair_trace(raw)
    for trace in (raw, repaired):
        segments = [
            TraceSegment(trace, start, min(start + 300, len(trace.acks)), 0.0)
            for start in range(0, len(trace.acks), 300)
        ]
        _assert_parity(segments)


def _record(time, *, cwnd=15000.0, rtt=0.05, dupack=False):
    return AckRecord(
        time=time,
        ack_seq=0,
        acked_bytes=0 if dupack else 1500,
        rtt_sample=None if dupack else rtt,
        cwnd_bytes=cwnd,
        inflight_bytes=0,
        dupack=dupack,
    )


@pytest.mark.parametrize(
    "acks, message",
    [
        (
            [_record(0.1, dupack=True), _record(0.2, dupack=True)],
            "no new-data",
        ),
        ([_record(0.1), _record(float("nan"))], "non-finite timestamps"),
        (
            [_record(0.1, rtt=None), _record(0.2, rtt=float("inf"))],
            "no usable RTT",
        ),
        (
            [_record(0.1, cwnd=float("nan")), _record(0.2, cwnd=float("inf"))],
            "no finite cwnd",
        ),
    ],
)
def test_refused_segment_raises_the_same_error(acks, message):
    trace = Trace("x", "y", 1500, acks=acks)
    segment = TraceSegment(trace, 0, len(acks), 0.0)
    with pytest.raises(TraceError, match=message):
        extract_signals(segment)
    _assert_parity([segment])


def test_shape_guards_match_signal_table():
    """Carried and back-filled windows, and an RTT found only before the
    segment, behave as in the full table."""
    acks = [
        _record(0.1),
        _record(0.2, rtt=None, cwnd=float("nan")),
        _record(0.3, rtt=None, cwnd=3000.0),
        _record(0.35, dupack=True),
        _record(0.4, rtt=None, cwnd=float("inf")),
        _record(0.5, rtt=None, cwnd=6000.0),
    ]
    trace = Trace("x", "y", 1500, acks=acks)
    _assert_parity([TraceSegment(trace, 1, len(acks), 0.0)])


@pytest.mark.parametrize("name", ["reno", "cubic", "vegas"])
def test_selection_picks_same_segments_as_table_shapes(zoo_segments, name):
    segments = zoo_segments[name]
    reference = [_table_shape(segment) for segment in segments]
    for seed in range(3):
        picked = select_diverse_segments(segments, 6, rng=random.Random(seed))
        expected = select_diverse_segments(
            segments, 6, rng=random.Random(seed), shapes=reference
        )
        assert [id(s) for s in picked] == [id(s) for s in expected]
