"""Self time, kernel aggregation and the per-layer table."""

import pytest

from jobbench.tracer import (
    PER_LAYER_METRICS,
    Tracer,
    layer_metrics,
    self_times,
)


def span(name, start, end, parent=None, kernels=None, counts=None):
    return {
        "name": name,
        "start": start,
        "end": end,
        "parent": parent,
        "job": None,
        "counts": counts or {},
        "kernels": kernels or {},
    }


def test_self_time_subtracts_nested_children():
    spans = [
        span("process", 0.0, 10.0),
        span("classify.classify", 1.0, 6.0, parent=0),
        span("netsim.simulate", 2.0, 5.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("process", 0.0, 10.0),
        span("a.x", 1.0, 4.0, parent=0),
        span("b.y", 3.0, 6.0, parent=0),  # overlaps a.x by 1 s
        span("c.z", 9.0, 12.0, parent=0),  # runs past its parent's end
    ]
    # Covered: [1, 6] and [9, 10] -> 6 s of the parent's 10 s.
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_self_time_subtracts_kernel_busy_time():
    spans = [
        span("scoring.sketch", 0.0, 2.0, kernels={
            "replay": {"calls": 3, "busy_s": 0.5},
            "dtw": {"calls": 1, "busy_s": 0.25},
        }),
    ]
    assert self_times(spans) == pytest.approx([1.25])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_kernels_aggregate_into_the_innermost_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def replay(rows):
        clock.now += 1.0
        return rows

    wrapped = {}

    def dtw():
        clock.now += 0.5
        return wrapped["lb"]()

    def lower_bound():
        clock.now += 0.25  # nested kernel: not charged to dtw's busy time
        return 0.0

    replay_k = tracer.kernel_wrapper(
        "replay", replay, lambda a, k, r: {"rows": r}
    )
    dtw_k = tracer.kernel_wrapper("dtw", dtw)
    wrapped["lb"] = tracer.kernel_wrapper("lb", lower_bound)

    def score():
        replay_k(10)
        replay_k(5)
        dtw_k()

    score_span = tracer.span_wrapper("scoring.sketch", score)
    score_span()
    score_span()
    document = tracer.finish()
    sketches = [s for s in document["spans"] if s["name"] == "scoring.sketch"]
    assert len(sketches) == 2
    for sketch in sketches:
        kernels = sketch["kernels"]
        assert kernels["replay"] == {"calls": 2, "busy_s": 2.0, "rows": 15}
        assert kernels["dtw"]["calls"] == 1
        assert kernels["dtw"]["busy_s"] == pytest.approx(0.5)
        assert kernels["lb"]["busy_s"] == pytest.approx(0.25)
        assert sketch["end"] - sketch["start"] == pytest.approx(2.75)
    # Kernels are children: the sketch spans have no self time left.
    selfs = self_times(document["spans"])
    assert [selfs[i] for i, s in enumerate(document["spans"])
            if s["name"] == "scoring.sketch"] == pytest.approx([0.0, 0.0])


def test_span_wrapper_records_parent_and_counts():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def simulate():
        clock.now += 2.0
        return [1, 2, 3]

    wrapped_sim = tracer.span_wrapper(
        "netsim.simulate", simulate, counts=lambda a, k, r, t: {"acks": len(r)}
    )

    def collect():
        return wrapped_sim()

    tracer.span_wrapper("netsim.collect", collect)()
    spans = tracer.finish()["spans"]
    assert [s["name"] for s in spans] == [
        "process", "netsim.collect", "netsim.simulate",
    ]
    assert spans[2]["parent"] == 1 and spans[1]["parent"] == 0
    assert spans[2]["counts"] == {"acks": 3}


def test_layer_metrics_reports_every_metric():
    spans = [
        span("process", 0.0, 10.0),
        span("classify.classify", 0.0, 6.0, parent=0),
        span("classify.library", 0.5, 5.5, parent=1),
        span("netsim.collect", 0.5, 5.5, parent=2),
        span("netsim.simulate", 0.5, 5.5, parent=3, counts={"acks": 1000}),
        span("scoring.sketch", 6.0, 9.5, parent=0, counts={"segments": 2},
             kernels={"replay": {"calls": 2, "busy_s": 1.0, "lanes": 16},
                      "dtw": {"calls": 1, "busy_s": 1.0, "lanes": 4}}),
    ]
    metrics = layer_metrics({"spans": spans}, {"handlers": 8}, wall_s=10.0)
    assert set(metrics) == set(PER_LAYER_METRICS) - {
        "trace.overhead_frac", "refine.heldout_ratio",
    }
    assert metrics["netsim.acks_per_s"] == pytest.approx(200.0)
    assert metrics["classify.busy_frac"] == pytest.approx(0.6)
    assert metrics["classify.self_frac"] == pytest.approx(0.1)
    assert metrics["classify.library_builds"] == 1
    assert metrics["scoring.candidates"] == pytest.approx(8.0)
    assert metrics["scoring.pruned_frac"] == pytest.approx(0.75)
    assert metrics["scoring.self_frac"] == pytest.approx(0.15)
    # Everything but the root's 0.5 s of self time is attributed.
    assert metrics["trace.coverage_frac"] == pytest.approx(0.95)
