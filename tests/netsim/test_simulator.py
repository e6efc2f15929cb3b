"""Simulator integration tests: conservation, dynamics, loss processes."""

import gc
import weakref

import numpy as np
import pytest

from repro.cca import make_cca
from repro.errors import SimulationError
from repro.netsim import (
    Environment,
    Simulator,
    simulate,
    simulate_competition,
)


def test_mss_mismatch_rejected(small_env):
    cca = make_cca("reno", mss=9000)
    with pytest.raises(SimulationError):
        Simulator(cca, small_env)


def test_trace_metadata(reno_trace, small_env):
    assert reno_trace.cca_name == "reno"
    assert reno_trace.environment_label == small_env.label
    assert reno_trace.meta["bandwidth_mbps"] == 10.0


def test_ack_times_monotonic(reno_trace):
    times = reno_trace.times()
    assert np.all(np.diff(times) >= 0)


def test_cumulative_acks_monotonic(reno_trace):
    seqs = [ack.ack_seq for ack in reno_trace.acks]
    assert all(b >= a for a, b in zip(seqs, seqs[1:]))


def test_throughput_bounded_by_link(reno_trace, small_env):
    delivered = reno_trace.acks[-1].ack_seq
    elapsed = reno_trace.acks[-1].time
    assert delivered / elapsed <= small_env.bandwidth_bytes_per_sec * 1.01


def test_reno_achieves_reasonable_utilization(reno_trace, small_env):
    delivered = reno_trace.acks[-1].ack_seq
    elapsed = reno_trace.acks[-1].time
    assert delivered / elapsed >= 0.5 * small_env.bandwidth_bytes_per_sec


def test_rtt_samples_at_least_base_rtt(reno_trace, small_env):
    samples = [
        ack.rtt_sample for ack in reno_trace.acks if ack.rtt_sample is not None
    ]
    assert samples
    assert min(samples) >= small_env.base_rtt_sec * 0.999


def test_rtt_bounded_by_queue_delay(reno_trace, small_env):
    max_queue_delay = (
        small_env.queue_capacity_bytes / small_env.bandwidth_bytes_per_sec
    )
    samples = [
        ack.rtt_sample for ack in reno_trace.acks if ack.rtt_sample is not None
    ]
    # Base RTT + full queue + one in-service packet is the physical max.
    bound = small_env.base_rtt_sec + max_queue_delay + 2 * (
        small_env.mss / small_env.bandwidth_bytes_per_sec
    )
    assert max(samples) <= bound * 1.01


def test_loss_based_cca_experiences_losses(reno_trace):
    assert len(reno_trace.losses) >= 2


def test_reno_sawtooth_window_reduction(reno_trace):
    """Across each loss, the visible window must eventually drop ~50%."""
    losses = reno_trace.loss_times()
    cwnd = reno_trace.cwnd_series()
    times = reno_trace.times()
    checked = 0
    for loss_time in losses[1:4]:
        before = cwnd[(times > loss_time - 0.5) & (times <= loss_time)]
        after = cwnd[(times > loss_time) & (times < loss_time + 0.5)]
        if len(before) and len(after):
            assert after.min() < before.max()
            checked += 1
    assert checked


def test_duration_respected(small_env):
    trace = simulate(make_cca("reno"), small_env, duration=5.0)
    assert trace.acks[-1].time <= 5.0


def test_max_acks_respected(small_env):
    trace = simulate(make_cca("reno"), small_env, max_acks=100, duration=30.0)
    assert len(trace.acks) <= 100


def test_vegas_holds_near_bdp(vegas_trace, small_env):
    cwnd = np.array(
        [ack.cwnd_bytes for ack in vegas_trace.acks if not ack.dupack]
    )
    # Steady-state Vegas sits near BDP + alpha..beta packets.
    tail = cwnd[len(cwnd) // 2 :]
    assert small_env.bdp_bytes * 0.8 <= tail.mean() <= small_env.bdp_bytes * 1.6


def test_vegas_avoids_losses(vegas_trace):
    assert len(vegas_trace.losses) <= 2


def test_determinism(small_env):
    first = simulate(make_cca("reno"), small_env, duration=6.0)
    second = simulate(make_cca("reno"), small_env, duration=6.0)
    assert len(first.acks) == len(second.acks)
    assert first.acks[-1].ack_seq == second.acks[-1].ack_seq
    assert [l.time for l in first.losses] == [l.time for l in second.losses]


def test_all_data_eventually_delivered(small_env):
    """In-order delivery: the receiver's cumulative ACK keeps advancing
    despite losses (no permanent stall)."""
    trace = simulate(make_cca("reno"), small_env, duration=15.0)
    last_quarter = [a.ack_seq for a in trace.acks[-len(trace.acks) // 4 :]]
    assert last_quarter[-1] > last_quarter[0]


def test_finished_run_leaves_no_reference_cycle(small_env):
    """A dropped trace is freed at once, not when the cycle collector
    next runs: the library build drops ~30 traces of 12k ACKs each."""
    gc.disable()
    try:
        trace = simulate(make_cca("reno"), small_env, duration=3.0)
        competing = simulate_competition(
            [make_cca("reno"), make_cca("cubic")], small_env, duration=3.0
        )
        refs = [weakref.ref(trace)] + [weakref.ref(t) for t in competing]
        del trace, competing
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
