"""Performance benchmarks of the synthesis hot kernels.

Not a paper table: these pin the compute kernels the refinement loop
lives in — DTW scoring, compiled-handler replay, sketch enumeration and
the discrete-event simulator — so regressions in any of them (they have
all been optimized: vectorized DTW rows, compiled handlers, the shared
enumeration stream) show up as benchmark deltas rather than as
mysteriously slow paper benches.
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cca import make_cca
from repro.distance import dtw_distance
from repro.dsl import RENO_DSL, with_budget
from repro.dsl.compiled import compile_handler
from repro.dsl.evaluate import evaluate
from repro.dsl.parser import parse
from repro.netsim import Environment, simulate
from repro.synth.enumerator import enumerate_sketches
from repro.synth.replay import replay_handler

HANDLER = "cwnd + ((vegas_diff < 1) ? 0.7 * reno_inc : 0)"


def test_perf_dtw(benchmark):
    rng = np.random.default_rng(0)
    a, b = rng.random(256), rng.random(256)
    result = benchmark(lambda: dtw_distance(a, b))
    assert result >= 0


def test_perf_compiled_eval(benchmark):
    compiled = compile_handler(parse(HANDLER))
    env = {
        "cwnd": 30000.0,
        "mss": 1500.0,
        "acked_bytes": 1500.0,
        "rtt": 0.06,
        "min_rtt": 0.05,
        "ack_rate": 1e6,
    }
    args = [env[name] for name in compiled.signals]
    value = benchmark(lambda: compiled(*args))
    assert np.isfinite(value)


def test_perf_interpreted_eval(benchmark):
    """The tree-walking reference; the compiled path above should be
    several times faster (both are kept: the interpreter is the
    semantic oracle)."""
    expr = parse(HANDLER)
    env = {
        "cwnd": 30000.0,
        "mss": 1500.0,
        "acked_bytes": 1500.0,
        "rtt": 0.06,
        "min_rtt": 0.05,
        "ack_rate": 1e6,
    }
    value = benchmark(lambda: evaluate(expr, env))
    assert np.isfinite(value)


def test_perf_replay(benchmark, store):
    segments = store.segments("reno", limit=1)
    from repro.trace.signals import extract_signals

    table = extract_signals(segments[0]).coalesce(384)
    handler = parse("cwnd + 0.7 * reno_inc")
    series = benchmark(lambda: replay_handler(handler, table))
    assert len(series) == len(table)


def test_perf_enumeration(benchmark):
    dsl = with_budget(RENO_DSL, max_depth=3, max_nodes=5)

    def first_500():
        return sum(
            1 for _ in itertools.islice(enumerate_sketches(dsl), 500)
        )

    count = benchmark(first_500)
    assert count == 500


def test_perf_simulator(benchmark):
    env = Environment(bandwidth_mbps=10, rtt_ms=50)

    def run():
        return simulate(make_cca("reno"), env, duration=5.0)

    trace = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(trace.acks) > 100


#: The simulator-throughput workload: every CCA here over every
#: environment here, for SIMULATOR_DURATION simulated seconds each.
SIMULATOR_CCAS = ("reno", "cubic", "vegas", "bbr")
SIMULATOR_ENVIRONMENTS = (
    Environment(bandwidth_mbps=5.0, rtt_ms=25.0),
    Environment(bandwidth_mbps=10.0, rtt_ms=50.0, queue_bdp=0.25),
    Environment(bandwidth_mbps=15.0, rtt_ms=80.0, queue_bdp=2.0),
)
SIMULATOR_DURATION = 8.0
#: ACKs the workload produces.  The simulator is deterministic, so this
#: is exact: a change here means the simulated dynamics changed.
SIMULATOR_ACKS = 66_908


def test_perf_simulator_throughput(benchmark, report):
    """ACKs per second of the discrete-event simulator.

    The work counter (ACKs produced) is pinned exactly; the rate is
    reported, not gated, since wall time depends on the machine.
    """

    def run() -> int:
        return sum(
            len(simulate(make_cca(name), env, duration=SIMULATOR_DURATION))
            for name in SIMULATOR_CCAS
            for env in SIMULATOR_ENVIRONMENTS
        )

    best = float("inf")
    for _ in range(3):  # best-of-3 damps scheduler noise
        start = time.perf_counter()
        acks = run()
        best = min(best, time.perf_counter() - start)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    report(
        f"simulator: {acks} ACKs in {best:.2f} s = {acks / best:,.0f} ACKs/s"
    )
    assert acks == SIMULATOR_ACKS


def test_perf_score_cache_saves_replays(benchmark, store, monkeypatch):
    """The cross-iteration score cache measurably reduces
    ``replay_handler`` invocations over a multi-iteration refinement run.

    Pinned on the *counters*, not wall-clock: an uncached run replays
    once per (handler, segment) scoring; a cached run replays only on
    misses, and the saved replays equal the cache's hit counter exactly
    (the schedules are identical, so lookups == uncached replays).
    """
    import repro.synth.scoring as scoring_module
    from repro.runtime import CollectorSink, RunContext
    from repro.synth.refinement import SynthesisConfig, synthesize

    real_replay = scoring_module.replay_handler
    calls = {"n": 0}

    def counting_replay(*args, **kwargs):
        calls["n"] += 1
        return real_replay(*args, **kwargs)

    monkeypatch.setattr(scoring_module, "replay_handler", counting_replay)

    segments = store.segments("reno", limit=3)
    dsl = with_budget(RENO_DSL, max_depth=4, max_nodes=7)
    base = dict(
        initial_samples=4,
        initial_keep=2,
        completion_cap=4,
        max_iterations=3,
        exhaustive_cap=40,
        initial_segments=2,
        # The batched path replays via replay_batch, not replay_handler;
        # this benchmark pins the scalar path's replay counters.
        batch_scoring=False,
    )

    def run(cache: bool):
        calls["n"] = 0
        collector = CollectorSink()
        result = synthesize(
            segments,
            dsl,
            SynthesisConfig(cache_scores=cache, **base),
            context=RunContext([collector]),
        )
        return result, calls["n"], collector.last_of_kind("cache_stats")

    uncached_result, uncached_replays, _ = run(cache=False)
    cached_result, cached_replays, stats = run(cache=True)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    assert len(cached_result.iterations) >= 2  # schedule actually deepened
    assert stats is not None and stats.hits > 0
    # Caching never changes results, only work:
    assert cached_result.best.distance == uncached_result.best.distance
    assert cached_replays == stats.misses
    assert uncached_replays == stats.hits + stats.misses
    assert uncached_replays - cached_replays == stats.hits


#: Two-hole sketches x an 8-constant pool = exactly 64 concretizations
#: each, matching the completion cap the speedup target is pinned at.
SCORING_SKETCHES = (
    "c0 * cwnd + c1 * mss",
    "(rtt > ewma_rtt) ? cwnd - c0 * mss : cwnd + c1 * mss",
    "cwnd + c0 * acked_bytes + c1 * mss",
)

SCORING_POOL = (0.25, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 4.0)

#: Minimum batched/scalar throughput ratio; measured ~8x on the dev
#: box, asserted with headroom so the gate survives noisy CI runners.
SCORING_MIN_SPEEDUP = 5.0


def test_perf_scoring_throughput(benchmark, store, report):
    """Batched sketch scoring is >= 5x the scalar reference path at
    ``completion_cap=64`` — the tentpole speedup claim.

    Both paths score the same sketches over the same segments with
    fresh scorers (each builds its own table cache), results are
    asserted bit-identical, and the run emits ``BENCH_scoring.json``
    for the CI regression gate (``check_scoring_regression.py``).
    """
    from repro.dsl.parser import parse as parse_expr
    from repro.dsl.printer import to_text
    from repro.synth.scoring import Scorer
    from repro.synth.sketch import Sketch

    segments = store.segments("reno", limit=4)
    sketches = [
        Sketch.from_expr(parse_expr(text)) for text in SCORING_SKETCHES
    ]
    candidates = len(SCORING_POOL) ** 2 * len(sketches)

    def run(batch: bool):
        best = float("inf")
        results = counters = None
        for _ in range(3):  # best-of-3 damps scheduler noise
            scorer = Scorer(
                constant_pool=SCORING_POOL,
                completion_cap=64,
                seed=0,
                batch=batch,
            )
            start = time.perf_counter()
            results = [
                scorer.score_sketch(sketch, segments)
                for sketch in sketches
            ]
            best = min(best, time.perf_counter() - start)
            counters = scorer.counters
        return results, candidates / best, counters

    scalar_results, scalar_rate, _ = run(batch=False)
    batched_results, batched_rate, counters = run(batch=True)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    # The fast path never changes the answer, only the work:
    for batched, scalar in zip(batched_results, scalar_results):
        assert batched.distance == scalar.distance
        assert to_text(batched.handler) == to_text(scalar.handler)
    assert counters.batched_waves == len(sketches)
    assert counters.lb_pruned + counters.dp_abandoned > 0

    speedup = batched_rate / scalar_rate
    report(f"scoring throughput @cap=64 over {len(segments)} segments:")
    report(f"  scalar  {scalar_rate:9.0f} candidates/s")
    report(f"  batched {batched_rate:9.0f} candidates/s  ({speedup:.1f}x)")

    payload = {
        "kernel": "sketch_scoring",
        "completion_cap": 64,
        "segments": len(segments),
        "sketches": len(sketches),
        "candidates": candidates,
        "scalar_candidates_per_sec": scalar_rate,
        "batched_candidates_per_sec": batched_rate,
        "speedup": speedup,
    }
    out = Path(__file__).with_name("BENCH_scoring.json")
    out.write_text(json.dumps(payload, indent=2) + "\n")

    assert speedup >= SCORING_MIN_SPEEDUP
