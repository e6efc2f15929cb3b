"""The reference library is built once per process and shared."""

from __future__ import annotations

import sys
import threading
from collections import Counter

import pytest

from repro.classify import base
from repro.classify.gordon import GordonClassifier
from repro.netsim import Environment
from repro.trace.collect import CollectionConfig, collect_traces

#: A short probe campaign, so building a library stays cheap.
SHORT_PROBE = CollectionConfig(
    duration=4.0,
    environments=(
        Environment(bandwidth_mbps=5.0, rtt_ms=25.0),
        Environment(bandwidth_mbps=10.0, rtt_ms=50.0),
    ),
    max_acks_per_trace=3_000,
)
KNOWN = ("reno", "vegas")


@pytest.fixture
def builds(monkeypatch):
    """A fresh, empty memo; counts library simulations per CCA."""
    calls: Counter[str] = Counter()

    def counting_collect(name, config=None):
        calls[name] += 1
        return collect_traces(name, config)

    monkeypatch.setattr(base, "_SIGNATURES", {})
    monkeypatch.setattr(base, "probe_config", lambda: SHORT_PROBE)
    monkeypatch.setattr(base, "collect_traces", counting_collect)
    return calls


def test_two_classifiers_share_one_build(builds):
    first = GordonClassifier(known_ccas=KNOWN)
    second = GordonClassifier(known_ccas=KNOWN)
    first.library._ensure_built()
    second.library._ensure_built()
    assert builds == Counter({"reno": 1, "vegas": 1})
    for name in KNOWN:
        assert (
            first.library._signatures[name]
            is second.library._signatures[name]
        )


def test_other_known_ccas_build_what_is_missing(builds):
    GordonClassifier(known_ccas=KNOWN).library._ensure_built()
    other = GordonClassifier(known_ccas=("cubic", "reno"))
    other.library._ensure_built()
    assert builds == Counter({"reno": 1, "vegas": 1, "cubic": 1})
    assert list(other.library._signatures) == ["cubic", "reno"]


def test_memo_keyed_by_probe_config(builds, monkeypatch):
    GordonClassifier(known_ccas=KNOWN).library._ensure_built()
    longer = CollectionConfig(
        duration=5.0,
        environments=SHORT_PROBE.environments,
        max_acks_per_trace=3_000,
    )
    monkeypatch.setattr(base, "probe_config", lambda: longer)
    GordonClassifier(known_ccas=KNOWN).library._ensure_built()
    assert builds == Counter({"reno": 2, "vegas": 2})


def test_memo_holds_signatures_only(builds):
    GordonClassifier(known_ccas=KNOWN).library._ensure_built()
    for signatures in base._SIGNATURES.values():
        assert len(signatures) == len(SHORT_PROBE.environments)
        for signature in signatures:
            assert signature.ndim == 1
            assert not signature.flags.writeable


def test_verdicts_unchanged_by_sharing(builds):
    targets = collect_traces("vegas", SHORT_PROBE)
    fresh = GordonClassifier(known_ccas=KNOWN).classify(targets)
    shared = GordonClassifier(known_ccas=KNOWN).classify(targets)
    assert shared == fresh
    assert fresh.label == "vegas"


def test_concurrent_builds_simulate_once(builds):
    """More threads than cores, switching often: still one build per CCA."""
    libraries = [GordonClassifier(known_ccas=KNOWN).library for _ in range(4)]
    threads = [
        threading.Thread(target=library._ensure_built) for library in libraries
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert builds == Counter({"reno": 1, "vegas": 1})
    assert all(library._signatures for library in libraries)
