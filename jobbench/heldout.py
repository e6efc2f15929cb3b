"""Held-out quality: score a returned handler on traces no job ever saw.

Per CCA the corpus is simulated over environments outside every input
matrix (bandwidth 7.5/12.5 Mbps x base RTT 15/40/100 ms, 15 s each),
passed through the same mild noise model as the inputs but seeded from
``seed + 1``, and segmented.  Both the returned handler and the paper's
fine-tuned handler (``repro.handlers.FINETUNED_TEXT``) are scored with
the public :class:`repro.synth.scoring.Scorer` at the
:class:`repro.synth.refinement.SynthesisConfig` defaults, and
``heldout_ratio`` is returned / fine-tuned (lower is better).

This runs outside every timed region.  The noise-free simulations are a
pure function of the simulator source, so they are cached on disk under
the benchmark's cache directory keyed by a hash of the program and
benchmark sources; only
the noise, segmentation and scoring steps run per seed, and a distance
already computed for the same source, seed and handler is reused.
"""


from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
from pathlib import Path

HELDOUT_BANDWIDTHS = (7.5, 12.5)
HELDOUT_RTTS = (15.0, 40.0, 100.0)
HELDOUT_DURATION = 15.0


def source_digest(*roots: Path) -> str:
    """Content hash of every Python file under *roots*."""
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root.parent)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class HeldOut:
    """Held-out corpora and scoring for one seed."""

    def __init__(self, digest: str, cache_dir: Path, seed: int, noise: dict):
        self.cache_dir = cache_dir
        self.seed = seed
        self.noise = noise
        self._segments: dict[str, list] = {}
        self._digest = digest
        self._scorer = None
        self._memo_path = cache_dir / f"heldout-distances-{self._digest}.json"
        try:
            self._memo = json.loads(self._memo_path.read_text())
        except (OSError, ValueError):
            self._memo = {}

    def _clean_traces(self, cca: str) -> list:
        from repro.netsim.environments import Environment
        from repro.trace.collect import CollectionConfig, collect_traces

        path = self.cache_dir / f"heldout-{cca}-{self._digest}.pickle"
        if path.exists():
            # Written by this benchmark (below) for this exact source tree.
            with open(path, "rb") as handle:
                return pickle.load(handle)
        config = CollectionConfig(
            duration=HELDOUT_DURATION,
            environments=tuple(
                Environment(bandwidth_mbps=bw, rtt_ms=rtt)
                for bw in HELDOUT_BANDWIDTHS
                for rtt in HELDOUT_RTTS
            ),
        )
        traces = collect_traces(cca, config)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        with open(tmp, "wb") as handle:
            pickle.dump(traces, handle)
        os.replace(tmp, path)
        return traces

    def segments(self, cca: str) -> list:
        if cca not in self._segments:
            from repro.trace.noise import NoiseModel, apply_noise
            from repro.trace.segmentation import segment_trace

            model = NoiseModel(
                jitter_std=self.noise["jitter"],
                dropout=self.noise["dropout"],
                cwnd_error=self.noise["cwnd_error"],
                seed=self.seed + 1,
            )
            segments = []
            for trace in self._clean_traces(cca):
                segments.extend(segment_trace(apply_noise(trace, model)))
            self._segments[cca] = segments
        return self._segments[cca]

    def distance(self, cca: str, handler_text: str) -> float:
        """Mean DTW distance of *handler_text* over the corpus."""
        from repro.dsl.parser import parse

        key = f"{cca}|{self.seed}|{handler_text}"
        if key not in self._memo:
            distance = self.scorer().score_handler(
                parse(handler_text), self.segments(cca)
            )
            self._memo[key] = float(distance).hex()
        return float.fromhex(self._memo[key])

    def save(self) -> None:
        """Persist the distance memo (atomically)."""
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = self._memo_path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(self._memo, sort_keys=True, indent=1))
        os.replace(tmp, self._memo_path)

    def scorer(self):
        """One scorer for every corpus, with room for every corpus's
        signal tables, so each table is built once per run."""
        if self._scorer is None:
            from repro.synth.refinement import SynthesisConfig
            from repro.synth.scoring import Scorer

            defaults = SynthesisConfig()
            self._scorer = Scorer(
                metric_name=defaults.metric,
                series_budget=defaults.series_budget,
                max_replay_rows=defaults.max_replay_rows,
                table_cache_entries=1024,
            )
        return self._scorer

    def ratio(self, cca: str, handler_text: str) -> tuple[float, float]:
        """``(held-out distance, held-out ratio)`` of a returned handler."""
        from repro.handlers import FINETUNED_TEXT

        returned = self.distance(cca, handler_text)
        reference = self.distance(cca, FINETUNED_TEXT[cca])
        if not (math.isfinite(returned) and math.isfinite(reference)):
            return returned, math.inf
        return returned, returned / reference
