"""Discrete-event network simulation substrate.

Replaces the paper's virtual-network testbed: a single flow driven by a
:class:`~repro.cca.base.CongestionControl` over a droptail bottleneck,
with configurable bandwidth, base RTT and buffer depth, plus measurement
noise injection for robustness experiments.
"""

from repro.netsim.environments import DEFAULT_MSS, Environment, default_matrix
from repro.netsim.packet import Packet
from repro.netsim.queues import DropTailQueue
from repro.netsim.multiflow import (
    MultiFlowSimulator,
    fairness_report,
    simulate_competition,
)
from repro.netsim.simulator import Simulator, simulate

# Re-exported last: the noise model lives in repro.trace (it operates on
# traces) but is part of the simulation substrate's public surface.
from repro.trace.noise import NoiseModel, apply_noise  # noqa: E402

__all__ = [
    "DEFAULT_MSS",
    "Environment",
    "default_matrix",
    "NoiseModel",
    "apply_noise",
    "Packet",
    "DropTailQueue",
    "Simulator",
    "simulate",
    "MultiFlowSimulator",
    "fairness_report",
    "simulate_competition",
]
