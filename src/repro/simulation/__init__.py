"""Simulation substrate: queueing, congestion, path and mesh scenarios."""

from repro.simulation.congestion import CongestionScenario
from repro.simulation.mesh import MeshScenario, merge_hop_streams
from repro.simulation.queueing import BottleneckQueue, QueueStats
from repro.simulation.scenario import PathScenario, SegmentCondition

__all__ = [
    "BottleneckQueue",
    "CongestionScenario",
    "MeshScenario",
    "PathScenario",
    "QueueStats",
    "SegmentCondition",
    "merge_hop_streams",
]
