"""Simulation substrate: queueing, congestion, path and mesh scenarios."""

from repro.simulation.congestion import CongestionScenario
from repro.simulation.mesh import MeshObservation, MeshScenario, merge_hop_streams
from repro.simulation.queueing import BottleneckQueue, QueueStats
from repro.simulation.scenario import (
    DomainGroundTruth,
    PathObservation,
    PathScenario,
    SegmentCondition,
)

__all__ = [
    "BottleneckQueue",
    "CongestionScenario",
    "DomainGroundTruth",
    "MeshObservation",
    "MeshScenario",
    "PathObservation",
    "PathScenario",
    "QueueStats",
    "SegmentCondition",
    "merge_hop_streams",
]
