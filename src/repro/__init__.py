"""Reproduction of "Verifiable Network-Performance Measurements" (VPM).

This package implements the VPM protocol described by Argyraki, Maniatis and
Singla (CoNEXT 2010, arXiv:1005.3148) together with every substrate the paper
depends on: a packet/topology model, synthetic traffic generation standing in
for the CAIDA traces, a discrete-event congestion simulator standing in for
ns-2, the baseline protocols of Section 3, adversary models, and the resource
accounting of Section 7.1.

Public entry points
-------------------
**The declarative experiment API** (:mod:`repro.api`) is the official front
door: describe one evaluation cell — traffic, path conditions, protocol
configuration, adversaries, estimation question — as a frozen, JSON-round-
trippable :class:`~repro.api.ExperimentSpec` and execute it with
:class:`~repro.api.Experiment` (``.run()`` for one cell on the vectorized
batch path, ``.sweep(grid, workers=N)`` for parallel cartesian sweeps that are
bit-identical to serial runs).  Components are named by registry key and third
parties plug in new ones through the registries of :mod:`repro.api.registry`.

The engine layer underneath remains importable for code that needs the lower
altitude:

* :class:`repro.core.sampling.DelaySampler` — bias-resistant delay sampling
  (Algorithm 1 of the paper).
* :class:`repro.core.aggregation.Aggregator` — tunable aggregation
  (Algorithm 2 of the paper).
* :class:`repro.core.hop.HOPCollector` / :class:`repro.core.hop.HOPProcessor`
  — the data-plane / control-plane halves of a hand-off point.
* :class:`repro.core.verifier.Verifier` — the receipt collector that computes
  and verifies per-domain loss and delay.
* :class:`repro.simulation.scenario.PathScenario` — the Figure-1 scenario used
  throughout the evaluation.
* :class:`repro.net.batch.PacketBatch` — the columnar packet representation
  behind the batch fast path.

The "Layout" section of ``README.md`` maps the package; ``benchmarks/``
regenerates the paper's tables and figures.
"""

from repro.api import Experiment, ExperimentSpec, MeshSpec, TopologySpec
from repro.api.spec import CampaignSpec, SLATargetSpec
from repro.core.aggregation import Aggregator
from repro.core.domain import DomainAgent
from repro.core.hop import HOPCollector, HOPProcessor
from repro.core.protocol import MeshSession, VPMSession
from repro.core.receipts import (
    AggregateReceipt,
    PathID,
    SampleReceipt,
)
from repro.core.sampling import DelaySampler
from repro.core.verifier import Verifier
from repro.engine import (
    CampaignRunner,
    ScenarioStream,
    StreamingResult,
    StreamingRunner,
)
from repro.net.batch import PacketBatch
from repro.net.packet import Packet
from repro.net.topology import Domain, HOP, HOPPath, Topology
from repro.simulation.mesh import MeshScenario
from repro.simulation.scenario import BatchPathObservation, PathScenario
from repro.traffic.trace import SyntheticTrace, TraceConfig
from repro.store import RunStore
from repro.traffic.workload import make_workload

__version__ = "1.2.0"

__all__ = [
    "Aggregator",
    "AggregateReceipt",
    "BatchPathObservation",
    "CampaignRunner",
    "CampaignSpec",
    "DelaySampler",
    "Domain",
    "DomainAgent",
    "Experiment",
    "ExperimentSpec",
    "HOP",
    "HOPCollector",
    "HOPPath",
    "HOPProcessor",
    "MeshScenario",
    "MeshSession",
    "MeshSpec",
    "Packet",
    "PacketBatch",
    "PathID",
    "PathScenario",
    "RunStore",
    "SLATargetSpec",
    "SampleReceipt",
    "ScenarioStream",
    "StreamingResult",
    "StreamingRunner",
    "SyntheticTrace",
    "Topology",
    "TopologySpec",
    "TraceConfig",
    "VPMSession",
    "Verifier",
    "__version__",
    "make_workload",
]
