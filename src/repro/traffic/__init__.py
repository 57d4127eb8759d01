"""Traffic substrate: synthetic traces, flows, loss/delay/reordering models."""

from repro.traffic.delay_models import (
    CongestionDelayModel,
    ConstantDelayModel,
    DelayModel,
    EmpiricalDelayModel,
    JitterDelayModel,
)
from repro.traffic.flows import Flow, FlowGenerator, FlowGeneratorConfig
from repro.traffic.loss_models import (
    BernoulliLossModel,
    GilbertElliottLossModel,
    LossModel,
    NoLossModel,
)
from repro.traffic.reordering import NoReordering, ReorderingModel, WindowReordering
from repro.traffic.trace import SyntheticTrace, TraceConfig
from repro.traffic.workload import WorkloadSpec, make_workload

__all__ = [
    "BernoulliLossModel",
    "CongestionDelayModel",
    "ConstantDelayModel",
    "DelayModel",
    "EmpiricalDelayModel",
    "Flow",
    "FlowGenerator",
    "FlowGeneratorConfig",
    "GilbertElliottLossModel",
    "JitterDelayModel",
    "LossModel",
    "NoLossModel",
    "NoReordering",
    "ReorderingModel",
    "SyntheticTrace",
    "TraceConfig",
    "WindowReordering",
    "WorkloadSpec",
    "make_workload",
]
