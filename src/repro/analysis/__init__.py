"""Analysis helpers: pooled quantiles, the delay sketch, SLA checking, localization.

The accuracy metric of Figure 2 is :func:`repro.core.estimation.delay_accuracy`
(per cell, ``TargetResult.delay_accuracy``).
"""

from repro.analysis.localization import (
    DomainDiagnosis,
    DomainImplication,
    MeshTriangulation,
    PathDiagnosis,
    SuspectLink,
    identify_suspects,
    localize_performance,
    triangulate_suspects,
)
from repro.analysis.quantiles import MergedDelayPool, empirical_quantiles
from repro.analysis.sketch import DEFAULT_SKETCH_SIZE, DelayQuantileSketch
from repro.analysis.sla import SLASpec, SLAVerdict, check_sla

__all__ = [
    "DEFAULT_SKETCH_SIZE",
    "DelayQuantileSketch",
    "DomainDiagnosis",
    "DomainImplication",
    "MergedDelayPool",
    "MeshTriangulation",
    "PathDiagnosis",
    "SLASpec",
    "SLAVerdict",
    "SuspectLink",
    "check_sla",
    "empirical_quantiles",
    "identify_suspects",
    "localize_performance",
    "triangulate_suspects",
]
