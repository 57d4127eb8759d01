"""Analysis helpers: accuracy metrics, quantiles, SLA checking, localization."""

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
from repro.analysis.metrics import (
    AccuracyReport,
    delay_accuracy_report,
    loss_granularity_report,
    relative_error,
)
from repro.analysis.quantiles import (
    MergedDelayPool,
    empirical_quantiles,
    quantile_error,
)
from repro.analysis.sketch import DEFAULT_SKETCH_SIZE, DelayQuantileSketch
from repro.analysis.sla import SLASpec, SLAVerdict, check_sla

__all__ = [
    "AccuracyReport",
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
    "delay_accuracy_report",
    "empirical_quantiles",
    "identify_suspects",
    "localize_performance",
    "loss_granularity_report",
    "quantile_error",
    "relative_error",
    "triangulate_suspects",
]
