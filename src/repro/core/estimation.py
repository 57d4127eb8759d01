"""Estimation of delay quantiles from receipts.

This module plays the role of the estimation technique the paper borrows from
Sommers et al. [20]: given the delays of the *commonly sampled* packets
between a domain's ingress and egress HOPs, estimate delay quantiles for the
overall traffic, with confidence bounds.  Loss is not estimated: the verifier
computes it exactly from aggregate receipts.

Delay quantiles are estimated with the standard order-statistics approach:
the point estimate of quantile ``q`` is the empirical quantile of the sampled
delays, and a distribution-free confidence interval is obtained from the
binomial distribution of the number of samples below the true quantile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.receipts import SampleReceipt, distinct_samples, locate_ids
from repro.util.validation import check_probability

__all__ = [
    "DelayQuantileEstimate",
    "estimate_delay_quantiles",
    "quantile_confidence_bounds",
    "match_sample_delays",
    "delay_accuracy",
    "DEFAULT_QUANTILES",
]

# The quantiles reported by default: median, the 90th percentile the paper
# uses in its example SLA statement, and the tail quantiles SLAs care about.
DEFAULT_QUANTILES: tuple[float, ...] = (0.5, 0.75, 0.9, 0.95, 0.99)


@dataclass(frozen=True)
class DelayQuantileEstimate:
    """A delay-quantile estimate with a distribution-free confidence interval.

    Attributes
    ----------
    quantile:
        The quantile being estimated (e.g. 0.9).
    estimate:
        Point estimate (seconds).
    lower, upper:
        Confidence bounds (seconds) at the requested confidence level.
    sample_count:
        Number of delay samples the estimate is based on.
    """

    quantile: float
    estimate: float
    lower: float
    upper: float
    sample_count: int


def quantile_confidence_bounds(
    sorted_delays: np.ndarray, quantile: float, confidence: float = 0.95
) -> tuple[float, float]:
    """Distribution-free confidence bounds for a quantile from order statistics.

    For ``n`` i.i.d. samples, the number of samples below the true ``q``-th
    quantile is Binomial(n, q); the interval is formed by the order statistics
    at the binomial's ``(1±confidence)/2`` quantiles.
    """
    check_probability("quantile", quantile)
    check_probability("confidence", confidence)
    count = len(sorted_delays)
    if count == 0:
        raise ValueError("cannot compute bounds from zero samples")
    alpha = 1.0 - confidence
    # scipy-free binomial quantiles via the normal approximation with
    # continuity correction, clamped to valid ranks; exact enough for the
    # sample sizes the protocol produces (hundreds to tens of thousands).
    mean = count * quantile
    std = float(np.sqrt(count * quantile * (1.0 - quantile)))
    z = _normal_quantile(1.0 - alpha / 2.0)
    lower_rank = int(np.floor(mean - z * std - 0.5))
    upper_rank = int(np.ceil(mean + z * std + 0.5))
    lower_rank = min(max(lower_rank, 0), count - 1)
    upper_rank = min(max(upper_rank, 0), count - 1)
    return float(sorted_delays[lower_rank]), float(sorted_delays[upper_rank])


def _normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    # Coefficients for the central and tail regions.
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low = 0.02425
    if p < p_low:
        q = np.sqrt(-2.0 * np.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p > 1.0 - p_low:
        q = np.sqrt(-2.0 * np.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


def estimate_delay_quantiles(
    delays: Sequence[float] | np.ndarray,
    quantiles: Sequence[float] = DEFAULT_QUANTILES,
    confidence: float = 0.95,
) -> dict[float, DelayQuantileEstimate]:
    """Estimate delay quantiles (with confidence bounds) from sampled delays."""
    delays = np.asarray(delays, dtype=float)
    if delays.size == 0:
        raise ValueError("cannot estimate quantiles from zero delay samples")
    sorted_delays = np.sort(delays)
    quantiles = list(quantiles)
    for quantile in quantiles:
        check_probability("quantile", quantile)
    # One vectorised call; each point equals its own np.quantile call bit for bit.
    points = np.quantile(sorted_delays, quantiles).tolist()
    estimates: dict[float, DelayQuantileEstimate] = {}
    for quantile, point in zip(quantiles, points):
        lower, upper = quantile_confidence_bounds(sorted_delays, quantile, confidence)
        estimates[quantile] = DelayQuantileEstimate(
            quantile=quantile,
            estimate=point,
            lower=lower,
            upper=upper,
            sample_count=int(delays.size),
        )
    return estimates


def match_sample_delays(
    ingress: SampleReceipt, egress: SampleReceipt
) -> np.ndarray:
    """Per-packet delays of the packets sampled at both HOPs of a domain.

    For every packet ID present in both receipts, the delay through the domain
    is the egress timestamp minus the ingress timestamp (Section 4,
    "Receipt-based Statistics").  Negative differences (possible only with
    HOP timestamps badly out of step) are kept — they are informative to the
    caller — but ``NaN`` never appears.
    """
    ingress_samples = distinct_samples(ingress.samples)
    found, index = locate_ids(egress.samples["pkt_id"], ingress_samples["pkt_id"])
    return egress.samples["time"][found] - ingress_samples["time"][index[found]]


def delay_accuracy(
    estimated: Mapping[float, DelayQuantileEstimate] | Mapping[float, float],
    ground_truth: Mapping[float, float],
) -> float:
    """The accuracy metric of Figure 2: worst-case quantile-estimate error.

    ``estimated`` maps quantiles to estimates (or :class:`DelayQuantileEstimate`
    objects); ``ground_truth`` maps the same quantiles to the true delays of
    the full packet population.  The result is the maximum absolute error
    across the common quantiles, in seconds.
    """
    common = set(estimated) & set(ground_truth)
    if not common:
        raise ValueError("estimated and ground_truth share no quantiles")
    errors = []
    for quantile in common:
        value = estimated[quantile]
        point = value.estimate if isinstance(value, DelayQuantileEstimate) else float(value)
        errors.append(abs(point - ground_truth[quantile]))
    return float(max(errors))
