"""VPM wrapped in the baseline-protocol interface.

The comparison benchmark (experiment A4) runs every Section-3 baseline and VPM
over the same ingress/egress observations.  This adapter drives a
:class:`~repro.core.sampling.DelaySampler` and
:class:`~repro.core.aggregation.Aggregator` at each monitor and estimates with
the same machinery the real verifier uses, so the comparison reflects the
actual core implementation rather than a re-coded approximation.  Each
monitor's observations reach the core as one sorted batch when the estimate
is made.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import MeasurementProtocol, ProtocolEstimate
from repro.core.aggregation import Aggregator, AggregatorConfig
from repro.core.estimation import DEFAULT_QUANTILES
from repro.core.partition import aligned_aggregates
from repro.core.receipts import PathID
from repro.core.sampling import DelaySampler, SamplerConfig
from repro.net.prefixes import OriginPrefix, PrefixPair

__all__ = ["VPMProtocolAdapter"]


def _adapter_path_id(reporting_hop: int) -> PathID:
    """A synthetic PathID for the standalone two-monitor setting."""
    pair = PrefixPair(
        source=OriginPrefix.parse("10.1.0.0/16"),
        destination=OriginPrefix.parse("10.2.0.0/16"),
    )
    return PathID(
        prefix_pair=pair,
        reporting_hop=reporting_hop,
        previous_hop=reporting_hop - 1,
        next_hop=reporting_hop + 1,
        max_diff=1e-3,
    )


class VPMProtocolAdapter(MeasurementProtocol):
    """VPM (sampling + aggregation) behind the two-monitor interface."""

    name = "vpm"
    sampling_predictable = False

    def __init__(
        self,
        sampling_rate: float = 0.01,
        expected_aggregate_size: int = 1000,
        quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
        reorder_window: float = 0.5e-3,
    ) -> None:
        self.quantiles = quantiles
        self._sampler_config = SamplerConfig(sampling_rate=sampling_rate)
        self._aggregator_config = AggregatorConfig(
            expected_aggregate_size=expected_aggregate_size,
            reorder_window=reorder_window,
        )
        self._ingress: list[tuple[int, float]] = []
        self._egress: list[tuple[int, float]] = []

    def observe_ingress(self, digest: int, time: float) -> None:
        self._ingress.append((digest, time))

    def observe_egress(self, digest: int, time: float) -> None:
        self._egress.append((digest, time))

    def _receipts(self, observations: list[tuple[int, float]], reporting_hop: int):
        """One monitor's sample receipt and flushed aggregate receipts.

        A fresh sampler and aggregator take the monitor's observations as
        one batch.
        """
        path_id = _adapter_path_id(reporting_hop)
        digests = np.array([digest for digest, _ in observations], dtype=np.uint64)
        times = np.array([time for _, time in observations], dtype=np.float64)
        sampler = DelaySampler(self._sampler_config)
        aggregator = Aggregator(self._aggregator_config)
        sampler.observe_batch(digests, times)
        aggregator.observe_batch(digests, times)
        aggregator.flush()
        return sampler.receipt(path_id), aggregator.receipts(path_id)

    def estimate(self) -> ProtocolEstimate:
        from repro.core.estimation import estimate_delay_quantiles, match_sample_delays

        ingress_samples, ingress_aggs = self._receipts(self._ingress, reporting_hop=1)
        egress_samples, egress_aggs = self._receipts(self._egress, reporting_hop=2)

        delays = match_sample_delays(ingress_samples, egress_samples)
        if delays.size:
            quantile_estimates = estimate_delay_quantiles(delays, self.quantiles)
            delay_quantiles = {
                quantile: estimate.estimate
                for quantile, estimate in quantile_estimates.items()
            }
            mean_delay = float(delays.mean())
        else:
            delay_quantiles = None
            mean_delay = None

        aligned = aligned_aggregates(ingress_aggs, egress_aggs)
        offered = sum(pair.upstream.pkt_count for pair in aligned)
        lost = sum(max(pair.lost_packets, 0) for pair in aligned)
        receipt_bytes = (
            ingress_samples.wire_bytes
            + egress_samples.wire_bytes
            + sum(receipt.wire_bytes for receipt in ingress_aggs)
            + sum(receipt.wire_bytes for receipt in egress_aggs)
        )
        return ProtocolEstimate(
            protocol=self.name,
            loss_rate=(lost / offered) if offered else None,
            mean_delay=mean_delay,
            delay_quantiles=delay_quantiles,
            receipt_bytes=receipt_bytes,
            observed_packets=len(self._ingress),
            notes="bias-resistant sampling + reordering-tolerant aggregation",
        )
