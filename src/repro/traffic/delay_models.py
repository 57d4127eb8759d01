"""Per-packet delay models for a domain's internal segment.

The paper generates delay ground truth by running ns-2 congestion scenarios
("long-lived TCP or UDP flows compete for/saturate the bandwidth of a
bottleneck link") and reports results for the scenario with the highest delay
variance at the shortest time scale — a bursty, high-rate UDP flow.  Our
substitution is :class:`CongestionDelayModel`, which drives the discrete-event
bottleneck-queue simulator in :mod:`repro.simulation.queueing` and exposes the
resulting per-packet delay series through the same :class:`DelayModel`
interface as the simpler analytic models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import make_rng
from repro.util.validation import check_non_negative, check_positive

__all__ = [
    "DelayModel",
    "ConstantDelayModel",
    "JitterDelayModel",
    "EmpiricalDelayModel",
    "CongestionDelayModel",
]


class DelayModel:
    """Produces the delay a domain adds to each packet of a sequence.

    ``streamable`` declares whether :meth:`delays` may be called on
    consecutive chunks of one arrival sequence with the same result as a
    single whole-sequence call.  That holds whenever the model's randomness is
    drawn sequentially, one fixed vector draw per call (the built-in analytic
    models); models that derive delays from the *whole* arrival series at once
    (:class:`CongestionDelayModel`) must set it ``False``, which excludes them
    from the streaming execution engine.
    """

    streamable: bool = True

    def delays(self, arrival_times: np.ndarray) -> np.ndarray:
        """Return the per-packet delay (seconds) for packets arriving at
        ``arrival_times`` (seconds, monotone non-decreasing)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantDelayModel(DelayModel):
    """Every packet experiences the same fixed delay."""

    delay: float = 1e-3

    def __post_init__(self) -> None:
        check_non_negative("delay", self.delay)

    def delays(self, arrival_times: np.ndarray) -> np.ndarray:
        return np.full(len(arrival_times), self.delay, dtype=float)


class JitterDelayModel(DelayModel):
    """A base delay plus non-negative random jitter (truncated normal)."""

    def __init__(
        self,
        base_delay: float = 1e-3,
        jitter_std: float = 0.5e-3,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.base_delay = check_non_negative("base_delay", base_delay)
        self.jitter_std = check_non_negative("jitter_std", jitter_std)
        self._rng = make_rng(seed)

    def delays(self, arrival_times: np.ndarray) -> np.ndarray:
        jitter = np.abs(self._rng.normal(0.0, self.jitter_std, size=len(arrival_times)))
        return self.base_delay + jitter

    def __repr__(self) -> str:
        return (
            f"JitterDelayModel(base_delay={self.base_delay!r}, "
            f"jitter_std={self.jitter_std!r})"
        )


@dataclass
class EmpiricalDelayModel(DelayModel):
    """Replays a precomputed delay series (cycled if shorter than the input).

    Useful for feeding externally generated delay traces — the role the ns-2
    output plays in the paper — into the path simulation.  The model keeps a
    position cursor: consecutive :meth:`delays` calls continue the series
    where the previous call stopped, so feeding a sequence in chunks replays
    exactly the delays one whole-sequence call would.  An independent run
    builds a fresh model.
    """

    series: np.ndarray = field(default_factory=lambda: np.array([1e-3]))

    def __post_init__(self) -> None:
        self.series = np.asarray(self.series, dtype=float)
        if self.series.ndim != 1 or len(self.series) == 0:
            raise ValueError("series must be a non-empty 1-D array of delays")
        if np.any(self.series < 0):
            raise ValueError("delays must be non-negative")
        self._cursor = 0

    def delays(self, arrival_times: np.ndarray) -> np.ndarray:
        count = len(arrival_times)
        period = len(self.series)
        offsets = (self._cursor + np.arange(count)) % period
        self._cursor = (self._cursor + count) % period
        return self.series[offsets]


class CongestionDelayModel(DelayModel):
    """Delay produced by a congested bottleneck inside the domain.

    The monitored packet sequence shares a FIFO bottleneck queue with
    configurable cross-traffic (long-lived AIMD TCP flows and/or a bursty
    high-rate UDP flow).  The queue is simulated by
    :class:`repro.simulation.queueing.BottleneckQueue`; this class translates
    arrival timestamps into per-packet queueing + transmission delays.

    Parameters
    ----------
    bottleneck_bandwidth_bps:
        Bottleneck link speed in bits per second.  ``None`` (the default)
        sizes the bottleneck automatically so the monitored sequence alone
        occupies ~60% of it, leaving room for cross-traffic to congest it.
    propagation_delay:
        Fixed propagation delay through the domain (seconds).
    monitored_packet_size:
        Size (bytes) assumed for monitored packets when the caller supplies
        only arrival times.
    scenario:
        ``"udp-burst"`` (the paper's headline scenario: a bursty, high-rate
        UDP flow), ``"tcp-mix"`` (long-lived TCP flows) or ``"mixed"``.
    utilization:
        Target offered load of the cross-traffic relative to the bottleneck
        capacity; values near or above 1.0 produce standing queues and the
        delay spikes the paper's Figure 2 scenario exhibits.

    Each :meth:`delays` call simulates a fresh congestion scenario over the
    *whole* arrival series, so the model is not ``streamable`` — chunked calls
    would congest each chunk independently.
    """

    streamable = False

    def __init__(
        self,
        bottleneck_bandwidth_bps: float | None = None,
        propagation_delay: float = 2e-3,
        monitored_packet_size: int = 400,
        scenario: str = "udp-burst",
        utilization: float = 0.95,
        queue_capacity_packets: int = 2000,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if bottleneck_bandwidth_bps is not None:
            check_positive("bottleneck_bandwidth_bps", bottleneck_bandwidth_bps)
        check_non_negative("propagation_delay", propagation_delay)
        check_positive("monitored_packet_size", monitored_packet_size)
        check_positive("utilization", utilization)
        check_positive("queue_capacity_packets", queue_capacity_packets)
        if scenario not in ("udp-burst", "tcp-mix", "mixed"):
            raise ValueError(
                f"scenario must be one of 'udp-burst', 'tcp-mix', 'mixed'; got {scenario!r}"
            )
        self.bottleneck_bandwidth_bps = (
            float(bottleneck_bandwidth_bps) if bottleneck_bandwidth_bps is not None else None
        )
        self.propagation_delay = float(propagation_delay)
        self.monitored_packet_size = int(monitored_packet_size)
        self.scenario = scenario
        self.utilization = float(utilization)
        self.queue_capacity_packets = int(queue_capacity_packets)
        self._rng = make_rng(seed)

    def delays(self, arrival_times: np.ndarray) -> np.ndarray:
        # Imported here to keep the traffic package import-light and avoid a
        # circular import with the simulation package.
        from repro.simulation.congestion import CongestionScenario

        arrival_times = np.asarray(arrival_times, dtype=float)
        if len(arrival_times) == 0:
            return np.zeros(0, dtype=float)
        scenario = CongestionScenario(
            bandwidth_bps=self.bottleneck_bandwidth_bps,
            scenario=self.scenario,
            utilization=self.utilization,
            queue_capacity_packets=self.queue_capacity_packets,
            seed=self._rng,
        )
        queueing_delays = scenario.monitored_delays(
            arrival_times, packet_size=self.monitored_packet_size
        )
        return queueing_delays + self.propagation_delay

    def __repr__(self) -> str:
        return (
            f"CongestionDelayModel(scenario={self.scenario!r}, "
            f"bandwidth={self.bottleneck_bandwidth_bps!r}, "
            f"utilization={self.utilization!r})"
        )
