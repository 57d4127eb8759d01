"""Clock models.

VPM "does not require that HOPs have synchronized clocks", but a domain's
delay performance is estimated from timestamps reported by its own HOPs, and
adjacent HOPs from neighboring domains must stay within the advertised
``MaxDiff`` of one another.  These classes model per-HOP clocks with offset,
drift and jitter so the reproduction can study what imperfect synchronization
does to estimation accuracy and to receipt consistency.

All clocks map a *true* virtual time (seconds, as maintained by the
simulation engine) to the *local* timestamp a HOP would write into a receipt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import RNGStateMixin, make_rng
from repro.util.validation import check_non_negative

__all__ = ["Clock", "PerfectClock", "ClockModel"]


class Clock(RNGStateMixin):
    """Base class: a mapping from true time to a HOP's local timestamp."""

    def read(self, true_time: float) -> float:
        """Return the local timestamp the clock reports at ``true_time``."""
        raise NotImplementedError

    def read_batch(self, true_times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`read` over an array of true times.

        The base implementation loops so every subclass is batch-capable;
        the built-in clocks override it with array arithmetic that draws the
        same RNG stream as repeated scalar reads.
        """
        times = np.asarray(true_times, dtype=np.float64)
        return np.asarray([self.read(float(value)) for value in times], dtype=np.float64)

    def __call__(self, true_time: float) -> float:
        return self.read(true_time)


@dataclass(frozen=True)
class PerfectClock(Clock):
    """A clock perfectly synchronized to true time (offset and drift zero)."""

    def read(self, true_time: float) -> float:
        return float(true_time)

    def read_batch(self, true_times: np.ndarray) -> np.ndarray:
        return np.asarray(true_times, dtype=np.float64).copy()


class ClockModel(Clock):
    """A clock with constant offset, linear drift and per-read jitter.

    Parameters
    ----------
    offset:
        Constant offset (seconds) relative to true time.  NTP over a WAN keeps
        this within roughly a millisecond, per the paper's discussion.
    drift_ppm:
        Linear drift in parts per million (crystal oscillators are typically
        within tens of ppm).
    jitter_std:
        Standard deviation (seconds) of independent per-read noise, modelling
        timestamping granularity in the router data plane.
    seed:
        Seed for the jitter stream; irrelevant when ``jitter_std`` is zero.
    """

    def __init__(
        self,
        offset: float = 0.0,
        drift_ppm: float = 0.0,
        jitter_std: float = 0.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.offset = float(offset)
        self.drift_ppm = float(drift_ppm)
        self.jitter_std = check_non_negative("jitter_std", float(jitter_std))
        self._rng = make_rng(seed)

    def read(self, true_time: float) -> float:
        local = true_time + self.offset + true_time * self.drift_ppm * 1e-6
        if self.jitter_std > 0.0:
            local += float(self._rng.normal(0.0, self.jitter_std))
        return local

    def read_batch(self, true_times: np.ndarray) -> np.ndarray:
        times = np.asarray(true_times, dtype=np.float64)
        # Same operation order as the scalar read, for bit-identical floats.
        local = times + self.offset + times * self.drift_ppm * 1e-6
        if self.jitter_std > 0.0:
            # Generator.normal draws the same stream whether requested one at
            # a time or as an array, so this matches repeated scalar reads.
            local = local + self._rng.normal(0.0, self.jitter_std, size=times.shape)
        return local

    def __repr__(self) -> str:
        return (
            f"ClockModel(offset={self.offset!r}, drift_ppm={self.drift_ppm!r}, "
            f"jitter_std={self.jitter_std!r})"
        )

