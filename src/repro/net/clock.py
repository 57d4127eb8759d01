"""Clock models.

VPM "does not require that HOPs have synchronized clocks", but a domain's
delay performance is estimated from timestamps reported by its own HOPs, and
adjacent HOPs from neighboring domains must stay within the advertised
``MaxDiff`` of one another.  :class:`Clock` is the interface a HOP's collector
reads its timestamps through, one at a time or as a batch; the runs use
:class:`PerfectClock`, and a clock with offset, drift or jitter plugs in as a
subclass.

All clocks map a *true* virtual time (seconds, as maintained by the
simulation engine) to the *local* timestamp a HOP would write into a receipt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import RNGStateMixin

__all__ = ["Clock", "PerfectClock"]


class Clock(RNGStateMixin):
    """Base class: a mapping from true time to a HOP's local timestamp."""

    def read(self, true_time: float) -> float:
        """Return the local timestamp the clock reports at ``true_time``."""
        raise NotImplementedError

    def read_batch(self, true_times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`read` over an array of true times.

        The base implementation loops so every subclass is batch-capable.  An
        override must return what repeated scalar reads would, drawing any
        RNG stream in the same order.
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
