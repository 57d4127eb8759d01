"""Packet-loss models.

The paper's evaluation "introduces loss" into a trace using the Gilbert-Elliott
model [9], a two-state Markov chain with a *good* state (low loss) and a *bad*
state (high loss) that produces the bursty loss patterns seen on congested
links.  We implement that model, plus independent (Bernoulli) loss and a
no-loss model, all behind a common :class:`LossModel` interface.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.util.rng import RNGStateMixin, make_rng
from repro.util.validation import check_probability

__all__ = [
    "LossModel",
    "NoLossModel",
    "BernoulliLossModel",
    "GilbertElliottLossModel",
]

#: Uniforms per block of :meth:`GilbertElliottLossModel.drops_batch`; bounds
#: its transient memory on multi-million packet batches.
_RUN_BLOCK = 1 << 14


class LossModel(RNGStateMixin):
    """Decides, packet by packet, whether a packet is dropped.

    ``streamable`` declares that consecutive :meth:`drops`/:meth:`drops_batch`
    calls over a split packet sequence draw the same RNG stream (and reach the
    same states) as one whole-sequence call.  That is true by construction for
    the base per-packet implementation and for every built-in override —
    Bernoulli's array draw and Gilbert-Elliott's run-length walk, which
    gives back the uniforms a block over-draws; a custom ``drops_batch``
    override whose draw pattern depends on the call size must set it
    ``False`` to be excluded from the streaming engine.
    """

    streamable: bool = True

    def drops(self, packet_index: int) -> bool:
        """Return ``True`` if the ``packet_index``-th packet is dropped.

        The index is advisory: callers pass positions relative to whatever
        span they hold (a chunk, or only the packets a domain consults), and
        every built-in model ignores it — the decision depends only on the
        model's state and its position in its random stream.
        """
        raise NotImplementedError

    def drops_batch(self, first_index: int, count: int) -> np.ndarray:
        """Vectorized :meth:`drops` for ``count`` consecutive packets.

        The base implementation advances the model packet by packet, so any
        subclass is batch-capable with identical results.  The built-in
        models override it on the same RNG stream: memoryless models with a
        single array draw, Gilbert-Elliott with a walk over its state runs.
        """
        return np.fromiter(
            (self.drops(first_index + offset) for offset in range(count)),
            dtype=bool,
            count=count,
        )


@dataclass
class NoLossModel(LossModel):
    """A lossless segment."""

    def drops(self, packet_index: int) -> bool:
        return False

    def drops_batch(self, first_index: int, count: int) -> np.ndarray:
        return np.zeros(count, dtype=bool)


class BernoulliLossModel(LossModel):
    """Independent per-packet loss with a fixed probability."""

    def __init__(self, loss_rate: float, seed: int | np.random.Generator | None = None) -> None:
        self.loss_rate = check_probability("loss_rate", loss_rate)
        self._rng = make_rng(seed)

    def drops(self, packet_index: int) -> bool:
        if self.loss_rate == 0.0:
            return False
        return bool(self._rng.random() < self.loss_rate)

    def drops_batch(self, first_index: int, count: int) -> np.ndarray:
        if self.loss_rate == 0.0:
            return np.zeros(count, dtype=bool)
        # Generator.random draws the same stream batched or one at a time.
        return self._rng.random(count) < self.loss_rate

    def __repr__(self) -> str:
        return f"BernoulliLossModel(loss_rate={self.loss_rate!r})"


class GilbertElliottLossModel(LossModel):
    """The Gilbert-Elliott two-state Markov loss model.

    The chain alternates between a *good* state ``G`` and a *bad* state ``B``.
    In state ``G`` packets are lost with probability ``loss_good`` (often 0);
    in state ``B`` with probability ``loss_bad``.  Transition probabilities
    ``p`` (G→B) and ``r`` (B→G) control burst length: the mean bad-burst
    length is ``1/r`` packets.

    The convenience constructor :meth:`from_target_rate` chooses ``p`` for a
    desired long-run loss rate given ``r`` and the per-state loss
    probabilities, which is how the benchmarks sweep loss from 0 to 50%.
    """

    def __init__(
        self,
        p: float,
        r: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.p = check_probability("p", p)
        self.r = check_probability("r", r)
        self.loss_good = check_probability("loss_good", loss_good)
        self.loss_bad = check_probability("loss_bad", loss_bad)
        self._rng = make_rng(seed)
        self._in_bad_state = False

    @classmethod
    def from_target_rate(
        cls,
        target_rate: float,
        mean_burst_length: float = 8.0,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
        seed: int | np.random.Generator | None = None,
    ) -> "GilbertElliottLossModel":
        """Build a model whose long-run loss rate equals ``target_rate``.

        ``mean_burst_length`` is the expected number of packets spent in the
        bad state per excursion (``1/r``).  The stationary probability of the
        bad state is ``pi_B = p / (p + r)``; the long-run loss rate is
        ``pi_G * loss_good + pi_B * loss_bad``, which we invert for ``p``.
        """
        check_probability("target_rate", target_rate)
        if mean_burst_length < 1.0:
            raise ValueError(
                f"mean_burst_length must be >= 1 packet, got {mean_burst_length}"
            )
        if target_rate == 0.0:
            return cls(p=0.0, r=1.0, loss_good=0.0, loss_bad=loss_bad, seed=seed)
        if not loss_good <= target_rate <= loss_bad:
            raise ValueError(
                f"target_rate {target_rate} is not achievable with "
                f"loss_good={loss_good}, loss_bad={loss_bad}"
            )
        r = 1.0 / mean_burst_length
        # Solve pi_B from target = (1-pi_B)*loss_good + pi_B*loss_bad.
        pi_bad = (target_rate - loss_good) / (loss_bad - loss_good)
        if pi_bad >= 1.0:
            p = 1.0
        else:
            p = r * pi_bad / (1.0 - pi_bad)
        return cls(p=min(p, 1.0), r=r, loss_good=loss_good, loss_bad=loss_bad, seed=seed)

    def drops(self, packet_index: int) -> bool:
        # Advance the state machine once per packet, then draw the loss
        # outcome from the per-state loss probability.
        if self._in_bad_state:
            if self._rng.random() < self.r:
                self._in_bad_state = False
        else:
            if self._rng.random() < self.p:
                self._in_bad_state = True
        loss_probability = self.loss_bad if self._in_bad_state else self.loss_good
        if loss_probability <= 0.0:
            return False
        return bool(self._rng.random() < loss_probability)

    def drops_batch(self, first_index: int, count: int) -> np.ndarray:
        """:meth:`drops` for ``count`` packets, walked one state run at a time.

        A packet consumes one transition draw, plus one loss draw when the
        state it lands in has a loss probability above 0.  While the chain
        stays in a state, its packets' transition draws are therefore evenly
        spaced, so the next flip is the first qualifying draw at that spacing
        (a bisection per run) and the run's loss draws are every second draw
        from its first; one gathered comparison decides a block's losses.
        Uniforms come in blocks of at most :data:`_RUN_BLOCK`; the unconsumed
        tail of a block is given back by restoring the generator and drawing
        exactly the consumed count again, so the mask, the chain state and the
        generator state equal :meth:`drops`'s for every split of the packet
        sequence.
        """
        lost = np.zeros(count, dtype=bool)
        loss = (self.loss_good, self.loss_bad)
        flip = (self.p, self.r)
        # Draws per packet in each state (bad is index 1).
        stride = tuple(2 if probability > 0.0 else 1 for probability in loss)
        rng = self._rng
        bad = int(self._in_bad_state)
        done = 0
        while done < count:
            entry = rng.bit_generator.state
            uniforms = rng.random(min(_RUN_BLOCK, 2 * (count - done)))
            size = len(uniforms)
            # Flip draw positions per state, indexed by draw parity (a state
            # whose packets take two draws only flips on its own parity).
            flips = []
            for state in (0, 1):
                positions = np.flatnonzero(uniforms < flip[state])
                if stride[state] == 1:
                    flips.append((positions.tolist(),) * 2)
                else:
                    even = positions % 2 == 0
                    flips.append((positions[even].tolist(), positions[~even].tolist()))
            # Lossy runs as (first packet, packets, first loss draw, state).
            runs = []
            position = 0
            # Whether the run's first packet is already in the state (it
            # flipped into it) rather than still to be checked for a flip.
            entered = 0
            while done < count:
                step = stride[bad]
                first = position + step * entered
                candidates = flips[bad][first % 2]
                found = bisect_left(candidates, first)
                end = candidates[found] if found < len(candidates) else size
                packets = min(entered + (end - first) // step, count - done)
                if step == 2:
                    runs.append((done, packets, position + 1, bad))
                done += packets
                position += step * packets
                # Stop at the end of the packets, of the block, or before a
                # flipped packet whose draws the block does not hold.
                if done == count or end == size or position + stride[1 - bad] > size:
                    break
                bad = 1 - bad
                entered = 1
            if runs:
                first_packet, packets, first_draw, state = map(np.asarray, zip(*runs))
                offsets = np.arange(packets.sum()) - np.repeat(
                    np.cumsum(packets) - packets, packets
                )
                draws = uniforms[np.repeat(first_draw, packets) + 2 * offsets]
                lost[np.repeat(first_packet, packets) + offsets] = draws < np.repeat(
                    np.asarray(loss)[state], packets
                )
            if position < size:
                rng.bit_generator.state = entry
                rng.random(out=uniforms[:position])
        self._in_bad_state = bool(bad)
        return lost

    def state_snapshot(self) -> dict:
        state = super().state_snapshot()
        state["in_bad_state"] = bool(self._in_bad_state)
        return state

    def state_restore(self, state) -> None:
        super().state_restore(state)
        self._in_bad_state = bool(state["in_bad_state"])

    def __repr__(self) -> str:
        return (
            f"GilbertElliottLossModel(p={self.p!r}, r={self.r!r}, "
            f"loss_good={self.loss_good!r}, loss_bad={self.loss_bad!r})"
        )
