"""Deterministic random-number management.

Every stochastic component in the reproduction (traffic generation, loss
models, congestion simulation, adversary behaviour) draws randomness from a
:class:`numpy.random.Generator` created through :func:`make_rng`.  Components
never touch the global NumPy state, which keeps experiments reproducible and
lets independent components be re-seeded without interfering with each other.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "make_rng",
    "derive_seed",
]


def make_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a NumPy random generator.

    Parameters
    ----------
    seed:
        ``None`` for entropy-based seeding, an integer for a fixed seed, or an
        existing generator which is returned unchanged (so call sites can
        accept either form).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(base_seed: int, *labels: object) -> int:
    """Derive a stable sub-seed from ``base_seed`` and a sequence of labels.

    The derivation hashes the base seed together with the textual form of the
    labels, so distinct components of an experiment ("loss", "delay",
    "trace", hop identifiers, ...) receive independent, reproducible streams.

    Examples
    --------
    >>> derive_seed(42, "loss") != derive_seed(42, "delay")
    True
    >>> derive_seed(42, "loss") == derive_seed(42, "loss")
    True
    """
    material = repr((int(base_seed),) + tuple(str(label) for label in labels))
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
