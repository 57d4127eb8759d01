"""Packet-digest hash functions.

The paper's prototype uses the "Bob" hash (Bob Jenkins' ``lookup2`` hash),
reported by Molina et al. to mix Internet header bytes well.  We implement
``lookup2`` from scratch (:func:`bob_hash`), plus FNV-1a and splitmix64 as
auxiliary mixers, and two higher-level constructions used by the VPM
algorithms:

* :class:`PacketDigester` — computes a 64-bit digest of a packet's IP and
  transport headers (plus a small payload prefix), the quantity written as
  ``Digest(p)`` in Algorithms 1 and 2.
* :func:`sample_function` — the keyed ``SampleFcn(Digest(q), Digest(p))`` of
  Algorithm 1, which combines the digest of a buffered packet with the digest
  of the *marker* packet observed later on the same path.  Keying the decision
  on future traffic is what makes the sampling bias-resistant.

All digests are uniform 64-bit integers; thresholds are expressed as fractions
of the 64-bit space via :func:`threshold_for_rate`.

Every scalar kernel has an array twin (``*_batch``) operating on NumPy
arrays.  The batch kernels are bit-for-bit identical to the scalar ones — the
scalar implementations remain the reference oracle, and the property tests in
``tests/property/test_prop_batch_parity.py`` cross-check them on random
inputs.  Each batch kernel computes in its algorithm's native lane width and
lets the lanes wrap instead of masking: lookup2 runs on uint32 lanes (its
result widened to uint64 once, at the end), FNV-1a and splitmix64 on uint64
lanes updated in place.  The batch path is what lets the collector hot loop
run millions of packets per second instead of a few hundred thousand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MASK32",
    "MASK64",
    "bob_hash",
    "bob_hash_batch",
    "fnv1a_64",
    "fnv1a_64_batch",
    "splitmix64",
    "splitmix64_batch",
    "combine64",
    "combine64_batch",
    "sample_function",
    "threshold_for_rate",
    "as_digest_array",
    "PacketDigester",
]

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF

_GOLDEN_RATIO_32 = 0x9E3779B9


def _mix(a: int, b: int, c: int) -> tuple[int, int, int]:
    """The 96-bit mixing step of Bob Jenkins' lookup2 hash."""
    a = (a - b - c) & MASK32
    a ^= (c >> 13)
    b = (b - c - a) & MASK32
    b ^= (a << 8) & MASK32
    c = (c - a - b) & MASK32
    c ^= (b >> 13)
    a = (a - b - c) & MASK32
    a ^= (c >> 12)
    b = (b - c - a) & MASK32
    b ^= (a << 16) & MASK32
    c = (c - a - b) & MASK32
    c ^= (b >> 5)
    a = (a - b - c) & MASK32
    a ^= (c >> 3)
    b = (b - c - a) & MASK32
    b ^= (a << 10) & MASK32
    c = (c - a - b) & MASK32
    c ^= (b >> 15)
    return a, b, c


def bob_hash(data: bytes, initval: int = 0) -> int:
    """Bob Jenkins' lookup2 hash of ``data`` (32-bit output).

    This is the "Bob" hash referenced by the paper's prototype [19].  The
    implementation follows the original C routine: the input is consumed in
    12-byte blocks, each block mixed into a 96-bit internal state, with the
    length and ``initval`` folded into the tail block.
    """
    if initval < 0:
        raise ValueError(f"initval must be non-negative, got {initval}")
    length = len(data)
    a = b = _GOLDEN_RATIO_32
    c = initval & MASK32

    i = 0
    remaining = length
    while remaining >= 12:
        a = (a + int.from_bytes(data[i : i + 4], "little")) & MASK32
        b = (b + int.from_bytes(data[i + 4 : i + 8], "little")) & MASK32
        c = (c + int.from_bytes(data[i + 8 : i + 12], "little")) & MASK32
        a, b, c = _mix(a, b, c)
        i += 12
        remaining -= 12

    c = (c + length) & MASK32
    tail = data[i:]
    # The original routine adds the tail bytes into a/b/c with per-byte shifts;
    # byte 8 of the tail is skipped for c because the length occupies its slot.
    for offset, byte in enumerate(tail):
        if offset < 4:
            a = (a + (byte << (8 * offset))) & MASK32
        elif offset < 8:
            b = (b + (byte << (8 * (offset - 4)))) & MASK32
        else:
            c = (c + (byte << (8 * (offset - 7)))) & MASK32
    a, b, c = _mix(a, b, c)
    return c


def _mix_batch(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    """Array twin of :func:`_mix` on native uint32 lanes.

    Subtraction and left shifts wrap modulo 2**32 in the lane width itself,
    so no step needs the scalar routine's ``& MASK32``.  Mutates
    ``a``/``b``/``c`` in place — callers must own the arrays.
    """
    spare = np.empty_like(a)
    for left, mid, right, shift, direction in (
        (a, b, c, 13, ">>"),
        (b, c, a, 8, "<<"),
        (c, a, b, 13, ">>"),
        (a, b, c, 12, ">>"),
        (b, c, a, 16, "<<"),
        (c, a, b, 5, ">>"),
        (a, b, c, 3, ">>"),
        (b, c, a, 10, "<<"),
        (c, a, b, 15, ">>"),
    ):
        left -= mid
        left -= right
        if direction == ">>":
            np.right_shift(right, np.uint32(shift), out=spare)
        else:
            np.left_shift(right, np.uint32(shift), out=spare)
        left ^= spare


def as_digest_array(digests) -> np.ndarray:
    """Coerce a digest sequence into a 1-D uint64 array.

    Rejects negative or >64-bit values (the batch twin of the scalar paths'
    per-digest range checks) instead of silently wrapping them.
    """
    values = np.asarray(digests)
    if values.dtype != np.uint64:
        if values.dtype.kind in "iu":
            if values.size and int(values.min()) < 0:
                raise ValueError("digests must be 64-bit values, got a negative entry")
            values = values.astype(np.uint64)
        else:
            # Object/float arrays: go through Python ints so out-of-range
            # values raise instead of silently wrapping.
            values = np.fromiter(
                (int(value) for value in values), dtype=np.uint64, count=values.size
            )
    if values.ndim != 1:
        raise ValueError(f"digests must be a 1-D array, got shape {values.shape}")
    return values


def _as_byte_matrix(data: np.ndarray) -> np.ndarray:
    """Validate/coerce a batch-kernel input into a 2-D uint8 matrix."""
    matrix = np.asarray(data)
    if matrix.dtype != np.uint8:
        raise ValueError(f"expected a uint8 byte matrix, got dtype {matrix.dtype}")
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D byte matrix, got shape {matrix.shape}")
    return matrix


def bob_hash_batch(data: np.ndarray, initval: int = 0) -> np.ndarray:
    """Array twin of :func:`bob_hash`.

    ``data`` is a ``(n, length)`` uint8 matrix — one row per packet, all rows
    the same length (which is how packet invariant bytes come out of a
    columnar batch).  Returns a uint64 array of ``n`` 32-bit hash values,
    bit-for-bit equal to ``[bob_hash(row.tobytes(), initval) for row in data]``.
    """
    if initval < 0:
        raise ValueError(f"initval must be non-negative, got {initval}")
    matrix = _as_byte_matrix(data)
    count, length = matrix.shape

    # Zero-pad each row to whole 12-byte blocks plus one spare block, then
    # view the bytes as little-endian 32-bit words: the per-block adds become
    # three word adds, and the per-byte tail adds of the original routine
    # collapse into word adds too (zero padding contributes nothing, and the
    # third tail word is shifted one byte because the length occupies byte 8).
    # The state lanes are uint32, so every add wraps exactly as ``& MASK32``.
    full_blocks = length // 12
    padded = np.zeros((count, (full_blocks + 1) * 12), dtype=np.uint8)
    padded[:, :length] = matrix
    words = padded.view("<u4")

    a = np.full(count, _GOLDEN_RATIO_32, dtype=np.uint32)
    b = a.copy()
    c = np.full(count, initval & MASK32, dtype=np.uint32)

    for block in range(full_blocks):
        a += words[:, 3 * block]
        b += words[:, 3 * block + 1]
        c += words[:, 3 * block + 2]
        _mix_batch(a, b, c)

    c += np.uint32(length & MASK32)
    a += words[:, 3 * full_blocks]
    b += words[:, 3 * full_blocks + 1]
    c += words[:, 3 * full_blocks + 2] << np.uint32(8)
    _mix_batch(a, b, c)
    return c.astype(np.uint64)


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash, used as a second independent mixer."""
    value = 0xCBF29CE484222325
    for byte in data:
        value ^= byte
        value = (value * 0x100000001B3) & MASK64
    return value


def fnv1a_64_batch(data: np.ndarray) -> np.ndarray:
    """Array twin of :func:`fnv1a_64` over a ``(n, length)`` uint8 matrix.

    Each byte column is XORed and multiplied into the uint64 state in place;
    the multiply wraps modulo 2**64 like the scalar ``& MASK64``.
    """
    matrix = _as_byte_matrix(data)
    count, length = matrix.shape
    prime = np.uint64(0x100000001B3)
    value = np.full(count, 0xCBF29CE484222325, dtype=np.uint64)
    for column in range(length):
        value ^= matrix[:, column]
        value *= prime
    return value


def splitmix64(value: int) -> int:
    """SplitMix64 finalizer: a cheap, high-quality 64-bit integer mixer."""
    value = (value + 0x9E3779B97F4A7C15) & MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & MASK64
    return (value ^ (value >> 31)) & MASK64


def splitmix64_batch(values: np.ndarray) -> np.ndarray:
    """Array twin of :func:`splitmix64` over a uint64 array."""
    value = np.add(np.asarray(values, dtype=np.uint64), np.uint64(0x9E3779B97F4A7C15))
    value ^= value >> np.uint64(30)
    value *= np.uint64(0xBF58476D1CE4E5B9)
    value ^= value >> np.uint64(27)
    value *= np.uint64(0x94D049BB133111EB)
    value ^= value >> np.uint64(31)
    return value


def combine64(first: int, second: int) -> int:
    """Combine two 64-bit values into one, order-sensitively."""
    return splitmix64((first ^ splitmix64(second)) & MASK64)


def combine64_batch(first: np.ndarray, second: np.ndarray | int) -> np.ndarray:
    """Array twin of :func:`combine64`; ``second`` may be a scalar (broadcast)."""
    first = np.asarray(first, dtype=np.uint64)
    if isinstance(second, (int, np.integer)):
        second = np.uint64(int(second) & MASK64)
    else:
        second = np.asarray(second, dtype=np.uint64)
    return splitmix64_batch(first ^ splitmix64_batch(np.atleast_1d(second)))


def sample_function(buffered_digest: int, marker_digest: int) -> int:
    """``SampleFcn(Digest(q), Digest(p))`` from Algorithm 1.

    ``buffered_digest`` is the digest of a packet ``q`` held in the temporary
    buffer; ``marker_digest`` is the digest of the marker packet ``p`` observed
    later on the same path.  The output is a uniform 64-bit value that every
    HOP on the path computes identically, but which no HOP can predict before
    the marker has been forwarded.
    """
    return combine64(buffered_digest & MASK64, marker_digest & MASK64)


def threshold_for_rate(rate: float) -> int:
    """Threshold ``t`` such that ``P(uniform 64-bit digest > t) == rate``.

    Used to turn a human-friendly sampling/marker/partition *rate* into the
    threshold compared against digests in Algorithms 1 and 2.

    >>> threshold_for_rate(1.0)
    0
    >>> threshold_for_rate(0.0) == MASK64
    True
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate!r}")
    # Clamp: floating-point rounding of (1 - rate) * MASK64 can land one past
    # the 64-bit range for rates very close to zero.
    return min(int(round((1.0 - rate) * MASK64)), MASK64)


@dataclass(frozen=True)
class PacketDigester:
    """Computes the per-packet digest ``Digest(p)`` used by all HOPs on a path.

    The digest covers the packet's invariant header fields (addresses, ports,
    protocol, IP identification) and the first ``payload_prefix`` bytes of the
    payload, mirroring the paper's prototype which hashes "each packet's IP and
    transport headers".  Mutable fields such as TTL are deliberately excluded
    so every HOP on the path computes the same digest for the same packet.

    Parameters
    ----------
    seed:
        Folded into the hash as the lookup2 ``initval``.  All HOPs on a path
        must share the same seed (it is a system-wide constant in VPM);
        distinct seeds model protocol variants in tests.
    payload_prefix:
        Number of payload bytes included in the digest (default 8, "a small
        portion of packet payload" per the paper's Assumption 3).
    """

    seed: int = 0
    payload_prefix: int = 8

    def digest(self, packet: "Packet") -> int:  # noqa: F821 - forward ref
        """Return the 64-bit digest of ``packet``.

        Digests are memoized on the packet (keyed by the digester's seed and
        payload prefix): every HOP on a path uses the same system-wide digest
        parameters, so in the simulation the same value would otherwise be
        recomputed once per HOP.
        """
        cache = packet._invariant_cache
        key = ("digest", self.seed, self.payload_prefix)
        cached = cache.get(key)
        if cached is not None:
            return cached
        material = packet.invariant_bytes(self.payload_prefix)
        low = bob_hash(material, initval=self.seed & MASK32)
        high = bob_hash(material, initval=(self.seed + 1) & MASK32)
        value = combine64((high << 32) | low, fnv1a_64(material))
        cache[key] = value
        return value

    def __call__(self, packet: "Packet") -> int:  # noqa: F821 - forward ref
        return self.digest(packet)

    def digest_batch(self, batch) -> np.ndarray:
        """Return the 64-bit digests of a whole packet batch as a uint64 array.

        ``batch`` is either a columnar :class:`repro.net.batch.PacketBatch`
        (anything exposing ``invariant_matrix(payload_prefix)``) or a raw
        ``(n, length)`` uint8 matrix of invariant bytes.  The result is
        bit-for-bit identical to calling :meth:`digest` on each packet.

        Like the scalar path, digests are memoized on the batch (keyed by seed
        and payload prefix) so the several HOPs of a simulated path hash each
        packet only once.
        """
        cache = getattr(batch, "_digest_cache", None)
        key = (self.seed, self.payload_prefix)
        if cache is not None:
            cached = cache.get(key)
            if cached is not None:
                return cached
        # A batch derived via take() delegates to its root so the hash runs
        # once per source packet no matter how many HOPs observe a slice.
        root = getattr(batch, "_digest_root", None)
        if root is not None:
            values = self.digest_batch(root)[batch._root_indices]
            cache[key] = values
            return values
        if hasattr(batch, "invariant_matrix"):
            material = batch.invariant_matrix(self.payload_prefix)
        else:
            material = _as_byte_matrix(batch)
        low = bob_hash_batch(material, initval=self.seed & MASK32)
        high = bob_hash_batch(material, initval=(self.seed + 1) & MASK32)
        combined = (high << np.uint64(32)) | low
        values = combine64_batch(combined, fnv1a_64_batch(material))
        if cache is not None:
            cache[key] = values
        return values
