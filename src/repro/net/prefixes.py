"""Origin prefixes and prefix pairs.

VPM names HOP paths "according to their source and destination routing
prefixes (that is, origin prefixes as advertised in BGP)".  This module
provides a small, dependency-free model of IPv4 origin prefixes and the
(source, destination) prefix pair that keys a HOP path.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OriginPrefix", "PrefixPair", "ip_to_int", "int_to_ip"]


def ip_to_int(address: str) -> int:
    """Convert a dotted-quad IPv4 address to a 32-bit integer.

    >>> ip_to_int("10.0.0.1")
    167772161
    """
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted-quad IPv4 address: {address!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"octet out of range in address {address!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Convert a 32-bit integer to a dotted-quad IPv4 address.

    >>> int_to_ip(167772161)
    '10.0.0.1'
    """
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"value out of IPv4 range: {value!r}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True, order=True)
class OriginPrefix:
    """An IPv4 origin prefix as advertised in BGP (e.g. ``10.1.0.0/16``)."""

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"prefix length must be in [0, 32], got {self.length}")
        if not 0 <= self.network <= 0xFFFFFFFF:
            raise ValueError(f"network must be a 32-bit value, got {self.network}")
        mask = self.mask
        if self.network & ~mask & 0xFFFFFFFF:
            raise ValueError(
                f"network {int_to_ip(self.network)} has host bits set for /{self.length}"
            )

    @property
    def mask(self) -> int:
        """The 32-bit network mask for this prefix length."""
        if self.length == 0:
            return 0
        return (0xFFFFFFFF << (32 - self.length)) & 0xFFFFFFFF

    @classmethod
    def parse(cls, text: str) -> "OriginPrefix":
        """Parse ``'a.b.c.d/len'`` notation.

        >>> OriginPrefix.parse("10.1.0.0/16")
        OriginPrefix(network=167837696, length=16)
        """
        try:
            address, length_text = text.split("/")
        except ValueError as exc:
            raise ValueError(f"expected 'address/length', got {text!r}") from exc
        return cls(network=ip_to_int(address), length=int(length_text))

    def contains(self, address):
        """Whether a host address (a string, an int or a ``uint32`` array) is in the prefix."""
        value = ip_to_int(address) if isinstance(address, str) else address
        return (value & self.mask) == self.network

    def host(self, index: int) -> int:
        """Return the ``index``-th host address inside the prefix (wrapping)."""
        host_bits = 32 - self.length
        span = 1 << host_bits
        return self.network | (index % span)

    def __str__(self) -> str:
        return f"{int_to_ip(self.network)}/{self.length}"


@dataclass(frozen=True, order=True)
class PrefixPair:
    """A (source, destination) origin-prefix pair — the key of a HOP path."""

    source: OriginPrefix
    destination: OriginPrefix

    def __str__(self) -> str:
        return f"{self.source}->{self.destination}"

    def matches(self, src_address, dst_address):
        """Whether packets with these addresses (ints or ``uint32`` arrays) belong to the pair."""
        return self.source.contains(src_address) & self.destination.contains(dst_address)
