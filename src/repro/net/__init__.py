"""Network substrate: packets, batches, hashing, prefixes, clocks, links, topology."""

from repro.net.batch import PacketBatch
from repro.net.clock import Clock, PerfectClock
from repro.net.hashing import (
    PacketDigester,
    bob_hash,
    bob_hash_batch,
    fnv1a_64,
    fnv1a_64_batch,
    sample_function,
    splitmix64,
    splitmix64_batch,
)
from repro.net.link import InterDomainLink, LinkSpec
from repro.net.packet import Packet, PacketHeaders
from repro.net.prefixes import OriginPrefix, PrefixPair
from repro.net.topology import Domain, HOP, HOPPath, Topology

__all__ = [
    "Clock",
    "Domain",
    "HOP",
    "HOPPath",
    "InterDomainLink",
    "LinkSpec",
    "OriginPrefix",
    "Packet",
    "PacketBatch",
    "PacketDigester",
    "PacketHeaders",
    "PerfectClock",
    "PrefixPair",
    "Topology",
    "bob_hash",
    "bob_hash_batch",
    "fnv1a_64",
    "fnv1a_64_batch",
    "sample_function",
    "splitmix64",
    "splitmix64_batch",
]
