"""Network substrate: packets, batches, hashing, prefixes, links, topology."""

from repro.net.batch import PacketBatch
from repro.net.hashing import (
    PacketDigester,
    bob_hash,
    bob_hash_batch,
    fnv1a_64,
    fnv1a_64_batch,
    splitmix64,
    splitmix64_batch,
)
from repro.net.link import InterDomainLink, LinkSpec
from repro.net.packet import Packet, PacketHeaders
from repro.net.prefixes import OriginPrefix, PrefixPair
from repro.net.topology import Domain, HOP, HOPPath, Topology

__all__ = [
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
    "PrefixPair",
    "Topology",
    "bob_hash",
    "bob_hash_batch",
    "fnv1a_64",
    "fnv1a_64_batch",
    "splitmix64",
    "splitmix64_batch",
]
