"""Distributed campaign dispatch across worker processes and hosts.

See :mod:`repro.dist.dispatch` for the coordinator (the store's single,
in-order writer) and the worker loop, and :mod:`repro.dist.net` for the
HTTP protocol between them: coordinator-clock leases, digest-checked
uploads, and workers that need no access to the run store.
"""

from repro.dist.dispatch import (
    DISPATCH_DIR,
    ChaosSchedule,
    DispatchCoordinator,
    DispatchError,
    DispatchWorker,
    StagingArea,
    dispatch_campaign,
    validate_dispatch_policy,
)
from repro.dist.net import (
    Claim,
    DispatchHub,
    HTTPTransport,
    LeaseRenewer,
    NetworkClaimBoard,
    ProtocolError,
    TransportError,
)

__all__ = [
    "DISPATCH_DIR",
    "ChaosSchedule",
    "Claim",
    "DispatchCoordinator",
    "DispatchError",
    "DispatchHub",
    "DispatchWorker",
    "HTTPTransport",
    "LeaseRenewer",
    "NetworkClaimBoard",
    "ProtocolError",
    "StagingArea",
    "TransportError",
    "dispatch_campaign",
    "validate_dispatch_policy",
]
