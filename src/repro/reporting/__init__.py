"""Receipt dissemination, the receipts digest and the Section 7.1 overhead model."""

from repro.reporting.dissemination import ReceiptBus
from repro.reporting.overhead import (
    BandwidthOverheadModel,
    CollectorMemoryModel,
    PerPacketProcessingModel,
)

__all__ = [
    "BandwidthOverheadModel",
    "CollectorMemoryModel",
    "PerPacketProcessingModel",
    "ReceiptBus",
]
