"""Receipt dissemination, serialization and the Section 7.1 overhead model."""

from repro.reporting.dissemination import ReceiptBus
from repro.reporting.overhead import (
    BandwidthOverheadModel,
    CollectorMemoryModel,
    PerPacketProcessingModel,
    ResourceProfile,
)
from repro.reporting.serialization import (
    decode_report,
    encode_report,
    report_from_json,
    report_to_json,
)

__all__ = [
    "BandwidthOverheadModel",
    "CollectorMemoryModel",
    "PerPacketProcessingModel",
    "ReceiptBus",
    "ResourceProfile",
    "decode_report",
    "encode_report",
    "report_from_json",
    "report_to_json",
]
