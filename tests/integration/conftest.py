"""Shared fixtures for the integration tests.

The integration tests exercise the full pipeline (trace → path scenario →
HOP collectors → receipts → verifier) on a moderately sized packet sequence.
The sequence is generated once per session; scenarios derive their own
impairments from it.
"""

from __future__ import annotations

import pytest

from repro.core.aggregation import AggregatorConfig
from repro.core.hop import HOPConfig
from repro.core.sampling import SamplerConfig
from repro.traffic.flows import FlowGeneratorConfig
from repro.traffic.trace import SyntheticTrace, TraceConfig


@pytest.fixture(scope="session")
def integration_batch(prefix_pair):
    """A 12k-packet sequence at the paper's 100k packets-per-second rate."""
    config = TraceConfig(
        packet_count=12_000,
        packets_per_second=100_000.0,
        flow_config=FlowGeneratorConfig(),
    )
    return SyntheticTrace(config=config, prefix_pair=prefix_pair, seed=101).packet_batch()


@pytest.fixture(scope="session")
def default_hop_config() -> HOPConfig:
    """A moderately aggressive configuration suited to the 12k-packet trace."""
    return HOPConfig(
        sampler=SamplerConfig(sampling_rate=0.05, marker_rate=0.005),
        aggregator=AggregatorConfig(expected_aggregate_size=1000),
    )
