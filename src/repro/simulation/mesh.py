"""The mesh scenario: many HOP paths over one shared topology.

A :class:`MeshScenario` drives N paths of a topology at once.  Each path's
traffic propagates through its own :class:`PathScenario` — with its *own*
per-(path, domain) condition models, so a path's simulated outcome is
bit-identical to running it in isolation — and every HOP's observation stream
is the timestamp-ordered union of all paths crossing it (stable merge, ties
broken by path order).  That union is what a shared HOP's collector actually
sees in the paper's mesh setting; the per-(prefix-pair) classification inside
:class:`~repro.core.hop.HOPCollector` then recovers per-path receipts that
byte-match the isolated runs (the mesh/isolation parity property).

This module propagates and merges; it feeds no collector.
:class:`~repro.engine.streaming.StreamingRunner` drives
:attr:`MeshScenario.path_scenarios` one stream per path, in lockstep, and
feeds each HOP the :func:`merge_hop_streams` union of a round's spans — one
round on the batch engine, one per chunk on the streaming engine.

Per-path condition models (rather than one shared model applied to the
union) are a deliberate modelling choice: the stationary delay/loss models
are statistically exchangeable across the split, and per-path independence
is what makes mesh receipts exactly reconcilable with single-path runs —
the foundation of the conformance test subsystem.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

import numpy as np

from repro.net.batch import PacketBatch
from repro.net.topology import Domain, HOPPath, Topology
from repro.simulation.scenario import (
    BatchPathObservation,
    PathScenario,
    SegmentCondition,
)

__all__ = ["MeshScenario", "merge_hop_streams"]


def merge_hop_streams(
    spans: Sequence[tuple[PacketBatch, np.ndarray]],
) -> tuple[PacketBatch, np.ndarray]:
    """Stable timestamp merge of several paths' observation spans at one HOP.

    Spans are concatenated in the order given (path order) and stable-sorted
    by observation time, so equal timestamps keep path order — and, crucially,
    each path's packets keep their relative order, which is why per-path
    collector state is independent of how the paths interleave.
    """
    if len(spans) == 1:
        return spans[0]
    batch = PacketBatch.concat([entry[0] for entry in spans])
    times = np.concatenate([entry[1] for entry in spans])
    order = np.argsort(times, kind="stable")
    return batch.take(order), times[order]


class MeshScenario:
    """Propagates N paths' traffic over one shared topology.

    Parameters
    ----------
    topology, paths:
        The shared topology and the HOP paths to drive; prefix pairs must be
        distinct (they are what classifies shared-HOP traffic back into
        paths).
    seed:
        Seeds :func:`~repro.net.topology.generate_mesh_topology` when no
        topology is given.  It is also kept on every per-path
        :class:`PathScenario` for reference, but nothing there draws from it:
        the configured models and the topology's links carry their own seeds.

    Conditions are configured per domain via a *factory* called once per
    crossing path (:meth:`configure_domain`), because condition models carry
    RNG state and each path must consume an independent stream — see the
    module docstring.
    """

    def __init__(
        self,
        topology: Topology | None = None,
        paths: Sequence[HOPPath] | None = None,
        seed: int = 0,
    ) -> None:
        if (topology is None) != (paths is None):
            raise ValueError("provide both topology and paths, or neither")
        if topology is None:
            from repro.net.topology import generate_mesh_topology

            topology, paths = generate_mesh_topology(seed=seed)
        paths = tuple(paths)
        if not paths:
            raise ValueError("a mesh scenario needs at least one path")
        pairs = [path.prefix_pair for path in paths]
        if len(set(pairs)) != len(pairs):
            raise ValueError(
                "mesh paths must have distinct prefix pairs (they classify "
                "shared-HOP traffic back into paths)"
            )
        self.topology = topology
        self.paths = paths
        self.seed = int(seed)
        self.path_scenarios: tuple[PathScenario, ...] = tuple(
            PathScenario(topology, path, seed=seed) for path in paths
        )

    # -- configuration -----------------------------------------------------------------

    def transit_domain_names(self) -> tuple[str, ...]:
        """Names of all domains that are transit on at least one path, sorted."""
        names = {
            segment[0].name
            for path in self.paths
            for segment in path.domain_segments()
        }
        return tuple(sorted(names))

    def crossing_path_indices(self, domain: Domain | str) -> tuple[int, ...]:
        """Indices of the paths on which ``domain`` is a transit domain."""
        name = domain.name if isinstance(domain, Domain) else domain
        return tuple(
            index
            for index, path in enumerate(self.paths)
            if any(segment[0].name == name for segment in path.domain_segments())
        )

    def configure_domain(
        self,
        domain: Domain | str,
        condition_factory: Callable[[int], SegmentCondition],
    ) -> None:
        """Install a domain's forwarding behaviour on every crossing path.

        ``condition_factory(path_index)`` must return a *fresh*
        :class:`SegmentCondition` per call — per-path model instances are what
        keep each path's RNG stream independent of which other paths run.
        """
        indices = self.crossing_path_indices(domain)
        name = domain.name if isinstance(domain, Domain) else domain
        if not indices:
            known = ", ".join(self.transit_domain_names()) or "<none>"
            raise ValueError(
                f"domain {name!r} is a transit domain of no mesh path "
                f"(transit domains: {known})"
            )
        for index in indices:
            self.path_scenarios[index].configure_domain(
                name, condition_factory(index)
            )

    def override_domain(self, domain: Domain | str, **overrides) -> None:
        """Apply :class:`SegmentCondition` field overrides on every crossing path.

        Used for condition-role adversaries (marker dropping, biased
        treatment), whose stateless predicates may be shared across paths.
        """
        indices = self.crossing_path_indices(domain)
        if not indices:
            name = domain.name if isinstance(domain, Domain) else domain
            known = ", ".join(self.transit_domain_names()) or "<none>"
            raise ValueError(
                f"domain {name!r} is a transit domain of no mesh path, so its "
                f"forwarding behaviour cannot be overridden "
                f"(transit domains: {known})"
            )
        for index in indices:
            scenario = self.path_scenarios[index]
            scenario.configure_domain(
                domain, dataclasses.replace(scenario.condition_for(domain), **overrides)
            )

    # -- execution ---------------------------------------------------------------------

    def run_batch(
        self, batches: Sequence[PacketBatch]
    ) -> tuple[BatchPathObservation, ...]:
        """Propagate one batch per path in one pass each; the per-path observations.

        ``batches[i]`` is path ``i``'s source traffic (its packets must carry
        addresses inside path ``i``'s prefix pair).  Each path propagates
        independently (:meth:`PathScenario.run_batch`).  A shared HOP's
        collector sees the :func:`merge_hop_streams` union of the paths'
        spans, which :class:`~repro.engine.streaming.StreamingRunner` builds
        when it feeds the collectors.
        """
        if len(batches) != len(self.paths):
            raise ValueError(
                f"expected {len(self.paths)} batches (one per path), "
                f"got {len(batches)}"
            )
        return tuple(
            scenario.run_batch(batch)
            for scenario, batch in zip(self.path_scenarios, batches)
        )
