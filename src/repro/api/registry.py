"""String-keyed component registries behind the declarative experiment API.

Specs (:mod:`repro.api.spec`) name their components — delay models, loss
models, reordering models, adversaries, scenarios — by registry key instead of
importing classes, which is what makes an :class:`~repro.api.spec.ExperimentSpec`
a plain, JSON-round-trippable value.  Third parties plug in new components
with the registries exported here (``Registry.register`` doubles as a
decorator):

>>> from repro.api import DELAY_MODELS
>>> @DELAY_MODELS.register("spike")
... class SpikeDelayModel(DelayModel):
...     ...

and any spec may then say ``ConditionSpec(delay="spike", delay_params={...})``.

Every model already shipped in :mod:`repro.traffic` and every adversary in
:mod:`repro.adversary` is registered at import time, so the registries are the
complete catalogue of what a spec can name.

Adversary factories come in two roles:

* ``"agent"`` — build a :class:`~repro.core.domain.DomainAgent` subclass that
  fabricates receipts (lying, collusion).  The factory receives
  ``(domain, paths, config, max_diff, agents, **params)`` where ``paths`` are
  the cell's paths crossing the domain (one, on a single path) and ``agents``
  maps the adversarial agents built so far (specs are built in order, so a
  colluder can reference its liar by domain name).
* ``"condition"`` — build forwarding-behaviour overrides for the domain's
  :class:`~repro.simulation.scenario.SegmentCondition` (biased treatment,
  marker dropping).  The factory receives only ``**params`` and returns a dict
  of ``SegmentCondition`` field overrides.  The predicates it installs map a
  :class:`~repro.net.batch.PacketBatch` to a boolean mask.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.adversary.bias import BiasedTreatmentAttack
from repro.adversary.collusion import ColludingDomainAgent
from repro.adversary.lying import LyingDomainAgent
from repro.adversary.marker_drop import MarkerDropAttack
from repro.core.sampling import DEFAULT_MARKER_RATE
from repro.net.topology import (
    MeshTopologyConfig,
    figure1_topology,
    generate_mesh_topology,
    star_topology,
)
from repro.simulation.scenario import PathScenario
from repro.traffic.delay_models import (
    CongestionDelayModel,
    ConstantDelayModel,
    EmpiricalDelayModel,
    JitterDelayModel,
)
from repro.traffic.loss_models import (
    BernoulliLossModel,
    GilbertElliottLossModel,
    NoLossModel,
)
from repro.traffic.reordering import NoReordering, WindowReordering

__all__ = [
    "Registry",
    "DELAY_MODELS",
    "LOSS_MODELS",
    "REORDERING_MODELS",
    "ADVERSARIES",
    "SCENARIOS",
    "TOPOLOGIES",
    "register_adversary",
    "register_scenario",
    "register_topology",
]


class Registry:
    """A named mapping from string keys to component factories.

    ``register`` doubles as a decorator factory; ``get`` raises a
    :class:`ValueError` that lists the known keys, so a typo in a spec fails
    with an actionable message instead of a bare ``KeyError``.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, Callable] = {}

    def register(
        self, name: str, factory: Callable | None = None, *, overwrite: bool = False
    ) -> Callable:
        """Register ``factory`` under ``name`` (usable as a decorator)."""

        def decorate(obj: Callable) -> Callable:
            if not overwrite and name in self._entries:
                raise ValueError(
                    f"{self.kind} {name!r} is already registered; "
                    f"pass overwrite=True to replace it"
                )
            self._entries[name] = obj
            return obj

        if factory is not None:
            return decorate(factory)
        return decorate

    def get(self, name: str) -> Callable:
        """The factory registered under ``name``; clear error when unknown."""
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(sorted(self._entries)) or "<none>"
            raise ValueError(
                f"unknown {self.kind} {name!r}; registered {self.kind}s: {known}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """All registered keys, sorted."""
        return tuple(sorted(self._entries))

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._entries))

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {self.names()})"


DELAY_MODELS = Registry("delay model")
LOSS_MODELS = Registry("loss model")
REORDERING_MODELS = Registry("reordering model")
ADVERSARIES = Registry("adversary")
SCENARIOS = Registry("scenario")
TOPOLOGIES = Registry("topology")


def register_adversary(name: str, *, role: str = "agent", **kwargs):
    """Register an adversary factory for use in ``AdversarySpec.kind``.

    ``role`` is ``"agent"`` (receipt fabrication) or ``"condition"``
    (forwarding misbehaviour); see the module docstring for the factory
    signatures.
    """
    if role not in ("agent", "condition"):
        raise ValueError(f"adversary role must be 'agent' or 'condition', got {role!r}")

    def decorate(factory: Callable) -> Callable:
        factory.adversary_role = role
        return ADVERSARIES.register(name, factory, **kwargs)

    return decorate


def register_scenario(name: str, factory: Callable | None = None, **kwargs):
    """Register a scenario factory (``seed=..., **params -> PathScenario``)."""
    return SCENARIOS.register(name, factory, **kwargs)


def register_topology(name: str, factory: Callable | None = None, **kwargs):
    """Register a topology factory for use in ``TopologySpec.kind``.

    The factory signature is ``seed=..., **params -> (Topology, tuple[HOPPath, ...])``:
    it returns the topology and the HOP paths (distinct prefix pairs) a mesh
    workload drives over it.
    """
    return TOPOLOGIES.register(name, factory, **kwargs)


# -- built-in traffic models ---------------------------------------------------------

DELAY_MODELS.register("constant", ConstantDelayModel)
DELAY_MODELS.register("jitter", JitterDelayModel)
DELAY_MODELS.register("congestion", CongestionDelayModel)
DELAY_MODELS.register("empirical", EmpiricalDelayModel)

LOSS_MODELS.register("none", NoLossModel)
LOSS_MODELS.register("bernoulli", BernoulliLossModel)
LOSS_MODELS.register("gilbert-elliott", GilbertElliottLossModel)
LOSS_MODELS.register("gilbert-elliott-rate", GilbertElliottLossModel.from_target_rate)

REORDERING_MODELS.register("none", NoReordering)
REORDERING_MODELS.register("window", WindowReordering)


# -- built-in scenarios --------------------------------------------------------------


@register_scenario("figure1")
def _figure1_scenario(seed: int = 0) -> PathScenario:
    """The paper's Figure-1 path S → L → X → N → D (HOPs 1..8)."""
    return PathScenario(seed=seed)


# -- built-in topologies -------------------------------------------------------------


@register_topology("figure1")
def _figure1_topology_entry(seed: int = 0):
    """The Figure-1 topology as a one-path mesh (its named instance)."""
    topology, path = figure1_topology()
    return topology, (path,)


@register_topology("star")
def _star_topology_entry(seed: int = 0, path_count: int = 3):
    """Core-and-spokes: every path crosses the single transit core ``X``."""
    return star_topology(path_count=path_count)


@register_topology("mesh-random")
def _mesh_random_topology_entry(
    seed: int = 0,
    transit_domains: int = 4,
    stub_domains: int = 4,
    transit_degree: float = 2.0,
    path_count: int = 4,
    backbone: str = "ring",
    stub_attachment: str = "random",
):
    """A seeded random transit/stub mesh (see :class:`MeshTopologyConfig`)."""
    config = MeshTopologyConfig(
        transit_domains=transit_domains,
        stub_domains=stub_domains,
        transit_degree=transit_degree,
        path_count=path_count,
        backbone=backbone,
        stub_attachment=stub_attachment,
    )
    return generate_mesh_topology(config, seed=seed)


# -- built-in adversaries ------------------------------------------------------------


@register_adversary("lying", role="agent")
def _lying_agent(domain, paths, config, max_diff, agents, **params):
    """A domain that fabricates its egress receipts (Section 3.1 / 4)."""
    return LyingDomainAgent(domain, paths, config=config, max_diff=max_diff, **params)


@register_adversary("colluding", role="agent")
def _colluding_agent(domain, paths, config, max_diff, agents, *, colluding_with, **params):
    """A downstream neighbor covering a liar's claims (Section 3.1).

    ``colluding_with`` names the lying domain, whose :class:`LyingDomainAgent`
    must appear earlier in the spec's adversary list.
    """
    try:
        liar = agents[colluding_with]
    except KeyError:
        raise ValueError(
            f"colluding domain {domain!r} references {colluding_with!r}, but no "
            f"adversary was built for it; list the 'lying' spec first"
        ) from None
    return ColludingDomainAgent(
        domain, paths, colluding_with=liar, config=config, max_diff=max_diff, **params
    )


@register_adversary("marker-drop", role="condition")
def _marker_drop_condition(*, marker_rate: float = DEFAULT_MARKER_RATE):
    """Drop every marker packet inside the domain (Section 5.3)."""
    return {"drop_predicate": MarkerDropAttack(marker_rate=marker_rate).drop_predicate()}


@register_adversary("biased-treatment", role="condition")
def _biased_treatment_condition(
    *,
    guess_rate: float = 0.01,
    guess_salt: int = 0xBAD,
    preferential_delay: float = 0.2e-3,
):
    """Fast-path a blindly guessed packet subset (Section 3.2 / 5.1).

    Against VPM's delay-keyed sampling the attacker cannot predict the sampled
    set, so the strongest condition-level bias is a salted random guess at the
    configured budget — which cannot shift the estimate systematically.
    """
    attack = BiasedTreatmentAttack(guess_rate=guess_rate, guess_salt=guess_salt)
    return {
        "preferential_predicate": attack.blind_guess_predicate(),
        "preferential_delay": preferential_delay,
    }
