"""Adversary models: the threat model of Section 2.1 made executable.

The paper's lying domains "construct their receipts using incomplete or
fabricated information" and may collude; they can only observe traffic that
appears locally.  The strategies here plug into the simulation (forwarding
behaviour) and into the reporting pipeline (receipt fabrication):

* :mod:`repro.adversary.bias` — preferential treatment of a predictable
  measurement set (the attack that breaks Trajectory Sampling ++ and that
  VPM's delay-keyed sampling defeats);
* :mod:`repro.adversary.lying` — a domain that fabricates egress receipts to
  hide its own loss and delay, on every path it transits;
* :mod:`repro.adversary.collusion` — a downstream neighbor that covers the
  liar's claims and thereby takes the blame itself;
* :mod:`repro.adversary.marker_drop` — a domain that drops marker packets to
  desynchronize its neighbor's sampling.

All four strategies are registered with the declarative experiment API
(:mod:`repro.api.registry`) under the keys ``"lying"``, ``"colluding"``,
``"biased-treatment"`` and ``"marker-drop"``, so an
:class:`~repro.api.AdversarySpec` can name them without touching this package;
new strategies plug in via :func:`repro.api.register_adversary`.
"""

from repro.adversary.bias import BiasedTreatmentAttack
from repro.adversary.collusion import ColludingDomainAgent
from repro.adversary.lying import LyingDomainAgent
from repro.adversary.marker_drop import MarkerDropAttack, marker_exposure_rate

__all__ = [
    "BiasedTreatmentAttack",
    "ColludingDomainAgent",
    "LyingDomainAgent",
    "MarkerDropAttack",
    "marker_exposure_rate",
]
