"""``repro.core`` — the shared state-space exploration substrate.

One labelled-transition-system structure (:mod:`repro.core.lts`), one
breadth-first exploration kernel (:mod:`repro.core.explore`), one
LTS → CTMC assembly path (:mod:`repro.core.ctmcgen`).  The three
formalism layers — :mod:`repro.pepa`, :mod:`repro.pepanets`,
:mod:`repro.petri` — are façades over this package; see
``docs/architecture.md`` for the mapping.
"""

from repro.core.ctmcgen import ctmc_from_lts
from repro.core.explore import (
    DEFAULT_MAX_STATES,
    PROGRESS_INTERVAL,
    Exploration,
    explore_lts,
)
from repro.core.keys import DerivationKey, stable_digest
from repro.core.lts import ArcArrays, LabelledArc, Lts

__all__ = [
    "ArcArrays",
    "DEFAULT_MAX_STATES",
    "PROGRESS_INTERVAL",
    "DerivationKey",
    "Exploration",
    "LabelledArc",
    "Lts",
    "ctmc_from_lts",
    "explore_lts",
    "stable_digest",
]
