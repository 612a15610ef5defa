"""``repro.core`` — the shared state-space exploration substrate.

One labelled-transition-system structure (:mod:`repro.core.lts`), the
breadth-first exploration kernel (:mod:`repro.core.explore`: a
per-state loop and a level-at-a-time one), one
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
    Level,
    explore_levels,
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
    "Level",
    "Lts",
    "ctmc_from_lts",
    "explore_levels",
    "explore_lts",
    "stable_digest",
]
