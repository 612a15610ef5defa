"""From a PEPA state space to a CTMC.

Each distinct derivative is a CTMC state; parallel activities between
the same pair of derivatives race, so their rates sum.  The per-action
outgoing-rate vectors needed for throughput are collected here too,
*including* self-loop activities, which do not affect the generator but
do count as completed work.
"""

from __future__ import annotations

from repro.core.ctmcgen import ctmc_from_lts
from repro.core.explore import DEFAULT_MAX_STATES
from repro.ctmc.chain import CTMC
from repro.pepa.environment import PepaModel
from repro.pepa.statespace import StateSpace, derive

__all__ = ["ctmc_from_statespace", "ctmc_of_model"]


def ctmc_from_statespace(space: StateSpace) -> CTMC:
    """Build the CTMC (generator + labels + action-rate vectors)."""
    return ctmc_from_lts(space)


def ctmc_of_model(
    model: PepaModel,
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> tuple[StateSpace, CTMC]:
    """Derive the state space of ``model`` and its CTMC in one call."""
    space = derive(model, max_states=max_states)
    return space, ctmc_from_statespace(space)
