"""PEPA-level sensitivity: which activity's rate should the modeller
tune?

Built on :mod:`repro.ctmc.sensitivity`: the state space retains every
arc with its action label, so the generator derivative for "scale all
rates of action α by (1+θ)" is assembled exactly — each α-arc
contributes its rate to ``dQ`` off-diagonal and subtracts it on the
diagonal.  Self-loop α-arcs cancel in the generator but still count
toward the throughput reward derivative.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.ctmc.chain import CTMC, generator
from repro.ctmc.sensitivity import measure_sensitivity
from repro.exceptions import SolverError
from repro.pepa.statespace import StateSpace

__all__ = ["action_generator_derivative", "throughput_sensitivity", "sensitivity_profile"]


def action_generator_derivative(space: StateSpace, action: str) -> sp.csr_matrix:
    """``∂Q/∂θ`` for scaling every ``action``-labelled rate by (1+θ): the
    generator of the ``action`` arcs alone."""
    arcs = space.arc_arrays
    code = arcs.actions.index(action) if action in arcs.actions else -1
    mine = arcs.action == code
    return generator(space.size, arcs.source[mine], arcs.target[mine], arcs.rate[mine])


def throughput_sensitivity(
    space: StateSpace,
    chain: CTMC,
    measured: str,
    perturbed: str,
    pi: np.ndarray | None = None,
) -> float:
    """``d throughput(measured) / dθ`` at θ=0, where θ scales every
    rate of action ``perturbed`` by (1+θ).

    When ``measured == perturbed`` the reward vector itself scales, so
    the product-rule term ``π·r`` is added.
    """
    if measured not in chain.action_rates:
        raise SolverError(f"chain performs no action {measured!r}")
    if perturbed not in chain.action_rates:
        raise SolverError(f"chain performs no action {perturbed!r}")
    dQ = action_generator_derivative(space, perturbed)
    rewards = chain.action_rates[measured]
    d_rewards = rewards if measured == perturbed else None
    return measure_sensitivity(chain, dQ, rewards, d_rewards, pi)


def sensitivity_profile(
    space: StateSpace, chain: CTMC, measured: str, pi: np.ndarray | None = None
) -> dict[str, float]:
    """The full tuning guide: sensitivity of one measure to *every*
    action's rate scale, sorted by absolute impact (largest first)."""
    profile = {
        action: throughput_sensitivity(space, chain, measured, action, pi)
        for action in chain.action_rates
    }
    return dict(sorted(profile.items(), key=lambda kv: -abs(kv[1])))
