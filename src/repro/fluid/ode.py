"""Fluid (mean-field) analysis: ODE integration and steady states.

The NVF's vector field is a small autonomous ODE system — dimension =
local states, not global states — so both transient trajectories and
steady states are millisecond work at any replica count.  Steady states
are found by the same chain runner as the CTMC solve,
:func:`repro.resilience.fallback.run_chain`, over these methods:

* ``newton`` — damped Newton iteration on ``F(x) = 0`` with a
  finite-difference Jacobian and one conservation row substituted per
  invariant class (replica mass = N, environment mass = 1), warm-started
  by a short integration burst;
* ``ode`` — integrate to stationarity over doubling horizons with
  ``scipy.integrate.solve_ivp`` (LSODA, which switches between stiff
  and non-stiff steppers itself; Radau then RK45 as back-ends of last
  resort);
* ``damped`` — a conservative explicit Euler fixed-point iteration,
  the always-converging-slowly safety net.

The runner records every attempt in a
:class:`~repro.resilience.fallback.SolveDiagnostics` and accepts a
candidate only if ``‖F(x)‖∞`` passes a scale-aware residual bound —
the same trust-but-verify discipline as the CTMC chain.  Progress is
observable as ``fluid.step`` events (sampled per RHS evaluation batch)
and one ``solve.attempt`` span per method under a ``fluid.solve`` span,
and :func:`analyse_fluid` caches the solved vector under the model's
:class:`~repro.core.keys.DerivationKey` with variant ``fluid`` so batch
reruns skip the solve entirely.
"""

from __future__ import annotations

import numpy as np

from repro.batch.cache import cached
from repro.core.keys import DerivationKey
from repro.exceptions import SolverError
from repro.fluid.nvf import NumericalVectorForm, nvf_of_model
from repro.obs import get_events, get_tracer
from repro.pepa.environment import PepaModel
from repro.resilience.fallback import FallbackPolicy, SolveDiagnostics, run_chain

__all__ = ["FluidAnalysis", "FLUID_METHODS", "steady_fluid", "analyse_fluid"]

#: The default steady-state fallback chain, tried left to right.
FLUID_METHODS = ("newton", "ode", "damped")

#: The default relative residual bound of an accepted fluid steady state.
_RESIDUAL_TOL = 1e-10

#: Emit one ``fluid.step`` event per this many RHS evaluations.
_STEP_EVERY = 200

#: Payload schema of cached fluid solutions; bump on layout changes.
CACHE_SCHEMA = "repro-fluid/1"


class FluidAnalysis:
    """A solved fluid model with measure accessors.

    The occupancy vector ``x`` assigns each replica local state its
    expected count (summing to ``replicas``) and each environment state
    its probability.  Accessors mirror
    :class:`~repro.pepa.measures.ModelAnalysis` where the quantities
    coincide in the fluid limit: ``throughput`` is the steady action
    flow, ``occupancy`` the expected count, ``probability_of_local_state``
    the occupancy *fraction* (count / N for replica states, the raw
    probability for environment states).
    """

    def __init__(self, names: list[str], n_replica_states: int, replicas: int,
                 x: np.ndarray, throughputs: dict[str, float], method: str,
                 diagnostics: SolveDiagnostics | None = None,
                 nvf: NumericalVectorForm | None = None):
        self.names = names
        self.n_replica_states = n_replica_states
        self.replicas = replicas
        self.x = np.asarray(x, dtype=float)
        self._throughputs = dict(throughputs)
        self.solver = method
        self.diagnostics = diagnostics
        self.nvf = nvf
        #: The derivation-cache key this solution was read from or
        #: published under, else ``None``.
        self.cache_key = None

    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """Coordinates of the vector form (independent of ``replicas``)."""
        return len(self.names)

    def throughput(self, action: str) -> float:
        """Completions of ``action`` per time unit in the fluid limit."""
        return self._throughputs.get(action, 0.0)

    def all_throughputs(self) -> dict[str, float]:
        """Steady flow of every action type, keyed by name."""
        return dict(self._throughputs)

    def _coord(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise SolverError(
                f"no fluid coordinate named {name!r}; "
                f"coordinates are {self.names}"
            ) from None

    def occupancy(self, name: str) -> float:
        """Expected replica count in local state ``name`` (or the
        probability of an environment state)."""
        return float(self.x[self._coord(name)])

    def occupancies(self) -> dict[str, float]:
        """Every coordinate's steady occupancy, keyed by name."""
        return {name: float(v) for name, v in zip(self.names, self.x)}

    def probability_of_local_state(self, name: str) -> float:
        """Occupancy fraction: count / N for a replica state, the state
        probability itself for an environment state."""
        i = self._coord(name)
        if i < self.n_replica_states:
            return float(self.x[i]) / self.replicas
        return float(self.x[i])


def _residual_bound(nvf: NumericalVectorForm, n: int, tol: float) -> float:
    """Scale-aware acceptance bound on ``‖F(x)‖∞``: flows scale with
    both the rate constants and the replica mass."""
    return tol * max(1.0, nvf.rate_scale) * max(1.0, float(n))


def _make_rhs(nvf: NumericalVectorForm, counter: dict):
    """The vector field wrapped with sampled ``fluid.step`` events."""
    events = get_events()

    def rhs(t: float, x: np.ndarray) -> np.ndarray:
        counter["nfev"] += 1
        dx = nvf.vector_field(x)
        if events.enabled and counter["nfev"] % _STEP_EVERY == 0:
            events.emit(
                "fluid.step", t=float(t), nfev=counter["nfev"],
                dx_inf=float(np.abs(dx).max()),
            )
        return dx

    return rhs


def _project(nvf: NumericalVectorForm, x: np.ndarray, n: int) -> np.ndarray:
    """Clip tiny negatives and restore the per-class mass invariants."""
    x = np.clip(x, 0.0, None)
    for idx, target in nvf.conservation_classes():
        total = float(n) if target is None else target
        mass = float(x[idx].sum())
        if mass > 0.0:
            x[idx] *= total / mass
    return x


# ----------------------------------------------------------------------
# The three steady-state methods
# ----------------------------------------------------------------------
def _steady_ode(nvf: NumericalVectorForm, x0: np.ndarray, n: int,
                bound: float, counter: dict) -> np.ndarray:
    """Integrate to stationarity over doubling horizons.

    LSODA switches between Adams and BDF steppers by itself, so the one
    call is stiffness-aware; Radau and RK45 only run if LSODA's wrapper
    errors outright (e.g. a missing LAPACK path).
    """
    from scipy.integrate import solve_ivp

    rhs = _make_rhs(nvf, counter)
    x = x0.copy()
    horizon = 1.0 / max(1.0, nvf.rate_scale)
    last_error: Exception | None = None
    for _ in range(40):  # horizons up to ~2^40 / rate_scale
        for stepper in ("LSODA", "Radau", "RK45"):
            try:
                sol = solve_ivp(rhs, (0.0, horizon), x, method=stepper,
                                rtol=1e-10, atol=1e-12 * max(1.0, float(n)))
                break
            except Exception as exc:  # noqa: BLE001 — try the next stepper
                last_error = exc
        else:
            raise SolverError(
                f"every ODE stepper failed: {last_error}"
            ).with_context(stage="fluid.solve")
        if not sol.success:
            raise SolverError(
                f"ODE integration failed at horizon {horizon:g}: {sol.message}"
            ).with_context(stage="fluid.solve")
        x = _project(nvf, sol.y[:, -1], n)
        if float(np.abs(nvf.vector_field(x)).max()) <= bound:
            return x
        horizon *= 2.0
    raise SolverError(
        "ODE integration did not reach stationarity; the fluid model may "
        "oscillate (limit cycle) rather than settle"
    ).with_context(stage="fluid.solve")


def _steady_newton(nvf: NumericalVectorForm, x0: np.ndarray, n: int,
                   bound: float, counter: dict) -> np.ndarray:
    """Damped Newton on ``F(x) = 0`` with conservation rows substituted.

    ``F`` is singular along the invariant directions, so per class one
    equation (the row of the currently best-occupied coordinate) is
    replaced by the mass constraint.  Steps backtrack until the residual
    improves and iterates are projected back onto the feasible set.
    """
    from scipy.integrate import solve_ivp

    rhs = _make_rhs(nvf, counter)
    # Warm start: a short integration burst moves the iterate into the
    # attractor's basin, where Newton is quadratic.
    sol = solve_ivp(rhs, (0.0, 20.0 / max(1.0, nvf.rate_scale)), x0,
                    method="LSODA", rtol=1e-8, atol=1e-10 * max(1.0, float(n)))
    x = _project(nvf, sol.y[:, -1] if sol.success else x0.copy(), n)
    classes = nvf.conservation_classes()
    d = nvf.dimension
    events = get_events()
    for iteration in range(60):
        f = nvf.vector_field(x)
        resid = float(np.abs(f).max())
        if events.enabled:
            events.emit("fluid.step", method="newton", iteration=iteration,
                        residual=resid)
        if resid <= bound:
            return x
        jac = np.empty((d, d))
        for j in range(d):
            h = 1e-7 * max(1.0, abs(float(x[j])))
            xp = x.copy()
            xp[j] += h
            jac[:, j] = (nvf.vector_field(xp) - f) / h
            counter["nfev"] += 1
        rhs_vec = -f
        for idx, target in classes:
            total = float(n) if target is None else target
            row = int(idx[np.argmax(x[idx])])
            jac[row, :] = 0.0
            jac[row, idx] = 1.0
            rhs_vec[row] = total - float(x[idx].sum())
        try:
            delta = np.linalg.solve(jac, rhs_vec)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(jac, rhs_vec, rcond=None)[0]
        step = 1.0
        for _ in range(25):
            candidate = _project(nvf, x + step * delta, n)
            if float(np.abs(nvf.vector_field(candidate)).max()) < resid:
                x = candidate
                break
            step *= 0.5
        else:
            raise SolverError(
                f"Newton stalled at residual {resid:.3e} (bound {bound:.3e})"
            ).with_context(stage="fluid.solve")
    raise SolverError(
        "Newton iteration exhausted its budget without converging"
    ).with_context(stage="fluid.solve")


def _steady_damped(nvf: NumericalVectorForm, x0: np.ndarray, n: int,
                   bound: float, counter: dict) -> np.ndarray:
    """Explicit Euler fixed-point iteration with adaptive damping."""
    x = x0.copy()
    eta = 0.2 / max(1.0, nvf.rate_scale)
    resid = float(np.abs(nvf.vector_field(x)).max())
    events = get_events()
    for iteration in range(200_000):
        f = nvf.vector_field(x)
        counter["nfev"] += 1
        resid = float(np.abs(f).max())
        if resid <= bound:
            return x
        candidate = _project(nvf, x + eta * f, n)
        new_resid = float(np.abs(nvf.vector_field(candidate)).max())
        if new_resid > resid:
            eta *= 0.5
            if eta < 1e-12:
                break
            continue
        x = candidate
        if events.enabled and iteration % _STEP_EVERY == 0:
            events.emit("fluid.step", method="damped", iteration=iteration,
                        residual=resid)
    raise SolverError(
        f"damped iteration stalled at residual {resid:.3e} (bound {bound:.3e})"
    ).with_context(stage="fluid.solve")


_METHOD_FNS = {"ode": _steady_ode, "newton": _steady_newton, "damped": _steady_damped}


def steady_fluid(
    nvf: NumericalVectorForm,
    n_replicas: int,
    *,
    methods: tuple[str, ...] | str = FLUID_METHODS,
    residual_tol: float = _RESIDUAL_TOL,
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Solve the fluid steady state through the method chain.

    ``methods`` is a sequence or comma-separated list of
    :data:`FLUID_METHODS` names.  Returns ``(x, diagnostics)``; raises
    :class:`SolverError` (with the diagnostics attached) only when
    every method failed.
    """
    policy = FallbackPolicy.of(methods)
    policy.validate(_METHOD_FNS)
    bound = _residual_bound(nvf, n_replicas, residual_tol)
    x0 = nvf.initial_vector(n_replicas)
    counter = {"nfev": 0}

    def attempt(method: str, info: dict) -> np.ndarray:
        return _METHOD_FNS[method](nvf, x0, n_replicas, bound, counter)

    def residual(x: np.ndarray) -> float:
        return float(np.abs(nvf.vector_field(x)).max())

    with get_tracer().span("fluid.solve", dimension=nvf.dimension,
                           replicas=n_replicas) as span:
        try:
            return run_chain(policy, attempt, residual, bound,
                             n_states=nvf.dimension, span=span, stage="fluid.solve")
        finally:
            span.set(nfev=counter["nfev"])


def trajectory(
    nvf: NumericalVectorForm,
    n_replicas: int,
    t_end: float,
    *,
    n_points: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """The transient fluid trajectory over ``[0, t_end]``.

    Returns ``(times, X)`` with ``X[i]`` the occupancy vector at
    ``times[i]``; LSODA handles stiff and non-stiff regimes alike.
    """
    from scipy.integrate import solve_ivp

    counter = {"nfev": 0}
    times = np.linspace(0.0, t_end, n_points)
    sol = solve_ivp(_make_rhs(nvf, counter), (0.0, t_end),
                    nvf.initial_vector(n_replicas), method="LSODA",
                    t_eval=times, rtol=1e-8,
                    atol=1e-10 * max(1.0, float(n_replicas)))
    if not sol.success:
        raise SolverError(
            f"transient fluid integration failed: {sol.message}"
        ).with_context(stage="fluid.solve")
    return sol.t, sol.y.T


def analyse_fluid(
    model: PepaModel,
    *,
    replicas: int | None = None,
    methods: tuple[str, ...] | str = FLUID_METHODS,
    residual_tol: float = _RESIDUAL_TOL,
) -> FluidAnalysis:
    """Compile the model's NVF and solve its fluid steady state.

    ``replicas`` overrides the replica count spelled out in the system
    equation — the whole point of the fluid route: the model file stays
    small while ``N`` scales freely.  Through
    :func:`repro.batch.cache.cached`: with an ambient derivation cache
    installed the solved vector is content-addressed under the model
    source, the replica count and any non-default ``methods`` or
    ``residual_tol`` (variant ``fluid``), so reruns skip both
    compilation and solving.
    """
    from repro.pepa.export import model_source

    def key() -> DerivationKey:
        # Only what differs from the defaults is keyed, so a default
        # call keeps the key it has always had.
        params = {}
        if replicas is not None:  # None: the count the model text spells out
            params["replicas"] = replicas
        chain = FallbackPolicy.of(methods).methods
        if chain != FLUID_METHODS:
            params["methods"] = list(chain)
        if residual_tol != _RESIDUAL_TOL:
            params["residual_tol"] = residual_tol
        return DerivationKey.of("pepa", model_source(model), params).child("fluid")

    def build() -> FluidAnalysis:
        nvf, _shape, n = nvf_of_model(model, replicas)
        x, diag = steady_fluid(nvf, n, methods=methods, residual_tol=residual_tol)
        return FluidAnalysis(
            nvf.names, nvf.n_replica_states, n, x, nvf.action_flows(x),
            diag.method or "fluid", diagnostics=diag, nvf=nvf,
        )

    def encode(analysis: FluidAnalysis) -> dict:
        return {
            "names": analysis.names,
            "n_replica_states": analysis.n_replica_states,
            "replicas": analysis.replicas,
            "x": [float(v) for v in analysis.x],
            "throughputs": {
                k: float(v) for k, v in analysis.all_throughputs().items()
            },
            "method": analysis.solver,
        }

    def decode(payload: dict) -> FluidAnalysis:
        return FluidAnalysis(
            payload["names"], payload["n_replica_states"], payload["replicas"],
            np.asarray(payload["x"]), payload["throughputs"], payload["method"],
        )

    return cached(key, CACHE_SCHEMA, build, encode, decode)
