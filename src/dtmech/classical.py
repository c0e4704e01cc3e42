r"""Discrete-time classical mechanics: closed-form moments and an ODE route.

Phase-space observables evolve by smearing the continuous trajectory with the
gamma weight of :mod:`dtmech.kernel`.  For a free particle and a unit harmonic
oscillator the resulting means and second moments have closed forms; a generic
first-order field is handled by dense-output integration feeding the same
transform.  The quadrature route exists precisely to cross-check the closed
forms, so both produce the same :class:`MomentReport` shape.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import StiffnessFailure
from .kernel import (GammaKernel, TimeSignal, _phase_log, _positive,
                     screening_horizon, transform_quadrature)

__all__ = [
    "PhaseState",
    "FreeParticle",
    "HarmonicOscillator",
    "CustomField",
    "Trajectory",
    "MomentReport",
    "free_particle_moments",
    "sho_moments",
    "sho_moments_scaled",
    "evolve_observable",
    "quadrature_moments",
    "observable_signal",
]

#: Relative tolerance of the ODE solver for a :class:`CustomField`; its
#: absolute tolerance is a hundredth of it.
ODE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class PhaseState:
    """Deterministic initial phase-space point: positions, momenta, masses."""

    positions: np.ndarray
    momenta: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.positions, dtype=float))
        p = np.atleast_1d(np.asarray(self.momenta, dtype=float))
        m = np.atleast_1d(np.asarray(self.masses, dtype=float))
        if not (x.ndim == p.ndim == m.ndim == 1):
            raise ValueError("positions, momenta, masses must be 1-d")
        if not (x.size == p.size == m.size >= 1):
            raise ValueError(
                f"lengths must match and be >= 1, got {x.size}/{p.size}/{m.size}"
            )
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(p)):
            raise ValueError("positions and momenta must be finite")
        if not np.all(m > 0) or not np.all(np.isfinite(m)):
            raise ValueError("masses must be finite and > 0")
        for name, arr in (("positions", x), ("momenta", p), ("masses", m)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dof(self) -> int:
        return self.positions.size


class FreeParticle:
    """H = sum p_i^2 / 2 m_i: straight-line trajectories, exact closed forms."""

    def trajectory(self, state: PhaseState,
                   t_max: float = math.inf) -> "Trajectory":
        x0, p0, m = state.positions, state.momenta, state.masses
        vel = p0 / m

        def evaluate(t):
            t = np.asarray(t, dtype=float)[:, None]
            return x0 + vel * t, np.broadcast_to(p0, (t.shape[0], p0.size)).copy()

        return Trajectory(evaluate, t_max=math.inf)

    def energy(self, x, p, masses):
        return 0.5 * np.sum(p * p / masses, axis=-1)


class HarmonicOscillator:
    """Unit-mass, unit-frequency oscillators: x = r sin(t + theta).

    The closed-form moment results are stated for m_i = 1, omega = 1; general
    (mass, frequency) is a rescaling handled by :func:`sho_moments_scaled`.
    """

    def trajectory(self, state: PhaseState,
                   t_max: float = math.inf) -> "Trajectory":
        _require_unit_masses(state)
        r = np.hypot(state.positions, state.momenta)
        theta = np.arctan2(state.positions, state.momenta)

        def evaluate(t):
            t = np.asarray(t, dtype=float)[:, None]
            return r * np.sin(t + theta), r * np.cos(t + theta)

        return Trajectory(evaluate, t_max=math.inf)

    def energy(self, x, p, masses):
        return 0.5 * np.sum(x * x + p * p, axis=-1)


class CustomField:
    """General autonomous first-order system dx/dt = field(x).

    ``field`` maps a coordinate vector to its time derivative.  There is no
    momentum channel: trajectories report zeros for momenta, and no energy is
    defined.  The field must be smooth enough for adaptive step control; a
    collapse of the step size surfaces as :class:`StiffnessFailure`.
    """

    def __init__(self, field):
        self.field = field

    def trajectory(self, state: PhaseState, t_max: float) -> "Trajectory":
        return _integrate_field(self.field, state.positions, t_max)


def _require_unit_masses(state: PhaseState) -> None:
    if not np.allclose(state.masses, 1.0, rtol=0.0, atol=1e-12):
        raise ValueError(
            "oscillator closed forms assume unit masses; "
            "rescale general (mass, frequency) via sho_moments_scaled"
        )


class Trajectory:
    """Continuous solution with batch evaluation on ``[0, t_max]``.

    ``state_at(times)`` returns ``(positions, momenta)`` arrays of shape
    ``(len(times), dof)``.  Evaluation never extrapolates: a time beyond
    ``t_max`` raises.
    """

    def __init__(self, evaluate, t_max: float):
        self._evaluate = evaluate
        self.t_max = float(t_max)

    def state_at(self, times):
        t = np.atleast_1d(np.asarray(times, dtype=float))
        if np.any(t < 0.0):
            raise ValueError("trajectories are defined for t >= 0 only")
        if t.max(initial=0.0) > self.t_max:
            raise ValueError(f"trajectory covers [0, {self.t_max}] "
                             f"but t = {float(t.max())} was requested")
        return self._evaluate(t)


def _integrate_field(fieldfn, y0, t_max: float) -> Trajectory:
    t_max = _positive("t_max", t_max)
    from scipy.integrate import solve_ivp  # on first use; see kernel
    sol = solve_ivp(lambda t, y: np.asarray(fieldfn(y), dtype=float),
                    (0.0, t_max), y0, method="DOP853", dense_output=True,
                    rtol=ODE_TOLERANCE, atol=ODE_TOLERANCE * 1e-2)
    if not sol.success:
        raise StiffnessFailure(
            f"integration stalled before t={t_max}: {sol.message}"
        )

    dof = y0.size

    def evaluate(t):
        x = sol.sol(t).T.reshape(t.size, dof)
        return x, np.zeros((t.size, dof))

    return Trajectory(evaluate, t_max=t_max)


# ---------------------------------------------------------------------------
# moment reports


def _in_float_range(report):
    """Refuse, as ``ValueError``, a report whose arithmetic overflows or
    turns invalid: a finite state can still have moments past the largest
    double, which would come back as ``inf`` or ``nan`` after numpy
    warnings, or fail the quadrature as if the method were at fault."""

    @functools.wraps(report)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return report(*args, **kwargs)
        except FloatingPointError as exc:
            raise ValueError(f"{report.__name__}: the state's observables "
                             f"leave the float range ({exc})") from None

    return checked


@dataclass(frozen=True)
class MomentReport:
    """Means, second moments, and energy over steps ``n = 0..N``.

    ``mean_positions``/``mean_momenta`` have shape ``(N+1, l)``;
    ``second_positions``/``second_momenta`` hold the full symmetric matrices
    of pair moments, shape ``(N+1, l, l)`` (their diagonals are the squared
    observables' means); ``energy`` has shape ``(N+1,)`` and is NaN when the
    model defines no Hamiltonian.
    """

    steps: np.ndarray
    mean_positions: np.ndarray
    mean_momenta: np.ndarray
    second_positions: np.ndarray
    second_momenta: np.ndarray
    energy: np.ndarray
    source: str = "closed-form"

    def __post_init__(self):
        rows = self.steps.size
        l = self.mean_positions.shape[1] if self.mean_positions.ndim == 2 else -1
        ok = (self.mean_positions.shape == (rows, l)
              and self.mean_momenta.shape == (rows, l)
              and self.second_positions.shape == (rows, l, l)
              and self.second_momenta.shape == (rows, l, l)
              and self.energy.shape == (rows,))
        if not ok:
            raise ValueError("inconsistent report array shapes")

    @property
    def dof(self) -> int:
        return self.mean_positions.shape[1]

    def position_variances(self) -> np.ndarray:
        return self._variances(self.second_positions, self.mean_positions)

    def momentum_variances(self) -> np.ndarray:
        return self._variances(self.second_momenta, self.mean_momenta)

    def position_covariances(self) -> np.ndarray:
        return self.second_positions - (self.mean_positions[:, :, None]
                                        * self.mean_positions[:, None, :])

    @staticmethod
    def _variances(second, mean):
        raw = np.einsum("nii->ni", second) - mean ** 2
        scale = np.maximum(np.einsum("nii->ni", np.abs(second)), 1.0)
        # snap round-off negatives (within the numerical floor) to zero,
        # leave anything genuinely negative visible
        return np.where((raw < 0) & (raw > -1e-12 * scale), 0.0, raw)

    def rows(self):
        """Long rows ``[n, i, j, moment, value]``, step by step: ``mean_x``
        and ``mean_p`` for each ``i``, ``second_x`` and ``second_p`` for each
        ``i <= j``, then ``energy``; indices a moment lacks are ``None``."""
        l = self.dof
        pairs = [(i, j) for i in range(l) for j in range(i, l)]
        for k, n in enumerate(self.steps):
            n = int(n)
            for i in range(l):
                yield [n, i, None, "mean_x", float(self.mean_positions[k, i])]
            for i in range(l):
                yield [n, i, None, "mean_p", float(self.mean_momenta[k, i])]
            for i, j in pairs:
                yield [n, i, j, "second_x", float(self.second_positions[k, i, j])]
            for i, j in pairs:
                yield [n, i, j, "second_p", float(self.second_momenta[k, i, j])]
            yield [n, None, None, "energy", float(self.energy[k])]


@_in_float_range
def free_particle_moments(state: PhaseState,
                          kernel: GammaKernel) -> MomentReport:
    """Closed-form free-particle report over ``n = 0..kernel.n``.

    Means drift ballistically while Var(x_i) grows exactly linearly,
    ``n tau^2 p_i^2 / m_i^2`` — diffusive spreading with
    ``D_i = p_i^2 tau / m_i^2``; momenta carry no spread at all.
    """
    n = np.arange(kernel.n + 1)[:, None]
    tau = kernel.tau
    x0, p0, m = state.positions, state.momenta, state.masses
    mean_x = x0 + p0 * n * tau / m
    mean_p = np.broadcast_to(p0, mean_x.shape).copy()
    cov = (n * tau * tau)[:, :, None] * np.outer(p0 / m, p0 / m)
    second_x = mean_x[:, :, None] * mean_x[:, None, :] + cov
    second_p = np.broadcast_to(np.outer(p0, p0), cov.shape).copy()
    energy = np.full(n.size, float(np.sum(p0 * p0 / (2.0 * m))))
    return MomentReport(steps=n[:, 0], mean_positions=mean_x,
                        mean_momenta=mean_p, second_positions=second_x,
                        second_momenta=second_p, energy=energy)


@_in_float_range
def sho_moments(state: PhaseState, kernel: GammaKernel) -> MomentReport:
    """Closed-form unit-oscillator report over ``n = 0..kernel.n``.

    With ``r_i = hypot(x_i, p_i)``, ``theta_i = atan2(x_i, p_i)``,
    ``phi = arctan tau`` and ``phi2 = arctan 2 tau``:

    - means rotate and damp: ``<x_i> = r_i (1+tau^2)^(-n/2) sin(n phi + theta_i)``
      and the cosine analogue for momenta;
    - pair moments mix a static and a damped rotating part:
      ``<x_i x_j> = (r_i r_j / 2)[cos(theta_i - theta_j)
      - (1+4 tau^2)^(-n/2) cos(n phi2 + theta_i + theta_j)]``,
      with ``+`` in place of ``-`` for momenta.

    Both reduce to the deterministic values at ``n = 0`` and conserve
    ``<x_i^2> + <p_i^2> = r_i^2`` exactly.  A zero-amplitude component
    (``r_i = 0``) has no defined angle; its moments are identically zero,
    which the formulas deliver on their own via ``atan2(0, 0) = 0``.

    Requires unit masses (the closed forms are stated in those units); use
    :func:`sho_moments_scaled` for general mass and frequency.
    """
    _require_unit_masses(state)
    n = np.arange(kernel.n + 1)[:, None]
    tau = kernel.tau
    r = np.hypot(state.positions, state.momenta)
    theta = np.arctan2(state.positions, state.momenta)
    (rate, rate2), (phi, phi2) = _phase_log([tau, 2.0 * tau])
    damp1 = np.exp(-n * rate)
    # 2 tau overflows past tau ~ 9e307: the rotating part is gone after a step
    damp2 = np.exp(-n * rate2) if rate2 < np.inf else (n == 0) * 1.0
    mean_x = r * damp1 * np.sin(n * phi + theta)
    mean_p = r * damp1 * np.cos(n * phi + theta)
    rr = 0.5 * np.outer(r, r)
    static = np.cos(theta[:, None] - theta[None, :])
    rot = np.cos(n[:, :, None] * phi2 + theta[:, None] + theta[None, :])
    second_x = rr * (static - damp2[:, :, None] * rot)
    second_p = rr * (static + damp2[:, :, None] * rot)
    energy = np.full(n.size, float(0.5 * np.sum(r * r)))
    return MomentReport(steps=n[:, 0], mean_positions=mean_x,
                        mean_momenta=mean_p, second_positions=second_x,
                        second_momenta=second_p, energy=energy)


@_in_float_range
def sho_moments_scaled(state: PhaseState, kernel: GammaKernel,
                       omega: float = 1.0) -> MomentReport:
    """Oscillator report for general masses and a common frequency, over
    ``n = 0..kernel.n``.

    H = sum p_i^2/2m_i + m_i omega^2 x_i^2 / 2.  Rescaling
    ``X = x sqrt(m omega)``, ``P = p / sqrt(m omega)`` and measuring time in
    units of ``1/omega`` (so the time quantum becomes ``omega tau``) reduces
    the system to the unit form; the report is mapped back afterwards.
    Different frequencies per component are not supported — the cross-moment
    closed form is only established for a common frequency.
    """
    omega = _positive("omega", omega)
    scale = np.sqrt(state.masses * omega)
    unit_state = PhaseState(state.positions * scale, state.momenta / scale,
                            np.ones(state.dof))
    unit_kernel = GammaKernel(kernel.n, kernel.tau * omega)
    rep = sho_moments(unit_state, unit_kernel)
    inv = 1.0 / scale
    mean_x = rep.mean_positions * inv
    mean_p = rep.mean_momenta * scale
    second_x = rep.second_positions * np.outer(inv, inv)
    second_p = rep.second_momenta * np.outer(scale, scale)
    # H = omega * (unit-system energy), constant over n
    energy = rep.energy * omega
    return MomentReport(steps=rep.steps, mean_positions=mean_x,
                        mean_momenta=mean_p, second_positions=second_x,
                        second_momenta=second_p, energy=energy)


# ---------------------------------------------------------------------------
# quadrature route


def observable_signal(trajectory: Trajectory, func) -> TimeSignal:
    """Time signal t -> func(x(t), p(t)) along a trajectory.

    ``func`` must be vectorized over the leading axis: it receives arrays of
    shape ``(m, dof)`` and returns shape ``(m,)``, or ``(m, k)`` for ``k``
    observables.  The signal declares no growth rate, so the transform's
    divergence screening probes it far beyond the weight's bulk, out to the
    :func:`~dtmech.kernel.screening_horizon`.
    """

    def evaluate(t):
        x, p = trajectory.state_at(np.atleast_1d(t))
        return np.asarray(func(x, p))

    return TimeSignal(evaluate)


@_in_float_range
def evolve_observable(model, state: PhaseState, func,
                      kernel: GammaKernel) -> np.ndarray:
    """Smeared observable values over ``n = 0..kernel.n``.

    Row ``n`` is the gamma transform (at step count ``n``) of the signal
    ``t -> func(x(t), p(t))``; row 0 is the deterministic initial value.
    A row holds ``k`` entries when ``func`` returns ``k`` columns.
    The trajectory is solved once, out to the screening horizon of the last
    step count: no transform, screening probe, live Gauss--Laguerre node or
    fallback panel reaches further, so it is never re-solved.
    """
    trajectory = model.trajectory(state, t_max=screening_horizon(kernel))
    signal = observable_signal(trajectory, func)
    x0 = state.positions[None, :]
    p0 = state.momenta[None, :]
    values = [np.asarray(func(x0, p0), dtype=float)[0]]
    for n in range(1, kernel.n + 1):
        values.append(
            transform_quadrature(signal, GammaKernel(n, kernel.tau)).value)
    return np.asarray(values, dtype=float)


def quadrature_moments(model, state: PhaseState,
                       kernel: GammaKernel) -> MomentReport:
    """Moment report over ``n = 0..kernel.n``, computed entirely through
    the quadrature route.

    Exists to cross-check the closed forms: every mean and pair moment is a
    gamma transform of the corresponding product along the continuous
    trajectory.  All of them (and the energy) are columns of one signal, so
    each step count costs one transform.
    """
    n_values = np.arange(kernel.n + 1)
    l = state.dof
    iu, ju = np.triu_indices(l)
    energy_of = getattr(model, "energy", None)

    def columns(x, p):
        cols = [x, p, x[:, iu] * x[:, ju], p[:, iu] * p[:, ju]]
        if energy_of is not None:
            cols.append(energy_of(x, p, state.masses)[:, None])
        return np.concatenate(cols, axis=1)

    values = evolve_observable(model, state, columns, kernel)
    pairs = iu.size
    second_x = np.empty((n_values.size, l, l))
    second_p = np.empty((n_values.size, l, l))
    second_x[:, iu, ju] = second_x[:, ju, iu] = values[:, 2 * l:2 * l + pairs]
    second_p[:, iu, ju] = second_p[:, ju, iu] = values[:, 2 * l + pairs:2 * l + 2 * pairs]
    energy = (values[:, -1] if energy_of is not None
              else np.full(n_values.size, np.nan))
    return MomentReport(steps=n_values,
                        mean_positions=values[:, :l],
                        mean_momenta=values[:, l:2 * l],
                        second_positions=second_x, second_momenta=second_p,
                        energy=energy, source="quadrature")
