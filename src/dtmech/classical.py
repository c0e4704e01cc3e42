r"""Discrete-time classical mechanics: closed-form moments and an ODE route.

Phase-space observables evolve by smearing the continuous trajectory with the
gamma weight of :mod:`dtmech.kernel`.  Free particles and harmonic
oscillators are one linear model, whose smeared means and pair moments obey
the paper's backward-difference law and so have closed forms, read from
the kernel's one split of the smeared phase at ``omega tau``; a generic
first-order field is handled by dense-output integration feeding the same
transform.  The quadrature route exists to cross-check the closed forms, so
both produce the same :class:`MomentReport` shape.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import StiffnessFailure
from .kernel import (DEFAULT_ERROR_TARGET, GammaKernel, TimeSignal,
                     _phase_log, _phase_power, _positive, _transform_steps,
                     screening_horizon)

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
        m = np.atleast_1d(_positive("masses", self.masses))
        if not (x.ndim == p.ndim == m.ndim == 1):
            raise ValueError("positions, momenta, masses must be 1-d")
        if not (x.size == p.size == m.size >= 1):
            raise ValueError(
                f"lengths must match and be >= 1, got {x.size}/{p.size}/{m.size}"
            )
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(p)):
            raise ValueError("positions and momenta must be finite")
        for name, arr in (("positions", x), ("momenta", p), ("masses", m)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dof(self) -> int:
        return self.positions.size


class _LinearModel:
    """H = sum p_i^2/2m_i + m_i w_i^2 x_i^2/2, with w_i >= 0 (0: free).

    Each coordinate follows ``x = x0 cos wt + (p0/m) sin(wt)/w`` and
    ``p = p0 cos wt - m w x0 sin wt``, with ``t`` for ``sin(wt)/w`` at 0:
    ``x = Re(a e^{iwt}) + b t`` and ``p = Re(c e^{iwt})``.
    """

    def __init__(self, omega):
        self.omega = omega

    def _amplitudes(self, state: PhaseState):
        """``(w, a, b, c)``, one of each per degree of freedom."""
        x0, p0, m = state.positions, state.momenta, state.masses
        w = np.broadcast_to(self.omega, (state.dof,))
        vel, osc = p0 / m, w > 0
        a = x0 - 1j * np.divide(vel, w, out=np.zeros_like(vel), where=osc)
        return w, a, np.where(osc, 0.0, vel), p0 + 1j * m * w * x0

    def trajectory(self, state: PhaseState,
                   t_max: float = math.inf) -> "Trajectory":
        w, a, b, c = self._amplitudes(state)
        iw = 1j * w

        def evaluate(t):
            t = np.asarray(t, dtype=float)[:, None]
            phase = np.exp(iw * t)
            return (a * phase).real + b * t, (c * phase).real

        return Trajectory(evaluate, t_max=math.inf)

    def energy(self, x, p, masses):
        return 0.5 * np.sum(p * p / masses + masses * (self.omega * x) ** 2,
                            axis=-1)


class FreeParticle(_LinearModel):
    """H = sum p_i^2 / 2 m_i: straight lines, the linear model at w = 0."""

    def __init__(self):
        super().__init__(0.0)


class HarmonicOscillator(_LinearModel):
    """H = sum p_i^2/2m_i + m_i omega_i^2 x_i^2/2, for any masses.

    ``omega`` is one frequency for every degree of freedom, or a 1-d array
    of one per degree of freedom; each must be finite and > 0.
    """

    def __init__(self, omega=1.0):
        w = _positive("omega", omega)
        if np.ndim(w) > 1:
            raise ValueError(f"omega must be a float or 1-d, got {omega!r}")
        super().__init__(w)


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


def _pair_layout(l: int):
    """``np.triu_indices(l)`` and the ``l x l`` symmetric index of each pair
    among them, which gathers a row of pair moments into its matrix."""
    iu, ju = np.triu_indices(l)
    pos = np.empty((l, l), dtype=int)
    pos[iu, ju] = pos[ju, iu] = np.arange(iu.size)
    return iu, ju, pos


def _linear_moments(state: PhaseState, kernel: GammaKernel,
                    omega) -> MomentReport:
    """Closed-form report of the linear model over ``n = 0..kernel.n``.

    The paper's step is the backward difference, so a smeared ``t^k e^{i nu
    t}`` is ``tau^k S_k(nu)``, ``S_k(nu) = (n)_k (1 - i nu tau)^-(n+k)`` (from
    :func:`~dtmech.kernel._phase_power`, once per distinct ``nu``).  With
    ``x = Re(a e^{iwt}) + b t`` and ``p = Re(c e^{iwt})``, ``<x> = Re(a
    S_0(w)) + (b tau) n``, ``<p> = Re(c S_0(w))``, and by ``Re u Re v = Re(u v
    + u conj(v)) / 2`` each ``<p_i p_j>`` is ``Re(c_i c_j S_0(w_i + w_j) +
    c_i conj(c_j) S_0(w_i - w_j)) / 2``; ``<x_i x_j>`` is that with ``a`` for
    ``c``, plus ``(b_j tau) Re(a_i S_1(w_i)) + (b_i tau) Re(a_j S_1(w_j)) +
    (b_i tau)(b_j tau) n (n + 1)``.  ``b`` meets ``tau`` before any product,
    so a particle at rest never sees an overflowed ``tau^k``.  Row 0 is the
    state itself; the energy is ``H(x0, p0)``.
    """
    x0, p0, m = state.positions, state.momenta, state.masses
    l, rows = state.dof, kernel.n + 1
    model = _LinearModel(omega)
    w, a, b, c = model._amplitudes(state)
    bt, (iu, ju, pos) = b * kernel.tau, _pair_layout(l)
    n = np.arange(1, rows)[:, None]
    nu, at = np.unique(np.concatenate([w, w[iu] + w[ju], w[iu] - w[ju]]),
                       return_inverse=True)
    s0 = _phase_power(n, _phase_log(-nu, kernel.tau))[0]
    mean = np.empty((2, rows, l))
    mean[:, 0] = x0, p0
    mean[:, 1:] = (a * s0[:, at[:l]]).real + bt * n, (c * s0[:, at[:l]]).real
    # sum Re(coef S) at w_i +- w_j: S's float view holds Re S, Im S in turn
    coef = 0.5 * np.array([[u[iu] * u[ju], u[iu] * u[ju].conj()]
                           for u in (a, c)])
    col = 2 * at[l:].reshape(2, -1)
    pair = np.empty((2, rows, iu.size))
    pair[:, 0] = x0[iu] * x0[ju], p0[iu] * p0[ju]
    np.einsum("csp,nsp->cnp", np.concatenate([coef.real, -coef.imag], axis=1),
              s0.view(float)[:, np.concatenate([col, col + 1])],
              out=pair[:, 1:])
    drift = (a * n * _phase_power(n + 1, _phase_log(-w, kernel.tau))[0]).real
    pair[0, 1:] += (bt[ju] * drift[:, iu] + bt[iu] * drift[:, ju]
                    + bt[iu] * bt[ju] * (n * (n + 1)))
    return MomentReport(
        steps=np.arange(rows), mean_positions=mean[0], mean_momenta=mean[1],
        second_positions=pair[0][:, pos], second_momenta=pair[1][:, pos],
        energy=np.full(rows, float(model.energy(x0, p0, m))))


@_in_float_range
def free_particle_moments(state: PhaseState,
                          kernel: GammaKernel) -> MomentReport:
    """Closed-form free-particle report over ``n = 0..kernel.n``.

    Means drift ballistically while Var(x_i) grows exactly linearly,
    ``n tau^2 p_i^2 / m_i^2`` — diffusive spreading with
    ``D_i = p_i^2 tau / m_i^2``; momenta carry no spread at all.
    """
    return _linear_moments(state, kernel, 0.0)


@_in_float_range
def sho_moments(state: PhaseState, kernel: GammaKernel,
                omega=1.0) -> MomentReport:
    """Closed-form oscillator report over ``n = 0..kernel.n``, for any
    masses and one frequency ``omega`` or one per degree of freedom.

    Means rotate and damp as ``(1 - i omega tau)^-n``; a pair moment mixes a
    part at ``omega_i - omega_j`` with a damped one at ``omega_i + omega_j``,
    so each ``<p_i^2>/m_i + m_i omega_i^2 <x_i^2>`` is conserved.
    """
    return _linear_moments(state, kernel, HarmonicOscillator(omega).omega)


#: The rescaling route's former name: :func:`sho_moments` takes any masses.
sho_moments_scaled = sho_moments


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
    fallback panel reaches further, so it is never re-solved.  Rows 1..N
    come from shared transform passes over the step counts
    (:func:`~dtmech.kernel._transform_steps`, up to
    :data:`~dtmech.kernel._BATCH_STEPS` of them a pass): each row is what
    :func:`~dtmech.kernel.transform_quadrature` gives at its ``n``, but the
    screening probes, and the nodes of each doubling level, of a pass's
    rows share signal calls of at most :data:`~dtmech.kernel._BATCH_POINTS`
    times, so ``func`` is called a few times per level, not once per row.
    """
    trajectory = model.trajectory(state, t_max=screening_horizon(kernel))
    signal = observable_signal(trajectory, func)
    x0 = state.positions[None, :]
    p0 = state.momenta[None, :]
    results = _transform_steps(signal, range(1, kernel.n + 1), kernel.tau,
                               DEFAULT_ERROR_TARGET)
    return np.asarray([np.asarray(func(x0, p0), dtype=float)[0],
                       *(r.value for r in results)], dtype=float)


def quadrature_moments(model, state: PhaseState,
                       kernel: GammaKernel) -> MomentReport:
    """Moment report over ``n = 0..kernel.n``, computed entirely through
    the quadrature route.

    Exists to cross-check the closed forms: every mean and pair moment is a
    gamma transform of the corresponding product along the continuous
    trajectory.  All of them (and the energy) are columns of one signal,
    which :func:`evolve_observable` transforms at every step count in
    shared passes: a signal call serves several step counts, up to
    :data:`~dtmech.kernel._BATCH_POINTS` times, so a wide report needs
    hardly more memory than one transform at the node cap.
    """
    n_values = np.arange(kernel.n + 1)
    l = state.dof
    iu, ju, pos = _pair_layout(l)
    energy_of = getattr(model, "energy", None)

    def columns(x, p):
        cols = [x, p, x[:, iu] * x[:, ju], p[:, iu] * p[:, ju]]
        if energy_of is not None:
            cols.append(energy_of(x, p, state.masses)[:, None])
        return np.concatenate(cols, axis=1)

    values = evolve_observable(model, state, columns, kernel)
    energy = (values[:, -1] if energy_of is not None
              else np.full(n_values.size, np.nan))
    return MomentReport(steps=n_values,
                        mean_positions=values[:, :l],
                        mean_momenta=values[:, l:2 * l],
                        second_positions=values[:, 2 * l + pos],
                        second_momenta=values[:, 2 * l + iu.size + pos],
                        energy=energy, source="quadrature")
