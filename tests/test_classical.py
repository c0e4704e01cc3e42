import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from dtmech import classical
from dtmech import (
    CustomField,
    FreeParticle,
    GammaKernel,
    HarmonicOscillator,
    MomentReport,
    PhaseState,
    StiffnessFailure,
    TimeSignal,
    evolve_observable,
    free_particle_moments,
    observable_signal,
    quadrature_moments,
    sho_moments,
    sho_moments_scaled,
    transform_quadrature,
)
from dtmech.kernel import QuadratureRule, screening_horizon

# ---------------------------------------------------------------------------
# states


def test_state_validation():
    s = PhaseState([1.0], [2.0], [3.0])
    assert s.dof == 1
    with pytest.raises(ValueError):
        PhaseState([1.0, 2.0], [1.0], [1.0])
    with pytest.raises(ValueError):
        PhaseState([], [], [])
    with pytest.raises(ValueError):
        PhaseState([1.0], [1.0], [0.0])
    with pytest.raises(ValueError):
        PhaseState([1.0], [1.0], [-2.0])
    with pytest.raises(ValueError):
        PhaseState([np.inf], [1.0], [1.0])
    with pytest.raises(ValueError):
        PhaseState([[1.0]], [[1.0]], [[1.0]])


def test_state_arrays_are_frozen():
    s = PhaseState([1.0, 2.0], [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        s.positions[0] = 5.0


# ---------------------------------------------------------------------------
# free particle closed forms


def test_free_particle_initial_row_is_deterministic():
    s = PhaseState([1.5, -2.0], [0.3, 0.7], [2.0, 5.0])
    rep = free_particle_moments(s, GammaKernel(4, 0.7))
    assert rep.steps[0] == 0
    np.testing.assert_allclose(rep.mean_positions[0], s.positions, rtol=0, atol=0)
    np.testing.assert_allclose(rep.mean_momenta[0], s.momenta, rtol=0, atol=0)
    np.testing.assert_allclose(rep.second_positions[0],
                               np.outer(s.positions, s.positions))
    np.testing.assert_allclose(rep.position_variances()[0], 0.0, atol=0)
    np.testing.assert_allclose(rep.momentum_variances(), 0.0, atol=0)


def test_free_particle_covariance_two_body():
    # two unit masses with momenta (1, 2): after 3 steps of size 1 the
    # position covariance is 3 * 1^2 * 1 * 2 = 6
    s = PhaseState([0.0, 0.0], [1.0, 2.0], [1.0, 1.0])
    rep = free_particle_moments(s, GammaKernel(3, 1.0))
    cov = rep.position_covariances()
    assert cov[3, 0, 1] == pytest.approx(6.0, rel=1e-14)
    assert cov[3, 1, 0] == pytest.approx(6.0, rel=1e-14)
    # diagonal: n p^2 tau^2 / m^2
    assert cov[3, 0, 0] == pytest.approx(3.0, rel=1e-14)
    assert cov[3, 1, 1] == pytest.approx(12.0, rel=1e-14)


def test_free_particle_ballistic_means_and_flat_momenta():
    s = PhaseState([1.0], [2.0], [4.0])
    tau = 0.25
    rep = free_particle_moments(s, GammaKernel(10, tau))
    n = np.arange(11)
    np.testing.assert_allclose(rep.mean_positions[:, 0],
                               1.0 + 2.0 * n * tau / 4.0, rtol=1e-14)
    np.testing.assert_allclose(rep.mean_momenta[:, 0], 2.0, rtol=0)
    np.testing.assert_allclose(rep.second_momenta[:, 0, 0], 4.0, rtol=0)


def test_free_particle_diffusive_variance_slope():
    # variance growth per step is exactly p^2 tau^2 / m^2, flat to 1e-12
    s = PhaseState([0.3, -1.0], [1.7, 0.4], [2.0, 0.5])
    tau = 0.31
    rep = free_particle_moments(s, GammaKernel(60, tau))
    var = rep.position_variances()
    slopes = np.diff(var, axis=0)
    expected = (s.momenta * tau / s.masses) ** 2
    assert np.max(np.abs(slopes - expected)) < 1e-12 * max(1.0, np.max(expected))


def test_free_particle_at_rest_survives_a_huge_tau():
    # the t and t^2 terms have exactly zero coefficients at p = 0, so tau^2
    # overflowing (1e400) must not turn them into 0 * inf
    s = PhaseState([1.0], [0.0], [1.0])
    rep = free_particle_moments(s, GammaKernel(2, 1e200))
    np.testing.assert_array_equal(rep.mean_positions, 1.0)
    np.testing.assert_array_equal(rep.second_positions, 1.0)
    np.testing.assert_array_equal(rep.mean_momenta, 0.0)
    np.testing.assert_array_equal(rep.second_momenta, 0.0)
    # a moving particle's <x^2> does leave the float range there
    with pytest.raises(ValueError, match="float range"):
        free_particle_moments(PhaseState([1.0], [1.0], [1.0]),
                              GammaKernel(2, 1e200))


def test_free_particle_energy_constant():
    s = PhaseState([0.0, 1.0], [1.0, -2.0], [2.0, 3.0])
    rep = free_particle_moments(s, GammaKernel(40, 0.5))
    e0 = 1.0 / 4.0 + 4.0 / 6.0
    np.testing.assert_allclose(rep.energy, e0, rtol=1e-15)


# ---------------------------------------------------------------------------
# oscillator closed forms


def test_sho_initial_row_matches_state():
    s = PhaseState([1.0, -0.4], [0.2, 0.9], [1.0, 1.0])
    rep = sho_moments(s, GammaKernel(6, 0.8))
    np.testing.assert_allclose(rep.mean_positions[0], s.positions, atol=1e-15)
    np.testing.assert_allclose(rep.mean_momenta[0], s.momenta, atol=1e-15)
    np.testing.assert_allclose(rep.second_positions[0],
                               np.outer(s.positions, s.positions), atol=1e-15)
    np.testing.assert_allclose(rep.second_momenta[0],
                               np.outer(s.momenta, s.momenta), atol=1e-15)
    np.testing.assert_allclose(rep.position_variances()[0], 0.0, atol=1e-15)


def test_sho_single_step_frozen_values():
    # x0=1, p0=0, tau=1: after one step <x> = 1/2, <x^2> = 3/5 and <p^2> = 2/5
    s = PhaseState([1.0], [0.0], [1.0])
    rep = sho_moments(s, GammaKernel(1, 1.0))
    assert rep.mean_positions[1, 0] == pytest.approx(0.5, rel=1e-14)
    assert rep.second_positions[1, 0, 0] == pytest.approx(0.6, rel=1e-14)
    assert rep.second_momenta[1, 0, 0] == pytest.approx(0.4, rel=1e-14)
    # and after three steps <x> = -1/4
    rep3 = sho_moments(s, GammaKernel(3, 1.0))
    assert rep3.mean_positions[3, 0] == pytest.approx(-0.25, rel=1e-14)


def test_sho_mean_amplitude_damping_law():
    # |<x>|^2 + |<p>|^2 = r^2 (1 + tau^2)^(-n), per component, to 1e-12
    s = PhaseState([1.0, 0.3], [0.5, -0.7], [1.0, 1.0])
    tau = 0.45
    rep = sho_moments(s, GammaKernel(80, tau))
    r2 = s.positions**2 + s.momenta**2
    n = np.arange(81)[:, None]
    amp2 = rep.mean_positions**2 + rep.mean_momenta**2
    expected = r2 * (1.0 + tau * tau) ** (-n)
    assert np.max(np.abs(amp2 - expected)) < 1e-12


def test_sho_second_moment_sum_is_conserved():
    s = PhaseState([0.8, -0.1], [0.0, 1.2], [1.0, 1.0])
    rep = sho_moments(s, GammaKernel(120, 0.6))
    r2 = s.positions**2 + s.momenta**2
    total = (np.einsum("nii->ni", rep.second_positions)
             + np.einsum("nii->ni", rep.second_momenta))
    np.testing.assert_allclose(total, np.broadcast_to(r2, total.shape),
                               rtol=1e-13)
    np.testing.assert_allclose(rep.energy, 0.5 * r2.sum(), rtol=1e-14)


def test_sho_moments_relax_to_equipartition():
    # rotating part damps away: second moments approach r_i r_j cos(.)/2
    s = PhaseState([1.0], [0.0], [1.0])
    rep = sho_moments(s, GammaKernel(400, 0.5))
    assert rep.second_positions[400, 0, 0] == pytest.approx(0.5, abs=1e-12)
    assert rep.second_momenta[400, 0, 0] == pytest.approx(0.5, abs=1e-12)
    assert abs(rep.mean_positions[400, 0]) < 1e-12


def test_sho_zero_amplitude_component_is_quiet():
    s = PhaseState([0.0, 1.0], [0.0, 0.0], [1.0, 1.0])
    rep = sho_moments(s, GammaKernel(30, 0.7))
    np.testing.assert_array_equal(rep.mean_positions[:, 0], 0.0)
    np.testing.assert_array_equal(rep.mean_momenta[:, 0], 0.0)
    np.testing.assert_array_equal(rep.second_positions[:, 0, 0], 0.0)
    np.testing.assert_array_equal(rep.second_positions[:, 0, 1], 0.0)
    # the all-zero state is handled too
    rep0 = sho_moments(PhaseState([0.0], [0.0], [1.0]), GammaKernel(5, 1.0))
    np.testing.assert_array_equal(rep0.second_momenta, 0.0)


def test_sho_continuum_limit_tracks_continuous_motion():
    # at fixed elapsed time n*tau = 1 the mean approaches the continuous
    # trajectory value monotonically as tau shrinks
    s = PhaseState([1.0], [0.0], [1.0])
    target = math.sin(1.0 + math.pi / 2.0)
    errs = []
    for tau in (0.1, 0.01, 0.001):
        n = round(1.0 / tau)
        rep = sho_moments(s, GammaKernel(n, tau))
        errs.append(abs(rep.mean_positions[n, 0] - target))
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# scaled oscillator


def test_scaled_oscillator_reduces_to_unit_case():
    s = PhaseState([0.7, -0.2], [0.1, 0.9], [1.0, 1.0])
    k = GammaKernel(12, 0.4)
    a = sho_moments(s, k)
    b = sho_moments_scaled(s, k, omega=1.0)
    np.testing.assert_allclose(b.mean_positions, a.mean_positions, rtol=1e-14)
    np.testing.assert_allclose(b.second_momenta, a.second_momenta, rtol=1e-14)
    np.testing.assert_allclose(b.energy, a.energy, rtol=1e-14)


def test_scaled_oscillator_against_direct_transform():
    # general (m, omega): smear x(t) = x0 cos(wt) + (p0/m w) sin(wt) directly
    m, w, tau = 2.0, 3.0, 0.1
    x0, p0 = 0.8, -0.5
    s = PhaseState([x0], [p0], [m])
    sig_x = TimeSignal(lambda t: x0 * np.cos(w * t) + (p0 / (m * w)) * np.sin(w * t),
                       growth_rate=0.0)
    sig_p = TimeSignal(lambda t: p0 * np.cos(w * t) - m * w * x0 * np.sin(w * t),
                       growth_rate=0.0)
    for n in (1, 5, 20):
        rep = sho_moments_scaled(s, GammaKernel(n, tau), omega=w)
        rx = transform_quadrature(sig_x, GammaKernel(n, tau))
        rp = transform_quadrature(sig_p, GammaKernel(n, tau))
        assert rep.mean_positions[n, 0] == pytest.approx(rx.value, rel=1e-8)
        assert rep.mean_momenta[n, 0] == pytest.approx(rp.value, rel=1e-8)


def test_scaled_oscillator_energy_and_initial_row():
    m, w = 2.0, 3.0
    s = PhaseState([0.8, 0.1], [-0.5, 0.4], [m, m])
    rep = sho_moments_scaled(s, GammaKernel(25, 0.2), omega=w)
    np.testing.assert_allclose(rep.mean_positions[0], s.positions, atol=1e-14)
    np.testing.assert_allclose(rep.mean_momenta[0], s.momenta, atol=1e-14)
    e0 = np.sum(s.momenta**2 / (2 * m) + 0.5 * m * w * w * s.positions**2)
    np.testing.assert_allclose(rep.energy, e0, rtol=1e-13)


def test_scaled_oscillator_rejects_bad_frequency():
    s = PhaseState([1.0], [0.0], [2.0])
    with pytest.raises(ValueError):
        sho_moments_scaled(s, GammaKernel(3, 0.5), omega=0.0)


# ---------------------------------------------------------------------------
# trajectories


def test_free_particle_trajectory_closed_form():
    s = PhaseState([1.0, 0.0], [2.0, -1.0], [2.0, 4.0])
    traj = FreeParticle().trajectory(s, t_max=10.0)
    x, p = traj.state_at([0.0, 3.0])
    np.testing.assert_allclose(x[1], [1.0 + 3.0, -0.75], rtol=1e-15)
    np.testing.assert_allclose(p[1], [2.0, -1.0], rtol=0)


def test_oscillator_trajectory_closed_form():
    s = PhaseState([1.0], [0.0], [1.0])
    traj = HarmonicOscillator().trajectory(s, t_max=100.0)
    t = np.linspace(0.0, 50.0, 7)
    x, p = traj.state_at(t)
    np.testing.assert_allclose(x[:, 0], np.cos(t), atol=1e-14)
    np.testing.assert_allclose(p[:, 0], -np.sin(t), atol=1e-14)


def test_custom_field_decay_matches_exponential():
    # dx/dt = -x from x(0) = 2
    model = CustomField(lambda x: -x)
    s = PhaseState([2.0], [0.0], [1.0])
    traj = model.trajectory(s, t_max=5.0)
    t = np.array([0.0, 0.5, 1.0, 4.0])
    x, p = traj.state_at(t)
    np.testing.assert_allclose(x[:, 0], 2.0 * np.exp(-t), rtol=1e-9)
    np.testing.assert_array_equal(p, 0.0)


def test_custom_field_trajectory_refuses_times_past_its_end():
    model = CustomField(lambda x: -x)
    s = PhaseState([2.0], [0.0], [1.0])
    traj = model.trajectory(s, t_max=2.0)
    x, _ = traj.state_at([2.0])
    assert x[0, 0] == pytest.approx(2.0 * math.exp(-2.0), rel=1e-9)
    with pytest.raises(ValueError, match="covers"):
        traj.state_at([7.0])
    assert traj.t_max == 2.0


def test_fast_rotation_field_is_solved_once(monkeypatch):
    # x0' = 40 x1, x1' = -40 x0 from (0, 1): x0 = sin 40t, whose one-step
    # transform at tau = 0.5 is Im 1/(1 - 20i) = 20/401.  Node doubling gives
    # up and the panel fallback takes over, inside the screening horizon the
    # trajectory was solved to
    calls = []
    real = scipy.integrate.solve_ivp

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "solve_ivp", counting)
    model = CustomField(lambda x: np.array([40.0 * x[1], -40.0 * x[0]]))
    s = PhaseState([0.0, 1.0], [0.0, 0.0], [1.0, 1.0])
    vals = evolve_observable(model, s, lambda x, p: x[..., 0], GammaKernel(1, 0.5))
    assert len(calls) == 1
    assert abs(vals[1] - 0.04987531172069825) <= 1e-9


def test_trajectory_rejects_negative_time():
    s = PhaseState([1.0], [1.0], [1.0])
    traj = FreeParticle().trajectory(s, t_max=5.0)
    with pytest.raises(ValueError):
        traj.state_at([-0.1])


def test_custom_field_blowup_raises_stiffness():
    model = CustomField(lambda x: x * x)  # blows up at t = 1 from x0 = 1
    s = PhaseState([1.0], [0.0], [1.0])
    with pytest.raises(StiffnessFailure):
        model.trajectory(s, t_max=2.0)


# ---------------------------------------------------------------------------
# quadrature route


def test_evolve_observable_initial_row_and_length():
    s = PhaseState([1.0], [0.0], [1.0])
    vals = evolve_observable(HarmonicOscillator(), s,
                             lambda x, p: x[..., 0], GammaKernel(6, 0.3))
    assert vals.shape == (7,)
    assert vals[0] == 1.0


def test_evolve_observable_matches_sho_means():
    s = PhaseState([1.0, 0.3], [0.5, -0.7], [1.0, 1.0])
    k = GammaKernel(15, 0.3)
    rep = sho_moments(s, k)
    for i in (0, 1):
        vals = evolve_observable(HarmonicOscillator(), s,
                                 lambda x, p, i=i: x[..., i], k)
        np.testing.assert_allclose(vals, rep.mean_positions[:, i],
                                   rtol=1e-8, atol=1e-12)


def test_evolve_observable_custom_field_matches_closed_transform():
    # smeared e^{-t}: value (1 + tau)^{-n}
    model = CustomField(lambda x: -x)
    s = PhaseState([2.0], [0.0], [1.0])
    tau = 0.5
    vals = evolve_observable(model, s, lambda x, p: x[..., 0],
                             GammaKernel(10, tau))
    n = np.arange(11)
    np.testing.assert_allclose(vals, 2.0 * (1.0 + tau) ** (-n.astype(float)),
                               rtol=1e-8)


def test_evolve_observable_custom_field_rotation():
    # first-order rotation: x0' = x1, x1' = -x0 from (0, 1): x0(t) = sin t
    model = CustomField(lambda x: np.array([x[1], -x[0]]))
    s = PhaseState([0.0, 1.0], [0.0, 0.0], [1.0, 1.0])
    tau = 0.3
    vals = evolve_observable(model, s, lambda x, p: x[..., 0],
                             GammaKernel(8, tau))
    phi = math.atan(tau)
    n = np.arange(9)
    expected = (1 + tau * tau) ** (-n / 2.0) * np.sin(n * phi)
    np.testing.assert_allclose(vals, expected, rtol=1e-8, atol=1e-10)


def test_quadrature_report_cross_checks_sho_closed_forms():
    s = PhaseState([1.0, 0.3], [0.5, -0.2], [1.0, 1.0])
    k = GammaKernel(12, 0.3)
    closed = sho_moments(s, k)
    quad = quadrature_moments(HarmonicOscillator(), s, k)
    assert quad.source == "quadrature"
    scale = float(np.max(np.abs(closed.second_positions)))
    for a, b in ((closed.mean_positions, quad.mean_positions),
                 (closed.mean_momenta, quad.mean_momenta),
                 (closed.second_positions, quad.second_positions),
                 (closed.second_momenta, quad.second_momenta)):
        np.testing.assert_allclose(b, a, rtol=1e-7, atol=1e-7 * scale)
    np.testing.assert_allclose(quad.energy, closed.energy, rtol=1e-9)


def test_quadrature_report_cross_checks_free_particle():
    s = PhaseState([0.5, -1.0], [1.0, 2.0], [1.0, 4.0])
    k = GammaKernel(10, 0.5)
    closed = free_particle_moments(s, k)
    quad = quadrature_moments(FreeParticle(), s, k)
    scale = float(np.max(np.abs(closed.second_positions)))
    np.testing.assert_allclose(quad.mean_positions, closed.mean_positions,
                               rtol=1e-7, atol=1e-12)
    np.testing.assert_allclose(quad.second_positions, closed.second_positions,
                               rtol=1e-7, atol=1e-7 * scale)
    np.testing.assert_allclose(quad.energy, closed.energy, rtol=1e-9)
    # covariance built from quadrature pieces still shows the n tau^2 p_i p_j
    # / m_i m_j growth
    cov = quad.position_covariances()
    assert cov[10, 0, 1] == pytest.approx(10 * 0.25 * 1.0 * 0.5, rel=1e-6)


@pytest.mark.parametrize("model", [HarmonicOscillator(), FreeParticle()])
def test_quadrature_report_equals_one_observable_at_a_time(model):
    # the report's single column signal must reproduce, bit for bit, a
    # separate scalar transform of every observable
    s = PhaseState([1.0, -0.4, 0.3], [0.2, 0.9, -0.5], [1.0, 1.0, 1.0])
    k = GammaKernel(9, 0.35)
    rep = quadrature_moments(model, s, k)

    def alone(f):
        return evolve_observable(model, s, f, k)

    for i in range(3):
        np.testing.assert_array_equal(rep.mean_positions[:, i],
                                      alone(lambda x, p: x[..., i]))
        np.testing.assert_array_equal(rep.mean_momenta[:, i],
                                      alone(lambda x, p: p[..., i]))
        for j in range(i, 3):
            want = alone(lambda x, p: x[..., i] * x[..., j])
            np.testing.assert_array_equal(rep.second_positions[:, i, j], want)
            np.testing.assert_array_equal(rep.second_positions[:, j, i], want)
            np.testing.assert_array_equal(
                rep.second_momenta[:, i, j], alone(lambda x, p: p[..., i] * p[..., j]))
    np.testing.assert_array_equal(
        rep.energy, alone(lambda x, p: model.energy(x, p, s.masses)))


def _per_n_loop(monkeypatch):
    """Make the quadrature route transform one step count at a time, as a
    loop over ``transform_quadrature``; returns the results it made."""
    made = []

    def loop(signal, steps, tau, target):
        for n in steps:
            made.append(transform_quadrature(signal, GammaKernel(n, tau),
                                             QuadratureRule(n, target)))
            yield made[-1]

    monkeypatch.setattr(classical, "_transform_steps", loop)
    return made


@pytest.mark.parametrize("model, state, kernel", [
    (HarmonicOscillator([0.7, 1.3, 2.1]),
     PhaseState([1.0, -0.4, 0.3], [0.2, 0.9, -0.5], [0.5, 1.5, 3.0]),
     GammaKernel(80, 0.25)),
    (FreeParticle(), PhaseState([0.5, -1.0], [1.0, 2.0], [1.0, 4.0]),
     GammaKernel(60, 0.4)),
])
def test_quadrature_report_equals_the_per_n_loop(monkeypatch, model, state,
                                                 kernel):
    # one pass over all step counts, bit for bit the per-n transforms
    batch = quadrature_moments(model, state, kernel)
    _per_n_loop(monkeypatch)
    loop = quadrature_moments(model, state, kernel)
    for name in ("mean_positions", "mean_momenta", "second_positions",
                 "second_momenta", "energy"):
        np.testing.assert_array_equal(getattr(batch, name),
                                      getattr(loop, name), err_msg=name)


def test_rotation_field_pass_equals_the_per_n_loop(monkeypatch):
    # a CustomField's dense output may round differently when its times
    # come in other groups; every value must then lie within both errors
    model = CustomField(lambda x: np.array([x[1], -x[0]]))
    s = PhaseState([0.0, 1.0], [0.0, 0.0], [1.0, 1.0])
    k = GammaKernel(40, 0.2)

    def func(x, p):
        return np.stack([x[:, 0], x[:, 0] * x[:, 1]], axis=1)

    seen = []
    batched = classical._transform_steps

    def recording(*args):
        seen.extend(batched(*args))
        return iter(seen)

    monkeypatch.setattr(classical, "_transform_steps", recording)
    batch = evolve_observable(model, s, func, k)
    loop_results = _per_n_loop(monkeypatch)
    loop = evolve_observable(model, s, func, k)
    np.testing.assert_array_equal(batch[0], loop[0])
    for n in range(1, k.n + 1):
        a, b = seen[n - 1], loop_results[n - 1]
        np.testing.assert_array_equal(batch[n], a.value)
        np.testing.assert_array_equal(loop[n], b.value)
        gap = np.abs(a.value - b.value)
        assert np.all(gap <= np.minimum(a.error, b.error)), n


def test_quadrature_energy_conserved_for_long_runs():
    s = PhaseState([1.0], [0.4], [1.0])
    k = GammaKernel(100, 0.4)
    quad = quadrature_moments(HarmonicOscillator(), s, k)
    e0 = 0.5 * (1.0 + 0.16)
    np.testing.assert_allclose(quad.energy, e0, rtol=1e-9)


def test_custom_field_report_solves_its_ode_once(monkeypatch):
    # the trajectory starts at the screening horizon of the last step count,
    # so neither the probe nor any Gauss--Laguerre node makes it regrow
    calls = []
    real = scipy.integrate.solve_ivp

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "solve_ivp", counting)
    s = PhaseState([1.0], [0.0], [1.0])
    tau = 0.5
    rep = quadrature_moments(CustomField(lambda x: -x), s, GammaKernel(10, tau))
    assert len(calls) == 1
    n = np.arange(11).astype(float)
    np.testing.assert_allclose(rep.mean_positions[:, 0], (1.0 + tau) ** -n,
                               rtol=1e-8)


def test_quadrature_report_custom_field_has_nan_energy():
    model = CustomField(lambda x: -x)
    s = PhaseState([1.0], [0.0], [1.0])
    rep = quadrature_moments(model, s, GammaKernel(3, 0.4))
    assert np.all(np.isnan(rep.energy))
    np.testing.assert_array_equal(rep.mean_momenta, 0.0)


_COORD = st.floats(-2.0, 2.0)


@st.composite
def _moment_cases(draw):
    """(omega, state, tau, steps): dof 1-3, |x|, |p| <= 2, masses in
    [0.5, 3], 1 <= N <= 30; omega is None for free particles, else one
    oscillator frequency in [0.2, 3] per degree of freedom."""
    dof = draw(st.integers(1, 3))
    coords = st.lists(_COORD, min_size=dof, max_size=dof)
    omega = draw(st.none() | st.lists(st.floats(0.2, 3.0), min_size=dof,
                                      max_size=dof))
    masses = draw(st.lists(st.floats(0.5, 3.0), min_size=dof, max_size=dof))
    state = PhaseState(draw(coords), draw(coords), masses)
    tau, steps = draw(st.floats(0.05, 0.5)), draw(st.integers(1, 30))
    return omega, state, tau, steps


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(_moment_cases())
def test_quadrature_moments_match_closed_forms_on_random_states(case):
    # the closed forms within the quadrature's relative target (1e-10)
    omega, state, tau, steps = case
    kernel = GammaKernel(steps, tau)
    if omega is None:
        model, want = FreeParticle(), free_particle_moments(state, kernel)
    else:
        model = HarmonicOscillator(omega)
        want = sho_moments(state, kernel, omega)
    got = quadrature_moments(model, state, kernel)
    for name in ("mean_positions", "mean_momenta", "second_positions",
                 "second_momenta", "energy"):
        exact, routed = getattr(want, name), getattr(got, name)
        assert routed.shape == exact.shape
        assert np.all(np.abs(routed - exact)
                      <= 1e-10 * np.maximum(1.0, np.abs(exact))), name


# ---------------------------------------------------------------------------
# the paper's law: the backward difference of a smeared observable is the
# smeared derivative, T[f](n) - T[f](n-1) = tau T[f'](n), with T[f](0) = f(0)


@pytest.mark.parametrize("omega", [0.0, 1.0, 1.5, [0.7, 2.0]], ids=str)
def test_closed_row_0_is_the_state_bit_for_bit(omega):
    # the smearing at n = 0 is the identity; at omega = 1 the rescaling
    # route once gave <p_0> = <p_0 p_1> = 1.2e-16 and H = 1.5000000000000002
    s = PhaseState([1.0, 0.0], [0.0, 1.0], [2.0, 1.0])
    k = GammaKernel(3, 0.25)
    if omega == 0.0:
        rep, model = free_particle_moments(s, k), FreeParticle()
    else:
        rep, model = sho_moments(s, k, omega), HarmonicOscillator(omega)
    np.testing.assert_array_equal(rep.mean_positions[0], s.positions)
    np.testing.assert_array_equal(rep.mean_momenta[0], s.momenta)
    np.testing.assert_array_equal(rep.second_positions[0],
                                  np.outer(s.positions, s.positions))
    np.testing.assert_array_equal(rep.second_momenta[0],
                                  np.outer(s.momenta, s.momenta))
    np.testing.assert_array_equal(
        rep.energy, model.energy(s.positions, s.momenta, s.masses))
    if omega == 1.0:
        assert rep.energy[0] == 1.5


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 3).flatmap(lambda dof: st.tuples(
    *[st.lists(v, min_size=dof, max_size=dof) for v in (
        _COORD, _COORD, st.floats(0.5, 3.0),
        st.just(0.0) | st.floats(0.2, 3.0))])),
       st.floats(0.05, 1.0), st.integers(1, 40))
def test_closed_means_obey_the_backward_difference_law(coords, tau, steps):
    # x' = p/m and p' = -m w^2 x, so (x_n - x_{n-1})/tau = p_n/m and
    # (p_n - p_{n-1})/tau = -m w^2 x_n; w = 0 is a free coordinate.  Both
    # hold in exact arithmetic, so the bound is 16 ulps of each side's
    # scale: about 8 from rounding the coefficients, the products and the
    # sums of two terms, and at most 4 more from rounding the exponents
    # (n+k) rate and (n+k) angle, which moves a term by
    # (n+k)(rate + |angle|) eps |term| -- under 4 eps of its scale for
    # n <= 40 and w tau in [0, 3] (largest near w tau = 0.1)
    x0, p0, m, w = map(np.array, coords)
    rep = classical._linear_moments(PhaseState(x0, p0, m),
                                    GammaKernel(steps, tau), w)
    x, p = rep.mean_positions, rep.mean_momenta
    eps = np.finfo(float).eps
    for residual, a, b in (
            ((x[1:] - x[:-1]) - tau * p[1:] / m, x, tau * p / m),
            ((p[1:] - p[:-1]) + tau * m * w * w * x[1:], p,
             tau * m * w * w * x)):
        scale = np.maximum(np.abs(a), np.abs(b)).max(axis=0)
        assert np.all(np.abs(residual) <= 16 * eps * scale)


@pytest.mark.parametrize("steps, tau", [(5, 0.5), (150, 0.1)])
def test_rotation_field_obeys_the_backward_difference_law(steps, tau):
    # x0' = x1, x1' = -x0 from (0, 1): the ODE route has no closed form to
    # lean on, only the law.  Each smeared value lies within its reported
    # quadrature error of the transform of the solved trajectory, and a
    # trajectory error of at most delta moves it by at most delta, the
    # weight being a probability density.  The residual x_n - x_{n-1} -
    # tau y_n combines three values with weights 1, 1 and tau, so it is
    # bounded by their three reported errors plus (2 + tau) delta, with
    # delta the solver's tolerance at |y| = 1, ODE_TOLERANCE (1 + 1/100)
    model = CustomField(lambda x: np.array([x[1], -x[0]]))
    s = PhaseState([0.0, 1.0], [0.0, 0.0], [1.0, 1.0])
    kernel = GammaKernel(steps, tau)
    signal = observable_signal(
        model.trajectory(s, t_max=screening_horizon(kernel)), lambda x, p: x)
    results = [transform_quadrature(signal, GammaKernel(n, tau))
               for n in range(1, steps + 1)]
    values = np.vstack([s.positions, [r.value for r in results]])
    errors = np.vstack([[0.0, 0.0], [r.error for r in results]])
    np.testing.assert_array_equal(
        values, evolve_observable(model, s, lambda x, p: x, kernel))
    delta = classical.ODE_TOLERANCE * (1 + 1e-2)
    for i, sign in ((0, -1.0), (1, 1.0)):
        j = 1 - i
        residual = values[1:, i] - values[:-1, i] + sign * tau * values[1:, j]
        bound = (errors[1:, i] + errors[:-1, i] + tau * errors[1:, j]
                 + (2 + tau) * delta)
        assert np.all(np.abs(residual) <= bound)


def _mp_terms(x0, p0, m, w):
    """x(t) and p(t) of one degree of freedom as {(nu, k): coefficient} of
    t^k e^{i nu t}, in mpmath from the exact binary inputs: x0 + (p0/m) t at
    w = 0, else x0 cos wt + (p0/m) sin(wt)/w and p0 cos wt - m w x0 sin wt."""
    x0, p0, m, w = (mpmath.mpf(float(v)) for v in (x0, p0, m, w))
    if w == 0:
        return {(0, 0): x0, (0, 1): p0 / m}, {(0, 0): p0}
    half_sin = 1 / mpmath.mpc(0, 2)  # sin wt = (e^{iwt} - e^{-iwt}) / 2i
    x = {(w, 0): x0 / 2 + p0 / (m * w) * half_sin,
         (-w, 0): x0 / 2 - p0 / (m * w) * half_sin}
    p = {(w, 0): p0 / 2 - m * w * x0 * half_sin,
         (-w, 0): p0 / 2 + m * w * x0 * half_sin}
    return x, p


def _mp_smear(terms, steps, tau):
    """Rows 1..steps of the gamma(n) smearing of sum c t^k e^{i nu t}: each
    term is tau^k (n)_k (1 - i nu tau)^-(n+k), real part kept."""
    tau, rows = mpmath.mpf(tau), [mpmath.mpc(0)] * steps
    for (nu, k), c in terms.items():
        q = 1 / (1 - 1j * nu * tau)
        power = c * (tau * q) ** k
        for n in range(1, steps + 1):
            power *= q
            rows[n - 1] += power * math.prod(range(n, n + k))
    return [float(v.real) for v in rows]


def _mp_product(f, g):
    out = {}
    for (nu, k), c in f.items():
        for (mu, j), d in g.items():
            out[nu + mu, k + j] = out.get((nu + mu, k + j), 0) + c * d
    return out


@pytest.mark.parametrize("seed, kind", [(1, "free"), (2, "common"),
                                        (3, "per-dof"), (4, "mixed"),
                                        (5, "mixed")])
def test_closed_moments_match_mpmath_within_8_ulps_of_scale(seed, kind):
    # masses in [0.5, 3]; every mean and pair moment of rows 1..60 lies
    # within 8 ulps of its moment's scale, the largest |exact value| over
    # the rows, of the 40-digit term expansion
    rng = np.random.default_rng(seed)
    l, steps = 3, 60
    x0, p0 = rng.uniform(-2, 2, l), rng.uniform(-2, 2, l)
    m, tau = rng.uniform(0.5, 3, l), float(rng.uniform(0.1, 1))
    w = {"free": np.zeros(l), "common": np.full(l, rng.uniform(0.2, 3)),
         "per-dof": rng.uniform(0.2, 3, l),
         "mixed": np.array([0.0, *rng.uniform(0.2, 3, l - 1)])}[kind]
    rep = classical._linear_moments(PhaseState(x0, p0, m),
                                    GammaKernel(steps, tau), w)
    with mpmath.workdps(40):
        terms = [_mp_terms(*v) for v in zip(x0, p0, m, w)]
        cases = [(rep.mean_positions, [_mp_smear(t[0], steps, tau)
                                       for t in terms]),
                 (rep.mean_momenta, [_mp_smear(t[1], steps, tau)
                                     for t in terms])]
        for c, got in enumerate((rep.second_positions, rep.second_momenta)):
            cases.append((got.reshape(steps + 1, -1), [
                _mp_smear(_mp_product(ti[c], tj[c]), steps, tau)
                for ti in terms for tj in terms]))
    for got, columns in cases:
        exact = np.array(columns).T
        ulp = np.spacing(np.abs(exact).max(axis=0))
        assert np.all(np.abs(got[1:] - exact) <= 8 * ulp)


# ---------------------------------------------------------------------------
# report mechanics


def test_report_variance_floor_snaps_roundoff():
    second = np.array([[[4.0 - 1e-14]]])
    rep = MomentReport(steps=np.array([0]),
                       mean_positions=np.array([[2.0]]),
                       mean_momenta=np.array([[0.0]]),
                       second_positions=second,
                       second_momenta=np.array([[[0.0]]]),
                       energy=np.array([0.0]))
    assert rep.position_variances()[0, 0] == 0.0
    # genuinely negative stays visible
    bad = MomentReport(steps=np.array([0]),
                       mean_positions=np.array([[2.0]]),
                       mean_momenta=np.array([[0.0]]),
                       second_positions=np.array([[[3.0]]]),
                       second_momenta=np.array([[[0.0]]]),
                       energy=np.array([0.0]))
    assert bad.position_variances()[0, 0] < -0.5


def test_report_shape_validation():
    with pytest.raises(ValueError):
        MomentReport(steps=np.array([0, 1]),
                     mean_positions=np.zeros((2, 2)),
                     mean_momenta=np.zeros((2, 2)),
                     second_positions=np.zeros((2, 2, 2)),
                     second_momenta=np.zeros((2, 2, 2)),
                     energy=np.zeros(3))

