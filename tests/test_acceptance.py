"""End-to-end acceptance gate: ten numbered criteria, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
``CRITERION k: PASS/FAIL`` lines.  Each criterion also carries a wall-time
budget, asserted after the checks.

Criterion 8 contrasts the continuous growth rate c = 1 with the smeared
sensitivity, which shows no growth rate at all.  Its discrete clause
checks the fitter's documented refusal: over the fit window the smeared
log-distance falls ever faster (it is concave), so a log-linear fit must
raise ``FitUnstable``.  The estimate and residual it carries are pinned to
a line fitted to an independent deformed-contour oracle of the same curve
(``tests/test_nonlinear.py::test_contour_oracle_curve_has_no_single_slope``,
with the pointwise agreement in
``test_dt_sensitivity_matches_contour_oracle_deep``).
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import gammaln

from dtmech.classical import (FreeParticle, HarmonicOscillator, PhaseState,
                              free_particle_moments, quadrature_moments,
                              sho_moments)
from dtmech.cli import main
from dtmech.errors import FitUnstable
from dtmech.kernel import (GammaKernel, StepScheme,
                           advection_negativity_probe,
                           complex_exponential_signal, monomial_signal,
                           scheme_delta_coefficient, transform_quadrature)
from dtmech.nonlinear import (FIT_RESIDUAL_LIMIT, SensitivityModel,
                              ct_lyapunov, dt_bound, dt_distance,
                              dt_lyapunov, exponential_map, power_law_map)
from dtmech.quantum import (NATURAL, SECONDS_PER_YEAR, SI_PLANCK,
                            DensityMatrix, decoherence_time, evolve_density,
                            gamma_equivalence_check, offdiagonal_modulus,
                            schroedinger_defect)
from dtmech.report import csv_payload

BUDGET_SECONDS = {1: 5, 2: 5, 3: 10, 4: 1, 5: 30, 6: 1, 7: 10, 8: 30,
                  9: 10, 10: 10}


def _criterion(number, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException as exc:
        print(f"CRITERION {number}: FAIL - {type(exc).__name__}: {exc}")
        raise
    elapsed = time.perf_counter() - start
    print(f"CRITERION {number}: PASS ({elapsed:.2f} s)")
    assert elapsed < BUDGET_SECONDS[number]


def _random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= rho.trace()
    return DensityMatrix(rng.uniform(0.0, 1.0, dim), rho)


# ---------------------------------------------------------------------------


def test_criterion_01_transform_closed_forms():
    def body():
        steps = [1, 2, 3, 5, 8, 13, 21, 34, 50]
        for tau in (0.3, 1.0):
            for k in range(7):
                signal = monomial_signal(k)
                for n in steps:
                    got = transform_quadrature(signal, GammaKernel(n, tau))
                    exact = tau ** k * math.exp(gammaln(n + k) - gammaln(n))
                    assert abs(got.value - exact) <= 1e-10 * exact
        # phase factors: smeared e^{i omega t} is (1 - i omega tau)^{-n}.
        # The target value shrinks like (1 + omega^2 tau^2)^{-n/2} while the
        # quadrature's absolute noise floor stays ~1e-15, so each frequency
        # is checked up to the step count where 1e-8 *relative* is still
        # meaningful in double precision.
        cases = [(0.1, n) for n in steps]
        cases += [(1.0, n) for n in steps if n <= 34]
        cases += [(3.0, n) for n in range(1, 13)]
        for omega, n in cases:
            signal = complex_exponential_signal(omega)
            got = transform_quadrature(signal, GammaKernel(n, 1.0))
            exact = (1.0 - 1j * omega) ** (-n)
            assert abs(got.value - exact) <= 1e-8 * abs(exact), (omega, n)

    _criterion(1, body)


def test_criterion_02_free_particle_spreading():
    def body():
        state = PhaseState([0.0, 1.0], [1.0, -1.0], [1.0, 2.0])
        tau = 0.4
        report = free_particle_moments(state, GammaKernel(50, tau))
        ns = report.steps[:, None]
        expect_var = ns * tau * tau * (state.momenta / state.masses) ** 2
        assert np.allclose(report.position_variances(), expect_var,
                           rtol=1e-12, atol=1e-15)
        # momenta carry no spread and never change
        assert np.all(report.momentum_variances() == 0.0)
        assert np.all(report.second_momenta == report.second_momenta[0])
        # cross-covariance n tau^2 p_i p_j / (m_i m_j)
        covs = report.position_covariances()[:, 0, 1]
        expect_cov = (report.steps * tau * tau
                      * state.momenta[0] * state.momenta[1]
                      / (state.masses[0] * state.masses[1]))
        assert np.allclose(covs, expect_cov, rtol=1e-10, atol=1e-14)

        quad = quadrature_moments(FreeParticle(), state, GammaKernel(10, tau))
        closed = free_particle_moments(state, GammaKernel(10, tau))
        for name in ("mean_positions", "mean_momenta", "second_positions",
                     "second_momenta", "energy"):
            q, c = getattr(quad, name), getattr(closed, name)
            assert np.allclose(q, c, rtol=1e-7, atol=1e-9), name

    _criterion(2, body)


def test_criterion_03_oscillator_cross_validation():
    def body():
        state = PhaseState([1.0, -0.4], [0.2, 0.9], [1.0, 1.0])
        scale = float(np.sum(state.positions ** 2 + state.momenta ** 2))
        for tau in (0.1, 0.5):
            kern = GammaKernel(50, tau)
            closed = sho_moments(state, kern)
            quad = quadrature_moments(HarmonicOscillator(), state, kern)
            for name in ("mean_positions", "mean_momenta",
                         "second_positions", "second_momenta", "energy"):
                q = np.asarray(getattr(quad, name), dtype=float)
                c = np.asarray(getattr(closed, name), dtype=float)
                big = np.abs(c) >= 1e-3 * scale
                assert np.max(np.abs(q[big] - c[big]) / np.abs(c[big])) <= 1e-7, name
                assert np.max(np.abs(q[~big] - c[~big]), initial=0.0) <= 1e-7 * scale, name
            # energy conservation: <x^2> + <p^2> stays r^2 at every step
            r2 = np.einsum("nii->n", closed.second_positions) \
                + np.einsum("nii->n", closed.second_momenta)
            assert np.max(np.abs(r2 - scale)) <= 1e-12 * scale

    _criterion(3, body)


def test_criterion_04_planck_scale_decoherence_times():
    def body():
        electron_volt = 1.602176634e-19
        gap = 7e-3 * electron_volt
        years = decoherence_time(gap, SI_PLANCK) / SECONDS_PER_YEAR
        assert years > 1e10
        assert 1.0e10 < years < 1.1e10  # order-of-magnitude landmark
        seconds = decoherence_time(gap * 1e20, SI_PLANCK)
        assert 1e-23 <= seconds <= 1e-22

    _criterion(4, body)


def test_criterion_05_density_matrix_property_suite():
    def body():
        rng = np.random.default_rng(20240817)
        for _ in range(100):
            dim = int(rng.integers(1, 9))
            n = int(rng.integers(1, 101))
            dm = _random_density(rng, dim)
            out = evolve_density(dm, n)
            a = out.coeffs
            assert abs(a.trace() - 1.0) <= 1e-12
            assert np.max(np.abs(a - a.conj().T)) <= 1e-12
            assert np.linalg.eigvalsh(a).min() >= -1e-10
            assert out.purity() <= dm.purity() + 1e-12
            split = int(rng.integers(0, n + 1))
            two_leg = evolve_density(evolve_density(dm, split), n - split)
            assert np.max(np.abs(two_leg.coeffs - a)) <= 1e-12
            assert gamma_equivalence_check(dm, n) <= 1e-8

    _criterion(5, body)


def test_criterion_06_unitarity_defect_grid():
    def body():
        gaps = np.concatenate([[0.0], np.geomspace(1e-3, 10.0, 19)])
        for n in range(1, 21):
            for gap in gaps:
                defect = schroedinger_defect(n, gap)
                z = gap  # natural units: tau = hbar = 1
                expect = 0.5 * n * math.log1p(z * z)
                assert abs(defect - expect) <= 1e-12 * max(expect, 1e-300)
                if gap == 0.0:
                    assert defect == 0.0
                else:
                    assert defect > 0.0
                # independent route: modulus of the off-diagonal factor
                modulus = offdiagonal_modulus(n, gap)
                assert abs(-math.log(modulus) - expect) <= 1e-10 * (1 + expect)

    _criterion(6, body)


def test_criterion_07_scheme_negativity():
    def body():
        for alpha in (0.25, 0.5, 0.75):
            scheme = StepScheme(alpha)
            for n in range(1, 10):
                delta = scheme_delta_coefficient(scheme, n)
                assert (delta < 0) == (n % 2 == 1)
        # half-forward mixing on a sharp profile produces genuine negativity
        probe = advection_negativity_probe(StepScheme(0.5), GammaKernel(1, 1.0),
                                           sigma=0.01, domain_length=32.0,
                                           points=16384)
        assert probe.min_value < 0
        assert probe.min_value < -1e-3 * probe.peak_value
        # fully backward stepping never goes negative (up to grid roundoff)
        for n in range(1, 11):
            probe = advection_negativity_probe(StepScheme(0.0),
                                               GammaKernel(n, 1.0),
                                               sigma=0.05, domain_length=64.0,
                                               points=32768)
            assert probe.min_value >= -1e-8 * probe.peak_value

    _criterion(7, body)


def test_criterion_08_sensitivity_growth_contrast():
    def body():
        model = SensitivityModel(0.5, 1.0)
        tau = 0.1
        # continuous side recovers the growth rate
        est_ct = ct_lyapunov(model, 14.0)
        assert 0.95 <= est_ct.exponent <= 1.05
        # smeared sensitivity stays under its envelope bound throughout
        bound = dt_bound(model, GammaKernel(1, tau))
        for n in range(1, 201):
            assert dt_distance(model, GammaKernel(n, tau)) <= bound
        # map constructions
        b_rate = 5.0  # b tau = 0.5
        c_rate = exponential_map(b_rate, GammaKernel(1, tau))
        assert abs(c_rate - math.log(2.0) / tau) <= 1e-12 * c_rate
        assert c_rate > b_rate
        ratio = power_law_map(0.5, GammaKernel(100, tau))[-1] \
            / (tau * 100) ** 0.5
        assert abs(ratio - 1.0) <= 0.01
        # discrete side: no growth rate at all.  The log-distance over
        # t in [10, 20] is concave, so the fit must refuse; the slope and
        # residual it carries are those of a line through the contour
        # oracle's curve (test_nonlinear.py::
        # test_contour_oracle_curve_has_no_single_slope), and a flat or
        # growing curve would fail them.
        with pytest.raises(FitUnstable) as exc:
            dt_lyapunov(model, GammaKernel(200, tau))
        assert exc.value.residual > FIT_RESIDUAL_LIMIT
        assert exc.value.estimate <= -5.0
        assert abs(exc.value.estimate - (-14.109)) <= 0.01
        assert abs(exc.value.residual - 2.1222) <= 0.001

    _criterion(8, body)


def test_criterion_09_continuum_limit_convergence():
    def body():
        t_fixed = 1.0
        taus = [1e-1, 1e-2, 1e-3]
        steps = [round(t_fixed / tau) for tau in taus]

        # classical oscillator mean position vs continuous rotation
        state = PhaseState([1.0], [0.5], [1.0])
        r = math.hypot(1.0, 0.5)
        theta = math.atan2(1.0, 0.5)
        errs = []
        for tau, n in zip(taus, steps):
            rep = sho_moments(state, GammaKernel(n, tau))
            got = rep.mean_positions[-1, 0]
            errs.append(abs(got - r * math.sin(t_fixed + theta)))
        assert errs[0] > errs[1] > errs[2]

        # free-particle spread vanishes in the limit
        spread = [n * tau * tau for tau, n in zip(taus, steps)]
        assert spread[0] > spread[1] > spread[2]
        free_state = PhaseState([0.0], [1.0], [1.0])
        for tau, n, expect in zip(taus, steps, spread):
            rep = free_particle_moments(free_state, GammaKernel(n, tau))
            assert abs(rep.position_variances()[-1, 0] - expect) \
                <= 1e-12 * expect

        # quantum off-diagonal vs continuous phase rotation
        dm = DensityMatrix([0.0, 1.0],
                           np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
        errs_q = []
        for tau, n in zip(taus, steps):
            consts = type(NATURAL)(hbar=1.0, tau=tau)
            out = evolve_density(dm, n, consts)
            exact = 0.5 * np.exp(-1j * t_fixed)  # gap 1, time t
            errs_q.append(abs(out.coeffs[1, 0] - exact))
        assert errs_q[0] > errs_q[1] > errs_q[2]

    _criterion(9, body)


def test_criterion_10_cli_determinism(tmp_path):
    def body():
        def run(name, extra):
            out = tmp_path / name
            args = ["transform", "--signal", "cos", "--n-range", "1:10",
                    "--method", "monte-carlo", "--samples", "5000",
                    "--seed", "13", "--output", str(out)] + extra
            assert main(args) == 0
            return csv_payload(out.read_bytes().decode())

        first = run("a.csv", ["--threads", "1"])
        again = run("b.csv", ["--threads", "1"])
        pooled = run("c.csv", ["--threads", "4"])
        assert first == again == pooled

        # a seedless deterministic command is also byte-stable
        def run_quad(name):
            out = tmp_path / name
            assert main(["classical", "--model", "oscillator", "--x", "1",
                         "--p", "0", "--n", "20", "--tau", "0.2",
                         "--output", str(out)]) == 0
            return csv_payload(out.read_bytes().decode())

        assert run_quad("d.csv") == run_quad("e.csv")

    _criterion(10, body)
