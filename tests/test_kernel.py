"""Tests for the smearing kernel, both transform routes, and step schemes."""
import math
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import trapezoid
from scipy.special import gammaln
from scipy.stats import exponnorm, gamma as gamma_dist, kstest

from dtmech import errors, kernel
from dtmech._util import pairwise_dot, pairwise_sum
from dtmech.kernel import (
    GammaKernel,
    QuadratureRule,
    StepScheme,
    TransformResult,
    advection_negativity_probe,
    complex_exponential_signal,
    constant_signal,
    cosine_signal,
    exponential_signal,
    gamma_density,
    log_gamma_density,
    monomial_signal,
    sample_internal_time,
    scheme_delta_coefficient,
    scheme_density_decomposition,
    screening_horizon,
    tabulated_signal,
    transform_monte_carlo,
    transform_quadrature,
)


def moment_exact(n, tau, k):
    # E[(tau*U)**k] for U ~ Gamma(n): tau**k * Gamma(n+k)/Gamma(n)
    return tau ** k * math.exp(gammaln(n + k) - gammaln(n))


# ---------------------------------------------------------------------------
# density


@pytest.mark.parametrize("n,tau,origin", [(1, 1.0, 0.0), (3, 0.5, 0.0),
                                          (7, 2.0, 1.5), (40, 0.1, -2.0)])
def test_density_matches_reference_pdf(n, tau, origin):
    # a history that starts at ``origin`` is weighted at its offsets from it
    ker = GammaKernel(n, tau)
    xi = origin + np.linspace(1e-6, 12 * n * tau, 400)
    ours = gamma_density(ker, xi - origin)
    ref = gamma_dist.pdf(xi - origin, a=n, scale=tau)
    np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-300)


def test_density_support_and_jump():
    ker = GammaKernel(1, 0.25)
    assert gamma_density(ker, 0.0) == 0.0
    assert gamma_density(ker, -3.0) == 0.0
    # immediately above the origin the n=1 density sits at 1/tau
    assert gamma_density(ker, 1e-12) == pytest.approx(4.0, rel=1e-9)
    ker5 = GammaKernel(5, 1.0)
    assert gamma_density(ker5, 0.0) == 0.0
    assert log_gamma_density(ker5, 0.0) == -np.inf


@pytest.mark.parametrize("n", [1, 3])
def test_density_vanishes_at_infinity(n):
    # (n - 1) log(inf) - inf would be nan with an invalid-value warning
    ker = GammaKernel(n, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_gamma_density(ker, math.inf) == -math.inf
        assert gamma_density(ker, math.inf) == 0.0
        both = log_gamma_density(ker, np.array([2.0, math.inf]))
        mixture = scheme_density_decomposition(StepScheme(0.25), ker)
        tail = mixture.continuous_density(np.array([2.0, math.inf]))
    assert math.isfinite(both[0]) and both[1] == -math.inf
    assert math.isfinite(tail[0]) and tail[1] == 0.0


def test_log_density_large_step_count_is_finite():
    ker = GammaKernel(500, 1.0)
    # factorial(499) overflows floats; the log route must not
    val = log_gamma_density(ker, 500.0)
    assert math.isfinite(val)
    assert val == pytest.approx(math.log(gamma_dist.pdf(500.0, a=500)), rel=1e-10)


def test_the_density_loads_no_scipy():
    # the log-weight takes math.lgamma of its one step count, so a fresh
    # interpreter evaluates the density at n = 2 without importing scipy
    probe = ("import sys\n"
             "from dtmech.kernel import GammaKernel, gamma_density, "
             "log_gamma_density\n"
             "ker = GammaKernel(2, 1.0)\n"
             "print(gamma_density(ker, 1.0), log_gamma_density(ker, [0.5, 2.0]))\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("n", [1, 300])
def test_density_is_the_exponential_of_its_log(n):
    # one log-weight serves both: equal to the bit, on either side of the
    # origin, for scalars and arrays
    ker = GammaKernel(n, 0.7)
    xi = np.array([-2.0, 0.0, 1e-300, 1e-9, 0.35, 0.7 * n, 3.0 * n, 5e3])
    for shift in (0.0, 0.35):
        dens = gamma_density(ker, xi - shift)
        assert np.array_equal(dens, np.exp(log_gamma_density(ker, xi - shift)))
        for x in xi - shift:
            one = gamma_density(ker, float(x))
            assert type(one) is float
            assert one == np.exp(log_gamma_density(ker, float(x)))
    assert gamma_density(ker, 0.0) == 0.0 and gamma_density(ker, -1.0) == 0.0


def test_kernel_validation():
    with pytest.raises(ValueError):
        GammaKernel(0, 1.0)
    with pytest.raises(ValueError):
        GammaKernel(2.5, 1.0)
    with pytest.raises(ValueError):
        GammaKernel(3, -1.0)
    with pytest.raises(ValueError):
        GammaKernel(3, math.inf)


def test_kernel_refuses_an_array_of_step_counts():
    # a range of n is a sequence of kernels (or of step counts for the
    # batched pass), never one kernel: an array n would fail later, in
    # every route, with an unrelated error
    with pytest.raises(ValueError, match="step count n must be a single"):
        GammaKernel(np.array([1, 2]), 0.1)
    with pytest.raises(ValueError, match="step count n must be a single"):
        GammaKernel([3], 0.1)
    ker = GammaKernel(np.array(3), 0.1)
    assert ker.n == 3 and type(ker.n) is int


# ---------------------------------------------------------------------------
# quadrature rule


def test_rule_weights_normalized_and_nonnegative():
    # the rules a transform uses: solved at shapes 0 and 3, reweighted from
    # their anchors at 36 and 249
    for n in (1, 4, 37, 250):
        nodes, weights, _ = kernel._rule_at(kernel.FIRST_NODE_COUNT, n - 1)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        # a far weight may underflow to 0 at large n, so non-negativity
        # (not strict positivity) is the contract
        assert np.all(weights >= 0)
        assert weights.max() > 0.01
        assert np.all(np.diff(nodes) > 0)
        assert np.all(nodes > 0)


def test_rule_moment_exactness():
    # an M-node rule integrates u**j exactly against the weight for j <= 2M-1
    n, m = 4, 6
    nodes, weights = kernel._laguerre_rule(m, n - 1)
    for j in range(2 * m):
        got = float(np.dot(weights, nodes ** j))
        want = math.exp(gammaln(n + j) - gammaln(n))
        assert got == pytest.approx(want, rel=1e-12), f"moment {j}"


def test_rule_huge_shape_no_overflow():
    # shape parameter n-1 = 399 is far beyond Gamma overflow
    nodes, weights, _ = kernel._rule_at(64, 399)
    assert np.all(np.isfinite(nodes))
    assert weights.sum() == pytest.approx(1.0, abs=1e-10)


def _recurrence_coefficients(m, shape):
    """b_k = sqrt((k + 1)(k + 1 + shape)), k < m, of the orthonormal Laguerre
    recurrence, in 40 digits: the same for every node of a rule."""
    with mpmath.workdps(40):
        return [mpmath.sqrt(mpmath.mpf(k + 1) * (k + 1 + shape))
                for k in range(m)]


def _christoffel_and_root(shape, bs, u):
    """At ``u``, in 40 digits: the normalized weight's Christoffel function
    1 / sum_{k<m} p_k(u)^2 over the orthonormal Laguerre polynomials, and
    ``u`` after one Newton step on p_m (a root to 40 digits from a node
    already right to about 1e-15); ``bs`` from
    :func:`_recurrence_coefficients`."""
    with mpmath.workdps(40):
        u = mpmath.mpf(float(u))
        p_, p, dp_, dp, total = 0, mpmath.mpf(1), 0, 0, 0
        b_ = 0
        for k, b in enumerate(bs):
            total += p * p
            gap = u - (2 * k + shape + 1)
            p_, p = p, (gap * p - b_ * p_) / b
            dp_, dp = dp, (p_ + gap * dp - b_ * dp_) / b
            b_ = b
        return 1 / total, u - p / dp


@pytest.mark.parametrize("m, shape", [
    (m, s) for m in (32, 64, 128, 256) for s in (0, 1, 96, 384, 784)]
    + [(64, 399), (256, 799), (256, 4992), (128, 20000)])
def test_rule_matches_the_christoffel_function_and_the_roots(m, shape):
    # a solved rule, at an anchor shape (below 16 or a multiple of 16) or
    # between them (399 and 799), is the Gauss rule of its own shape: every
    # weight is its node's Christoffel function to 1e-13 relative, a far one
    # too, and every node is at most 4 doubles from the correctly rounded
    # root; (256, 4992) and (128, 20000) lie past the compiled evaluation's
    # overflow and take the orthonormal recurrence
    nodes, weights = kernel._laguerre_rule(m, shape)
    bs = _recurrence_coefficients(m, shape)
    for u, w in zip(nodes, weights):
        christoffel, root = _christoffel_and_root(shape, bs, u)
        assert abs(w - christoffel) <= 1e-13 * christoffel, (m, shape, u)
        assert abs(u - float(root)) <= 4 * np.spacing(float(root)), (m, shape, u)


@pytest.mark.parametrize("shape", [17, 31, 399, 799, 5000])
def test_reweighted_rule_matches_the_moments_of_its_weight(shape):
    # a shape between anchors reweights its anchor's rule by u^Delta,
    # Delta <= 15: exact to degree 2m - 1 - Delta >= 48 against the
    # gamma(shape + 1) weight, whose j-th moment is (shape + 1)_j
    for m in (32, 64, 128, 256):
        nodes, weights, rounding = kernel._rule_at(m, shape)
        assert rounding == math.log2(m) + shape % 16 + 2
        with mpmath.workdps(40):
            u = [mpmath.mpf(float(x)) for x in nodes]
            w = [mpmath.mpf(float(x)) for x in weights]
            for j in range(31):
                got = mpmath.fsum(wi * ui ** j for wi, ui in zip(w, u))
                want = mpmath.rf(shape + 1, j)
                assert abs(got - want) <= 1e-13 * want, (m, shape, j)


@pytest.mark.parametrize("m", [32, 64, 128, 256])
def test_rule_integrates_a_high_monomial_to_rounding(m):
    # u^30 against u e^-u / 1! is 31!, and every rule from 16 nodes on is
    # exact for it: far weights count, relative to their own size
    nodes, weights = kernel._laguerre_rule(m, 1)
    assert float(np.dot(weights, nodes ** 30)) == pytest.approx(
        math.factorial(31), rel=1e-14)


@pytest.mark.parametrize("shape", [0, 1, 98, 799, 5000])
def test_no_rule_places_a_node_past_the_screening_window(shape):
    # the transform evaluates a signal no later than tau U(n), the end of
    # the screening window, where the ODE trajectory of a field ends too
    window = screening_horizon(GammaKernel(shape + 1, 1.0))
    for m in (32, 64, 128, 256):
        nodes, weights, _ = kernel._rule_at(m, shape)
        assert nodes.size == weights.size and nodes.max() <= window, (m, shape)
    assert kernel._laguerre_rule(256, 0)[0].size == 111


def test_transform_of_a_high_monomial_stays_on_the_rules():
    # t^30 against gamma(2) at tau = 0.5 is tau^30 31!: the rules agree to
    # the bit where far weights are right, so no panel is needed
    res = transform_quadrature(monomial_signal(30), GammaKernel(2, 0.5))
    assert res.method == "laguerre"
    exact = mpmath.mpf(0.5) ** 30 * mpmath.factorial(31)
    assert abs(res.value - exact) <= res.error
    assert abs(res.value - exact) <= 1e-14 * exact


def test_rule_doubling_and_mismatch():
    ker = GammaKernel(3, 1.0)
    rule = QuadratureRule.for_kernel(ker)
    with pytest.raises(ValueError):
        transform_quadrature(constant_signal(), GammaKernel(4, 1.0), rule=rule)


# ---------------------------------------------------------------------------
# quadrature transform oracles


def test_transform_constant_is_one():
    res = transform_quadrature(constant_signal(1.0), GammaKernel(6, 0.3))
    assert res.value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n,tau,k", [(1, 1.0, 1), (3, 0.5, 2), (10, 0.2, 3),
                                     (200, 0.01, 3), (64, 1.0, 5)])
def test_transform_monomial(n, tau, k):
    res = transform_quadrature(monomial_signal(k), GammaKernel(n, tau))
    assert res.value == pytest.approx(moment_exact(n, tau, k), rel=1e-10)


def test_transform_cosine_frozen_value():
    # one step, unit quantum: smeared cos equals Re (1 - i)^(-1) = 1/2
    res = transform_quadrature(cosine_signal(1.0), GammaKernel(1, 1.0))
    assert res.value == pytest.approx(0.5, rel=1e-10)


def complex_exp_exact(n, tau, omega):
    return (1.0 - 1j * omega * tau) ** (-n)


@pytest.mark.parametrize("omega_tau", [0.1, 1.0])
@pytest.mark.parametrize("n", [1, 2, 5, 12, 30])
def test_transform_complex_exponential_identity(n, omega_tau):
    tau = 0.5
    omega = omega_tau / tau
    res = transform_quadrature(complex_exponential_signal(omega), GammaKernel(n, tau))
    assert res.value == pytest.approx(complex_exp_exact(n, tau, omega), rel=1e-8)


@pytest.mark.parametrize("n", [1, 4, 8, 12])
def test_transform_complex_exponential_fast_phase(n):
    # omega*tau = 3: the target shrinks like 10**(-n/2); past n ~ 14 it sinks
    # below the cancellation floor of double precision, so stop at 12
    tau, omega = 1.0, 3.0
    res = transform_quadrature(complex_exponential_signal(omega), GammaKernel(n, tau))
    assert res.value == pytest.approx(complex_exp_exact(n, tau, omega), rel=1e-8)


def test_transform_real_exponential():
    # rate*tau = 0.5 gives (1 - 0.5)^(-4) = 16
    res = transform_quadrature(exponential_signal(1.0), GammaKernel(4, 0.5))
    assert res.value == pytest.approx(16.0, rel=1e-10)


@pytest.mark.parametrize("n", [2, 3, 7])
def test_transform_semigroup_on_exponentials(n):
    # n applications of the one-step factor equal the n-step transform
    tau = 0.3
    sig = complex_exponential_signal(1.0)
    one = transform_quadrature(sig, GammaKernel(1, tau)).value
    many = transform_quadrature(sig, GammaKernel(n, tau)).value
    assert many == pytest.approx(one ** n, rel=1e-9)


def test_transform_escalates_on_fast_oscillation():
    # 40 rad per unit time defeats the starting rule; escalation or the
    # panel fallback must still land on the closed form, within its error
    res = transform_quadrature(complex_exponential_signal(40.0), GammaKernel(1, 1.0))
    assert res.method in ("laguerre", "adaptive")
    assert abs(res.value - complex_exp_exact(1, 1.0, 40.0)) <= res.error
    assert res.node_count == 0 or res.node_count > kernel.FIRST_NODE_COUNT


def test_fallback_meets_the_full_target():
    # a fallback cell of the benchmark: the panel sum is held to the rule's
    # 1e-10 target, not to a looser ceiling
    omega, tau = 15.858001230949816, 0.9204708365644131
    res = transform_quadrature(complex_exponential_signal(omega), GammaKernel(1, tau))
    assert res.method == "adaptive"
    exact = complex_exp_exact(1, tau, omega)
    assert abs(res.value - exact) <= res.error
    assert abs(res.value - exact) <= 1e-9 * abs(exact)


@pytest.mark.parametrize("tau", [0.05, 1.0])
@pytest.mark.parametrize("n", [2, 5, 21])
@pytest.mark.parametrize("omega_tau", [13.0, 16.0, 20.0, 30.0])
def test_fallback_resolves_fast_oscillation_beyond_one_step(omega_tau, n, tau):
    # past omega*tau ~ 13 node doubling gives up at every n; the panels
    # cover the screening window, where the weight's whole mass lies
    omega = omega_tau / tau
    res = transform_quadrature(complex_exponential_signal(omega), GammaKernel(n, tau))
    assert abs(res.value - complex_exp_exact(n, tau, omega)) <= res.error


# ---------------------------------------------------------------------------
# node budget: doubling from FIRST_NODE_COUNT up to MAX_NODE_COUNT, then panels


def _spy_rule_sizes(monkeypatch):
    sizes = []
    build = kernel._laguerre_rule

    def spy(node_count, shape_param):
        sizes.append(node_count)
        return build(node_count, shape_param)

    monkeypatch.setattr(kernel, "_laguerre_rule", spy)
    return sizes


def test_fast_oscillation_hands_over_to_panels_at_the_node_cap(monkeypatch):
    # cos at omega tau = 10, n = 1 is still open at the node cap: the panels
    # give Re (1 - 10i)^-1 = 1/101 without a larger rule
    sizes = _spy_rule_sizes(monkeypatch)
    tau = 0.34
    omega = 10.0 / tau
    res = transform_quadrature(cosine_signal(omega), GammaKernel(1, tau))
    assert max(sizes) == kernel.MAX_NODE_COUNT
    assert res.method == "adaptive"
    exact = complex_exp_exact(1, tau, omega).real
    assert abs(res.value - exact) <= 1e-9 * abs(exact)


def test_oscillation_open_at_256_nodes_goes_to_the_panels(monkeypatch):
    # cos at omega tau = 2.49, n = 89 is still open at 256 nodes, and no
    # larger rule is built: the panels resolve Re (1 - 2.49i)^-89 = 3.8e-39
    # as 0 within an error of about 5e-15, near the absolute floor
    sizes = _spy_rule_sizes(monkeypatch)
    tau = 0.31334
    omega = 2.49 / tau
    res = transform_quadrature(cosine_signal(omega), GammaKernel(89, tau))
    assert max(sizes) == 256
    assert res.method == "adaptive"
    with mpmath.workdps(40):
        exact = mpmath.re((1 - 1j * mpmath.mpf(omega) * tau) ** -89)
    assert abs(res.value - float(exact)) <= res.error


def test_smooth_signal_at_large_n_needs_one_doubling(monkeypatch):
    # cos 1.5t at tau = 0.1, n = 800: the 32-node start and its doubling
    # agree, so no rule grows with n
    sizes = _spy_rule_sizes(monkeypatch)
    res = transform_quadrature(cosine_signal(1.5), GammaKernel(800, 0.1))
    assert sorted(set(sizes)) == [32, 64]
    assert res.method == "laguerre" and res.node_count == 64


def test_a_range_pass_solves_rules_at_anchor_shapes_only(monkeypatch):
    # n = 1..800 of cos 1.5t at tau = 0.1 needs rules at every shape n - 1,
    # but eigenvalues are solved only at the anchors: below 16 and the
    # multiples of 16; the shapes between reweight their anchor's rule
    # anew, outside the rule cache, so each of its misses is one solve
    import scipy.linalg.lapack as lapack
    solved, dsterf = [], lapack.dsterf

    def spy(diag, off):
        solved.append(int(diag[0]) - 1)  # diagonal 2k + a + 1 at k = 0
        return dsterf(diag, off)

    monkeypatch.setattr(lapack, "dsterf", spy)
    kernel._laguerre_rule.cache_clear()
    results = list(kernel._transform_steps(
        cosine_signal(1.5), range(1, 801), 0.1, kernel.DEFAULT_ERROR_TARGET))
    assert len(results) == 800
    assert set(solved) == set(range(16)) | set(range(16, 800, 16))
    assert kernel._laguerre_rule.cache_info().misses == len(solved)


SWEEP_TAU = 0.1
SWEEP_N = list(range(1, 800, 37)) + [800]
SWEEP_SIGNALS = {
    # name: (signal, closed form of its smearing at step n, in mpmath)
    "cos": (cosine_signal(1.5),
            lambda n, tau: mpmath.re((1 - 1.5j * tau) ** -n)),
    "cexp": (complex_exponential_signal(1.5),
             lambda n, tau: (1 - 1.5j * tau) ** -n),
    "t^3": (monomial_signal(3),
            lambda n, tau: tau ** 3 * mpmath.rf(n, 3)),
    "exp": (exponential_signal(2.0),
            lambda n, tau: (1 - 2 * tau) ** -n),
}


@pytest.mark.parametrize("name", sorted(SWEEP_SIGNALS))
def test_transform_sweep_over_n_matches_mpmath(name):
    # every n from 1 to 800 in steps of 37 starts from the same 32 nodes;
    # each value must land on the closed form at 40 digits
    signal, closed = SWEEP_SIGNALS[name]
    for n in SWEEP_N:
        res = transform_quadrature(signal, GammaKernel(n, SWEEP_TAU))
        with mpmath.workdps(40):
            exact = complex(closed(n, mpmath.mpf(SWEEP_TAU)))
        assert abs(res.value - exact) <= 1e-9 * abs(exact) + 1e-10, (name, n)


SHIFT_TAU = 0.1
SHIFT_SIGNALS = {
    "cos": cosine_signal(1.5),
    "cexp": complex_exponential_signal(1.5),
    "exp": exponential_signal(2.0),
}
SHIFT_ROWS = [
    pytest.param(name, n, marks=pytest.mark.xfail(
        raises=errors.QuadratureNotConverged, strict=True,
        reason="ROADMAP item 6: the panel fallback's target for t cos 1.5t "
               "at n = 792 lies below the float floor of its value"))
    if (name, n) == ("cos", 792) else (name, n)
    for name in SHIFT_SIGNALS for n in range(1, 800, 7)]


@pytest.mark.parametrize("name, n", SHIFT_ROWS)
def test_shift_identity_holds_within_both_errors(name, n):
    # tau u times the gamma(n) weight is n tau times the gamma(n + 1) one,
    # so T[t f](n) = n tau T[f](n + 1): two transforms at neighbouring
    # shapes, one of which is usually an anchor and the other reweighted,
    # must agree within the sum of their errors
    signal = SHIFT_SIGNALS[name]
    times = kernel.TimeSignal(
        lambda t: np.asarray(t, dtype=float) * signal.evaluate(t),
        signal.growth_rate)
    left = transform_quadrature(times, GammaKernel(n, SHIFT_TAU))
    right = transform_quadrature(signal, GammaKernel(n + 1, SHIFT_TAU))
    scale = n * SHIFT_TAU
    assert abs(left.value - scale * right.value) <= (
        left.error + scale * right.error), (name, n)


def test_transform_divergent_declared():
    with pytest.raises(errors.DivergentTransform):
        transform_quadrature(exponential_signal(2.0), GammaKernel(3, 0.5))
    # marginal growth g*tau = 1 is rejected as well
    with pytest.raises(errors.DivergentTransform):
        transform_quadrature(exponential_signal(1.0), GammaKernel(3, 1.0))


def test_transform_divergent_screened():
    undeclared = kernel.TimeSignal(lambda t: np.exp(2.0 * np.asarray(t)))
    with pytest.raises(errors.DivergentTransform):
        transform_quadrature(undeclared, GammaKernel(2, 1.0))
    with pytest.raises(errors.DivergentTransform):
        transform_monte_carlo(undeclared, GammaKernel(2, 1.0), samples=100, seed=0)



def test_monte_carlo_refuses_a_variance_that_diverges():
    # the standard error of a sample mean needs the transform of |F|^2: at
    # 2 g tau = 0.4 it exists and the error bar covers the exact
    # (1 - g tau)^-3 ...
    est = transform_monte_carlo(exponential_signal(2.0), GammaKernel(3, 0.1),
                                samples=100_000, seed=1)
    assert abs(est.value - 0.8 ** -3) <= 6 * est.error
    # ... a declared growth is tilted into the weight, so Monte Carlo
    # averages the bounded e^{-g t} F: where |F|^2 diverges (2 g tau = 1.6
    # and 1.2) the estimate still lies within its error ...
    for rate in (8.0, 6.0):
        est = transform_monte_carlo(exponential_signal(rate),
                                    GammaKernel(3, 0.1), samples=100_000,
                                    seed=1)
        exact = (1 - mpmath.mpf(rate) * mpmath.mpf(0.1)) ** -3
        assert abs(est.value - exact) <= est.error
    # ... and where an undeclared |F|^2 diverges, the mean still exists
    # (quadrature finds it), but an estimate would land many standard
    # errors below it
    signal = kernel.TimeSignal(lambda t: np.exp(3.0 * np.asarray(t)))
    ker = GammaKernel(3, 0.2)
    assert transform_quadrature(signal, ker).value > 0
    with pytest.raises(errors.DivergentTransform,
                       match="Monte Carlo variance"):
        transform_monte_carlo(signal, ker, samples=100_000, seed=1)


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
def test_a_declared_growth_rate_must_be_finite(rate):
    # a non-finite rate would skip the screening: e^{3t} at n = 3, tau = 0.5
    # diverges, yet Monte Carlo returned a number for it
    with pytest.raises(ValueError, match="growth rate must be finite"):
        kernel.TimeSignal(lambda t: np.exp(3.0 * np.asarray(t)), rate)


# ---------------------------------------------------------------------------
# the growth tilt: F = e^{g t} H on both routes


def _tilted_signal(g, with_cos):
    """e^{g t}, or e^{g t} cos t, declaring the growth rate g."""
    if not with_cos:
        return exponential_signal(g)
    return kernel.TimeSignal(
        lambda t: np.exp(g * np.asarray(t)) * np.cos(np.asarray(t)), g)


def _tilted_exact(g, tau, n, with_cos):
    # E[e^{(g + i) tau U}] = (1 - (g + i) tau)^-n for U ~ gamma(n), at the
    # doubles g and tau
    with mpmath.workdps(40):
        s = mpmath.mpf(g) * mpmath.mpf(tau)
        if with_cos:
            return mpmath.re((1 - s - 1j * mpmath.mpf(tau)) ** -n)
        return (1 - s) ** -n


def _tilted_transform(signal, ker, route):
    if route == "quadrature":
        return transform_quadrature(signal, ker)[:2]
    return transform_monte_carlo(signal, ker, samples=2000, seed=ker.n)[:2]


_TILT_CASES = [("quadrature", False), ("monte-carlo", False),
               ("monte-carlo", True)]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(z=st.floats(1e-4, 0.995), tau=st.floats(0.05, 0.5),
       n=st.integers(1, 800), case=st.sampled_from(_TILT_CASES))
# small growth at many steps: the rounding of 1 - g tau, raised to the n-th
# power, is n eps / 2 relative, which a term in n g tau alone misses 12-fold
@example(z=3e-4, tau=0.1, n=800, case=_TILT_CASES[0])
@example(z=3e-4, tau=0.1, n=800, case=_TILT_CASES[1])
def test_a_declared_growth_lies_within_its_error_on_both_routes(z, tau, n,
                                                                case):
    # gamma(n) at tau, tilted by e^{g t}: (1 - g tau)^-n times gamma(n) at
    # tau / (1 - g tau), whatever route then averages the bounded rest.  The
    # quadrature of e^{g t} cos t is held apart (see the test below)
    route, with_cos = case
    g = z / tau
    try:
        value, error = _tilted_transform(_tilted_signal(g, with_cos),
                                         GammaKernel(n, tau), route)
    except ValueError as exc:
        assert str(exc).endswith("leaves the float range")
        return
    exact = _tilted_exact(g, tau, n, with_cos)
    # a sampled cosine leaves a sampling error: its bar is a standard error
    assert abs(value - exact) <= (6 if with_cos else 1) * error


@pytest.mark.parametrize("z, tau, n", [(0.375, 0.5, 202), (0.5, 0.1, 400),
                                       (0.7, 0.5, 10)])
def test_the_tilted_cosine_quadrature_lies_within_its_error(z, tau, n):
    # the untilted cosine at tau / (1 - z) missed its bar by 3.8 to 6.7,
    # and the tilt scaled that miss, until the error took in the rounding
    # of the Gauss--Laguerre sum
    g = z / tau
    value, error = _tilted_transform(_tilted_signal(g, True),
                                     GammaKernel(n, tau), "quadrature")
    assert abs(value - _tilted_exact(g, tau, n, True)) <= error


def test_monte_carlo_averages_the_tilted_cosine():
    # e^{8t} cos t at n = 3, tau = 0.1: |F|^2 has no smearing (2 g tau =
    # 1.6), but the tilted weight averages cos t, and the mean is exactly
    # Re (0.2 - 0.1i)^-3 = 16
    signal, ker = _tilted_signal(8.0, True), GammaKernel(3, 0.1)
    exact = _tilted_exact(8.0, 0.1, 3, True)
    assert abs(exact - 16) < 1e-12
    for seed in range(1, 9):
        est = transform_monte_carlo(signal, ker, samples=100_000, seed=seed)
        assert abs(est.value - exact) <= 6 * est.error


# ---------------------------------------------------------------------------
# column signals: one pass per node count serves every column


@pytest.mark.parametrize("m", [1, 2, 3, 7, 64, 129])
@pytest.mark.parametrize("dtype", [float, complex])
def test_pairwise_reductions_are_columnwise_bit_identical(m, dtype):
    rng = np.random.default_rng(m)
    values = rng.normal(size=(m, 5)).astype(dtype)
    if dtype is complex:
        values += 1j * rng.normal(size=(m, 5))
    weights = rng.random(m)
    sums = pairwise_sum(values)
    dots = pairwise_dot(weights, values)
    assert sums.shape == dots.shape == (5,)
    for j in range(5):
        assert sums[j] == pairwise_sum(values[:, j])
        assert dots[j] == pairwise_dot(weights, values[:, j])


def _stacked(signals):
    return kernel.TimeSignal(
        lambda t: np.stack([s.evaluate(t) for s in signals], axis=1),
        growth_rate=0.0)


@pytest.mark.parametrize("n,tau,fast", [(1, 1.0, 40.0), (3, 0.5, 4.0),
                                        (40, 0.25, 1.0)])
def test_column_transform_matches_scalar_transforms(n, tau, fast):
    # columns converge at different node counts; exp(40i t) at n = 1
    # defeats doubling, so that column goes through the adaptive fallback
    signals = [cosine_signal(0.5), cosine_signal(6.0), monomial_signal(2),
               complex_exponential_signal(-2.0),
               complex_exponential_signal(fast)]
    ker = GammaKernel(n, tau)
    scalars = [transform_quadrature(s, ker) for s in signals]
    res = transform_quadrature(_stacked(signals), ker)
    assert res.value.shape == res.error.shape == (len(signals),)
    # real and complex columns together come back complex, with no flag
    assert res.value.dtype == complex
    for j, one in enumerate(scalars):
        assert abs(res.value[j] - one.value) <= res.error[j] + one.error
        # each column is accepted where its scalar transform stops
        assert res.value[j] == one.value and res.error[j] == one.error
    assert res.node_count == max(one.node_count for one in scalars)
    fell_back = any(one.method == "adaptive" for one in scalars)
    assert res.method == ("adaptive" if fell_back else "laguerre")


def test_fallback_counts_a_tail_left_past_the_window():
    # undeclared e^{(0.95 + 14i) t} at tau = 1 passes the screening, defeats
    # node doubling, and still carries about 1.5e-4 past U(1) = 123: the
    # panel sum must not report a tight error for what it leaves out
    sig = kernel.TimeSignal(lambda t: np.exp((0.95 + 14j) * np.asarray(t)))
    exact = 1.0 / (1.0 - (0.95 + 14j))
    try:
        res = transform_quadrature(sig, GammaKernel(1, 1.0))
    except errors.QuadratureNotConverged as exc:
        assert exc.error >= abs(exc.value - exact)
    else:
        assert abs(res.value - exact) <= res.error


def test_columns_that_both_fall_back_match_scalar_transforms():
    # both columns defeat node doubling; their panels double together, and
    # each is kept where its scalar transform would be, bit for bit
    signals = [complex_exponential_signal(14.0), complex_exponential_signal(-25.0)]
    ker = GammaKernel(1, 1.0)
    scalars = [transform_quadrature(s, ker) for s in signals]
    assert all(one.method == "adaptive" for one in scalars)
    res = transform_quadrature(_stacked(signals), ker)
    assert res.method == "adaptive" and res.node_count == 0
    for j, one in enumerate(scalars):
        assert res.value[j] == one.value and res.error[j] == one.error


def test_column_transform_absorbs_declared_growth():
    ker = GammaKernel(4, 0.5)
    signal = kernel.TimeSignal(
        lambda t: np.stack([np.exp(np.asarray(t)), np.cos(np.asarray(t))], axis=1),
        growth_rate=1.0)
    res = transform_quadrature(signal, ker)
    np.testing.assert_allclose(res.value, [16.0, (1.0 / (1.0 - 0.5j) ** 4).real],
                               rtol=1e-10)


def test_screening_refuses_one_growing_column():
    bounded = kernel.TimeSignal(
        lambda t: np.stack([np.cos(np.asarray(t)), np.sin(np.asarray(t))], axis=1))
    assert transform_quadrature(bounded, GammaKernel(2, 1.0)).value.shape == (2,)
    one_grows = kernel.TimeSignal(
        lambda t: np.stack([np.cos(np.asarray(t)), np.exp(2.0 * np.asarray(t))],
                           axis=1))
    with pytest.raises(errors.DivergentTransform):
        transform_quadrature(one_grows, GammaKernel(2, 1.0))


def test_fallback_keeps_undeclared_imaginary_part():
    # exp(14i t) at n = 1 needs the adaptive fallback, which must keep the
    # imaginary part of the values it is handed
    undeclared = kernel.TimeSignal(lambda t: np.exp(14j * np.asarray(t)),
                                   growth_rate=0.0)
    res = transform_quadrature(undeclared, GammaKernel(1, 1.0))
    assert res.method == "adaptive"
    assert isinstance(res.value, complex)
    assert abs(res.value - complex_exp_exact(1, 1.0, 14.0)) <= res.error


def test_tabulated_signal_transform_and_range():
    # linear interpolation has an accuracy floor ~1e-5, so the rule's target
    # must be set accordingly: at the default 1e-10 the panel fallback, which
    # stays inside the screening window, raises QuadratureNotConverged
    t = np.arange(0.0, 400.0, 0.01)
    sig = tabulated_signal(t, np.cos(t))
    ker = GammaKernel(1, 1.0)
    rule = QuadratureRule.for_kernel(ker, error_target=1e-4)
    res = transform_quadrature(sig, ker, rule=rule)
    assert res.value == pytest.approx(0.5, abs=5e-5)
    short = tabulated_signal(np.linspace(0, 1, 50), np.zeros(50))
    with pytest.raises(ValueError, match="extend the table"):
        transform_quadrature(short, GammaKernel(1, 1.0))


def test_tabulated_signal_validation():
    with pytest.raises(ValueError):
        tabulated_signal([0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        tabulated_signal([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_signal_parameters_must_be_finite(bad):
    # a non-finite parameter is a configuration error, refused before any
    # transform could report it as a numerical failure or a nan value
    for make in (lambda: constant_signal(bad), lambda: cosine_signal(bad),
                 lambda: complex_exponential_signal(bad),
                 lambda: exponential_signal(bad),
                 lambda: exponential_signal(0.5, bad),
                 lambda: tabulated_signal([0.0, 1.0, 2.0], [1.0, bad, 1.0]),
                 lambda: tabulated_signal([0.0, 1.0, bad], [1.0, 1.0, 1.0])):
        with pytest.raises(ValueError, match="finite"):
            make()
    finite = constant_signal(-2.5).evaluate(np.array([0.0, 3.0]))
    assert finite.tolist() == [-2.5, -2.5]


@pytest.mark.parametrize("target", [0.0, -1e-10, math.nan, math.inf])
def test_rule_error_target_must_be_finite_and_positive(target):
    with pytest.raises(ValueError, match="error target"):
        QuadratureRule.for_kernel(GammaKernel(3, 0.5), error_target=target)


def test_continuum_limit_of_cosine():
    # fixed physical time t = n*tau = 1: the smeared cosine approaches
    # cos(1) with error shrinking like 1/n
    target = math.cos(1.0)
    errs = []
    for n in (10, 100, 1000):
        res = transform_quadrature(cosine_signal(1.0), GammaKernel(n, 1.0 / n))
        errs.append(abs(res.value - target))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-4


# ---------------------------------------------------------------------------
# one pass over a range of step counts


def _loop(signal, steps, tau, target=kernel.DEFAULT_ERROR_TARGET):
    """The per-n loop the batched pass replaces."""
    return [transform_quadrature(signal, GammaKernel(n, tau),
                                 QuadratureRule(n, target)) for n in steps]


def _counting(signal):
    """``signal`` with the sizes of its calls recorded."""
    sizes = []

    def evaluate(t):
        sizes.append(np.size(t))
        return signal.evaluate(t)

    return kernel.TimeSignal(evaluate, signal.growth_rate), sizes


@pytest.mark.parametrize("signal, tau, target", [
    (cosine_signal(1.5), 0.1, 1e-10),
    (cosine_signal(3.0), 1.0, 1e-10),  # 256 nodes to n = 6, then panels
    (complex_exponential_signal(2.0), 0.4, 1e-8),
    (monomial_signal(7), 0.5, 1e-10),
    (exponential_signal(3.0, 2.0), 0.2, 1e-12),  # tilted
    # screened, three columns, of which only the first goes to the panels
    (kernel.TimeSignal(
        lambda t: np.stack([np.cos(3.0 * t), np.exp(-t), t], axis=1)),
     1.0, 1e-10),
])
def test_batched_pass_equals_the_per_n_loop(signal, tau, target):
    steps = range(1, 41)
    batch = list(kernel._transform_steps(signal, steps, tau, target))
    for n, got, want in zip(steps, batch, _loop(signal, steps, tau, target)):
        assert type(got.value) is type(want.value), n
        np.testing.assert_array_equal(got.value, want.value)
        np.testing.assert_array_equal(got.error, want.error)
        assert (got.node_count, got.method) == (want.node_count, want.method)


def test_batched_pass_shares_signal_calls_within_the_block():
    # 60 step counts of an undeclared signal: the loop calls it once to
    # screen each n and once per doubling level; the pass shares the calls,
    # none longer than _BATCH_POINTS, and evaluates the same points
    signal = kernel.TimeSignal(lambda t: np.cos(1.5 * np.asarray(t)))
    batched, batch_sizes = _counting(signal)
    looped, loop_sizes = _counting(signal)
    list(kernel._transform_steps(batched, range(1, 61), 0.1, 1e-10))
    _loop(looped, range(1, 61), 0.1)
    assert sum(batch_sizes) == sum(loop_sizes)
    assert max(batch_sizes) <= kernel._BATCH_POINTS
    assert len(batch_sizes) * 5 < len(loop_sizes)


def test_fallback_of_one_open_column_calls_the_signal_in_blocks():
    # one of 64 columns (cos 3t at tau = 1, n = 10) defeats the rules: the
    # panels take only that column, from signal calls of at most
    # _BATCH_POINTS of their thousands of points, and give it the value
    # and error of its scalar transform
    freqs = np.array([3.0] + [0.01] * 63)
    wide, sizes = _counting(kernel.TimeSignal(
        lambda t: np.cos(np.outer(np.asarray(t), freqs)), 0.0))
    got = transform_quadrature(wide, GammaKernel(10, 1.0))
    one = transform_quadrature(cosine_signal(3.0), GammaKernel(10, 1.0))
    assert got.method == one.method == "adaptive"
    assert (got.value[0], got.error[0]) == (one.value, one.error)
    assert max(sizes) <= kernel._BATCH_POINTS


def _late_blowup(t):
    # bounded until t = 150, then e^{2(t - 150)}: screening refuses the
    # step counts whose horizon reaches far past 150 (from n = 13 at tau 1)
    return np.exp(2.0 * np.maximum(np.asarray(t) - 150.0, 0.0))


@pytest.mark.parametrize("signal, steps, tau", [
    (kernel.TimeSignal(_late_blowup), range(1, 40), 1.0),  # screening, n = 13
    (exponential_signal(9.0), range(1, 40), 0.1),          # tilt, n = 17
    (cosine_signal(200.0), range(12, 18), 1.0),            # panels, n = 15
    (tabulated_signal(np.linspace(0.0, 60.0, 61),          # the signal itself
                      np.linspace(0.0, 1.0, 61)), range(1, 40), 0.5),
])
def test_batched_pass_raises_the_loops_first_error(signal, steps, tau):
    with pytest.raises(Exception) as loop_error:
        _loop(signal, steps, tau)
    with pytest.raises(Exception) as batch_error:
        list(kernel._transform_steps(signal, steps, tau,
                                     kernel.DEFAULT_ERROR_TARGET))
    assert type(batch_error.value) is type(loop_error.value)
    assert str(batch_error.value) == str(loop_error.value)


# ---------------------------------------------------------------------------
# Monte Carlo route


def test_sampler_matches_gamma_distribution():
    rng = np.random.default_rng(11)
    for n in (5, 120):
        draws = sample_internal_time(GammaKernel(n, 1.0), rng, size=20000)
        stat = kstest(draws, gamma_dist(a=n).cdf).statistic
        assert stat < 0.02, f"shape {n}: KS statistic {stat}"
        assert np.mean(draws) == pytest.approx(n, rel=0.05)


def test_sampler_reproducible():
    ker = GammaKernel(25, 0.1)
    a = sample_internal_time(ker, np.random.default_rng(7), size=50)
    b = sample_internal_time(ker, np.random.default_rng(7), size=50)
    np.testing.assert_array_equal(a, b)
    scalar = sample_internal_time(ker, np.random.default_rng(7))
    assert scalar == a[0]
    assert np.all(a > 0)


def test_monte_carlo_against_exact_moment():
    ker = GammaKernel(6, 0.5)
    est = transform_monte_carlo(monomial_signal(2), ker, samples=40000, seed=3)
    exact = moment_exact(6, 0.5, 2)
    assert abs(est.value - exact) < 4.0 * est.error
    assert est.error < 0.05 * exact


def test_monte_carlo_deterministic_given_seed():
    ker = GammaKernel(30, 0.2)
    sig = cosine_signal(2.0)
    a = transform_monte_carlo(sig, ker, samples=5000, seed=42)
    b = transform_monte_carlo(sig, ker, samples=5000, seed=42)
    assert a.value == b.value and a.error == b.error
    # the one result type: node_count reads the sample count on this route
    assert type(a) is TransformResult
    assert (a.node_count, a.method) == (5000, "monte-carlo")
    c = transform_monte_carlo(sig, ker, samples=5000, seed=43)
    assert c.value != a.value


def test_monte_carlo_complex_signal():
    ker = GammaKernel(2, 0.3)
    est = transform_monte_carlo(complex_exponential_signal(1.0), ker,
                                samples=60000, seed=9)
    exact = complex_exp_exact(2, 0.3, 1.0)
    assert abs(est.value - exact) < 4.0 * est.error


def test_monte_carlo_keeps_undeclared_imaginary_part():
    sig = kernel.TimeSignal(lambda t: np.exp(1j * np.asarray(t)),
                            growth_rate=0.0)
    est = transform_monte_carlo(sig, GammaKernel(2, 0.5), samples=20000,
                                seed=5)
    assert isinstance(est.value, complex)
    exact = complex_exp_exact(2, 0.5, 1.0)  # 0.48 + 0.64i
    assert abs(est.value - exact) <= 6.0 * est.error


def test_monte_carlo_columns_equal_scalar_estimates():
    ker = GammaKernel(7, 0.3)
    both = kernel.TimeSignal(
        lambda t: np.stack([np.cos(1.3 * t), np.sin(1.3 * t)], axis=1),
        growth_rate=0.0)
    sin = kernel.TimeSignal(lambda t: np.sin(1.3 * t), growth_rate=0.0)
    est = transform_monte_carlo(both, ker, samples=5000, seed=17)
    assert est.value.shape == est.error.shape == (2,)
    for j, sig in enumerate((cosine_signal(1.3), sin)):
        one = transform_monte_carlo(sig, ker, samples=5000, seed=17)
        assert type(one.value) is float
        assert type(one.error) is float
        assert est.value[j] == one.value
        assert est.error[j] == one.error


# ---------------------------------------------------------------------------
# the result kind follows the values


GROWING_PHASE = 0.3 + 2.0j


@pytest.mark.parametrize("growth_rate", [None, 0.3])
def test_complex_values_give_a_complex_transform(growth_rate):
    # screened when no rate is declared, tilted into the weight when it is
    ker = GammaKernel(4, 0.25)
    sig = kernel.TimeSignal(lambda t: np.exp(GROWING_PHASE * np.asarray(t)),
                            growth_rate=growth_rate)
    res = transform_quadrature(sig, ker)
    exact = (1.0 - GROWING_PHASE * ker.tau) ** (-ker.n)
    assert type(res.value) is complex and type(res.error) is float
    assert abs(res.value - exact) <= res.error + 1e-15 * abs(exact)


def test_complex_values_give_a_complex_monte_carlo_estimate():
    ker = GammaKernel(4, 0.25)
    sig = kernel.TimeSignal(lambda t: np.exp(GROWING_PHASE * np.asarray(t)))
    est = transform_monte_carlo(sig, ker, samples=20000, seed=3)
    exact = (1.0 - GROWING_PHASE * ker.tau) ** (-ker.n)
    assert type(est.value) is complex
    assert abs(est.value - exact) <= 6.0 * est.error


def test_real_values_give_a_float_transform():
    ker = GammaKernel(4, 0.25)
    for sig in (cosine_signal(2.0), exponential_signal(0.3),
                kernel.TimeSignal(lambda t: np.sin(np.asarray(t)))):
        assert type(transform_quadrature(sig, ker).value) is float
        assert type(transform_monte_carlo(sig, ker, 100, 1).value) is float


# ---------------------------------------------------------------------------
# step schemes


def test_scheme_validation():
    StepScheme(0.5)
    assert StepScheme(0.25).beta == 0.75
    with pytest.raises(ValueError):
        StepScheme(1.2)
    # beta is derived from alpha, never passed in
    with pytest.raises(TypeError):
        StepScheme(0.3, 0.3)


def test_delta_coefficient_values():
    half = StepScheme(0.5)
    assert scheme_delta_coefficient(half, 1) == pytest.approx(-1.0)
    assert scheme_delta_coefficient(half, 2) == pytest.approx(1.0)
    assert scheme_delta_coefficient(StepScheme(0.0), 5) == 0.0
    with pytest.raises(errors.BackwardOnly):
        scheme_delta_coefficient(StepScheme(1.0), 1)


@pytest.mark.parametrize("alpha,n", [(0.0, 4), (0.25, 3), (0.5, 1),
                                     (0.5, 6), (0.9, 5)])
def test_decomposition_sum_rule(alpha, n):
    dec = scheme_density_decomposition(StepScheme(alpha), GammaKernel(n, 0.7))
    assert dec.total_weight() == pytest.approx(1.0, abs=1e-9)
    assert dec.scale == pytest.approx((1 - alpha) * 0.7)
    assert len(dec.mixture_weights) == n


def test_decomposition_backward_scheme_is_pure_gamma():
    dec = scheme_density_decomposition(StepScheme(0.0), GammaKernel(4, 1.0))
    assert dec.delta_coefficient == 0.0
    np.testing.assert_allclose(dec.mixture_weights, [0, 0, 0, 1], atol=1e-15)


def test_decomposition_half_scheme_single_step():
    # alpha = 1/2, one step: weight -1 on the retained start, +2 on the
    # exponential of scale beta*tau
    dec = scheme_density_decomposition(StepScheme(0.5), GammaKernel(1, 0.4))
    assert dec.delta_coefficient == pytest.approx(-1.0)
    np.testing.assert_allclose(dec.mixture_weights, [2.0])
    s = 0.3
    expect = 2.0 * math.exp(-s / 0.2) / 0.2
    assert dec.continuous_density(np.array([s]))[0] == pytest.approx(expect, rel=1e-12)


def test_decomposition_continuous_mass():
    dec = scheme_density_decomposition(StepScheme(0.5), GammaKernel(3, 0.5))
    # start just above the origin: the density is 0 *at* it by convention
    xi = np.linspace(1e-8, 60.0, 300001)
    mass = trapezoid(dec.continuous_density(xi), xi)
    assert mass == pytest.approx(1.0 - dec.delta_coefficient, abs=1e-5)
    with pytest.raises(errors.BackwardOnly):
        scheme_density_decomposition(StepScheme(1.0), GammaKernel(3, 0.5))


def test_decomposition_density_is_the_gamma_mixture_to_the_bit():
    kern = GammaKernel(5, 0.8)
    dec = scheme_density_decomposition(StepScheme(0.5), kern)
    xi = np.array([-1.0, 0.0, 1e-6, 0.3, 1.7, 4.0, 9.5, 40.0])
    want = np.zeros_like(xi)
    for w, j in zip(dec.mixture_weights, dec.shapes):
        want += w * gamma_density(GammaKernel(j, 0.5 * kern.tau), xi)
    got = dec.continuous_density(xi)
    assert np.all(got[2:] == want[2:])
    assert np.all(got[:2] == 0.0)


# ---------------------------------------------------------------------------
# advection probe


def test_probe_backward_scheme_matches_exponnorm_and_stays_positive():
    tau = 0.5
    probe = advection_negativity_probe(StepScheme(0.0), GammaKernel(1, tau),
                                       sigma=0.1, domain_length=32.0, points=4096)
    assert probe.min_value > -1e-9 * probe.peak_value
    # Gaussian advected by an exponentially distributed shift
    center = probe.grid[np.argmax(probe.initial)]
    oracle = exponnorm.pdf(probe.grid, K=tau / 0.1, loc=center, scale=0.1)
    np.testing.assert_allclose(probe.profile, oracle, atol=1e-6 * oracle.max())


def test_probe_moments_track_drift_and_spread():
    tau, n, sigma = 0.25, 3, 0.1
    probe = advection_negativity_probe(StepScheme(0.0), GammaKernel(n, tau),
                                       sigma=sigma, domain_length=32.0, points=4096)
    dx = probe.grid[1] - probe.grid[0]
    mass = probe.profile.sum() * dx
    mean0 = (probe.grid * probe.initial).sum() * dx
    mean1 = (probe.grid * probe.profile).sum() * dx
    var1 = ((probe.grid - mean1) ** 2 * probe.profile).sum() * dx
    assert mass == pytest.approx(1.0, abs=1e-9)
    assert mean1 - mean0 == pytest.approx(n * tau, abs=1e-6)
    assert var1 == pytest.approx(sigma ** 2 + n * tau ** 2, rel=1e-6)


def test_probe_mixed_scheme_goes_negative():
    probe = advection_negativity_probe(StepScheme(0.5), GammaKernel(1, 0.1),
                                       sigma=0.01, domain_length=8.0, points=16384)
    assert probe.min_value < -0.1 * probe.peak_value


def test_probe_guards():
    ker = GammaKernel(1, 0.1)
    with pytest.raises(ValueError):
        advection_negativity_probe(StepScheme(0.5), ker, sigma=0.1,
                                   domain_length=8.0, points=1000)
    with pytest.raises(errors.GridUnderResolved):
        advection_negativity_probe(StepScheme(0.5), ker, sigma=0.001,
                                   domain_length=8.0, points=1024)
    with pytest.raises(errors.GridUnderResolved):
        advection_negativity_probe(StepScheme(0.5), GammaKernel(200, 1.0),
                                   sigma=0.1, domain_length=8.0, points=1024)
    with pytest.raises(errors.BackwardOnly):
        advection_negativity_probe(StepScheme(1.0), ker, sigma=0.1,
                                   domain_length=8.0, points=1024)


@pytest.mark.parametrize("sigma, length", [(math.nan, 8.0), (0.0, 8.0),
                                           (-0.1, 8.0), (0.1, math.inf),
                                           (0.1, math.nan), (0.1, -8.0)])
def test_probe_refuses_non_finite_or_non_positive_sizes(sigma, length):
    # not a resolution problem of the grid: the inputs themselves are bad
    with pytest.raises(ValueError, match="finite and > 0"):
        advection_negativity_probe(StepScheme(0.5), GammaKernel(1, 0.1),
                                   sigma=sigma, domain_length=length,
                                   points=1024)


# w = x s: ten values as they are, then a w past the largest double, one
# below the normal range and one whose w^2 is, each an exact product (s a
# power of two)
_PHASE_ROWS = [pytest.param(z, 1.0, id=str(z)) for z in (
    0.0, 5e-324, -5e-324, 1e-8, 1.0, 1.3e154, 1e200, 1.7e308, math.inf,
    -math.inf)] + [pytest.param(x, s, id=f"{x}*2^{math.frexp(s)[1] - 1}")
                   for x, s in ((1e300, 2.0 ** 1000), (-3e-200, 2.0 ** -900),
                                (1.5e-160, 2.0 ** -150))]


@pytest.mark.parametrize("x, s", _PHASE_ROWS)
def test_phase_log_matches_mpmath_to_two_ulp(x, s):
    # the split of w = x s: k ln 2 + r is log|1 + iw| and the angle is atan
    # w, also past the w where w^2 overflows a double and past the double
    # range, and the rate c 2^j is log|1 + iw| too, c to its last digits
    # below the normal range; numpy's warnings are turned into errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise", under="ignore"):
            p = kernel._phase_log(x, s)
            c, j = kernel._phase_rate(p)
    if math.isinf(x):
        assert (p.r, c, p.angle) == (math.inf, math.inf,
                                     math.copysign(math.pi / 2, x))
        return
    with mpmath.workdps(40):
        w = mpmath.mpf(x) * mpmath.mpf(s)
        exact = mpmath.log1p(w * w) / 2
        split = int(p.k) * mpmath.log(2) + mpmath.mpf(float(p.r))
        for got, want in ((split, exact), (c, exact * mpmath.mpf(2) ** -int(j)),
                          (p.angle, mpmath.atan(w))):
            assert abs(float(got) - float(want)) <= 2 * np.spacing(
                abs(float(want))), (got, want)
