import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from dtmech import nonlinear
from dtmech import (
    DivergentTransform,
    FitUnstable,
    GammaKernel,
    QuadratureNotConverged,
    SensitivityModel,
    TimeSignal,
    chirped_sine_expectation,
    ct_distance,
    ct_lyapunov,
    ct_position,
    dt_bound,
    dt_distance,
    dt_lyapunov,
    dt_sensitivity,
    exponential_map,
    power_law_map,
    transform_quadrature,
)
from dtmech.nonlinear import FIT_RESIDUAL_LIMIT, LyapunovEstimate

HALF = SensitivityModel(a=0.5, c=1.0)
B_HALF = math.acos(0.5)

# E[e^{0.1 U} sin(b e^{0.1 U})] for U ~ gamma(n), b = arccos(1/2); frozen from
# two independent routes (weighted panels and complex saddle, cross-agreeing).
# The saddle-tier entries (n >= 60) are _contour_oracle values to 10 digits.
CHIRP_ORACLE = {
    1: 1.014961,
    2: 1.164493,
    5: 1.440434,
    10: 0.1969444,
    15: -1.142046,
    30: -5.923805e-3,
    40: 1.505297e-4,
    50: -4.774240e-7,
    60: 3.3693535258e-10,
    80: 3.9918290890e-18,
    100: -6.4826984279e-28,
}
# independent high-precision oracles (50-digit oscillatory quadrature of the
# substituted integral) at larger growth-per-step values
CHIRP_ORACLE_STEEP = {
    (30, 0.5): -4.039574e-16,
    (60, 0.5): -7.204959e-43,
    (20, 0.7): 7.1308e-12,
    (20, 0.9): 1.642444e-13,
}
# mpmath at 40 digits along 0 -> iY -> iY + 12/lam, at Y = pi/(3 lam) and
# at Y = 5 pi/(12 lam), heights the library never takes; the two agree to
# every digit below.  The two-tier engine this library used to have (sine
# panels, then a complex saddle) returned wrong values with tight error bars
# at every lam = 0.1 case here and at (400, 0.05, pi/3).
CHIRP_MPMATH = {
    (150, 0.1, 0.8): -1.7502681269303065e-51,
    (250, 0.1, 0.8): 4.6704377444726575e-120,
    (300, 0.1, 0.8): -9.0426491577371765e-160,
    (150, 0.1, 1.047): 8.2384292389777545e-55,
    (250, 0.1, 1.047): 1.3128700319178786e-125,
    (300, 0.1, 1.047): 4.6705275252789282e-168,
    (400, 0.05, math.pi / 3): 1.0134467114985482e-154,
    (400, 0.05, B_HALF): 1.0134467114985401e-154,
}


def _contour_oracle(n, lam, b):
    """Sign and log-magnitude of E[e^{lam U} sin(b e^{lam U})], U ~ gamma(n).

    E = Im (1/Gamma(n)) int_0^inf u^(n-1) e^{-(1-lam) u} exp(i b e^{lam u}) du.
    The integrand is analytic, and on Re u -> inf it vanishes throughout
    0 <= lam Im u <= pi/2, so the path may run 0 -> iY -> iY + X with
    Y = pi/(2 lam).  On the horizontal leg e^{lam u} = i e^{lam x}: the chirp
    becomes the doubly-exponential damping exp(-b e^{lam x}), which at
    X = 12/lam is below exp(-1e5 b).  Both legs go to plain adaptive
    quadrature (no saddle search, no sine panels), so this route shares
    nothing with either production tier.  The integrand is scaled by the
    peak of its own log-magnitude on the path.
    """
    y_top = 0.5 * math.pi / lam
    x_stop = 12.0 / lam

    def log_integrand(u):
        return ((n - 1) * cmath.log(u) - (1.0 - lam) * u
                + 1j * b * cmath.exp(lam * u))

    # for n >= 3 the vertical leg rises into the corner iY, where the
    # horizontal leg starts, so that leg holds the peak
    peak = max(log_integrand(x + 1j * y_top).real
               for x in np.linspace(0.0, x_stop, 2401))
    total = 0j
    for point, slope, length in ((lambda s: 1j * s, 1j, y_top),
                                 (lambda s: s + 1j * y_top, 1.0, x_stop)):
        def leg(s, part, point=point, slope=slope):
            w = slope * cmath.exp(log_integrand(point(s)) - peak)
            return w.imag if part else w.real
        re, im = (quad(leg, 0.0, length, args=(part,), epsabs=1e-12,
                       epsrel=1e-12, limit=400)[0] for part in (0, 1))
        total += complex(re, im)
    return (math.copysign(1.0, total.imag),
            math.log(abs(total.imag)) + peak - gammaln(n))


# ---------------------------------------------------------------------------
# model and continuous sensitivity


def test_model_validation():
    m = SensitivityModel(a=0.5, c=2.0)
    assert m.b == pytest.approx(math.pi / 3.0, rel=1e-15)
    assert m.spread_factor == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-14)
    assert math.cos(m.b) == pytest.approx(m.a, abs=1e-15)
    with pytest.raises(ValueError):
        SensitivityModel(a=1.0, c=1.0)
    with pytest.raises(ValueError):
        SensitivityModel(a=-1.5, c=1.0)
    with pytest.raises(ValueError):
        SensitivityModel(a=0.5, c=0.0)
    # the phase is derived from a, never passed in
    with pytest.raises(TypeError):
        SensitivityModel(a=0.5, c=1.0, b=B_HALF)
    assert SensitivityModel(a=0.5, c=1.0).b == B_HALF


def test_ct_distance_at_zero_is_one():
    for a in (-0.8, -0.2, 0.0, 0.5, 0.97):
        m = SensitivityModel(a=a, c=1.0)
        assert float(ct_distance(m, 0.0)) == pytest.approx(1.0, rel=1e-13)


def test_ct_distance_matches_finite_difference():
    # d_ct = |dx/da| for x(a, t) = cos(arccos(a) e^{ct})
    c, t_vals, delta = 0.7, (0.0, 1.0, 2.7), 1e-7
    for a in (0.5, -0.3):
        m = SensitivityModel(a=a, c=c)
        for t in t_vals:
            up = float(ct_position(SensitivityModel(a=a + delta, c=c), t))
            dn = float(ct_position(SensitivityModel(a=a - delta, c=c), t))
            fd = (up - dn) / (2.0 * delta)
            assert float(ct_distance(m, t)) == pytest.approx(abs(fd), rel=1e-5)


def test_ct_distance_envelope_bound_and_domain():
    t = np.linspace(0.0, 12.0, 400)
    d = ct_distance(HALF, t)
    assert np.all(d * np.exp(-HALF.c * t) <= HALF.spread_factor + 1e-12)
    assert np.all(d >= 0.0)
    with pytest.raises(ValueError):
        ct_distance(HALF, -1.0)


def test_ct_refuses_times_whose_sensitivity_overflows():
    # e^{ct} / sqrt(1 - a^2) must stay a double: past that the curve would
    # be inf and the fit nan, so both refuse before computing anything
    edge = 709.0
    assert np.all(np.isfinite(ct_distance(HALF, [0.0, edge])))
    for t_max in (710.0, 800.0, math.inf):
        with pytest.raises(ValueError, match="float range"):
            ct_distance(HALF, [0.0, t_max])
        with pytest.raises(ValueError, match="float range"):
            ct_lyapunov(HALF, t_max)
    with pytest.raises(ValueError, match="float range"):
        ct_distance(HALF, math.nan)
    # a near +-1 widens the prefactor, so the limit moves below 709.78
    steep = SensitivityModel(a=1.0 - 1e-12, c=1.0)
    with pytest.raises(ValueError, match="float range"):
        ct_distance(steep, 700.0)


def test_ct_lyapunov_recovers_rate():
    est = ct_lyapunov(SensitivityModel(a=0.5, c=0.5), 40.0)
    assert 0.475 <= est.exponent <= 0.525
    assert est.residual <= 2.0
    assert est.window[0] == pytest.approx(20.0, abs=0.2)
    est1 = ct_lyapunov(SensitivityModel(a=0.5, c=1.0), 20.0)
    assert est1.exponent == pytest.approx(1.0, rel=0.05)


def test_ct_lyapunov_scales_with_rate():
    lo = ct_lyapunov(SensitivityModel(a=0.5, c=0.5), 40.0)
    hi = ct_lyapunov(SensitivityModel(a=0.5, c=1.0), 40.0)
    assert hi.exponent / lo.exponent == pytest.approx(2.0, rel=0.05)


def test_ct_lyapunov_window_precondition():
    with pytest.raises(ValueError, match="window"):
        ct_lyapunov(SensitivityModel(a=0.5, c=0.5), 10.0)  # c*t_max = 5


def test_lyapunov_estimate_validation():
    with pytest.raises(ValueError):
        LyapunovEstimate(exponent=1.0, window=(3.0, 3.0), residual=0.1,
                         samples=10)
    with pytest.raises(ValueError):
        LyapunovEstimate(exponent=1.0, window=(0.0, 1.0), residual=math.inf,
                         samples=10)
    with pytest.raises(ValueError):
        LyapunovEstimate(exponent=1.0, window=(0.0, 1.0), residual=0.1,
                         samples=1)


# ---------------------------------------------------------------------------
# the chirped expectation engine


def test_chirp_panel_tier_against_frozen_oracles():
    for n, want in CHIRP_ORACLE.items():
        if n > 50:
            continue
        r = chirped_sine_expectation(n, 0.1, B_HALF)
        assert r.method == "contour"
        assert r.value == pytest.approx(want, rel=1e-5)
        assert abs(r.value) > 20.0 * r.error


def test_chirp_saddle_tier_against_frozen_oracles():
    for n in (60, 80, 100):
        r = chirped_sine_expectation(n, 0.1, B_HALF)
        assert r.method == "contour"
        assert r.value == pytest.approx(CHIRP_ORACLE[n], rel=1e-9)
        assert math.isfinite(r.log_magnitude)
        assert r.log_magnitude == pytest.approx(math.log(abs(r.value)),
                                                rel=1e-12)


def test_chirp_steep_growth_against_independent_oracles():
    for (n, lam), want in CHIRP_ORACLE_STEEP.items():
        r = chirped_sine_expectation(n, lam, B_HALF)
        assert r.value == pytest.approx(want, rel=1e-3)


def test_chirp_against_mpmath_contour_oracles():
    for (n, lam, b), want in CHIRP_MPMATH.items():
        r = chirped_sine_expectation(n, lam, b)
        assert r.method == "contour"
        assert abs(r.value - want) <= r.error, (n, lam, b)


def test_chirp_log_magnitude_survives_underflow():
    # e^-762 lies below the smallest double: the value rounds to 0, and the
    # log-magnitude carries it (the mpmath oracle of CHIRP_MPMATH, 7.26e-332)
    r = chirped_sine_expectation(237, 0.95, math.pi / 3)
    assert r.value == 0.0
    assert r.log_magnitude == pytest.approx(-762.47591041011935, abs=1e-9)


def test_chirp_small_phase_runs_the_path_past_the_damping():
    # b = 1e-3 (a = cos b near 1): the damping b e^{lam x} bites only near
    # lam x = 19, so the path must run that far; mpmath on paths to 20/lam
    # and 22/lam agree to every digit below
    r = chirped_sine_expectation(5, 0.3, 1e-3)
    assert abs(r.value - 0.094041280795430419) <= r.error


def test_chirp_saddle_self_consistency_deep():
    # resolution doubling is part of the production error estimate
    r = chirped_sine_expectation(200, 0.1, B_HALF)
    assert r.method == "contour"
    assert r.log_magnitude == pytest.approx(-201.0, abs=0.5)
    assert r.error <= 1e-6 * abs(r.value)


def test_dt_sensitivity_matches_contour_oracle_deep():
    # the smeared sensitivity across dt_lyapunov's window at n_max = 200,
    # tau = 0.1, where only the saddle tier can resolve it
    for n in (100, 125, 150, 175, 200):
        sign, log_raw = _contour_oracle(n, 0.1, B_HALF)
        r = dt_sensitivity(HALF, GammaKernel(n, 0.1))
        assert math.copysign(1.0, r.value) == sign
        log_want = log_raw + math.log(HALF.spread_factor)
        assert abs(r.log_magnitude - log_want) <= 1e-9


def test_contour_oracle_curve_has_no_single_slope():
    # a line fitted to the oracle's own log-distance over that window,
    # t = n tau for n = 100..200: this is the estimate and residual that
    # FitUnstable must carry in acceptance criterion 8
    ns = np.arange(100, 201)
    t = 0.1 * ns
    logs = np.array([_contour_oracle(int(n), 0.1, B_HALF)[1] for n in ns]) \
        + math.log(HALF.spread_factor)
    slope, intercept = np.polyfit(t, logs, 1)
    resid = math.sqrt(np.mean((logs - (slope * t + intercept)) ** 2))
    assert slope == pytest.approx(-14.109, abs=0.01)
    assert resid == pytest.approx(2.1222, abs=0.001)
    assert resid > FIT_RESIDUAL_LIMIT
    # it falls ever faster: concave in t, so no line fits it
    assert np.polyfit(t, logs, 2)[0] < -0.2


def test_chirp_validation_and_divergence():
    with pytest.raises(ValueError):
        chirped_sine_expectation(0, 0.1, B_HALF)
    with pytest.raises(DivergentTransform):
        chirped_sine_expectation(5, 1.0, B_HALF)
    with pytest.raises(DivergentTransform):
        chirped_sine_expectation(5, -0.2, B_HALF)
    with pytest.raises(ValueError):
        chirped_sine_expectation(5, 0.1, 0.0)


def test_chirp_extreme_growth_small_n_resolves():
    # growth 0.9 per step at n = 12, against mpmath on the CHIRP_MPMATH paths
    r = chirped_sine_expectation(12, 0.9, B_HALF)
    assert abs(r.value - 1.9665796393491327e-7) <= r.error


def test_chirp_missed_target_raises_with_value_and_error():
    # growth 1e-4 per step: the 12/lam = 1.2e5 long leg is still unresolved
    # at the panel cap, and the call says so instead of returning a value
    with pytest.raises(QuadratureNotConverged) as exc:
        chirped_sine_expectation(1, 1e-4, 1.0)
    assert exc.value.error > 1e-10 * abs(exc.value.value) > 0.0


def test_chirp_stops_doubling_once_roundoff_exceeds_target():
    # the value has settled to about 1e-10 relative, but the summation
    # roundoff alone outgrows 1e-10 of it; more panels cannot help, so the
    # call raises before the panel cap instead of doubling on to it
    with pytest.raises(QuadratureNotConverged) as exc:
        chirped_sine_expectation(218, 0.5108473307846301, 3.453488645209794)
    panels = int(str(exc.value).split(" panels per leg")[0].rsplit(" ", 1)[1])
    assert panels < 1024


def test_chirp_contour_cache_keeps_every_bit():
    # one (lam, b) family shares its contour paths across n; a warm cache
    # must give each n the same bits as a cold one, and stay bounded
    path = nonlinear._contour_path
    lam = 0.1
    path.cache_clear()
    warm = [chirped_sine_expectation(n, lam, B_HALF) for n in range(1, 61)]
    info = path.cache_info()
    assert info.hits > 0
    assert info.maxsize is not None and info.currsize <= info.maxsize
    for n, got in enumerate(warm, start=1):
        path.cache_clear()
        cold = chirped_sine_expectation(n, lam, B_HALF)
        assert [x.hex() for x in got[:3]] == [x.hex() for x in cold[:3]]
        assert got.method == cold.method


# ---------------------------------------------------------------------------
# smeared sensitivity


def test_dt_sensitivity_agrees_with_transform_quadrature():
    for n in (1, 3, 8):
        sig = TimeSignal(
            lambda t: HALF.spread_factor * np.exp(HALF.c * np.asarray(t))
            * np.sin(HALF.b * np.exp(HALF.c * np.asarray(t))),
            growth_rate=HALF.c)
        direct = transform_quadrature(sig, GammaKernel(n, 0.1))
        mine = dt_sensitivity(HALF, GammaKernel(n, 0.1))
        assert mine.value == pytest.approx(direct.value, rel=1e-8)


def test_dt_sensitivity_matches_finite_difference_of_transformed_motion():
    # difference quotient of the smeared trajectory in its initial value
    delta, tau = 1e-5, 0.1
    for n in (1, 5, 12):
        k = GammaKernel(n, tau)
        vals = {}
        for sign in (+1, -1):
            mm = SensitivityModel(a=0.5 + sign * delta, c=1.0)
            sig = TimeSignal(lambda t, m=mm: np.cos(
                m.b * np.exp(m.c * np.asarray(t))), growth_rate=0.0)
            vals[sign] = transform_quadrature(sig, k).value
        fd = (vals[+1] - vals[-1]) / (2.0 * delta)
        assert dt_sensitivity(HALF, k).value == pytest.approx(fd, rel=1e-4)


def test_dt_distance_near_step_one_small_growth():
    m = SensitivityModel(a=0.5, c=1.0)
    d = dt_distance(m, GammaKernel(1, 0.01))
    assert d == pytest.approx(1.0, abs=0.05)


def test_dt_distance_bound_holds_up_to_n_500():
    k = GammaKernel(1, 0.1)
    bound = dt_bound(HALF, k)
    assert bound == pytest.approx(22.05, abs=0.01)
    worst = 0.0
    for n in list(range(1, 201)) + [300, 400, 500]:
        worst = max(worst, dt_distance(HALF, GammaKernel(n, k.tau)))
    assert worst <= bound
    # the bound is generous, not saturated
    assert worst < 0.2 * bound


def test_dt_distance_bound_other_model():
    m = SensitivityModel(a=-0.3, c=2.0)
    k = GammaKernel(1, 0.15)  # growth 0.3 per step
    bound = dt_bound(m, k)
    for n in (1, 5, 10, 20, 40, 60):
        assert dt_distance(m, GammaKernel(n, k.tau)) <= bound


def test_dt_distance_grey_zone_resolves():
    # growth 0.6 per step at n = 10, against mpmath on the CHIRP_MPMATH paths
    m = SensitivityModel(a=-0.3, c=2.0)
    k = GammaKernel(10, 0.3)
    r = dt_sensitivity(m, k)
    assert abs(r.value - m.spread_factor * -6.0748874141648597e-6) <= r.error
    assert dt_distance(m, k) == abs(r.value)


def test_dt_distance_rejects_marginal_growth():
    with pytest.raises(DivergentTransform):
        dt_distance(HALF, GammaKernel(5, 1.0))
    with pytest.raises(DivergentTransform):
        dt_distance(SensitivityModel(a=0.5, c=2.0), GammaKernel(5, 0.6))


def test_dt_continuum_limit_approaches_ct():
    # fixed elapsed time t = n tau = 2: smaller tau gets closer to d_ct
    target = float(ct_distance(HALF, 2.0))
    gaps = []
    for tau, n in ((0.1, 20), (0.01, 200)):
        d = dt_distance(HALF, GammaKernel(n, tau))
        gaps.append(abs(d - target))
    assert gaps[1] < gaps[0]


def test_dt_lyapunov_flags_curved_decay():
    # the smeared sensitivity does not settle on any exponential rate: its
    # log-distance curve is concave (it falls ever faster), so the fit
    # publishes the instability instead of a slope
    with pytest.raises(FitUnstable) as exc:
        dt_lyapunov(HALF, GammaKernel(400, 0.1))
    assert exc.value.residual > 2.0
    # whatever line one forces through it is steeply negative, nowhere
    # near the continuous rate c = 1
    assert exc.value.estimate < -5.0


def test_dt_lyapunov_window_precondition():
    with pytest.raises(ValueError, match="window"):
        dt_lyapunov(HALF, GammaKernel(50, 0.1))  # n tau c = 5 < 10


# ---------------------------------------------------------------------------
# asymptotic maps


def test_power_law_integer_exponents_exact():
    k = GammaKernel(6, 0.7)
    np.testing.assert_allclose(power_law_map(1.0, k),
                               0.7 * np.arange(1, 7), rtol=1e-14)
    np.testing.assert_allclose(power_law_map(0.0, k), 1.0, rtol=0)
    n = np.arange(1, 7, dtype=float)
    np.testing.assert_allclose(power_law_map(3.0, k),
                               0.7 ** 3 * n * (n + 1) * (n + 2), rtol=1e-13)


def test_power_law_asymptotic_ratio():
    k = GammaKernel(100, 1.0)
    vals = power_law_map(0.5, k)
    n = np.arange(1, 101, dtype=float)
    ratio = vals / (n * k.tau) ** 0.5
    assert 0.99 <= ratio[99] <= 1.01
    # |ratio - 1| shrinks monotonically once n > 2 alpha
    drift = np.abs(ratio - 1.0)
    assert np.all(np.diff(drift[1:]) < 0)


def test_power_law_monotone_approach_larger_exponent():
    alpha = 2.5
    k = GammaKernel(60, 0.3)
    ratio = power_law_map(alpha, k) / (np.arange(1, 61) * k.tau) ** alpha
    drift = np.abs(ratio - 1.0)
    start = int(2 * alpha)
    assert np.all(np.diff(drift[start:]) < 0)


def test_power_law_agrees_with_quadrature():
    for alpha, n, tau in ((0.5, 5, 0.7), (-0.5, 3, 0.4)):
        k = GammaKernel(n, tau)
        sig = TimeSignal(lambda t, p=alpha: np.asarray(t) ** p,
                         growth_rate=0.0)
        direct = transform_quadrature(sig, k)
        assert power_law_map(alpha, k)[n - 1] == pytest.approx(direct.value,
                                                               rel=1e-8)


def test_power_law_validation():
    k = GammaKernel(5, 1.0)
    with pytest.raises(ValueError):
        power_law_map(-1.0, k)


def test_exponential_map_values_and_enhancement():
    assert exponential_map(0.5, GammaKernel(1, 1.0)) == pytest.approx(
        math.log(2.0), rel=1e-14)
    # c > b across the whole convergent range, approaching b as tau -> 0
    for btau in (0.1, 0.3, 0.5, 0.7, 0.9):
        c = exponential_map(btau, GammaKernel(1, 1.0))
        assert c > btau
    b = 0.3
    c_small = exponential_map(b, GammaKernel(1, 0.01))
    assert (c_small - b) / b <= b * 0.01
    # strictly increasing in tau at fixed rate
    cs = [exponential_map(1.0, GammaKernel(1, tau))
          for tau in (0.1, 0.2, 0.5, 0.8)]
    assert all(y > x for x, y in zip(cs, cs[1:]))


def test_exponential_map_matches_transform():
    b_rate, tau, amp = 0.5, 1.0, 2.0
    for n in (1, 4, 9):
        k = GammaKernel(n, tau)
        c = exponential_map(b_rate, k)
        sig = TimeSignal(lambda t: amp * np.exp(b_rate * np.asarray(t)),
                         growth_rate=b_rate)
        direct = transform_quadrature(sig, k)
        assert direct.value == pytest.approx(amp * math.exp(c * tau * n),
                                             rel=1e-10)


def test_exponential_map_divergence():
    with pytest.raises(DivergentTransform):
        exponential_map(1.0, GammaKernel(1, 1.0))
    with pytest.raises(DivergentTransform):
        exponential_map(2.5, GammaKernel(1, 0.5))
    with pytest.raises(ValueError):
        exponential_map(math.nan, GammaKernel(1, 1.0))


def test_contrast_continuous_grows_discrete_does_not():
    # the pairing the module exists for: same model, opposite verdicts
    est_ct = ct_lyapunov(HALF, 20.0)
    assert est_ct.exponent >= 0.95 * HALF.c
    k = GammaKernel(1, 0.1)
    d_small = dt_distance(HALF, GammaKernel(10, k.tau))
    d_large = dt_distance(HALF, GammaKernel(400, k.tau))
    assert d_large < 1e-100 * max(d_small, 1e-30) or d_large < d_small
    assert d_large <= dt_bound(HALF, k)
