import math
import sys
import warnings

import mpmath
import numpy as np
import pytest

from dtmech import (
    ELECTRON_VOLT,
    NATURAL,
    SECONDS_PER_YEAR,
    SI_PLANCK,
    DensityMatrix,
    PhysicalConstants,
    decoherence_report,
    decoherence_time,
    evolve_density,
    gamma_equivalence_check,
    offdiagonal_modulus,
    project_density,
    schroedinger_defect,
)


def two_level(p=0.5, coherence=0.5, gap=1.0):
    a = np.array([[p, coherence], [np.conj(coherence), 1.0 - p]])
    return DensityMatrix([gap, 0.0], a)


def random_state(d, rng, spread=1.0):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho /= rho.trace().real
    energies = np.sort(rng.uniform(-spread, spread, size=d))
    return DensityMatrix(energies, rho)


# ---------------------------------------------------------------------------
# validation


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix([0.0, 1.0], [[0.5, 0.3], [0.2, 0.5]])
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix([0.0, 1.0], [[0.6, 0.0], [0.0, 0.6]])
    with pytest.raises(ValueError, match="semidefinite"):
        DensityMatrix([0.0, 1.0], [[1.2, 0.0], [0.0, -0.2]])
    with pytest.raises(ValueError):
        DensityMatrix([0.0], [[0.5, 0.5], [0.5, 0.5]])
    dm = two_level()
    assert dm.dim == 2
    with pytest.raises(ValueError):
        dm.coeffs[0, 0] = 9.0


def test_projection_repairs_and_warns():
    # slightly negative eigenvalue and trace drift
    bad = np.array([[1.04, 0.3], [0.3, -0.02]])
    with pytest.warns(UserWarning, match="adjusted"):
        dm = project_density([1.0, 0.0], bad)
    assert dm.coeffs.trace().real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(dm.coeffs).min() >= -1e-14
    with pytest.raises(ValueError):
        project_density([1.0, 0.0], np.array([[-1.0, 0.0], [0.0, -1.0]]))


def test_constants_presets():
    assert NATURAL.hbar == 1.0 and NATURAL.tau == 1.0
    assert SI_PLANCK.hbar == pytest.approx(1.054571817e-34)
    assert SI_PLANCK.tau == pytest.approx(5.4e-44)
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=0.0, tau=1.0)
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=1.0, tau=-1.0)
    # a subnormal ratio (1e-315 here) would lose digits in every phase
    with pytest.raises(ValueError, match="subnormal"):
        PhysicalConstants(hbar=1e300, tau=1e-15)
    assert PhysicalConstants(hbar=1.0, tau=sys.float_info.min).tau > 0


# ---------------------------------------------------------------------------
# evolution


def test_evolution_fixes_diagonal_and_degenerate_entries():
    e = [1.0, 1.0, 3.0]
    a = np.array([[0.4, 0.1, 0.05j],
                  [0.1, 0.3, 0.02],
                  [-0.05j, 0.02, 0.3]])
    dm = DensityMatrix(e, a)
    out = evolve_density(dm, 17)
    np.testing.assert_allclose(np.diag(out.coeffs), np.diag(a), atol=0)
    # the degenerate pair (0, 1) is untouched, the others decay
    assert out.coeffs[0, 1] == a[0, 1]
    assert abs(out.coeffs[0, 2]) < abs(a[0, 2])


def test_evolution_identity_at_step_zero():
    dm = two_level()
    assert evolve_density(dm, 0) is dm
    with pytest.raises(ValueError):
        evolve_density(dm, -1)


def test_unit_phase_two_steps_gives_minus_i_half():
    # tau*gap/hbar = 1: factor after two steps is (1+i)^{-2} = -i/2
    dm = two_level(coherence=0.5, gap=1.0)
    out = evolve_density(dm, 2)
    assert out.coeffs[0, 1] == pytest.approx(0.5 * (-0.5j), abs=1e-14)
    assert abs(out.coeffs[0, 1]) == pytest.approx(0.25, abs=1e-14)


def test_evolution_preserves_trace_hermiticity_psd():
    rng = np.random.default_rng(7)
    for d in (2, 5, 8):
        dm = random_state(d, rng)
        for n in (1, 10, 1000):
            out = evolve_density(dm, n)
            assert abs(out.coeffs.trace() - 1.0) < 1e-12
            assert np.max(np.abs(out.coeffs - out.coeffs.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(out.coeffs).min() > -1e-10


def test_schur_multiplier_matrix_is_psd():
    from dtmech.quantum import _coherence_factors
    rng = np.random.default_rng(11)
    for d in (2, 4, 8):
        energies = rng.uniform(-3.0, 3.0, size=d)
        for n in (1, 7, 100):
            m = _coherence_factors(np.sort(energies), n, NATURAL)
            assert np.linalg.eigvalsh(m).min() >= -1e-10


def test_purity_decreases_strictly_with_live_coherence():
    dm = two_level(coherence=0.4, gap=2.0)
    purities = [evolve_density(dm, n).purity() for n in range(8)]
    assert all(b < a for a, b in zip(purities, purities[1:]))
    # but a diagonal state keeps purity exactly
    diag = DensityMatrix([1.0, 0.0], np.diag([0.7, 0.3]))
    assert evolve_density(diag, 50).purity() == pytest.approx(diag.purity(),
                                                             abs=1e-15)


def test_evolution_semigroup():
    rng = np.random.default_rng(3)
    dm = random_state(4, rng)
    a = evolve_density(evolve_density(dm, 6), 11)
    b = evolve_density(dm, 17)
    np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-12)


def test_evolution_continuum_limit():
    # fixed elapsed time t = n*tau: factor -> e^{-i de t / hbar} as tau -> 0
    t_total, gap = 1.0, 1.0
    target = np.exp(-1j * gap * t_total)
    prev = None
    for z in (1e-1, 1e-3, 1e-5):
        consts = PhysicalConstants(hbar=1.0, tau=z)
        n = round(t_total / z)
        dm = two_level(coherence=0.5, gap=gap)
        factor = evolve_density(dm, n, consts).coeffs[0, 1] / 0.5
        err = abs(factor - target)
        # modulus deficit shrinks like tau/2 at fixed elapsed time
        assert abs(abs(factor) - 1.0) < 0.6 * z
        if prev is not None:
            assert err < prev
        prev = err


def test_polar_form_survives_huge_step_counts():
    dm = two_level(coherence=0.5, gap=1e-6)
    out = evolve_density(dm, 10**7)
    expected_mod = 0.5 * math.exp(-0.5 * 1e7 * math.log1p(1e-12))
    assert abs(out.coeffs[0, 1]) == pytest.approx(expected_mod, rel=1e-10)


# ---------------------------------------------------------------------------
# decoherence numbers


def test_decoherence_time_degenerate_is_infinite():
    assert decoherence_time(0.0) == math.inf
    assert decoherence_time(1.0) == pytest.approx(2.0 / math.log(2.0), rel=1e-14)


def test_modulus_matches_lifetime_identity():
    for z in (0.1, 1.0, 10.0):
        consts = PhysicalConstants(hbar=1.0, tau=1.0)
        td = decoherence_time(z, consts)
        for n in (0, 1, 3, 17, 100):
            direct = offdiagonal_modulus(n, z, consts)
            assert direct == pytest.approx(math.exp(-n * consts.tau / td),
                                           rel=1e-12)
    assert offdiagonal_modulus(0, 5.0) == 1.0
    assert offdiagonal_modulus(2, 1.0) == pytest.approx(0.5, rel=1e-14)


def test_an_array_of_counts_broadcasts_against_one_gap():
    want = [offdiagonal_modulus(n, 3.0) for n in (0, 1, 5)]
    assert offdiagonal_modulus(np.array([0, 1, 5]), 3.0).tolist() == want


def test_planck_scale_landmark_small_gap():
    # a 7 meV gap at the Planck-scale quantum: coherence outlives 1e10 years
    td = decoherence_time(7e-3 * ELECTRON_VOLT, SI_PLANCK)
    years = td / SECONDS_PER_YEAR
    assert years > 1e10
    assert years == pytest.approx(1.04e10, rel=0.02)


def test_planck_scale_landmark_macroscopic_gap():
    # summing that gap over 1e20 constituents: decay within ~1e-23 s
    td = decoherence_time(7e-3 * ELECTRON_VOLT * 1e20, SI_PLANCK)
    assert td == pytest.approx(3.27e-23, rel=0.02)


def test_decoherence_report_structure():
    e = [2.0, 1.0, 1.0]
    a = np.diag([0.5, 0.25, 0.25]).astype(complex)
    a[0, 1] = a[1, 0] = 0.1
    a[1, 2] = a[2, 1] = 0.05
    dm = DensityMatrix(e, a)
    rep = decoherence_report(dm, [0, 1, 5, 50], NATURAL)
    assert rep.pairs.tolist() == [[0, 1], [0, 2], [1, 2]]
    np.testing.assert_allclose(rep.energy_gaps, [1.0, 1.0, 0.0])
    assert math.isinf(rep.lifetimes[2])
    assert rep.moduli.shape == (3, 4)
    # first pair decays from 0.1; degenerate pair keeps 0.05 forever
    assert rep.moduli[0, 0] == pytest.approx(0.1)
    assert rep.moduli[0, 3] == pytest.approx(0.1 * 2.0 ** (-25), rel=1e-12)
    np.testing.assert_allclose(rep.moduli[2], 0.05, rtol=0)
    with pytest.raises(ValueError):
        decoherence_report(dm, [3, 1], NATURAL)


def test_decoherence_report_is_its_pairs_own_lifetimes_and_moduli():
    # the vectorised table equals the scalar functions entry for entry, also
    # at a gap whose square overflows a double, and warns about nothing
    rng = np.random.default_rng(4)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    rho = g @ g.conj().T
    dm = DensityMatrix([0.0, 1e200, 0.3, 0.3, -2.0], rho / rho.trace().real)
    steps = [0, 1, 2, 7, 40]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = decoherence_report(dm, steps)
        assert rep.pairs.tolist() == [[a, b] for a in range(5)
                                      for b in range(a + 1, 5)]
        for (a, b), gap, lifetime, moduli in zip(
                rep.pairs, rep.energy_gaps, rep.lifetimes, rep.moduli):
            assert gap == dm.energies[a] - dm.energies[b]
            assert lifetime == decoherence_time(gap)
            assert moduli.tolist() == [abs(dm.coeffs[a, b])
                                       * offdiagonal_modulus(n, gap)
                                       for n in steps]
    with mpmath.workdps(40):
        rate = mpmath.log1p(mpmath.mpf(1e200) ** 2) / 2
        c = abs(mpmath.mpc(dm.coeffs[0, 1]))
        assert rep.lifetimes[0] == pytest.approx(float(1 / rate), rel=1e-15)
        # exp(-n rate) turns the last-bit rounding of rate (about 460 here)
        # into a relative error of up to (n rate + 2) eps
        eps = np.finfo(float).eps
        for n, got in zip(steps, rep.moduli[0]):
            want = float(c * mpmath.exp(-n * rate))
            assert got == pytest.approx(want, rel=(n * float(rate) + 2) * eps)



_TINY_HBAR = PhysicalConstants(hbar=1e-300, tau=1.0)
_HUGE_GAP = DensityMatrix([-1e308, 1e308], np.full((2, 2), 0.5))


def _mp_log_modulus(gap, constants):
    """log|1 + iz| for z = tau gap / hbar, from the doubles as given."""
    z = mpmath.mpf(gap) * mpmath.mpf(constants.tau) / mpmath.mpf(constants.hbar)
    return mpmath.log1p(z ** 2) / 2


# each case: the value, and its 40-digit truth at the same doubles
_OVERFLOWING_PHASES = {
    "modulus at n = 0": (lambda: offdiagonal_modulus(0, 1e10, _TINY_HBAR),
                         lambda: 1),
    "modulus at n = 1": (lambda: offdiagonal_modulus(1, 1e10, _TINY_HBAR),
                         lambda: mpmath.exp(-_mp_log_modulus(1e10, _TINY_HBAR))),
    "lifetime": (lambda: decoherence_time(1e10, _TINY_HBAR),
                 lambda: 1 / _mp_log_modulus(1e10, _TINY_HBAR)),
    "defect": (lambda: schroedinger_defect(1, 1e10, _TINY_HBAR),
               lambda: _mp_log_modulus(1e10, _TINY_HBAR)),
    "evolved coherence": (
        lambda: abs(evolve_density(_HUGE_GAP, 1).coeffs[0, 1]),
        lambda: mpmath.exp(-_mp_log_modulus(
            mpmath.mpf(-1e308) - mpmath.mpf(1e308), NATURAL)) / 2),
    "report modulus": (
        lambda: decoherence_report(_HUGE_GAP, [0, 1]).moduli[0, 1],
        lambda: mpmath.exp(-_mp_log_modulus(
            mpmath.mpf(-1e308) - mpmath.mpf(1e308), NATURAL)) / 2),
}


@pytest.mark.parametrize("case", sorted(_OVERFLOWING_PHASES))
def test_a_phase_past_the_largest_double_keeps_its_value(case):
    # tau/hbar = 1e300 times a gap of 1e10, or a gap of 2e308 itself,
    # overflows a double: the log-modulus comes from the exponents instead
    value, truth = _OVERFLOWING_PHASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = float(value())
    with mpmath.workdps(40):
        want = float(truth())
    # 1e-13 relative, or two subnormal ulps where that is finer than a ulp
    assert abs(got - want) <= max(1e-13 * abs(want), 1e-323)


@pytest.mark.parametrize("gap", [1e10, 1e100, 1e200, 1e300])
def test_the_modulus_at_a_large_gap_is_within_4_ulps_of_mpmath(gap):
    # |1 + iz|^-n is 2^(-n k) exp(-n r) with r = log m + 0.5 log1p(z^-2) for
    # z = m 2^k: exp(-n log|1 + iz|) would turn the half-ulp rounding of a
    # log near 230 (at 1e100) into hundreds of ulps of the modulus
    dm = DensityMatrix([gap, 0.0], np.full((2, 2), 0.5))
    for n in (1, 2, 3):
        with mpmath.workdps(40):
            want = float((1 + mpmath.mpf(gap) ** 2) ** (-mpmath.mpf(n) / 2))
        if want < sys.float_info.min:
            continue
        for got in (offdiagonal_modulus(n, gap),
                    2 * abs(evolve_density(dm, n).coeffs[0, 1]),
                    2 * decoherence_report(dm, [n]).moduli[0, 0]):
            assert abs(got - want) <= 4 * np.spacing(want)


def test_the_report_of_an_overflowing_gap_keeps_n0_and_its_lifetime():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = decoherence_report(_HUGE_GAP, [0, 1])
    assert rep.moduli[0, 0] == 0.5
    assert rep.energy_gaps.tolist() == [-math.inf]
    with mpmath.workdps(40):
        want = float(1 / _mp_log_modulus(mpmath.mpf(-1e308) - mpmath.mpf(1e308),
                                         NATURAL))
    assert rep.lifetimes[0] == pytest.approx(want, rel=1e-15)

_CONSTANT_SETS = {"natural": NATURAL, "tau/hbar=1e300": _TINY_HBAR,
                  "si-planck": SI_PLANCK}


@pytest.mark.parametrize("name", sorted(_CONSTANT_SETS))
def test_lifetimes_and_defects_lie_within_two_ulps_of_mpmath(name):
    # gaps 1e-300..1e300 of both signs; the phase w is the double product
    # gap * (tau/hbar), rounded once to 53 bits at any exponent, and a value
    # past the double range reads inf or 0.  Below |w| = 2^-27, where w^2
    # leaves the normal range, the lifetime is 2 tau / w^2 from the split
    constants = _CONSTANT_SETS[name]
    ratio, n = constants.tau / constants.hbar, 10 ** 18
    gaps = np.logspace(-300, 300, 201)
    gaps = np.concatenate([gaps, -gaps])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lifetimes = decoherence_time(gaps, constants)
        defects = schroedinger_defect(n, gaps, constants)
    for gap, lifetime, defect in zip(gaps, lifetimes, defects):
        with mpmath.workprec(53):
            w = mpmath.mpf(gap) * mpmath.mpf(ratio)
        with mpmath.workdps(40):
            rate = mpmath.log1p(w * w) / 2
            want = float(constants.tau / rate), float(n * rate)
        for got, exact in zip((lifetime, defect), want):
            assert got == exact or abs(got - exact) <= 2 * np.spacing(exact), (
                gap, got, exact)


def test_a_nan_gap_is_refused_and_infinite_gaps_keep_their_limits():
    for value in (decoherence_time, lambda gap: offdiagonal_modulus(1, gap),
                  lambda gap: schroedinger_defect(1, gap)):
        for gap in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="nan"):
                value(gap)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gap in (math.inf, -math.inf):
            assert (decoherence_time(gap), offdiagonal_modulus(1, gap),
                    schroedinger_defect(1, gap)) == (0.0, 0.0, math.inf)


# ---------------------------------------------------------------------------
# transform equivalence


def test_equivalence_two_level_across_steps():
    dm = two_level(coherence=0.5, gap=1.0)
    for n in (1, 4, 12, 20):
        assert gamma_equivalence_check(dm, n) <= 1e-8


def test_equivalence_diagonal_state_is_exact():
    diag = DensityMatrix([3.0, 1.0], np.diag([0.6, 0.4]).astype(complex))
    assert gamma_equivalence_check(diag, 7) == 0.0


@pytest.mark.parametrize("gap", [13.0, 14.5])
def test_equivalence_fallback_keeps_the_imaginary_part(gap):
    # at n = 1 these phases defeat node doubling; the adaptive fallback
    # used to integrate only the real part and miss by about 2e-2
    dm = DensityMatrix([0.0, gap], np.array([[0.5, 0.3 - 0.2j],
                                             [0.3 + 0.2j, 0.5]]))
    assert gamma_equivalence_check(dm, 1) <= 1e-8


def test_equivalence_random_four_level():
    dm = random_state(4, np.random.default_rng(19))
    assert gamma_equivalence_check(dm, 5) <= 1e-8
    assert gamma_equivalence_check(dm, 0) == 0.0


# ---------------------------------------------------------------------------
# phase-consistency defect


def test_defect_values_and_growth():
    assert schroedinger_defect(5, 0.0) == 0.0
    assert schroedinger_defect(2, 1.0) == pytest.approx(math.log(2.0),
                                                        rel=1e-14)
    vals = [schroedinger_defect(n, 0.7) for n in range(1, 30)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        schroedinger_defect(0, 1.0)
    arr = schroedinger_defect(4, np.array([0.0, 1.0]))
    np.testing.assert_allclose(arr, [0.0, 2.0 * math.log(2.0)], rtol=1e-14)
