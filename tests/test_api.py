"""The public surface: every exported name resolves (``__all__`` lists only
what a module holds), and every step count, positive parameter, growth per
step and backward part is checked by one rule."""
import importlib
import math
import pkgutil

import numpy as np
import pytest

import dtmech
from dtmech import (BackwardOnly, CustomField, DensityMatrix,
                    DivergentTransform, GammaKernel, HarmonicOscillator,
                    PhaseState,
                    PhysicalConstants, QuadratureRule, SensitivityModel,
                    StepScheme, advection_negativity_probe,
                    chirped_sine_expectation, decoherence_report,
                    dt_sensitivity, evolve_density, exponential_map,
                    exponential_signal,
                    gamma_equivalence_check, monomial_signal,
                    offdiagonal_modulus, sample_internal_time,
                    schroedinger_defect, scheme_delta_coefficient,
                    scheme_density_decomposition, sho_moments_scaled,
                    transform_monte_carlo, transform_quadrature)
from dtmech.cli import main

# ``__main__`` is left out: importing it runs the command line
MODULES = ["dtmech"] + sorted(f"dtmech.{m.name}"
                              for m in pkgutil.iter_modules(dtmech.__path__)
                              if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}"


def test_star_import_of_the_kernel():
    namespace = {}
    exec("from dtmech.kernel import *", namespace)
    assert "transform_quadrature" in namespace and "TimeSignal" in namespace


_STATE = DensityMatrix([1.0, 0.0], np.full((2, 2), 0.5))
_STEP_CALLERS = {
    "GammaKernel": lambda n: GammaKernel(n, 1.0),
    "evolve_density": lambda n: evolve_density(_STATE, n),
    "offdiagonal_modulus": lambda n: offdiagonal_modulus(n, 1.0),
    "gamma_equivalence_check": lambda n: gamma_equivalence_check(_STATE, n),
    "schroedinger_defect": lambda n: schroedinger_defect(n, 1.0),
    "decoherence_report": lambda n: decoherence_report(_STATE, n),
    "scheme_delta_coefficient": lambda n: scheme_delta_coefficient(
        StepScheme(0.25), n),
    "chirped_sine_expectation": lambda n: chirped_sine_expectation(n, 0.5,
                                                                   1.0),
    "monomial_signal degree": monomial_signal,
    "sample_internal_time size": lambda n: sample_internal_time(
        GammaKernel(2, 1.0), np.random.default_rng(0), n),
    "transform_monte_carlo samples": lambda n: transform_monte_carlo(
        exponential_signal(0.0), GammaKernel(2, 1.0), n, 0),
}


@pytest.mark.parametrize("value", [2.5, True], ids=repr)
@pytest.mark.parametrize("caller", sorted(_STEP_CALLERS))
def test_a_step_count_is_a_whole_number_not_a_bool(caller, value):
    # 2.5 is not rounded down to 2, nor True read as 1
    with pytest.raises(ValueError, match="must be an integer >= "):
        _STEP_CALLERS[caller](value)


_POSITIVE = r" must be finite and > 0, got "
_GROWTH = r" diverges: growth per step g\*tau = \S+ is not below 1$"
_BACKWARD = r"^alpha = 1 \(beta = 0\): .+ needs a backward part$"
_PROBE = {"sigma": 0.1, "domain_length": 8.0, "points": 1024}
_REFUSALS = {
    # one positive-parameter rule, bools refused
    "GammaKernel tau": (lambda: GammaKernel(3, True), ValueError,
                        "^time quantum tau" + _POSITIVE),
    "error target": (lambda: QuadratureRule.for_kernel(
        GammaKernel(3, 0.5), error_target=True), ValueError,
        "^error target" + _POSITIVE),
    "PhysicalConstants hbar": (lambda: PhysicalConstants(hbar=True, tau=1.0),
                               ValueError, "^hbar" + _POSITIVE),
    "PhysicalConstants tau": (lambda: PhysicalConstants(hbar=1.0, tau=True),
                              ValueError, "^tau" + _POSITIVE),
    "PhysicalConstants tau/hbar": (lambda: PhysicalConstants(hbar=1e-300,
                                                             tau=1e10),
                                   ValueError, "^tau/hbar" + _POSITIVE),
    "SensitivityModel c": (lambda: SensitivityModel(0.5, math.nan),
                           ValueError, "^growth rate c" + _POSITIVE),
    "chirp b": (lambda: chirped_sine_expectation(3, 0.5, -1.0), ValueError,
                "^phase parameter b" + _POSITIVE),
    "sho_moments_scaled omega": (lambda: sho_moments_scaled(
        PhaseState([1.0], [0.0], [1.0]), GammaKernel(3, 0.5), omega=True),
        ValueError, "^omega" + _POSITIVE),
    "probe sigma": (lambda: advection_negativity_probe(
        StepScheme(0.5), GammaKernel(1, 0.1), **{**_PROBE, "sigma": 0.0}),
        ValueError, "^sigma" + _POSITIVE),
    "probe domain length": (lambda: advection_negativity_probe(
        StepScheme(0.5), GammaKernel(1, 0.1),
        **{**_PROBE, "domain_length": math.inf}),
        ValueError, "^domain length" + _POSITIVE),
    "CustomField t_max": (lambda: CustomField(lambda y: -y).trajectory(
        PhaseState([1.0], [0.0], [1.0]), True), ValueError,
        "^t_max" + _POSITIVE),
    # arrays too, under the same rule
    "PhaseState masses": (lambda: PhaseState([1.0], [0.0], [True]),
                          ValueError, "^masses" + _POSITIVE),
    "per-DOF omega": (lambda: HarmonicOscillator(np.array([True, True])),
                      ValueError, "^omega" + _POSITIVE),
    "per-DOF omega nan": (lambda: HarmonicOscillator([1.0, math.nan]),
                          ValueError, "^omega" + _POSITIVE),
    # one growth rule, nan included
    "transform_quadrature": (lambda: transform_quadrature(
        exponential_signal(2.0), GammaKernel(3, 0.5)), DivergentTransform,
        "^the smearing integral at growth rate 2.0 and tau=0.5" + _GROWTH),
    "transform_monte_carlo": (lambda: transform_monte_carlo(
        exponential_signal(2.0), GammaKernel(3, 0.5), 100, 1),
        DivergentTransform,
        "^the smearing integral at growth rate 2.0 and tau=0.5" + _GROWTH),
    "chirped_sine_expectation": (lambda: chirped_sine_expectation(
        3, math.nan, 1.0), DivergentTransform,
        "^the chirped sine expectation" + _GROWTH),
    "dt_sensitivity": (lambda: dt_sensitivity(SensitivityModel(0.5, 2.0),
                                              GammaKernel(3, 0.5)),
                       DivergentTransform, _GROWTH),
    "exponential_map": (lambda: exponential_map(2.0, GammaKernel(3, 0.5)),
                        DivergentTransform, "^the exponential map" + _GROWTH),
    # one backward-part rule
    "scheme_delta_coefficient": (lambda: scheme_delta_coefficient(
        StepScheme(1.0), 2), BackwardOnly, _BACKWARD),
    "scheme_density_decomposition": (lambda: scheme_density_decomposition(
        StepScheme(1.0), GammaKernel(2, 1.0)), BackwardOnly, _BACKWARD),
    "advection_negativity_probe": (lambda: advection_negativity_probe(
        StepScheme(1.0), GammaKernel(1, 0.1), **_PROBE), BackwardOnly,
        _BACKWARD),
}


@pytest.mark.parametrize("caller", sorted(_REFUSALS))
def test_each_precondition_is_refused_by_its_one_rule(caller):
    call, kind, message = _REFUSALS[caller]
    with pytest.raises(kind, match=message):
        call()


@pytest.mark.parametrize("value", [3, 10**20, np.int64(5), np.float32(0.5)],
                         ids=repr)
def test_the_positive_rule_reads_any_int_or_float(value):
    # a Python int wider than numpy's int64 too, not only what numpy stores
    assert GammaKernel(3, value).tau == float(value)
    assert PhysicalConstants(hbar=value, tau=value).hbar == float(value)


def test_the_positive_rule_reads_an_array_of_wide_python_ints():
    # numpy stores 10**20 in an object array; it is read as a float, as a
    # scalar 10**20 is, while a bool stays refused
    assert PhaseState([0.0], [0.0], [10**20]).masses.tolist() == [1e20]
    assert HarmonicOscillator([10**20]).omega.tolist() == [1e20]
    assert PhaseState([0.0, 1.0], [0.0, 0.0], [10**20, 2.5]).masses.tolist() == [
        1e20, 2.5]
    for bad in ([True], [10**400], [10**20, True]):
        with pytest.raises(ValueError, match="masses must be finite and > 0"):
            PhaseState([0.0] * len(bad), [0.0] * len(bad), bad)


def test_the_cli_refuses_a_bad_t_max_by_the_same_rule(capsys):
    assert main(["chaos", "ct", "--a", "0.5", "--t-max", "-1"]) == 2
    assert capsys.readouterr().err == (
        "ValueError: --t-max must be finite and > 0, got -1.0\n")
