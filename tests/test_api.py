"""The public surface: every exported name resolves (``__all__`` lists only
what a module holds), and every step count is checked by one rule."""
import importlib
import pkgutil

import numpy as np
import pytest

import dtmech
from dtmech import (DensityMatrix, GammaKernel, PhaseState, StepScheme,
                    chirped_sine_expectation, decoherence_report,
                    evolve_density, free_particle_moments,
                    gamma_equivalence_check, offdiagonal_modulus,
                    schroedinger_defect, scheme_delta_coefficient)

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
    "free_particle_moments": lambda n: free_particle_moments(
        PhaseState([1.0], [1.0], [1.0]), GammaKernel(3, 1.0), steps=n),
    "scheme_delta_coefficient": lambda n: scheme_delta_coefficient(
        StepScheme(0.25), n),
    "chirped_sine_expectation": lambda n: chirped_sine_expectation(n, 0.5,
                                                                   1.0),
}


@pytest.mark.parametrize("value", [2.5, True], ids=repr)
@pytest.mark.parametrize("caller", sorted(_STEP_CALLERS))
def test_a_step_count_is_a_whole_number_not_a_bool(caller, value):
    # 2.5 is not rounded down to 2, nor True read as 1
    with pytest.raises(ValueError, match="must be an integer >= "):
        _STEP_CALLERS[caller](value)
