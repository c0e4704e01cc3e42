r"""Discrete-time quantum mechanics in the energy eigenbasis.

A state written as coefficients a_{ab} over energy eigenstates evolves, per
time quantum, by the entrywise factor ``[1 + i tau (e_a - e_b)/hbar]^{-n}``.
Diagonal (and degenerate) entries are untouched; every other coherence
shrinks by ``[1 + (tau de/hbar)^2]^{-n/2}`` per pair — exponential loss with
characteristic time ``T_d = 2 tau / log[1 + (tau de/hbar)^2]``.  Because the
factor matrix is a Gram matrix (it is the smeared average of ``e^{-i e_a t
u/hbar}`` phases), evolution is a Schur multiplier that preserves positivity
exactly; no unitary single-step generator reproduces it, and the size of
that obstruction is exposed as a phase-consistency defect.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from ._util import modulus
from .kernel import (GammaKernel, TimeSignal, _phase_log, _phase_power,
                     _positive, _step_count, transform_quadrature)

__all__ = [
    "DensityMatrix",
    "PhysicalConstants",
    "DecoherenceReport",
    "NATURAL",
    "SI_PLANCK",
    "ELECTRON_VOLT",
    "SECONDS_PER_YEAR",
    "project_density",
    "evolve_density",
    "decoherence_time",
    "offdiagonal_modulus",
    "decoherence_report",
    "gamma_equivalence_check",
    "schroedinger_defect",
]

ELECTRON_VOLT = 1.602176634e-19  # J
SECONDS_PER_YEAR = 3.15576e7  # Julian year
# ln 2 split as by Cody and Waite: k * LN2_HI is exact for every exponent k
LN2_HI, LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


@dataclass(frozen=True)
class PhysicalConstants:
    """Action scale and time quantum, each finite and > 0; their ratio
    ``tau/hbar`` must be a normal double (at least ``sys.float_info.min``),
    since a subnormal one carries too few digits into every phase; see
    :data:`NATURAL` / :data:`SI_PLANCK`."""

    hbar: float
    tau: float

    def __post_init__(self):
        for name in ("hbar", "tau"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))
        ratio = _positive("tau/hbar", self.tau / self.hbar)
        if ratio < sys.float_info.min:
            raise ValueError(f"tau/hbar = {ratio!r} is subnormal (below "
                             f"{sys.float_info.min!r}), so digits are lost")

    def phase_scale(self, delta_e) -> np.ndarray | float:
        """Dimensionless per-step phase tau * delta_e / hbar."""
        return np.asarray(delta_e, dtype=float) * (self.tau / self.hbar)


NATURAL = PhysicalConstants(hbar=1.0, tau=1.0)
# action quantum in J*s and a time quantum at the Planck scale in seconds
SI_PLANCK = PhysicalConstants(hbar=1.054571817e-34, tau=5.4e-44)


@dataclass(frozen=True)
class DensityMatrix:
    """Energy eigenvalues plus coefficient matrix; validated on construction.

    Requires Hermiticity and unit trace to 1e-12 and eigenvalues above
    -1e-10.  For almost-valid user data use :func:`project_density`, which
    clips and renormalizes instead of rejecting.
    """

    energies: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        e = np.atleast_1d(np.asarray(self.energies, dtype=float))
        a = np.asarray(self.coeffs, dtype=complex)
        d = e.size
        if e.ndim != 1 or d < 1:
            raise ValueError("energies must be a non-empty 1-d vector")
        if not np.all(np.isfinite(e)):
            raise ValueError("energies must be finite")
        if a.shape != (d, d):
            raise ValueError(f"coeffs must be {d}x{d}, got {a.shape}")
        if not np.all(np.isfinite(a.view(float))):
            raise ValueError("coeffs must be finite")
        herm = np.max(np.abs(a - a.conj().T))
        if herm > 1e-12:
            raise ValueError(f"coeffs not Hermitian (deviation {herm:.2e})")
        tr = a.trace()
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"trace must be 1, got {tr!r}")
        lo = float(np.linalg.eigvalsh(0.5 * (a + a.conj().T)).min())
        if lo < -1e-10:
            raise ValueError(f"not positive semidefinite (min eigenvalue {lo:.2e})")
        e.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "coeffs", a)

    @property
    def dim(self) -> int:
        return self.energies.size

    def purity(self) -> float:
        """trace(rho^2) = sum |a_{ab}|^2."""
        return float(np.sum(np.abs(self.coeffs) ** 2))


def project_density(energies, coeffs) -> DensityMatrix:
    """Nearest valid state: symmetrize, clip negative eigenvalues, renormalize.

    Emits a warning when the input actually needed repair.
    """
    e = np.atleast_1d(np.asarray(energies, dtype=float))
    a = np.asarray(coeffs, dtype=complex)
    if a.shape != (e.size, e.size):
        raise ValueError(f"coeffs must be {e.size}x{e.size}, got {a.shape}")
    herm = 0.5 * (a + a.conj().T)
    vals, vecs = np.linalg.eigh(herm)
    clipped = np.clip(vals, 0.0, None)
    total = clipped.sum()
    if total <= 0.0:
        raise ValueError("matrix has no positive part to normalize")
    repaired = (vecs * (clipped / total)) @ vecs.conj().T
    moved = float(np.max(np.abs(repaired - a)))
    if moved > 1e-12:
        warnings.warn(
            f"state adjusted by up to {moved:.2e} to restore "
            "positivity/unit trace", stacklevel=2)
    return DensityMatrix(e, repaired)


def _gap_phase(constants: PhysicalConstants, e_a, e_b=0.0):
    """``(z, e, log|1 + iw|)`` for ``w = z 2^e = tau (e_a - e_b) / hbar``, the
    gap taken as ``2 (e_a/2 - e_b/2)`` where it overflows.  Where ``w`` does,
    ``z`` and ``e`` are the mantissa product and exponent sum of the gap,
    ``tau`` and ``1/hbar``, and the log is ``e ln 2 + log|z|``; else e = 0."""
    with np.errstate(over="ignore"):
        gap = np.subtract(e_a, e_b)
        wide = np.isinf(gap)
        part = np.where(wide, np.multiply(e_a, 0.5) - np.multiply(e_b, 0.5), gap)
        z = np.asarray(constants.phase_scale(part) * np.where(wide, 2.0, 1.0))
    rate, e = _phase_log(z)[0], np.zeros(z.shape, dtype=int)
    far = np.isinf(z)
    m, k = np.frexp(part[far])
    (mt, kt), (mh, kh) = math.frexp(constants.tau), math.frexp(constants.hbar)
    z[far], e[far] = m * (mt / mh), k + wide[far] + (kt - kh)
    rate[far] = e[far] * LN2_HI + (np.log(np.abs(z[far])) + e[far] * LN2_LO)
    return z, e, rate


def _coherence_factors(energies: np.ndarray, n: int,
                       constants: PhysicalConstants) -> np.ndarray:
    """Entrywise matrix [1 + i tau (e_a - e_b)/hbar]^{-n}."""
    z, e, _ = _gap_phase(constants, energies[:, None], energies[None, :])
    return _phase_power(n, z, e)[0]


def evolve_density(dm: DensityMatrix, n: int,
                   constants: PhysicalConstants = NATURAL) -> DensityMatrix:
    """State after ``n`` time quanta.

    Entrywise ``b_{ab} = a_{ab} [1 + i tau (e_a - e_b)/hbar]^{-n}`` computed
    in polar form so arbitrarily large ``n`` neither overflows nor loses the
    phase.  ``n = 0`` returns the state unchanged (identity by convention —
    the step relation itself is stated for positive counts).  Diagonal and
    degenerate entries are exactly invariant; Hermiticity, unit trace, and
    positivity survive because the factor matrix is a Gram matrix acting as
    a Schur multiplier.
    """
    n = _step_count(n, 0)
    if n == 0:
        return dm
    factors = _coherence_factors(dm.energies, n, constants)
    return DensityMatrix(dm.energies, dm.coeffs * factors)


def decoherence_time(delta_e, constants: PhysicalConstants = NATURAL):
    """Coherence lifetime ``2 tau / log[1 + (tau delta_e/hbar)^2]``.

    Infinite for a degenerate pair or past the largest double, finite for
    every other gap; scalars or arrays, in the units of ``constants.tau``.
    """
    rate = _gap_phase(constants, delta_e)[2]
    with np.errstate(divide="ignore", over="ignore"):
        out = constants.tau / rate
    return float(out) if np.ndim(delta_e) == 0 else out


def offdiagonal_modulus(n: int, delta_e,
                        constants: PhysicalConstants = NATURAL):
    """Remaining coherence fraction ``[1 + (tau delta_e/hbar)^2]^{-n/2}``.

    Equals ``exp(-n tau / T_d)`` with the lifetime from
    :func:`decoherence_time` — the identity the tests pin down.  Counts
    ``n`` may be an array that broadcasts against the gaps.
    """
    z, e, _ = _gap_phase(constants, delta_e)
    out = _phase_power(_step_count(n, 0), z, e)[1]
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class DecoherenceReport:
    """Pairwise coherence decay table.

    For each eigenstate pair (row of ``pairs``): the energy gap, the
    lifetime, and the modulus of the evolved coefficient at each entry of
    ``steps``.  ``moduli[k]`` therefore is non-increasing along ``steps``,
    and the lifetime is infinite exactly for vanishing gaps.
    """

    tau: float
    pairs: np.ndarray          # (P, 2) index pairs, a < b
    energy_gaps: np.ndarray    # (P,) e_a - e_b
    lifetimes: np.ndarray      # (P,)
    steps: np.ndarray          # (K,)
    moduli: np.ndarray         # (P, K)

    def __post_init__(self):
        P, K = self.pairs.shape[0], self.steps.size
        if self.moduli.shape != (P, K) or self.energy_gaps.shape != (P,) \
                or self.lifetimes.shape != (P,):
            raise ValueError("inconsistent report array shapes")
        if np.any(np.diff(self.steps) <= 0):
            raise ValueError("steps must be strictly increasing")
        gap_zero = self.energy_gaps == 0.0
        if not np.array_equal(np.isinf(self.lifetimes), gap_zero):
            raise ValueError("lifetime must be infinite exactly at zero gap")
        if np.any(np.diff(self.moduli, axis=1) > 1e-15):
            raise ValueError("moduli must be non-increasing in n")


def decoherence_report(dm: DensityMatrix, steps,
                       constants: PhysicalConstants = NATURAL) -> DecoherenceReport:
    """Tabulated off-diagonal decay for every pair a < b at the given steps,
    each entry equal to :func:`decoherence_time` and
    :func:`offdiagonal_modulus` of its pair, in one pass over all pairs."""
    steps = np.atleast_1d(_step_count(steps, 0, "steps"))
    if steps.size == 0:
        raise ValueError("steps must be non-empty")
    a, b = np.triu_indices(dm.dim, 1)
    e_a, e_b = dm.energies[a], dm.energies[b]
    z, e, rate = _gap_phase(constants, e_a, e_b)
    with np.errstate(divide="ignore", over="ignore"):
        gaps, lifetimes = e_a - e_b, constants.tau / rate
    return DecoherenceReport(
        tau=constants.tau, pairs=np.stack([a, b], axis=1), energy_gaps=gaps,
        lifetimes=lifetimes, steps=steps,
        moduli=modulus(dm.coeffs[a, b])[:, None]
        * _phase_power(steps, z[:, None], e[:, None])[1])


def gamma_equivalence_check(dm: DensityMatrix, n: int,
                            constants: PhysicalConstants = NATURAL) -> float:
    """Max entrywise gap between stepped evolution and the smeared phases.

    Every coefficient's continuous motion is a pure phase
    ``a_{ab} e^{-i (e_a - e_b) t/hbar}``; smearing it with the gamma weight
    must land exactly on the stepped factor.  Returns the largest absolute
    deviation over all entries (0 for ``n = 0``, where both sides are the
    identity).  A zero gap's phase is 1 and the weight integrates to 1, so
    those entries (the diagonal, and degenerate levels) are compared with
    the stepped ones directly; the other nonzero coefficients are columns
    of one signal, so the check costs one transform."""
    n = _step_count(n, 0)
    if n == 0:
        return 0.0
    evolved = evolve_density(dm, n, constants).coeffs
    gaps = dm.energies[:, None] - dm.energies[None, :]
    still = gaps == 0
    worst = float(np.max(modulus(dm.coeffs[still] - evolved[still]), initial=0.0))
    live = (dm.coeffs != 0) & ~still
    if not live.any():
        return worst
    coeffs = dm.coeffs[live]
    phases = -1j * (gaps[live] / constants.hbar)

    def evaluate(t):
        # one (m, k) array, exponentiated and scaled in place: a wide
        # signal at many panel points holds no second copy of it
        out = np.multiply.outer(np.asarray(t), phases)
        np.exp(out, out=out)
        return np.multiply(coeffs, out, out=out)

    signal = TimeSignal(evaluate, growth_rate=0.0)
    res = transform_quadrature(signal, GammaKernel(n, constants.tau))
    return max(worst, float(np.max(modulus(res.value - evolved[live]))))


def schroedinger_defect(n: int, delta_e,
                        constants: PhysicalConstants = NATURAL):
    """Obstruction to a unitary per-step phase law: ``(n/2) log[1 + z^2]``.

    Matching the stepped factor with a pure phase ``e^{i g(n)}`` would need
    ``g`` to carry the imaginary part ``(n/2) log[1 + (tau delta_e/hbar)^2]``,
    which is nonzero whenever the gap is — so no such phase exists, and the
    returned value measures how badly it fails.  Strictly increasing in
    ``n`` for a fixed nonzero gap; requires ``n >= 1``.
    """
    n = _step_count(n, 1)
    out = n * _gap_phase(constants, delta_e)[2]
    return float(out) if np.ndim(delta_e) == 0 else out
