r"""Gamma-weighted time smearing and step-scheme analysis.

A discrete-time step count ``n`` and time quantum ``tau`` relate a discrete
observable to its continuous-time history through

.. math::

    F_{dt}(n) = \frac{1}{(n-1)!} \int_0^\infty u^{n-1} e^{-u} F_{ct}(\tau u)\,du ,

i.e. step ``n`` sees continuous time through a gamma(``n``) distributed
internal clock with mean ``n*tau`` and standard deviation ``sqrt(n)*tau``.
This module provides the weight density, two independent evaluation routes
for the smearing integral (generalized Gauss--Laguerre quadrature and Monte
Carlo over internal-time draws), sampling of the internal clock, and the
analysis of one-step mixing schemes: the signed delta coefficient, the exact
decomposition of the smearing density into gamma mixtures, and a spectral
advection probe that exhibits scheme-induced negativity on a periodic grid.

scipy is imported inside the four functions that call it (here, in
``classical`` and in ``nonlinear``), never at module level: ``import dtmech``
loads no scipy module, and a command pays for scipy only when it builds a
Gauss--Laguerre rule, takes a log-gamma or solves a user ODE.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from ._util import (EPS, FIRST_PANELS, LOG_MAX_DOUBLE, MAX_PANELS,
                    PANEL_NODES, as_rows, legendre_panels, modulus,
                    pairwise_dot, pairwise_sum, refine)
from .errors import (
    BackwardOnly,
    DivergentTransform,
    GridUnderResolved,
    QuadratureNotConverged,
)

__all__ = [
    "GammaKernel",
    "QuadratureRule",
    "StepScheme",
    "TimeSignal",
    "TransformResult",
    "SchemeDecomposition",
    "AdvectionProbe",
    "gamma_density",
    "log_gamma_density",
    "transform_quadrature",
    "transform_monte_carlo",
    "screening_horizon",
    "sample_internal_time",
    "scheme_delta_coefficient",
    "scheme_density_decomposition",
    "advection_negativity_probe",
    "constant_signal",
    "monomial_signal",
    "cosine_signal",
    "complex_exponential_signal",
    "exponential_signal",
    "tabulated_signal",
]

#: Absolute convergence floor used when a target value sits near zero.
ABSOLUTE_FLOOR = 1e-13

#: Gauss--Laguerre node doubling starts at FIRST_NODE_COUNT for every step
#: count and stops at MAX_NODE_COUNT; columns still open go to the panels.
#: The cap is 256: a 512-node rule takes about 13 ms to build, more than a
#: whole panel fallback (about 1 ms), and buys little once the integrand
#: oscillates, while smooth signals converge long before either cap.
FIRST_NODE_COUNT = 32
MAX_NODE_COUNT = 256

#: Default relative target of node doubling and the panel fallback.
DEFAULT_ERROR_TARGET = 1e-10


@dataclass(frozen=True)
class GammaKernel:
    """Step count and time quantum of the discrete evolution.

    The calculus is forward-only: ``n >= 1`` steps of duration ``tau > 0``.
    A backward branch (negative ``n``) is deliberately not defined — the
    smearing weight is supported on positive internal time only, which is
    what makes the discrete evolution time-asymmetric.
    """

    n: int
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "n", _step_count(self.n, 1))
        object.__setattr__(self, "tau", _positive("time quantum tau", self.tau))


def _step_count(n, minimum: int, what: str = "step count n"):
    """``n`` as an int (an int array for an array): finite, integral, not a
    bool, at least ``minimum``; else ``ValueError``, so 2.5 is not read as 2."""
    a = np.asarray(n)
    if a.dtype.kind in "iuf" and (
            np.isfinite(a) & (a == np.floor(a)) & (a >= minimum)).all():
        return int(a) if a.ndim == 0 else a.astype(int)
    raise ValueError(f"{what} must be an integer >= {minimum}, got {n!r}")


def _positive(name: str, value) -> float:
    """``value`` as a float: finite, > 0 and not a bool; else ``ValueError``."""
    if isinstance(value, (bool, np.bool_)) or not 0.0 < float(value) < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return float(value)


def _growth(z, what: str) -> float:
    """``1 - z`` for a growth per step ``z = g tau < 1``, where a smeared
    ``e^{g t}`` exists; else (nan too) ``DivergentTransform`` naming ``what``."""
    if not z < 1.0:
        raise DivergentTransform(
            f"{what} diverges: growth per step g*tau = {z!r} is not below 1")
    return 1.0 - z


def _backward(scheme: "StepScheme", what: str) -> float:
    """The scheme's backward weight beta; ``BackwardOnly`` for beta = 0."""
    if scheme.beta == 0.0:
        raise BackwardOnly(f"alpha = 1 (beta = 0): {what} needs a backward part")
    return scheme.beta


def _phase_log(z):
    """``(log|1 + iz|, arctan z)`` for real ``z``: ``-n`` times them are the
    log-modulus and angle of ``(1 + iz)^-n``, the gamma(n) smearing of the
    phase ``e^{-i omega t}`` at ``z = omega tau``.  The first is
    ``log|z| + 0.5 log1p(z^-2)`` where ``z^2`` overflows, so no real ``z``
    (0 and +-inf too) makes numpy warn."""
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        z2 = z * z
    big = np.isinf(z2)
    a = np.where(big, np.abs(z), 1.0)
    rate = np.where(big, np.log(a) + 0.5 * np.log1p(a ** -2.0), 0.5 * np.log1p(z2))
    return rate, np.arctan(z)


def gamma_density(kernel: GammaKernel, xi):
    """Smearing weight as a density over internal time ``xi``.

    ``(xi/tau)**(n-1) * exp(-xi/tau) / ((n-1)! * tau)`` for ``xi > 0`` and
    exactly 0 at or below the origin.  For ``n = 1`` the density jumps to
    ``1/tau`` immediately above the origin; the value at the origin itself
    is 0 by the support convention.
    """
    out = np.exp(log_gamma_density(kernel, xi))
    return float(out) if np.ndim(out) == 0 else out


def log_gamma_density(kernel: GammaKernel, xi):
    """Logarithm of :func:`gamma_density`, stable for large step counts.

    Uses log-gamma throughout, so step counts far beyond the overflow range
    of ``(n-1)!`` are fine.  Returns ``-inf`` on or below the origin and at
    ``+inf``, where the density is 0.
    """
    xi = np.asarray(xi, dtype=float)
    out = np.full_like(xi, -np.inf)
    mask = (xi > 0.0) & (xi < np.inf)
    if np.any(mask):
        out[mask] = _log_density_core(kernel, xi[mask])
    if np.ndim(xi) == 0:
        return float(out)
    return out


def _log_density_core(kernel: GammaKernel, s):
    n, tau = kernel.n, kernel.tau
    r = s / tau
    if n == 1:
        return -r - math.log(tau)
    from scipy.special import gammaln  # on first use; see module docstring
    return (n - 1) * np.log(r) - r - gammaln(n) - math.log(tau)


# ---------------------------------------------------------------------------
# signals


@dataclass(frozen=True)
class TimeSignal:
    """Continuous-time signal fed to the smearing transform.

    ``evaluate`` maps a 1-d array of ``m`` times to values of shape ``(m,)``,
    or ``(m, k)`` for ``k`` observables transformed in one quadrature pass;
    complex values give complex results.
    ``growth_rate`` is an optional declared exponential growth bound g with
    ``|F(t)| <= C * exp(g t)``, a finite number, kept as a float; when
    present, convergence is decided from ``g * tau < 1`` directly and the
    screening probe is skipped, and a rate ``g > 0`` is tilted into the
    weight on both transform routes: they average the bounded
    ``exp(-g t) F``, which counts as 0 past ``log(DBL_MAX) / g``, where
    ``exp(g t)`` overflows.  Signals without a declared bound are screened
    numerically far beyond the weight's bulk before any transform is
    attempted.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    growth_rate: float | None = None

    def __post_init__(self):
        if self.growth_rate is not None:
            _require_finite("growth rate", self.growth_rate)
            object.__setattr__(self, "growth_rate", float(self.growth_rate))


def _require_finite(name: str, value) -> None:
    """Refuse a non-finite signal parameter before any transform sees it."""
    if not np.isfinite(value):
        raise ValueError(f"signal {name} must be finite, got {value!r}")


def constant_signal(value: float = 1.0) -> TimeSignal:
    _require_finite("value", value)
    return TimeSignal(lambda t: np.full_like(np.asarray(t, dtype=float), value),
                      growth_rate=0.0)


def monomial_signal(degree: int) -> TimeSignal:
    """``t**degree`` with k >= 0.  Polynomial growth declares a zero rate."""
    if degree < 0 or int(degree) != degree:
        raise ValueError(f"degree must be a non-negative integer, got {degree!r}")
    k = int(degree)

    def evaluate(t):
        with np.errstate(over="ignore"):  # inf past the largest double
            return np.asarray(t, dtype=float) ** k

    return TimeSignal(evaluate, growth_rate=0.0)


def cosine_signal(omega: float = 1.0) -> TimeSignal:
    _require_finite("frequency", omega)
    return TimeSignal(lambda t: np.cos(omega * np.asarray(t, dtype=float)),
                      growth_rate=0.0)


def complex_exponential_signal(omega: float = 1.0) -> TimeSignal:
    _require_finite("frequency", omega)
    return TimeSignal(lambda t: np.exp(1j * omega * np.asarray(t, dtype=float)),
                      growth_rate=0.0)


def exponential_signal(rate: float, amplitude: float = 1.0) -> TimeSignal:
    """``amplitude * exp(rate * t)`` with the rate declared as growth bound."""
    _require_finite("rate", rate)
    _require_finite("amplitude", amplitude)
    return TimeSignal(
        lambda t: amplitude * np.exp(rate * np.asarray(t, dtype=float)),
        growth_rate=max(rate, 0.0),
    )


def tabulated_signal(times, values) -> TimeSignal:
    """Signal interpolated linearly from samples ``(times, values)``.

    The table is treated as a bounded signal (growth rate 0); evaluation
    beyond its last sample raises ``ValueError`` naming the range the
    transform needed, since extrapolating measured data silently would be
    worse than failing.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != v.shape or t.size < 2:
        raise ValueError("tabulated signal needs matching 1-d times/values with >= 2 samples")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise ValueError("tabulated signal times and values must be finite")
    if np.any(np.diff(t) <= 0):
        raise ValueError("tabulated signal times must be strictly increasing")
    t_lo, t_hi = float(t[0]), float(t[-1])

    def evaluate(q):
        q = np.asarray(q, dtype=float)
        if np.any(q < t_lo - 1e-12) or np.any(q > t_hi + 1e-12):
            raise ValueError(
                f"tabulated signal spans [{t_lo}, {t_hi}] but evaluation "
                f"needed [{float(np.min(q))}, {float(np.max(q))}]; extend the table"
            )
        return np.interp(np.clip(q, t_lo, t_hi), t, v)

    return TimeSignal(evaluate, growth_rate=0.0)


# ---------------------------------------------------------------------------
# quadrature


@lru_cache(maxsize=256)
def _laguerre_rule(node_count: int, shape_param: int):
    """Nodes/weights for the weight ``u**shape_param * exp(-u)``, normalized.

    Golub--Welsch on the symmetric Jacobi matrix of the generalized Laguerre
    recurrence: diagonal ``2k + shape + 1``, off-diagonal ``sqrt(k (k+shape))``.
    The zeroth moment is set to one, so the weights sum to 1 and the rule
    integrates against the *normalized* gamma weight; this keeps every entry
    representable for shape parameters far beyond the overflow point of
    ``Gamma(shape+1)``.
    """
    k = np.arange(node_count, dtype=float)
    diag = 2.0 * k + shape_param + 1.0
    off = np.sqrt(k[1:] * (k[1:] + shape_param))
    from scipy.linalg import eigh_tridiagonal  # on first use, as above
    # the divide-and-conquer tridiagonal driver; a banded solver would also
    # build and apply an m x m band-reduction matrix (the identity here)
    nodes, vecs = eigh_tridiagonal(diag, off, lapack_driver="stevd")
    weights = vecs[0, :] ** 2
    if node_count > 1:
        # Far-tail weights whose true size is below eigenvector noise (~eps^2)
        # come back as junk around 1e-32; a growing integrand would amplify
        # that junk by hundreds of orders of magnitude.  A true Gauss weight
        # tracks (normalized density) * (node gap), so anything exceeding that
        # estimate wildly is noise and gets zeroed.
        gaps = np.empty_like(nodes)
        gaps[1:-1] = 0.5 * (nodes[2:] - nodes[:-2])
        gaps[0] = nodes[1] - nodes[0]
        gaps[-1] = nodes[-1] - nodes[-2]
        with np.errstate(divide="ignore"):
            expected = (_log_density_core(GammaKernel(shape_param + 1, 1.0), nodes)
                        + np.log(gaps))
            junk = np.log(weights) > expected + 30.0
        weights[junk] = 0.0
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@dataclass(frozen=True)
class QuadratureRule:
    """Settings of the generalized Gauss--Laguerre node doubling at one ``n``.

    The rules themselves integrate against the *normalized* weight
    ``u**(n-1) exp(-u) / (n-1)!`` (their weights sum to 1) and are built as
    doubling reaches them, from :data:`FIRST_NODE_COUNT` nodes up.
    ``error_target`` is the relative target used both for node-doubling
    acceptance and for the panel fallback.
    """

    step_count: int
    error_target: float = DEFAULT_ERROR_TARGET

    @classmethod
    def for_kernel(cls, kernel: GammaKernel, error_target: float =
                   DEFAULT_ERROR_TARGET) -> "QuadratureRule":
        return cls(step_count=kernel.n,
                   error_target=_positive("error target", error_target))


class TransformResult(NamedTuple):
    """Value of the smearing integral plus its numerical provenance, on
    either route.

    By quadrature, ``error`` is the doubling (or panel) error estimate,
    ``node_count`` the Gauss--Laguerre node count at which the value was
    accepted (the largest any column needed; 0 when the panel fallback
    supplied every column) and ``method`` is ``"laguerre"``, or
    ``"adaptive"`` when a column went to the panel fallback.  By Monte
    Carlo, ``value`` is the sample mean, ``error`` its standard error,
    ``node_count`` the sample count and ``method`` ``"monte-carlo"``.  For
    ``k`` columns, ``value`` and ``error`` have length ``k``.
    """

    value: complex | float
    error: float
    node_count: int
    method: str


def _result(value, error, node_count: int, method: str,
            prefactor) -> TransformResult:
    """The result of either route: a 0-d ``value`` becomes a float or
    complex and its ``error`` a float, then the tilt's ``prefactor`` scales
    both."""
    if np.ndim(value) == 0:
        value = (complex if np.iscomplexobj(value) else float)(value)
        error = float(error)
    return TransformResult(*prefactor(value, error), int(node_count), method)


def screening_horizon(kernel: GammaKernel) -> float:
    """``tau U(n)``, ``U(n) = 2 (n + 10 sqrt(n) + 50) + 1``: the end of the
    screening's far window, where the weight is spent, and the latest time
    a quadrature transform at ``kernel`` evaluates its signal.  A declared
    growth rate ``g > 0`` moves that time to the horizon of the quantum
    ``tau / (1 - g tau)``, at which both transform routes work (Monte Carlo
    draws its internal times there too)."""
    n = kernel.n
    return kernel.tau * (2.0 * (n + 10.0 * math.sqrt(n) + 50.0) + 1.0)


def _screen_convergence(signal: TimeSignal, kernel: GammaKernel,
                        what: str, power: int) -> None:
    """Reject a signal without a declared growth rate for which ``what``,
    the smearing integral of ``|F|^power``, cannot converge.

    The integrand's log-magnitude is probed at ``u* = n + 10 sqrt(n) + 50``
    and at twice that; if the far window still dominates, the tail is
    growing and the transform is refused as suspected divergence.  A signal
    with several columns is refused if any one of them grows.
    """
    n, tau = kernel.n, kernel.tau
    t_end = screening_horizon(kernel)
    width = tau * np.array([0.0, 0.5, 1.0])

    def window_max(t):
        u = t / tau
        f = np.abs(np.asarray(signal.evaluate(t), dtype=complex))
        with np.errstate(divide="ignore"):
            return np.max(as_rows((n - 1) * np.log(u) - u, f) + power * np.log(f),
                          axis=0)

    if np.any(window_max(t_end - width) > window_max(0.5 * (t_end - tau) + width)):
        raise DivergentTransform(
            f"{what}: the undeclared signal still grows against the weight "
            f"at u ~ {t_end / tau:.0f} (n={n}, tau={tau}); suspected divergence")


def _tilt(signal: TimeSignal, kernel: GammaKernel,
          what: str = "the smearing integral", power: int = 1):
    """Screen ``signal`` at ``kernel`` and tilt a declared growth ``e^{g t}``,
    ``g > 0``, into the weight: the one change of measure of both routes.

    A declared rate needs ``g tau < 1`` (:func:`_growth`); an undeclared
    signal goes to the probe of ``|F|^power``.  ``F = e^{g t} H`` smeared at
    ``tau`` is ``(1 - g tau)^-n`` times the bounded ``H`` smeared at
    ``tau' = tau / (1 - g tau)``.  ``H`` counts as 0 past ``t_max =
    log(DBL_MAX) / g``, where ``e^{g t}`` overflows, once the gamma Chernoff
    bound ``P(U >= x) <= (x/n)^n e^{n - x}`` at ``x = t_max / tau'`` shows
    that this drops less than eps of the weight.  A larger mass, or a
    prefactor past the largest double, is refused: ``ValueError``, "leaves
    the float range".

    Returns ``(evaluate, kernel, prefactor)``: ``H``, the kernel at ``tau'``
    and a function that scales a value and its error by ``(1 - g tau)^-n``
    and adds ``4 eps (1 + n / (1 - g tau)) |value|`` to the error: the
    rounding of ``1 - g tau`` raised to the n-th power, and of ``g t`` at
    the bulk ``t ~ n tau'``.  Other signals come back unchanged.
    """
    g, n, tau = signal.growth_rate, kernel.n, kernel.tau
    label = f"the smearing integral at growth rate {g} and tau={tau}"
    if g is None:
        _screen_convergence(signal, kernel, what, power)
    else:
        shrink = _growth(g * tau, label)
    if g is None or g <= 0.0:
        return signal.evaluate, kernel, lambda value, error: (value, error)
    try:
        factor = shrink ** -float(n)
    except OverflowError:
        factor = math.inf
    z = g * tau
    # t_max / tau': where the tilted gamma(n) clock reaches the overflow
    x = LOG_MAX_DOUBLE * shrink / z if z > 0.0 else math.inf
    if factor == math.inf or not (math.isinf(x) or (
            x > n and n * math.log(x / n) + n - x < math.log(EPS))):
        raise ValueError(f"{label} leaves the float range")
    t_max = LOG_MAX_DOUBLE / g
    rounding = 4.0 * EPS * (1.0 + n / shrink)

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(signal.evaluate(t))
            vals = vals * as_rows(np.exp(-g * t), vals)
        return np.where(as_rows(t <= t_max, vals), vals, 0.0)

    def prefactor(value, error):
        value = value * factor
        if not np.isfinite(value).all():
            raise ValueError(f"{label}: the smeared value leaves the float range")
        return value, error * factor + rounding * abs(value)

    return evaluate, GammaKernel(n, tau / shrink), prefactor


def transform_quadrature(signal: TimeSignal, kernel: GammaKernel,
                         rule: QuadratureRule | None = None) -> TransformResult:
    """Smearing integral by generalized Gauss--Laguerre quadrature.

    Starts from :data:`FIRST_NODE_COUNT` nodes, whatever ``n``, and
    doubles the node count over every column of the signal at
    once.  A column keeps the value and error of the first doubling where
    two consecutive estimates agree to the rule's relative target (or
    :data:`ABSOLUTE_FLOOR` absolutely), exactly as a scalar transform of it
    would; the difference of that doubling is its error estimate.  Columns
    still open at :data:`MAX_NODE_COUNT` — oscillatory signals with
    ``omega*tau`` large defeat polynomial rules, and a larger rule costs
    more to build than the panels cost to sum — are summed together over
    Gauss--Legendre panels on ``u`` in [0, U(n)], the screening window,
    before giving up.
    """
    evaluate, kernel, prefactor = _tilt(signal, kernel)
    if rule is None:
        rule = QuadratureRule.for_kernel(kernel)
    elif rule.step_count != kernel.n:
        raise ValueError(
            f"rule was built for step count {rule.step_count}, kernel has {kernel.n}"
        )
    rel = rule.error_target

    def laguerre(m):
        nodes, weights = _laguerre_rule(m, kernel.n - 1)
        # far nodes whose weights underflow to 0 contribute nothing; skipping
        # them keeps growing signals from manufacturing inf * 0 at times that
        # are irrelevant anyway
        live = weights > 0.0
        values = np.asarray(evaluate(kernel.tau * nodes[live]))
        return pairwise_dot(weights[live], values), 0.0

    value, error, kept, _ = refine(laguerre, FIRST_NODE_COUNT, MAX_NODE_COUNT,
                                   rel, ABSOLUTE_FLOOR)
    method = "laguerre"
    left = kept == 0
    if left.any():
        rest = evaluate if left.all() else (
            lambda t: np.asarray(evaluate(t))[:, left])
        value[left], error[left] = _adaptive_fallback(rest, kernel, rel)
        method = "adaptive"
    return _result(value, error, kept.max(), method, prefactor)


def _adaptive_fallback(evaluate, kernel: GammaKernel, rel: float):
    """Gauss--Legendre panels on ``u`` in [0, U(n)] for the columns that
    ``evaluate`` returns, which defeat node doubling: past
    :func:`screening_horizon` the weight is spent.

    The panels of every column double together under the doubling loop's
    test; an error is the spread against half as many panels plus the
    rounding of the sum and a bound on the tail, which only a signal that
    grows against the weight makes count.  Returns values and errors, one
    per column.
    """
    t_end = screening_horizon(kernel)

    def panels(p):
        t, q = legendre_panels(p, t_end)
        w = q * np.exp(_log_density_core(kernel, t))
        with np.errstate(over="ignore", invalid="ignore"):
            f = np.asarray(evaluate(t))
            terms = as_rows(w, f) * f
        terms = np.where(as_rows(w, f) == 0.0, 0.0, terms)
        size = modulus(terms)
        rounding = EPS * math.log2(t.size) * pairwise_sum(size)
        # the integrand's largest size on the last panel times the window: a
        # bound on the tail past it if that decays at least at the rate 1/U(n)
        last = slice(-PANEL_NODES, None)
        edge = t_end * np.max(size[last] / as_rows(q[last], size), axis=0)
        return pairwise_sum(terms), rounding + edge

    value, error, kept, reached = refine(panels, FIRST_PANELS, MAX_PANELS, rel,
                                         ABSOLUTE_FLOOR)
    if not kept.all():
        j = int(np.flatnonzero(kept == 0)[0])
        one, err = np.ravel(value)[j], float(np.ravel(error)[j])
        raise QuadratureNotConverged(
            f"panel fallback error {err:.3e} misses the target for {kernel} "
            f"at {reached} panels", value=one, error=err)
    return value, error


# ---------------------------------------------------------------------------
# Monte Carlo route


def sample_internal_time(kernel: GammaKernel, rng: np.random.Generator,
                         size: int | None = None):
    """Draw internal times distributed as ``tau * Gamma(n, 1)``.

    Returns a scalar when ``size`` is omitted, else an array of that length.
    Draws come from the generator's gamma sampler, one after another, so a
    scalar draw is the first element of an array drawn from the same
    generator state.
    """
    m = 1 if size is None else int(size)
    if m < 1:
        raise ValueError(f"size must be >= 1, got {size!r}")
    draws = kernel.tau * rng.gamma(kernel.n, size=m)
    if size is None:
        return float(draws[0])
    return draws


def _binary_scale(values) -> float:
    """The power of two at the largest real or imaginary part of ``values``,
    held in the normal range, so that dividing by it and multiplying back
    are exact."""
    a = np.asarray(values)
    peak = max(np.max(np.abs(a.real), initial=0.0),
               np.max(np.abs(a.imag), initial=0.0))
    return float(np.ldexp(1.0, np.clip(np.frexp(peak)[1], -1021, 1023)))


def transform_monte_carlo(signal: TimeSignal, kernel: GammaKernel,
                          samples: int, seed: int) -> TransformResult:
    """Monte Carlo smearing: average the signal over internal-time draws.

    The result's ``value`` is the sample mean of ``F(tau * U_i)`` with
    ``U_i ~ Gamma(n, 1)``, its ``error`` the standard error of that mean,
    ``node_count`` the sample count and ``method`` ``"monte-carlo"``.  The
    standard error needs the transform of ``|F|^2``: the screening checks it
    for a signal without a declared growth rate.  A declared ``e^{g t}``,
    ``g > 0``, is tilted as on the quadrature route: draws at the quantum
    ``tau / (1 - g tau)`` average the bounded ``e^{-g t} F``, so ``g tau <
    1`` is all it needs.  Reductions run through the fixed pairwise tree, so
    a given seed reproduces the estimate bit for bit.  The draws are
    divided by a power of two near their largest part before they are
    summed: that is exact, and no sum or squared residual of finite draws
    overflows.  A mean or standard error that is still not finite is
    refused (``ValueError``, "leaves the float range").  The value is complex
    when the signal returns complex values; a signal with ``k`` columns
    gives length-``k`` values and errors, each its column's own.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples!r}")
    evaluate, tilted, prefactor = _tilt(signal, kernel,
                                        "the Monte Carlo variance", power=2)
    t = sample_internal_time(tilted, np.random.default_rng(seed), samples)
    values = np.asarray(evaluate(t))
    scale = _binary_scale(values)
    with np.errstate(over="ignore", invalid="ignore"):
        values = values / scale
        mean = pairwise_sum(values) / samples
        resid = values - mean
        var = np.real(pairwise_sum(np.abs(resid) ** 2)) / (samples - 1)
        mean, stderr = mean * scale, np.sqrt(var / samples) * scale
    if not (np.isfinite(mean).all() and np.isfinite(stderr).all()):
        raise ValueError(f"the Monte Carlo estimate at n={kernel.n}, "
                         f"tau={kernel.tau} leaves the float range")
    return _result(mean, stderr, samples, "monte-carlo", prefactor)


# ---------------------------------------------------------------------------
# step schemes


@dataclass(frozen=True)
class StepScheme:
    """One-step mixing weights: ``alpha`` forward, ``beta = 1 - alpha`` backward."""

    alpha: float
    beta: float = field(init=False)

    def __post_init__(self):
        alpha = float(self.alpha)
        if not (0.0 <= alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", 1.0 - alpha)


def scheme_delta_coefficient(scheme: StepScheme, n: int) -> float:
    """Signed weight ``(-alpha/beta)**n`` of the retained initial condition.

    The fully backward scheme (alpha = 0) is the only one whose n-step
    density carries no delta remnant; any forward admixture leaves a signed
    point mass at the initial time, negative for odd ``n``.
    """
    n = _step_count(n, 1, "n")
    return (-scheme.alpha / _backward(scheme, "the delta coefficient")) ** n


@dataclass(frozen=True)
class SchemeDecomposition:
    """Exact n-step density split: delta remnant plus gamma mixture.

    The n-step smearing density of a mixed scheme equals
    ``delta_coefficient * delta(xi)`` plus
    ``sum_j mixture_weights[j-1] * h_j(xi)`` where ``h_j`` is the gamma
    density with integer shape ``j`` and scale ``beta*tau``.  The signed
    weights always sum (with the delta coefficient) to 1.
    """

    delta_coefficient: float
    mixture_weights: np.ndarray
    shapes: np.ndarray
    scale: float

    def total_weight(self) -> float:
        return self.delta_coefficient + float(pairwise_sum(self.mixture_weights))

    def continuous_density(self, xi):
        """Evaluate the absolutely continuous part (the gamma mixture)."""
        out = np.zeros_like(np.asarray(xi, dtype=float))
        for w, j in zip(self.mixture_weights, self.shapes):
            out += w * gamma_density(GammaKernel(j, self.scale), xi)
        return out


def scheme_density_decomposition(scheme: StepScheme,
                                 kernel: GammaKernel) -> SchemeDecomposition:
    """Decompose the n-step scheme density into delta + gamma mixture.

    Mixture weight ``j`` is ``beta**(-n) * C(n, j) * (-alpha)**(n-j)``; the
    coefficients are exact binomials, intended for moderate ``n`` (they grow
    combinatorially and are reported as floats).
    """
    beta = _backward(scheme, "the density decomposition")
    n, alpha = kernel.n, scheme.alpha
    j = np.arange(1, n + 1)
    comb = np.array([math.comb(n, int(jj)) for jj in j], dtype=float)
    weights = beta ** (-float(n)) * comb * (-alpha) ** (n - j).astype(float)
    delta = scheme_delta_coefficient(scheme, n)
    return SchemeDecomposition(delta_coefficient=delta, mixture_weights=weights,
                               shapes=j, scale=beta * kernel.tau)


@dataclass(frozen=True)
class AdvectionProbe:
    """Result of the periodic-grid advection probe."""

    min_value: float
    peak_value: float
    profile: np.ndarray
    grid: np.ndarray
    initial: np.ndarray


def advection_negativity_probe(scheme: StepScheme, kernel: GammaKernel,
                               sigma: float, domain_length: float,
                               points: int) -> AdvectionProbe:
    """Apply the n-step scheme symbol to a Gaussian under pure drift.

    The generator is the unit-speed advection ``-d/dxi`` on a periodic grid,
    so each step multiplies the spectrum by
    ``((1 - i alpha tau k)/(1 + i beta tau k))**n`` and the profile drifts by
    ``n*tau`` on average from its start at ``(domain_length - n*tau)/2``, so
    it ends centred in the domain.  The fully backward scheme smears the
    Gaussian with the gamma density and stays non-negative; any forward
    admixture produces genuine negative mass for sharp profiles.

    ``points`` must be a power of two, ``sigma`` and ``domain_length``
    finite and > 0.  The profile width must satisfy ``sigma >= 4*dx`` and
    the domain must cover drift plus ``20*sigma``, otherwise
    :class:`GridUnderResolved` is raised.
    """
    if points < 2 or points & (points - 1):
        raise ValueError(f"points must be a power of two, got {points!r}")
    beta = _backward(scheme, "the advection probe")
    sigma = _positive("sigma", sigma)
    domain_length = _positive("domain length", domain_length)
    n, tau = kernel.n, kernel.tau
    dx = domain_length / points
    drift = n * tau
    if sigma < 4.0 * dx:
        raise GridUnderResolved(
            f"sigma={sigma} under-resolved: needs sigma >= 4*dx = {4 * dx:.3e} "
            f"(increase points or shrink the domain)"
        )
    if domain_length < drift + 20.0 * sigma:
        raise GridUnderResolved(
            f"domain {domain_length} shorter than drift + 20 sigma = "
            f"{drift + 20 * sigma:.3e}"
        )
    center = 0.5 * (domain_length - drift)
    grid = dx * np.arange(points)
    initial = np.exp(-0.5 * ((grid - center) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    k = 2.0 * math.pi * np.fft.rfftfreq(points, d=dx)
    # the symbol in log-polar form, from (1 - i a) = |1 + i a| e^{-i atan a}
    (rate_a, rate_b), (angle_a, angle_b) = _phase_log(
        np.outer([scheme.alpha * tau, beta * tau], k))
    symbol = np.exp(n * (rate_a - rate_b) - 1j * n * (angle_a + angle_b))
    evolved = np.fft.irfft(np.fft.rfft(initial) * symbol, n=points)
    return AdvectionProbe(
        min_value=float(evolved.min()),
        peak_value=float(evolved.max()),
        profile=evolved,
        grid=grid,
        initial=initial,
    )
