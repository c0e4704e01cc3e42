r"""Gamma-weighted time smearing and step-scheme analysis.

A discrete-time step count ``n`` and time quantum ``tau`` relate a discrete
observable to its continuous-time history through

.. math::

    F_{dt}(n) = \frac{1}{(n-1)!} \int_0^\infty u^{n-1} e^{-u} F_{ct}(\tau u)\,du ,

i.e. step ``n`` sees continuous time through a gamma(``n``) distributed
internal clock with mean ``n*tau`` and standard deviation ``sqrt(n)*tau``.
This module provides the weight density, two independent evaluation routes
for the smearing integral (generalized Gauss--Laguerre quadrature, with
nodes from the Jacobi matrix's eigenvalues alone and Christoffel-function
weights, solved at anchor shapes only and reweighted by ``u^Delta`` for the
shapes between them, and Monte Carlo over internal-time draws), sampling of the
internal clock, and the
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

#: Most time points one signal call evaluates when the step counts of a
#: range share calls (screening probes and live Gauss--Laguerre nodes).  It
#: is MAX_NODE_COUNT, the largest doubling call a single step count makes,
#: so a signal with hundreds of columns holds no larger array at once over
#: a range than one n may at the node cap; and a few hundred points
#: already spread a call's fixed cost, which is what sharing saves.
_BATCH_POINTS = MAX_NODE_COUNT

#: Most step counts one shared pass covers; a longer range is cut into
#: passes of this many.  A pass keeps about ten (steps x columns) arrays of
#: doubling state, about 1 MB at the 461 columns of a 20-degree-of-freedom
#: moment report, and 32 step counts still fill four calls of
#: _BATCH_POINTS at the first node count; on the benchmark's moment reports
#: larger passes ran within 5% of its time.
_BATCH_STEPS = 32

#: Gauss--Laguerre rules are solved only at anchor shapes: every shape below
#: _SHAPE_BLOCK and every multiple of it.  Any other shape reweights the rule
#: of the anchor below it, at most _SHAPE_BLOCK - 1 shapes away, so a range
#: of step counts solves about one rule per node count and block.
_SHAPE_BLOCK = 16


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
        if np.ndim(self.n) != 0:
            raise ValueError(
                f"step count n must be a single integer, got {self.n!r}")
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


def _positive(name: str, value):
    """``value`` as a float (a float array for an array): finite, > 0 and
    not a bool; else ``ValueError``."""
    if (isinstance(value, float) or type(value) is int) and 0.0 < value < math.inf:
        return float(value)  # without numpy: kernels are built per step count
    a = np.asarray(value)
    if a.dtype.kind == "O" and all(
            isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, bool) for v in a.flat):
        try:  # numpy keeps a Python int past int64 as an object
            a = a.astype(float)
        except OverflowError:  # past the largest double: refused below
            pass
    if a.dtype.kind in "iuf" and ((0.0 < a) & (a < math.inf)).all():
        return float(a) if a.ndim == 0 else a.astype(float)
    raise ValueError(f"{name} must be finite and > 0, got {value!r}")


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


def _phase_power(n, z, e=0):
    """``((1 + iw)^-n, |1 + iw|^-n)`` for real ``w = z 2^e`` and counts ``n >=
    0`` (``n >= 1`` at an infinite ``z``), broadcast together: the one power
    of :func:`_phase_log`'s output.  From ``|w| = 1`` on, ``w = m 2^k`` with
    ``1 <= m < 2`` and the modulus is ``2^(-n k) exp(-n r)``, ``r = log m +
    0.5 log1p(w^-2)`` in [0, 1.04]: ``r``'s rounding costs ``n r eps/2``, not
    ``n log|w| eps/2``.  ``e`` keeps the digits of a ``w`` past the largest
    double; ``n k`` is clipped at 1100, past which the modulus is 0."""
    with np.errstate(over="ignore"):
        w = np.ldexp(z, e)
    rate, angle = _phase_log(w)
    m, k = np.frexp(np.abs(z))
    k = np.where(z != 0, k - 1 + e, -1)  # |w| = 2m 2^k with 1 <= 2m < 2
    rate = np.where(k >= 0, np.log(np.maximum(2.0 * m, 1.0)) + 0.5 * np.log1p(
        np.maximum(np.abs(w), 1.0) ** -2.0), rate)
    modulus = np.ldexp(np.exp(-n * rate),
                       -np.minimum(n, 1100) * np.clip(k, 0, 1100))
    return modulus * np.exp(-1j * n * angle), modulus


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
    k = _step_count(degree, 0, "degree")

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
    """Nodes/weights for the weight ``u**shape_param * exp(-u)``, normalized
    to sum to 1, on the nodes ``u <= U(shape_param + 1)`` alone (the window
    of :func:`screening_horizon`, past which the weight is spent).

    With ``m = node_count`` and ``a = shape_param``, a rule is solved only at
    an anchor shape: ``a < 16`` or a multiple of 16 (:data:`_SHAPE_BLOCK`).
    Any other shape takes the rule of its anchor ``b = 16 floor(a / 16)``,
    ``Delta = a - b <= 15`` below it, from this same cache: the anchor's
    nodes, with weights ``w_i (u_i / (b + 1))**Delta`` scaled to sum to 1.
    Since ``u^a e^-u / a! = u^Delta / (b + 1)_Delta * u^b e^-u / b!``, that
    rule integrates every polynomial up to degree ``2m - 1 - Delta`` exactly
    against the gamma(``a + 1``) weight (a polynomial modification of the
    weight; Gautschi 2004, sec. 2.4); its nodes stay below ``U(b + 1) <=
    U(a + 1)``, and each weight is the anchor's times a factor right
    relative to itself, so a far weight stays right relative to its size.
    The one-node rule is node ``a + 1`` with weight 1 at every shape.

    At an anchor, the nodes are the
    eigenvalues of the Jacobi matrix of the generalized Laguerre recurrence
    (diagonal ``2k + a + 1``, off-diagonal ``sqrt(k (k + a))``; Golub and
    Welsch 1969), from LAPACK ``dsterf`` without eigenvectors, each polished
    by one Newton step on ``L_m^a``.  A weight is the Christoffel function
    ``1 / K(u)``, ``K = sum_{k<m} p_k(u)^2`` over the orthonormal ``p_k``,
    taken in Christoffel--Darboux form, ``K = m (L_{m-1}^{a+1} L_{m-1}^a -
    L_{m-2}^{a+1} L_m^a) / C(m-1+a, m-1)``, from the compiled
    ``eval_genlaguerre``; the weights are then scaled to sum to 1, which
    cancels the rounding of the binomials.  Each weight is so accurate
    relative to itself, a far one too.  Where the compiled evaluation
    overflows (``C(m + a, m)`` past the largest double, from ``a`` about
    1,400 at 256 nodes) the Newton step and ``K`` come from the orthonormal
    recurrence instead; a ``K`` that overflows there is a weight below the
    smallest double, 0.
    """
    a, m = shape_param, node_count
    delta = _shape_shift(a)
    if m == 1:
        nodes, weights = np.array([a + 1.0]), np.array([1.0])
    elif delta:
        b = a - delta
        nodes, anchor = _laguerre_rule(m, b)
        weights = anchor * (nodes / (b + 1.0)) ** delta
        weights = weights / weights.sum()
    else:
        from scipy.linalg.lapack import dsterf  # on first use, as above
        from scipy.special import binom, eval_genlaguerre
        k = np.arange(m + 1.0)
        diag, off = 2.0 * k + a + 1.0, np.sqrt(k * (k + a))
        x, _ = dsterf(diag[:m], off[1:m])
        x = x[x <= _window(a + 1)]
        scale = binom(m + a, m)
        if np.isfinite(scale * m):  # C(m + a, m - 1) is scale m / (a + 1)
            # all over sqrt(C(m-1+a, m-1) / m), so that K comes out as it
            # is; L_{m-1}^a = b and L_{m-2}^{a+1} = d - b follow from the two
            # evaluated here, and L_m^a' = -L_{m-1}^{a+1}
            c = math.sqrt(binom(m - 1 + a, m - 1) / m)

            def newton_and_christoffel(x):
                lm = eval_genlaguerre(m, a, x) / c
                d = eval_genlaguerre(m - 1, a + 1, x) / c
                b = (x * d + m * lm) / (m + a)
                return -lm / d, d * b - (d - b) * lm
        else:
            def newton_and_christoffel(x):
                # orthonormal p_k and p_k': (p_m / p_m', sum_{k<m} p_k^2)
                p_, p, dp_, dp = 0.0, np.ones_like(x), 0.0, np.zeros_like(x)
                total = np.zeros_like(x)
                for j in range(m):
                    total += p * p
                    gap = x - diag[j]
                    p_, p = p, (gap * p - off[j] * p_) / off[j + 1]
                    dp_, dp = dp, (p_ + gap * dp - off[j] * dp_) / off[j + 1]
                return p / dp, total

        with np.errstate(over="ignore", invalid="ignore"):
            step = newton_and_christoffel(x)[0]
            x = np.where(np.isfinite(step), x - step, x)
            # an overflowed K (nan from inf - inf too) is a weight of 0
            weights = np.fmax(1.0 / newton_and_christoffel(x)[1], 0.0)
        nodes, weights = x, weights / weights.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _shape_shift(shape_param: int) -> int:
    """``Delta``: how far ``shape_param`` lies above the anchor shape whose
    rule :func:`_laguerre_rule` reweights for it; 0 at an anchor."""
    return shape_param % _SHAPE_BLOCK if shape_param >= _SHAPE_BLOCK else 0


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
    return kernel.tau * _window(kernel.n)


def _window(n: int) -> float:
    """``U(n)`` of :func:`screening_horizon`, in units of ``tau``."""
    return 2.0 * (n + 10.0 * math.sqrt(n) + 50.0) + 1.0


def _evaluate_blocks(evaluate, times, reduce) -> list:
    """``[reduce(i, evaluate(times[i])) for each i]``, with consecutive time
    arrays sharing one signal call of at most :data:`_BATCH_POINTS` points
    (an array longer than that gets a call of its own).

    Each ``reduce`` sees only its own rows, so a signal whose rows depend on
    their own times alone gives every ``i`` the values of a call of its own.
    """
    out, start = [], 0
    while start < len(times):
        stop, size = start + 1, times[start].size
        while stop < len(times) and size + times[stop].size <= _BATCH_POINTS:
            size += times[stop].size
            stop += 1
        block = times[start:stop]
        values = np.asarray(evaluate(
            block[0] if len(block) == 1 else np.concatenate(block)))
        offset = 0
        for i in range(start, stop):
            out.append(reduce(i, values[offset:offset + times[i].size]))
            offset += times[i].size
        start = stop
    return out


def _screen_convergence(signal: TimeSignal, kernels: list,
                        what: str, power: int) -> None:
    """Reject a signal without a declared growth rate for which ``what``,
    the smearing integral of ``|F|^power``, cannot converge at one of
    ``kernels``; the first such kernel is named.

    The integrand's log-magnitude is probed at ``u* = n + 10 sqrt(n) + 50``
    and at twice that; if the far window still dominates, the tail is
    growing and the transform is refused as suspected divergence.  A signal
    with several columns is refused if any one of them grows.  The probes
    of all kernels share signal calls (:func:`_evaluate_blocks`).
    """
    width = np.array([0.0, 0.5, 1.0])
    probes = []
    for kernel in kernels:
        t_end, w = screening_horizon(kernel), kernel.tau * width
        probes.append(np.concatenate([t_end - w,
                                      0.5 * (t_end - kernel.tau) + w]))

    def grows(i, values):
        n, u = kernels[i].n, probes[i] / kernels[i].tau
        f = np.abs(np.asarray(values, dtype=complex))
        with np.errstate(divide="ignore"):
            size = as_rows((n - 1) * np.log(u) - u, f) + power * np.log(f)
        return np.any(np.max(size[:3], axis=0) > np.max(size[3:], axis=0))

    for kernel, bad in zip(kernels, _evaluate_blocks(signal.evaluate, probes,
                                                     grows)):
        if bad:
            raise DivergentTransform(
                f"{what}: the undeclared signal still grows against the "
                f"weight at u ~ {screening_horizon(kernel) / kernel.tau:.0f} "
                f"(n={kernel.n}, tau={kernel.tau}); suspected divergence")


def _tilt(signal: TimeSignal, kernels: list,
          what: str = "the smearing integral", power: int = 1):
    """Screen ``signal`` at ``kernels``, which share one ``tau``, and tilt a
    declared growth ``e^{g t}``, ``g > 0``, into the weight: the one change
    of measure of both routes.

    A declared rate needs ``g tau < 1`` (:func:`_growth`); an undeclared
    signal goes to the probe of ``|F|^power``.  ``F = e^{g t} H`` smeared at
    ``tau`` is ``(1 - g tau)^-n`` times the bounded ``H`` smeared at
    ``tau' = tau / (1 - g tau)``.  ``H`` counts as 0 past ``t_max =
    log(DBL_MAX) / g``, where ``e^{g t}`` overflows, once the gamma Chernoff
    bound ``P(U >= x) <= (x/n)^n e^{n - x}`` at ``x = t_max / tau'`` shows
    that this drops less than eps of the weight.  A larger mass, or a
    prefactor past the largest double, is refused: ``ValueError``, "leaves
    the float range", at the first kernel it concerns.

    Returns ``(evaluate, kernels, prefactors)``: ``H``, the kernels at
    ``tau'`` and, per kernel, a function that scales a value and its error
    by ``(1 - g tau)^-n`` and adds ``4 eps (1 + n / (1 - g tau)) |value|``
    to the error: the rounding of ``1 - g tau`` raised to the n-th power,
    and of ``g t`` at the bulk ``t ~ n tau'``.  Other signals come back
    unchanged.
    """
    g, tau = signal.growth_rate, kernels[0].tau
    label = f"the smearing integral at growth rate {g} and tau={tau}"
    if g is None:
        _screen_convergence(signal, kernels, what, power)
    else:
        shrink = _growth(g * tau, label)
    if g is None or g <= 0.0:
        return signal.evaluate, kernels, [_unscaled] * len(kernels)
    z = g * tau
    # t_max / tau': where the tilted gamma(n) clock reaches the overflow
    x = LOG_MAX_DOUBLE * shrink / z if z > 0.0 else math.inf
    t_max = LOG_MAX_DOUBLE / g

    def prefactor(n):
        try:
            factor = shrink ** -float(n)
        except OverflowError:
            factor = math.inf
        if factor == math.inf or not (math.isinf(x) or (
                x > n and n * math.log(x / n) + n - x < math.log(EPS))):
            raise ValueError(f"{label} leaves the float range")
        rounding = 4.0 * EPS * (1.0 + n / shrink)

        def scale(value, error):
            value = value * factor
            if not np.isfinite(value).all():
                raise ValueError(
                    f"{label}: the smeared value leaves the float range")
            return value, error * factor + rounding * abs(value)

        return scale

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(signal.evaluate(t))
            vals = vals * as_rows(np.exp(-g * t), vals)
        return np.where(as_rows(t <= t_max, vals), vals, 0.0)

    prefactors = [prefactor(kernel.n) for kernel in kernels]
    tilted = [GammaKernel(kernel.n, tau / shrink) for kernel in kernels]
    return evaluate, tilted, prefactors


def _unscaled(value, error):
    """The prefactor of an untilted transform: value and error as they are."""
    return value, error


def transform_quadrature(signal: TimeSignal, kernel: GammaKernel,
                         rule: QuadratureRule | None = None) -> TransformResult:
    """Smearing integral by generalized Gauss--Laguerre quadrature.

    Starts from :data:`FIRST_NODE_COUNT` nodes, whatever ``n``, and
    doubles the node count over every column of the signal at
    once; a rule has no node past ``U(n)``, so the signal is evaluated no
    later than :func:`screening_horizon`.  A column keeps the value and
    error of the first doubling where two consecutive estimates agree to
    the rule's relative target (or :data:`ABSOLUTE_FLOOR` absolutely),
    exactly as a scalar transform of it would; its error is the difference
    of that doubling plus the rounding of the ``m``-node sum, ``eps
    log2(m) sum w |f|``, and, where the rule is its anchor's reweighted by
    ``u^Delta`` (:func:`_laguerre_rule`), of those weights, ``eps (Delta +
    2) sum w |f|`` more.  Columns
    still open at :data:`MAX_NODE_COUNT` — oscillatory signals with
    ``omega*tau`` large defeat polynomial rules, and a larger rule costs
    more to build than the panels cost to sum — are summed together over
    Gauss--Legendre panels on ``u`` in [0, U(n)], the screening window,
    before giving up.

    This is the pass of :func:`_transform_steps` at one step count; callers
    that walk a range of ``n`` use that pass, which shares the signal calls
    of all of them and gives each the value this function would.
    """
    if rule is None:
        rule = QuadratureRule.for_kernel(kernel)
    elif rule.step_count != kernel.n:
        raise ValueError(
            f"rule was built for step count {rule.step_count}, kernel has {kernel.n}"
        )
    return _transform_batch(signal, [kernel], rule.error_target)[0]


def _transform_steps(signal: TimeSignal, steps, tau: float,
                     error_target: float):
    """:func:`transform_quadrature` of ``signal`` at every step count of
    ``steps`` (with time quantum ``tau``), in shared passes: yields one
    result per step count, in order, each bit-identical to that function's
    at that ``n``.

    A pass covers up to :data:`_BATCH_STEPS` step counts.  Their screening
    probes share signal calls, a declared growth gives them one tilted
    quantum, and at each node count the live nodes of every ``n`` still
    open share calls too, each of at most :data:`_BATCH_POINTS` points, so a
    wide signal needs hardly more memory than at one ``n``.  Each ``n``
    keeps its own rule, sum, acceptance test, prefactor and panel fallback;
    a rule depends on ``(m, n)`` alone, and the step counts of one block of
    16 shapes share their anchor's eigenvalue solve at each node count.
    If a pass raises, its step counts are replayed one by one, so the error
    is the one a loop over :func:`transform_quadrature` raises, at its
    first failing ``n``.
    """
    kernels = [GammaKernel(n, tau) for n in steps]
    for start in range(0, len(kernels), _BATCH_STEPS):
        group = kernels[start:start + _BATCH_STEPS]
        try:
            results = _transform_batch(signal, group, error_target)
        except Exception:
            # whatever raised, the signal included: the loop is the
            # reference for which n fails first and with what message
            if len(kernels) == 1:
                raise
            results = (transform_quadrature(
                signal, kernel, QuadratureRule(kernel.n, error_target))
                for kernel in group)
        yield from results


def _transform_batch(signal: TimeSignal, kernels: list,
                     rel: float) -> list:
    """The pass of :func:`_transform_steps` over ``kernels``, raising the
    first error it meets."""
    evaluate, kernels, prefactors = _tilt(signal, kernels)
    every = np.arange(len(kernels))

    def laguerre(m, open_):
        # refine asks again only while a row is open: one row is open then
        rows = every if open_ is True or every.size == 1 else np.flatnonzero(
            np.reshape(open_, (every.size, -1)).any(axis=1))
        weights, times, terms = [], [], []
        for i in rows:
            nodes, w = _laguerre_rule(m, kernels[i].n - 1)
            # far nodes whose weights underflow to 0 contribute nothing;
            # skipping them keeps growing signals from manufacturing inf * 0
            # at times that are irrelevant anyway
            live = w > 0.0
            weights.append(w[live])
            times.append(kernels[i].tau * nodes[live])
            # a reweighted rule also rounds its Delta-th power, the product
            # and the rescaling to sum 1
            delta = _shape_shift(kernels[i].n - 1)
            terms.append(math.log2(m) + (delta + 2 if delta else 0))

        def reduce(j, f):
            # the sum and a bound on its rounding, eps (log2(m) [+ Delta + 2])
            # sum w |f|, with |Re f| + |Im f| >= |f| for a complex f
            size = np.abs(f) if f.dtype.kind != "c" else np.abs(f.real) + np.abs(f.imag)
            return (pairwise_dot(weights[j], f),
                    EPS * terms[j] * pairwise_dot(weights[j], size))

        sums, rounding = (np.array(part) for part in zip(*_evaluate_blocks(
            evaluate, times, reduce)))
        if rows.size == every.size:
            return sums, rounding
        # the rows of closed step counts are never read
        full = [np.zeros((every.size,) + a.shape[1:], a.dtype)
                for a in (sums, rounding)]
        full[0][rows], full[1][rows] = sums, rounding
        return full

    value, error, kept, _ = refine(laguerre, FIRST_NODE_COUNT, MAX_NODE_COUNT,
                                   rel, ABSOLUTE_FLOOR)
    results = []
    for i, (kernel, prefactor) in enumerate(zip(kernels, prefactors)):
        one, err = value[i, ...].copy(), error[i, ...].copy()
        nodes, method = kept[i, ...], "laguerre"
        left = nodes == 0
        if left.any():
            rest = evaluate if left.all() else (
                lambda t: _open_columns(evaluate, left, t))
            one[left], err[left] = _adaptive_fallback(rest, kernel, rel)
            method = "adaptive"
        results.append(_result(one, err, nodes.max(), method, prefactor))
    return results


def _open_columns(evaluate, left, t):
    """The columns ``left`` of ``evaluate(t)``, from signal calls of at most
    :data:`_BATCH_POINTS` points: the panel fallback of a few open columns
    of a wide signal holds no full-width array of its thousands of points."""
    blocks = [t[i:i + _BATCH_POINTS] for i in range(0, t.size, _BATCH_POINTS)]
    return np.concatenate(_evaluate_blocks(
        evaluate, blocks, lambda _, f: f[:, left]))


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

    def panels(p, _open):
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
    m = 1 if size is None else _step_count(size, 1, "size")
    draws = kernel.tau * rng.gamma(kernel.n, size=m)
    return float(draws[0]) if size is None else draws


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
    samples = _step_count(samples, 2, "samples")
    evaluate, (tilted,), (prefactor,) = _tilt(
        signal, [kernel], "the Monte Carlo variance", power=2)
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
