r"""Sensitivity to initial conditions: continuous growth vs discrete smearing.

The model trajectory is ``x(a, t) = cos(b e^{c t})`` with ``cos b = a``: a
bounded signal whose dependence on its initial value ``a`` grows like
``e^{c t}``, the classic signature of chaos.  Its continuous sensitivity is

    d_ct(t) = |dx/da| = (1 - a^2)^{-1/2} |sin(b e^{c t})| e^{c t},

so a log-linear fit of ``d_ct`` recovers the rate ``c``.  Smearing the
*signed* derivative with the gamma weight gives the per-step sensitivity

    d_dt(n) = (1 - a^2)^{-1/2} |E[ e^{c tau U} sin(b e^{c tau U}) ]|,

with ``U`` the standard gamma variable of shape ``n``.  Integration by parts
bounds it by ``2/(b c tau sqrt(1 - a^2))`` uniformly in ``n``; the code
computes the pre-parts form directly so that bound stays a falsifiable
claim rather than an identity of the implementation.

Numerically the smeared expectation is a chirped oscillatory integral.  One
rule covers it: the integrand is analytic, so the path of integration turns
off the real axis, rises to a height Y and runs parallel to it, where the
chirp becomes a doubly exponential damping and nothing oscillates.  Fixed
Gauss--Legendre panels on both legs, doubled until two resolutions agree,
give the value together with its log-magnitude, which stays meaningful
after the value underflows.  Only the factor u^(n-1) depends on the step
count, so each path (its nodes, weights, log u and chirp) is built once per
growth, phase, height and panel count and shared by every n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._util import (EPS, FIRST_PANELS, LOG_MAX_DOUBLE, MAX_PANELS,
                    legendre_panels, refine)
from .errors import DivergentTransform, FitUnstable, QuadratureNotConverged
from .kernel import GammaKernel, _growth, _positive, _step_count

__all__ = [
    "SensitivityModel",
    "LyapunovEstimate",
    "ChirpedExpectation",
    "ct_position",
    "ct_distance",
    "ct_lyapunov",
    "dt_sensitivity",
    "dt_distance",
    "dt_bound",
    "dt_lyapunov",
    "chirped_sine_expectation",
    "power_law_map",
    "exponential_map",
]

# a fit whose rms log-residual exceeds this is reported as unstable
FIT_RESIDUAL_LIMIT = 2.0
# samples with |sin(phase)| below this would inject -inf spikes into log fits
PHASE_NODE_CUTOFF = 0.05
# chirped expectation: heights of the horizontal leg as fractions of
# pi/(2 lam) (the lowest one serves growth per step below about 0.01), the
# relative error target, and b e^{lam X} at the path's end X; the height
# probe uses the first panel count of the shared panel rules
CONTOUR_HEIGHTS = (1 / 1024, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 3 / 4, 1.0)
CHIRP_REL_TARGET = 1e-10
CONTOUR_END = 12.0
# contour paths kept for reuse across n: one (lam, b) family over n builds
# 12 to 15 (the seven height probes and the doublings at the heights
# chosen); at 1,024 panels a path holds 65,536 points at 80 bytes each,
# about 5.2 MB
CONTOUR_CACHE_SIZE = 16
# sample times of the continuous fit over the late half of [0, t_max]
CT_FIT_SAMPLES = 1200


@dataclass(frozen=True)
class SensitivityModel:
    """Initial value ``a`` (|a| < 1) and growth ``c > 0``; ``b = arccos a``."""

    a: float
    c: float
    b: float = field(init=False)

    def __post_init__(self):
        a, c = float(self.a), _positive("growth rate c", self.c)
        if not (abs(a) < 1.0):
            raise ValueError(f"initial value must satisfy |a| < 1, got {a!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "b", math.acos(a))

    @property
    def spread_factor(self) -> float:
        """1/sqrt(1 - a^2) = 1/|sin b|, the prefactor of both distances."""
        return 1.0 / math.sqrt(1.0 - self.a * self.a)


@dataclass(frozen=True)
class LyapunovEstimate:
    """Slope of a log-linear distance fit, with its window and residual.

    ``window`` is the time interval actually fitted (the late half of the
    requested range); ``residual`` is the rms deviation of the log data from
    the fitted line and is always reported, never swallowed.  ``intercept``
    completes the fitted line ``exponent * t + intercept`` in log space.
    """

    exponent: float
    window: tuple[float, float]
    residual: float
    samples: int
    intercept: float = math.nan

    def __post_init__(self):
        lo, hi = self.window
        if not (hi > lo):
            raise ValueError(f"empty fit window {self.window!r}")
        if self.samples < 2:
            raise ValueError("fit needs at least two samples")
        if not (self.residual >= 0 and math.isfinite(self.residual)):
            raise ValueError(f"residual must be finite, got {self.residual!r}")


def ct_position(model: SensitivityModel, t):
    """Continuous trajectory value cos(b e^{c t}); vectorized in t."""
    t = np.asarray(t, dtype=float)
    return np.cos(model.b * np.exp(model.c * t))


def _check_range(model: SensitivityModel, t_max) -> None:
    """Refuse times whose sensitivity e^{ct}/sqrt(1-a^2) could overflow."""
    if not (model.c * t_max + math.log(model.spread_factor) <= LOG_MAX_DOUBLE):
        raise ValueError(
            f"c * t = {model.c * t_max!r} leaves the float range: the "
            f"continuous sensitivity needs c * t + log(1/sqrt(1-a^2)) "
            f"<= {LOG_MAX_DOUBLE:.2f}")


def ct_distance(model: SensitivityModel, t):
    """Continuous sensitivity |dx/da| = e^{ct} |sin(b e^{ct})| / sqrt(1-a^2)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("sensitivity is defined for t >= 0")
    _check_range(model, float(np.max(t, initial=0.0)))
    growth = np.exp(model.c * t)
    return model.spread_factor * np.abs(np.sin(model.b * growth)) * growth


def _fit_log_slope(times, log_values, what: str) -> LyapunovEstimate:
    times = np.asarray(times, dtype=float)
    log_values = np.asarray(log_values, dtype=float)
    keep = np.isfinite(log_values)
    times, log_values = times[keep], log_values[keep]
    if times.size < 2:
        raise FitUnstable(f"{what}: too few usable samples for a fit",
                          estimate=math.nan, residual=math.inf)
    slope, intercept = np.polyfit(times, log_values, 1)
    resid = float(np.sqrt(np.mean(
        (log_values - (slope * times + intercept)) ** 2)))
    est = LyapunovEstimate(exponent=float(slope),
                           window=(float(times[0]), float(times[-1])),
                           residual=resid, samples=int(times.size),
                           intercept=float(intercept))
    if resid > FIT_RESIDUAL_LIMIT:
        raise FitUnstable(
            f"{what}: log-linear fit residual {resid:.3g} exceeds "
            f"{FIT_RESIDUAL_LIMIT} (estimate {slope:.3g})",
            estimate=float(slope), residual=resid)
    return est


def ct_lyapunov(model: SensitivityModel, t_max: float) -> LyapunovEstimate:
    """Growth-rate estimate from log d_ct over the late half of [0, t_max].

    Samples :data:`CT_FIT_SAMPLES` evenly spaced times.  Requires
    ``c * t_max >= 10`` so the window is dominated by growth rather than
    transients.  Sample times where the phase sits on a node of the
    sine (|sin| < 0.05) are dropped — they carry log spikes of arbitrary
    depth but no slope information.
    """
    if not (model.c * t_max >= 10.0):
        raise ValueError("window too short: need c * t_max >= 10")
    _check_range(model, t_max)
    t = np.linspace(0.5 * t_max, t_max, CT_FIT_SAMPLES)
    phase = model.b * np.exp(model.c * t)
    keep = np.abs(np.sin(phase)) >= PHASE_NODE_CUTOFF
    d = ct_distance(model, t[keep])
    return _fit_log_slope(t[keep], np.log(d), "continuous sensitivity")


# ---------------------------------------------------------------------------
# the smeared (discrete-step) sensitivity


class ChirpedExpectation(NamedTuple):
    """E[e^{lam U} sin(b e^{lam U})] for U ~ gamma(n), with bookkeeping.

    ``log_magnitude`` stays meaningful even when ``value`` underflows;
    ``error`` is the spread of the contour sum against half as many panels,
    plus a bound on the tail past the path's end and on the rounding of the
    sum, of each term's exponent and of ``value`` itself.
    """

    value: float
    log_magnitude: float
    error: float
    method: str


@lru_cache(maxsize=CONTOUR_CACHE_SIZE)
def _contour_path(lam: float, b: float, height: float, length: float,
                  panels: int):
    """The n-free parts of :func:`_contour_log_terms` on one path.

    Weights, log u, (1 - lam) u, the chirp i b e^{lam u} and the two n-free
    parts of the size bound: everything but the (n - 1) log u that a step
    count adds, so one (lam, b) family builds each path once.
    """
    s, ws = legendre_panels(panels, height)
    x, wx = legendre_panels(panels, length)
    u = np.concatenate((1j * s, x + 1j * height))
    weights = np.concatenate((1j * ws, wx))
    chirp = 1j * b * np.exp(lam * u)
    size = np.abs(u)
    parts = (weights, np.log(u), (1.0 - lam) * u, chirp, (1.0 - lam) * size,
             np.abs(chirp) * (1.0 + lam * size))
    for part in parts:
        part.setflags(write=False)
    return parts


def _contour_log_terms(n: int, lam: float, b: float, height: float,
                       length: float, panels: int):
    """Weights and log-integrand on the path 0 -> iY -> iY + X.

    Y is ``height`` and X is ``length``.  The third array bounds the
    log-integrand's parts and their change under a relative nudge of the
    node: eps times it bounds the rounding of each computed exponent, and
    so the relative rounding of each term.
    """
    weights, log_u, decay, chirp, decay_size, chirp_size = _contour_path(
        lam, b, height, length, panels)
    log_u = (n - 1) * log_u
    log_f = log_u - decay + chirp
    size = np.abs(log_u) + (n - 1) + decay_size + chirp_size
    return weights, log_f, size


def chirped_sine_expectation(n: int, lam: float, b: float) -> ChirpedExpectation:
    """E[e^{lam U} sin(b e^{lam U})], U ~ gamma(n), for 0 < lam < 1.

    The expectation is Im (1/Gamma(n)) int_0^inf f(u) du with the analytic
    f(u) = u^(n-1) e^{-(1-lam) u} exp(i b e^{lam u}), which vanishes as
    Re u -> inf throughout 0 <= lam Im u <= pi/2.  The integral therefore
    runs along 0 -> iY -> iY + X, with b e^{lam X} = e^CONTOUR_END (or
    lam X = :data:`CONTOUR_END` for b > 1): on the horizontal leg the
    chirp turns into the damping exp(-b e^{lam x} sin(lam Y)), which at X
    leaves a tail that is bounded and counted in the error.  Y is the
    fraction of pi/(2 lam) in :data:`CONTOUR_HEIGHTS` whose probe has the
    lowest peak log-magnitude, the least cancellation.  Both legs get equal
    Gauss--Legendre panels, doubled by the shared doubling loop until the
    spread against half as many panels, the tail and the summation roundoff
    add up to at most :data:`CHIRP_REL_TARGET` of the value.  Past
    ``MAX_PANELS``, once the tail and roundoff alone exceed that target, or
    when lam is so small that X is not finite, the call raises
    :class:`QuadratureNotConverged`.  The reported error adds the rounding
    of each term's exponent, which more panels cannot shrink.
    """
    n = _step_count(n, 1)
    _growth(lam, "the chirped sine expectation")
    if not lam > 0.0:
        raise DivergentTransform(f"smeared growth needs growth*tau > 0, got {lam!r}")
    b = _positive("phase parameter b", b)
    # lam X: where b e^{lam X} reaches e^CONTOUR_END, or CONTOUR_END
    reach = CONTOUR_END + max(0.0, -math.log(b))
    x_end = reach / lam
    if not math.isfinite(x_end):
        raise QuadratureNotConverged(
            f"growth per step {lam!r} is too small for the contour: its "
            f"length {reach:.3g}/{lam!r} is not finite")
    probes = []
    for frac in CONTOUR_HEIGHTS:
        height = frac * 0.5 * math.pi / lam
        _, log_f, _ = _contour_log_terms(n, lam, b, height, x_end, FIRST_PANELS)
        probes.append((float(np.max(log_f.real)), height))
    peak, height = min(probes, key=lambda p: p[0])
    # past the end X of the path, log|f| falls at least at this rate, which
    # bounds the part of the integral left out
    damping = b * math.exp(reach) * math.sin(lam * height)
    rate = 1.0 - lam + lam * damping - (n - 1) / x_end
    tail = math.exp((n - 1) * math.log(math.hypot(x_end, height))
                    - (1.0 - lam) * x_end - damping - peak) / rate \
        if rate > 0.0 else math.inf
    log_scale = peak - math.lgamma(n)
    last = {}

    def contour(panels, _open):
        weights, log_f, size = _contour_log_terms(n, lam, b, height, x_end,
                                                  panels)
        # every resolution is scaled by the probe's peak, so the sums compare
        terms = weights * np.exp(log_f - peak)
        magnitude = np.abs(terms)
        last["magnitude"], last["size"] = magnitude, size
        return float(np.sum(terms).imag), \
            tail + EPS * math.log2(terms.size) * float(np.sum(magnitude))

    fine, error, kept, reached = refine(contour, FIRST_PANELS, MAX_PANELS,
                                        CHIRP_REL_TARGET)
    if not kept:
        value = _rescaled(fine, log_scale)
        error = _rescaled(error, log_scale)
        raise QuadratureNotConverged(
            f"contour quadrature for n={n}, growth {lam}, phase {b} "
            f"missed its target at {reached} panels per leg: "
            f"{value:.3e} +- {error:.2e}", value=value, error=error)
    # the rounding of each term's exponent does not shrink with more
    # panels: it joins the reported error, not the target
    error += EPS * float(np.sum(last["magnitude"] * (abs(peak) + last["size"])))
    log_magnitude = math.log(abs(fine)) + log_scale if fine else -math.inf
    value = _rescaled(fine, log_scale)
    # the last term covers the rounding of the value itself, which is all
    # that is left of it once it underflows
    return ChirpedExpectation(value, log_magnitude,
                              _rescaled(error, log_scale) + math.ulp(value),
                              "contour")


def _rescaled(x: float, log_scale: float) -> float:
    """x * e^log_scale without overflow in the scale: inf past the float range."""
    if x == 0.0:
        return 0.0
    log_abs = math.log(abs(x)) + log_scale
    return math.copysign(
        math.inf if log_abs > LOG_MAX_DOUBLE else math.exp(log_abs), x)


def dt_sensitivity(model: SensitivityModel,
                   kernel: GammaKernel) -> ChirpedExpectation:
    """Signed smeared derivative of the trajectory in its initial value.

    The gamma-weighted average of dx/da = e^{ct} sin(b e^{ct}) / sqrt(1-a^2)
    at the kernel's step count; keeps sign, log-magnitude, and method so
    fits and cross-checks can use whichever form survives underflow.
    """
    raw = chirped_sine_expectation(kernel.n, model.c * kernel.tau, model.b)
    f = model.spread_factor
    return ChirpedExpectation(f * raw.value,
                              raw.log_magnitude + math.log(f),
                              f * raw.error, raw.method)


def dt_distance(model: SensitivityModel, kernel: GammaKernel) -> float:
    """Magnitude of the smeared sensitivity at the kernel's step count.

    Stays below ``2/(b c tau sqrt(1-a^2))`` for every step count — where
    the continuous sensitivity grows without bound, the smeared one cannot.
    """
    return abs(dt_sensitivity(model, kernel).value)


def dt_bound(model: SensitivityModel, kernel: GammaKernel) -> float:
    """The uniform-in-n ceiling 2/(b c tau sqrt(1-a^2))."""
    return 2.0 * model.spread_factor / (model.b * model.c * kernel.tau)


def dt_lyapunov(model: SensitivityModel,
                kernel: GammaKernel) -> LyapunovEstimate:
    """Slope of log d_dt(n) against n*tau over the late half of 1..n_max.

    ``n_max`` is the kernel's step count.  Requires ``n_max * tau * c >= 10``
    (same window rule as the continuous fit).  Underflowed samples are
    dropped via the log-magnitude channel; the residual of the fit is always
    part of the result, and a residual beyond :data:`FIT_RESIDUAL_LIMIT`
    raises :class:`FitUnstable` carrying the estimate — a strongly curved
    decay has no meaningful single slope.
    """
    return _dt_window_fit(model, kernel, lambda n: dt_sensitivity(
        model, GammaKernel(n, kernel.tau)).log_magnitude)


def _dt_window_fit(model: SensitivityModel, kernel: GammaKernel,
                   log_magnitude) -> LyapunovEstimate:
    """:func:`dt_lyapunov`'s window check and fit.

    ``log_magnitude(n)`` gives log |d_dt| at step count ``n``; it is asked
    only for the late half of ``1..kernel.n``, after the window check.
    """
    n_max, tau = kernel.n, kernel.tau
    if not (n_max * tau * model.c >= 10.0):
        raise ValueError("window too short: need n_max * tau * c >= 10")
    ns = np.arange(max(1, n_max // 2), n_max + 1)
    logs = np.array([log_magnitude(int(n)) for n in ns])
    return _fit_log_slope(ns * tau, logs, "smeared sensitivity")


# ---------------------------------------------------------------------------
# asymptotic maps


def power_law_map(alpha: float, kernel: GammaKernel) -> np.ndarray:
    """Smeared power t^alpha at steps 1..n: tau^alpha Gamma(n+alpha)/Gamma(n).

    Needs ``alpha > -1`` for the integral to exist at the origin.  The ratio
    to the naive (n tau)^alpha tends to 1, so power-law asymptotics keep
    their exponent under time smearing.
    """
    alpha = float(alpha)
    if not (alpha > -1.0 and math.isfinite(alpha)):
        raise ValueError(f"exponent must be finite and > -1, got {alpha!r}")
    from scipy.special import gammaln  # on first use; see kernel
    n = np.arange(1, kernel.n + 1, dtype=float)
    return np.exp(alpha * math.log(kernel.tau) + gammaln(n + alpha)
                  - gammaln(n))


def exponential_map(b_rate: float, kernel: GammaKernel) -> float:
    """Effective discrete growth rate of a smeared exponential e^{b t}.

    The transform of e^{b t} at step n is exactly e^{c tau n} with
    ``c = -log(1 - b tau)/tau``; for 0 < b tau < 1 this satisfies c > b —
    stepping *amplifies* exponential growth.  Divergence at b tau >= 1.
    """
    b_rate = float(b_rate)
    if not math.isfinite(b_rate):
        raise ValueError(f"growth rate must be finite, got {b_rate!r}")
    z = b_rate * kernel.tau
    _growth(z, "the exponential map")
    return -math.log1p(-z) / kernel.tau
