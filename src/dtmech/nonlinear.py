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

Numerically the smeared expectation is a chirped oscillatory integral.  Two
tiers cover it: substitution ``v = e^{c tau u}`` turns it into a fixed-
frequency sine integral handled by weighted panels over geometric octaves,
which is exact bookkeeping until the value sinks below the roundoff of the
panel sums; past that point the integrand's single complex saddle (on the
first strip of the phase) gives the value by steepest descent, with the two
tiers agreeing to ~1e-4 or better where their domains overlap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaincc, gammaln

from .errors import DivergentTransform, FitUnstable, QuadratureNotConverged
from .kernel import GammaKernel

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
# a panel value at most this many times its accumulated roundoff is treated
# as indistinguishable from zero and handed to the saddle tier
ROUNDOFF_MARGIN = 20.0
# below this step count the single-saddle asymptotics are not trustworthy
# (validated against high-precision oracles across the growth range)
SADDLE_MIN_STEPS = 20


@dataclass(frozen=True)
class SensitivityModel:
    """Initial value ``a`` (|a| < 1), phase ``b = arccos a``, growth ``c > 0``."""

    a: float
    c: float
    b: float = None  # derived; set in __post_init__

    def __post_init__(self):
        a, c = float(self.a), float(self.c)
        if not (abs(a) < 1.0):
            raise ValueError(f"initial value must satisfy |a| < 1, got {a!r}")
        if not (c > 0 and math.isfinite(c)):
            raise ValueError(f"growth rate must be finite and > 0, got {c!r}")
        if self.b is None:
            b = math.acos(a)  # principal branch
        else:
            b = float(self.b)
            if abs(math.cos(b) - a) > 1e-12:
                raise ValueError(
                    f"phase parameter {b!r} is not an arccosine of {a!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "b", b)

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


def ct_distance(model: SensitivityModel, t):
    """Continuous sensitivity |dx/da| = e^{ct} |sin(b e^{ct})| / sqrt(1-a^2)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("sensitivity is defined for t >= 0")
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


def ct_lyapunov(model: SensitivityModel, t_max: float,
                samples: int = 1200) -> LyapunovEstimate:
    """Growth-rate estimate from log d_ct over the late half of [0, t_max].

    Requires ``c * t_max >= 10`` so the window is dominated by growth rather
    than transients.  Sample times where the phase sits on a node of the
    sine (|sin| < 0.05) are dropped — they carry log spikes of arbitrary
    depth but no slope information.
    """
    if not (model.c * t_max >= 10.0):
        raise ValueError("window too short: need c * t_max >= 10")
    if samples < 10:
        raise ValueError("need at least 10 samples")
    t = np.linspace(0.5 * t_max, t_max, samples)
    phase = model.b * np.exp(model.c * t)
    keep = np.abs(np.sin(phase)) >= PHASE_NODE_CUTOFF
    d = ct_distance(model, t[keep])
    return _fit_log_slope(t[keep], np.log(d), "continuous sensitivity")


# ---------------------------------------------------------------------------
# the smeared (discrete-step) sensitivity


class ChirpedExpectation(NamedTuple):
    """E[e^{lam U} sin(b e^{lam U})] for U ~ gamma(n), with bookkeeping.

    ``log_magnitude`` stays meaningful even when ``value`` underflows;
    ``error`` is the accumulated quadrature roundoff plus tail bound for the
    panel tier, and a cross-resolution spread for the saddle tier.
    """

    value: float
    log_magnitude: float
    error: float
    method: str


def _log_sine_envelope(v: float, n: int, lam: float, lg: float,
                       n_log_lam: float) -> float:
    # envelope of the v-space integrand: (ln v)^(n-1) v^(-1/lam) / (Gamma(n) lam^n),
    # with lg = ln Gamma(n) and n_log_lam = n ln lam computed once by the caller
    lv = math.log(v)
    out = -lv / lam - lg - n_log_lam
    if n > 1:
        if lv <= 0.0:
            return -math.inf
        out += (n - 1) * math.log(lv)
    return out


def _panel_tier(n: int, lam: float, b: float) -> tuple[float, float]:
    """Octave-panel sine quadrature of the v-substituted integral.

    Substituting v = e^{lam u} freezes the oscillation to sin(b v) with the
    smooth envelope of :func:`_log_sine_envelope`, integrated from 1 (the
    envelope's one-sided limit at v = 1 is kept — weighted panels evaluate
    their endpoints).  One geometric octave at a time keeps every panel
    within the weighted rule's resolving power; a single giant interval
    would quietly converge on zero.  Returns (value, error bound), the
    error combining panel roundoff and the uncovered gamma tail.
    """
    lg = gammaln(n)
    n_log_lam = n * math.log(lam)

    def envelope(v: float) -> float:
        if v < 1.0:
            return 0.0
        le = _log_sine_envelope(v, n, lam, lg, n_log_lam)
        return math.exp(le) if le > -745.0 else 0.0

    v_peak = math.exp(min(lam * max(n - 1, 1), 700.0))
    log_peak = _log_sine_envelope(max(v_peak, 1.0 + 1e-12), n, lam, lg,
                                  n_log_lam)
    # coverage needed in u for the envelope to die under the (1-lam) decay
    u_stop = (n + 14.0 * math.sqrt(n) + 80.0) / (1.0 - lam)
    total = err = 0.0
    lo = 1.0
    u_covered = 0.0
    for _ in range(400):
        hi = 2.0 * lo
        val, e = quad(envelope, lo, hi, weight="sin", wvar=b, limit=200)
        if e > 1e3 * (abs(val) + 1e-300) and lo > v_peak:
            # the weighted rule broke down on this distant octave; keep the
            # certified part and let the tail bound own the rest
            break
        total += val
        err += e
        lo = hi
        u_covered = math.log(lo) / lam
        if lo > v_peak and (_log_sine_envelope(lo, n, lam, lg, n_log_lam)
                            - log_peak) < -60.0:
            break
        if u_covered > u_stop:
            break
    tail = math.exp(-n * math.log1p(-lam)) \
        * float(gammaincc(n, (1.0 - lam) * u_covered))
    return total, err + tail


def _saddle_tier(n: int, lam: float, b: float,
                 resolution: int = 8001) -> tuple[float, float, float]:
    """Steepest-descent evaluation through the first-strip complex saddle.

    The analytic integrand exp(h(u)) with h = (n-1) ln u - (1-lam) u
    + i b e^{lam u} has one saddle reachable from the real axis, in the
    strip 0 < lam Im(u) < pi.  Damped Newton lands on it; the integral is
    then a straight-line pass along the local descent direction.  Returns
    (value, log-magnitude, phase-sensitivity scale) — the value is the
    imaginary part, so its absolute uncertainty is the magnitude times the
    phase error.
    """

    def dh(u):
        return (n - 1) / u - (1.0 - lam) + 1j * b * lam * np.exp(lam * u)

    def d2h(u):
        return -(n - 1) / u ** 2 + 1j * b * lam * lam * np.exp(lam * u)

    def h(z):
        return (n - 1) * np.log(z) - (1.0 - lam) * z + 1j * b * np.exp(lam * z)

    start = math.log(max(n, 2) / (b * max(math.log(max(n, 3)), 1.0)))
    u = complex(start, 0.5 * math.pi) / lam
    converged = False
    for _ in range(200):
        step = dh(u) / d2h(u)
        if abs(step) > 0.5 * abs(u):
            step *= 0.5 * abs(u) / abs(step)
        u -= step
        if abs(step) < 1e-14 * abs(u):
            converged = True
            break
    if not converged or not (0.0 < lam * u.imag < math.pi) or u.real <= 0.0:
        raise QuadratureNotConverged(
            f"saddle search failed for n={n}, growth {lam}")
    curvature = d2h(u)
    angle = 0.5 * (math.pi - np.angle(curvature))
    span = 10.0 / math.sqrt(abs(curvature))
    s = np.linspace(-span, span, resolution)
    path = u + np.exp(1j * angle) * s
    rel = h(path) - h(u)
    good = np.real(rel) < 50.0  # discard any off-descent growth
    integrand = np.where(good, np.exp(np.where(good, rel, 0.0)), 0.0)
    q = np.trapezoid(integrand, s) * np.exp(1j * angle)
    log_mag_exp = float(np.real(h(u))) - float(gammaln(n)) + math.log(abs(q))
    phase = float(np.imag(h(u)) + np.angle(q))
    sine = math.sin(phase)
    value = math.exp(log_mag_exp) * sine if log_mag_exp > -700.0 else 0.0
    log_magnitude = (log_mag_exp + math.log(abs(sine))) if sine != 0.0 \
        else -math.inf
    return value, log_magnitude, math.exp(max(log_mag_exp, -745.0))


def chirped_sine_expectation(n: int, lam: float, b: float) -> ChirpedExpectation:
    """E[e^{lam U} sin(b e^{lam U})], U ~ gamma(n), for 0 < lam < 1.

    Panel quadrature first — exact accounting down to its roundoff floor,
    which it self-diagnoses through the accumulated panel error.  A value
    within :data:`ROUNDOFF_MARGIN` of that floor is re-derived through the
    complex saddle, which tracks the true (superexponentially small)
    magnitude instead of the floor.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"step count must be >= 1, got {n}")
    if not (0.0 < lam < 1.0):
        raise DivergentTransform(
            f"smeared growth requires growth*tau in (0, 1), got {lam!r}")
    if not (b > 0 and math.isfinite(b)):
        raise ValueError(f"phase parameter must be finite and > 0, got {b!r}")
    value, err = _panel_tier(n, lam, b)
    if abs(value) > ROUNDOFF_MARGIN * err:
        log_mag = math.log(abs(value)) if value != 0.0 else -math.inf
        return ChirpedExpectation(value, log_mag, err, "oscillatory-panels")
    if n < SADDLE_MIN_STEPS:
        raise QuadratureNotConverged(
            f"panel quadrature lost the value for n={n} (|{value:.2e}| vs "
            f"roundoff {err:.2e}) and the saddle asymptotics need "
            f"n >= {SADDLE_MIN_STEPS}", value=value, error=err)
    try:
        val, log_mag, mag_scale = _saddle_tier(n, lam, b)
        val2, log_mag2, _ = _saddle_tier(n, lam, b, resolution=16001)
    except QuadratureNotConverged as exc:
        raise QuadratureNotConverged(
            f"{exc}; panel tier had |{value:.2e}| vs roundoff {err:.2e}",
            value=value, error=err) from None
    spread = abs(val - val2) + abs(mag_scale) * 1e-9
    return ChirpedExpectation(val2, log_mag2, spread, "saddle-point")


def _growth_parameter(model: SensitivityModel, kernel: GammaKernel) -> float:
    lam = model.c * kernel.tau
    if lam >= 1.0:
        raise DivergentTransform(
            f"growth {model.c} times step {kernel.tau} must stay below 1 "
            f"for the smeared sensitivity to exist (got {lam})")
    return lam


def dt_sensitivity(model: SensitivityModel, kernel: GammaKernel,
                   n: int | None = None) -> ChirpedExpectation:
    """Signed smeared derivative of the trajectory in its initial value.

    The gamma-weighted average of dx/da = e^{ct} sin(b e^{ct}) / sqrt(1-a^2)
    at step count ``n`` (default: the kernel's); keeps sign, log-magnitude,
    and method so fits and cross-checks can use whichever form survives
    underflow.
    """
    n = kernel.n if n is None else int(n)
    lam = _growth_parameter(model, kernel)
    raw = chirped_sine_expectation(n, lam, model.b)
    f = model.spread_factor
    return ChirpedExpectation(f * raw.value,
                              raw.log_magnitude + math.log(f),
                              f * raw.error, raw.method)


def dt_distance(model: SensitivityModel, kernel: GammaKernel,
                n: int | None = None) -> float:
    """Magnitude of the smeared sensitivity at step ``n``.

    Stays below ``2/(b c tau sqrt(1-a^2))`` for every step count — where
    the continuous sensitivity grows without bound, the smeared one cannot.
    """
    return abs(dt_sensitivity(model, kernel, n).value)


def dt_bound(model: SensitivityModel, kernel: GammaKernel) -> float:
    """The uniform-in-n ceiling 2/(b c tau sqrt(1-a^2))."""
    return 2.0 * model.spread_factor / (model.b * model.c * kernel.tau)


def dt_lyapunov(model: SensitivityModel, kernel: GammaKernel,
                n_max: int) -> LyapunovEstimate:
    """Slope of log d_dt(n) against n*tau over the late half of 1..n_max.

    Requires ``n_max * tau * c >= 10`` (same window rule as the continuous
    fit).  Underflowed samples are dropped via the log-magnitude channel;
    the residual of the fit is always part of the result, and a residual
    beyond :data:`FIT_RESIDUAL_LIMIT` raises :class:`FitUnstable` carrying
    the estimate — a strongly curved decay has no meaningful single slope.
    """
    n_max = int(n_max)
    if not (n_max * kernel.tau * model.c >= 10.0):
        raise ValueError("window too short: need n_max * tau * c >= 10")
    _growth_parameter(model, kernel)
    ns = np.arange(max(1, n_max // 2), n_max + 1)
    logs = np.array([dt_sensitivity(model, kernel, int(n)).log_magnitude
                     for n in ns])
    return _fit_log_slope(ns * kernel.tau, logs, "smeared sensitivity")


# ---------------------------------------------------------------------------
# asymptotic maps


def power_law_map(alpha: float, kernel: GammaKernel,
                  last: int | None = None) -> np.ndarray:
    """Smeared power t^alpha at steps 1..last: tau^alpha Gamma(n+alpha)/Gamma(n).

    Needs ``alpha > -1`` for the integral to exist at the origin.  The ratio
    to the naive (n tau)^alpha tends to 1, so power-law asymptotics keep
    their exponent under time smearing.
    """
    alpha = float(alpha)
    if not (alpha > -1.0 and math.isfinite(alpha)):
        raise ValueError(f"exponent must be finite and > -1, got {alpha!r}")
    last = kernel.n if last is None else int(last)
    if last < 1:
        raise ValueError(f"need at least one step, got {last}")
    n = np.arange(1, last + 1, dtype=float)
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
    if z >= 1.0:
        raise DivergentTransform(
            f"rate {b_rate} times step {kernel.tau} reaches {z} >= 1: "
            "the smearing integral diverges")
    return -math.log1p(-z) / kernel.tau
