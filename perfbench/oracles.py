"""Independent checks of every item's output, run outside the timed section.

Closed forms are evaluated in mpmath at 40 digits, so the oracle is always
more precise than the double it judges (a float formula such as
``tau**k * exp(gammaln(n+k) - gammaln(n))`` is off by ~1e-12 at n ~ 800 and
would invent misses).  Each check returns a :class:`Verdict`:

* ``tolerance_misses``: values farther from the oracle than the fixed
  tolerance below; any miss makes the run incorrect;
* ``err_bound_misses``: values whose reported error is smaller than
  ``|value - oracle|`` (counted, reported, never hidden; they do not make
  the run incorrect);
* ``problems``: any other broken contract (exit code, stderr, payload
  shape, a bound the theory guarantees).
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import mpmath as mp

mp.mp.dps = 40

# |value - oracle| <= TOL_REL * |oracle| + TOL_ABS for every quadrature
# value.  The library targets 1e-10 relative (absolute floor 1e-13); the
# tolerance leaves that headroom and still catches lost digits.
TOL_REL = 1e-9
TOL_ABS = 1e-10
# quadrature moments against their closed forms, and the equivalence
# check's own deviation
TOL_REPORT = 1e-9
# Monte Carlo estimates: within this many standard errors of the oracle
MC_SIGMAS = 6.0
# closed-form CLI payloads against mpmath: relative, with an absolute floor
TOL_CLOSED = 1e-12

# SI constants of dtmech's si-planck preset
HBAR_SI = mp.mpf("1.054571817e-34")
TAU_SI = mp.mpf("5.4e-44")
EV = mp.mpf("1.602176634e-19")
YEAR = mp.mpf("3.15576e7")


@dataclass
class Verdict:
    checked: int = 0
    tolerance_misses: int = 0
    err_bound_misses: int = 0
    problems: list = field(default_factory=list)

    def value(self, got, want, err=None, rel=TOL_REL, abs_=TOL_ABS):
        """Judge one returned number (real, complex or [re, im])."""
        self.checked += 1
        if isinstance(got, (list, tuple)):
            got = complex(got[0], got[1])
        if isinstance(got, str) or not _finite(got):
            self.tolerance_misses += 1
            return
        gap = abs(mp.mpc(got) - want)
        if gap > rel * abs(want) + abs_:
            self.tolerance_misses += 1
        if err is not None and gap > err:
            self.err_bound_misses += 1

    def require(self, condition: bool, what: str):
        if not condition:
            self.problems.append(what)

    def merge(self, other: "Verdict"):
        self.checked += other.checked
        self.tolerance_misses += other.tolerance_misses
        self.err_bound_misses += other.err_bound_misses
        self.problems += other.problems


def _finite(x) -> bool:
    x = complex(x)
    return math.isfinite(x.real) and math.isfinite(x.imag)


def transform_exact(signal: str, param, n: int, tau: float):
    """Closed form of the gamma(n) smearing of the named signal."""
    t = mp.mpf(tau)
    if signal in ("cos", "cexp"):
        z = (1 - 1j * mp.mpf(param) * t) ** (-n)
        return mp.re(z) if signal == "cos" else z
    if signal == "poly":
        k = int(param)
        return t ** k * mp.rf(n, k)
    if signal == "exp":
        return (1 - mp.mpf(param) * t) ** (-n)
    raise ValueError(signal)


# ---------------------------------------------------------------------------
# library items


def check_item(item: dict, out: dict, dtmech) -> Verdict:
    v = Verdict()
    kind = item["kind"]
    if kind == "transform":
        want = transform_exact(item["signal"], item["param"], item["n"],
                               item["tau"])
        v.value(out["v"], want, out["e"])
    elif kind == "dt_sensitivity":
        model = dtmech.SensitivityModel(item["a"], item["c"])
        bound = dtmech.dt_bound(model, dtmech.GammaKernel(1, item["tau"]))
        v.checked += 1
        v.require(_finite(out["v"]) and abs(out["v"]) <= bound,
                  f"dt_sensitivity n={item['n']}: |{out['v']}| > bound {bound}")
    elif kind == "chirped":
        v.value(out["v"], mp.mpf(item["want"]), rel=item["rel"], abs_=0.0)
        bound = 2.0 / (item["b"] * item["lam"])
        v.require(abs(out["v"]) <= bound,
                  f"chirped n={item['n']}: |{out['v']}| > bound {bound}")
    elif kind == "moments":
        _check_moments(v, item, out, dtmech)
    elif kind == "equivalence":
        v.checked += 1
        if not (_finite(out["v"]) and out["v"] <= TOL_REPORT):
            v.tolerance_misses += 1
    else:
        raise ValueError(kind)
    return v


def _check_moments(v: Verdict, item: dict, out: dict, dtmech) -> None:
    import numpy as np

    state = dtmech.PhaseState(np.array(item["x"]), np.array(item["p"]),
                              np.array(item["m"]))
    kernel = dtmech.GammaKernel(item["steps"], item["tau"])
    closed = (dtmech.sho_moments if item["model"] == "oscillator"
              else dtmech.free_particle_moments)(state, kernel)
    for key, want in (("mx", closed.mean_positions),
                      ("mp", closed.mean_momenta),
                      ("sx", closed.second_positions),
                      ("sp", closed.second_momenta),
                      ("en", closed.energy)):
        got = np.asarray(out[key], dtype=float)
        v.checked += got.size
        if got.shape != want.shape:
            v.problems.append(f"moments {key}: shape {got.shape}")
            continue
        bad = ~(np.abs(got - want) <= TOL_REPORT * np.maximum(1.0, np.abs(want)))
        v.tolerance_misses += int(bad.sum())


# ---------------------------------------------------------------------------
# CLI items


def parse_report(text: str, fmt: str):
    """(meta, columns, rows) of a CSV or JSON report; rows hold raw cells."""
    if fmt == "json":
        doc = json.loads(text)
        data = doc["data"]
        if "columns" in data:
            return doc["meta"], data["columns"], data["rows"]
        return doc["meta"], None, data
    meta_lines, body = [], []
    for line in text.split("\r\n"):
        if line.startswith("# "):
            meta_lines.append(line[2:])
        elif line:
            body.append(line)
    table = list(csv.reader(io.StringIO("\n".join(body))))
    return json.loads("".join(meta_lines)), table[0], table[1:]


def _num(cell):
    if isinstance(cell, (int, float)):
        return cell
    if isinstance(cell, dict):
        return complex(cell["re"], cell["im"])
    return float(cell)


def _flag(cell) -> bool:
    return cell is True or cell == "true"


def _closed(v: Verdict, got, want, abs_=1e-13):
    v.value(_num(got), want, rel=TOL_CLOSED, abs_=abs_)


def check_cli(item: dict, out: dict, dtmech, coeffs_of) -> Verdict:
    v = Verdict()
    kind = item["cli"]
    code, stdout, stderr = out["code"], out["stdout"], out["stderr"]
    v.require(code == item["expect"],
              f"cli {kind}: exit {code}, expected {item['expect']}")
    if item["expect"] != 0:
        lines = stderr.splitlines()
        v.require(stdout == "" and len(lines) == 1
                  and lines[0].startswith("ConfigError: "),
                  f"cli {kind}: stderr {stderr!r}")
        v.checked += 1
        return v
    v.require(stderr == "", f"cli {kind}: unexpected stderr {stderr!r}")
    if code != 0:
        return v
    text = stdout
    if item["output"]:
        v.require(stdout == "" and "file" in out,
                  f"cli {kind}: --output left stdout {stdout[:80]!r}")
        text = out.get("file", "")
    try:
        meta, _columns, rows = parse_report(text, item["format"])
        _check_payload(v, item, meta, rows, dtmech, coeffs_of)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        v.problems.append(f"cli {kind}: unreadable payload ({exc!r})")
    return v


def _check_payload(v: Verdict, item: dict, meta: dict, rows, dtmech,
                   coeffs_of) -> None:
    kind = item["cli"]
    args = _argmap(item["argv"])
    if kind == "td":
        gaps = [mp.mpf(g[:-3]) * mp.mpf("1e-3") * EV
                for g in _all(item["argv"], "--delta-e")]
        v.require(len(rows) == len(gaps), "td: row count")
        for row, gap in zip(rows, gaps):
            z = TAU_SI * gap / HBAR_SI
            t_d = 2 * TAU_SI / mp.log1p(z * z)
            # SI magnitudes span 1e-21 J to 1e30 s: relative only
            _closed(v, row[0], gap, abs_=0.0)
            _closed(v, row[1], t_d, abs_=0.0)
            _closed(v, row[2], t_d / YEAR, abs_=0.0)
            v.require(_flag(row[3]) == bool(t_d > mp.mpf("1e10") * YEAR),
                      "td: horizon flag")
    elif kind == "defect":
        gap = mp.mpf(args["--delta-e"])
        v.require(len(rows) == 30, "defect: row count")
        for row in rows:
            n = int(_num(row[0]))
            _closed(v, row[2], n * mp.log1p(gap * gap) / 2)
    elif kind == "evolve":
        doc = rows
        n = int(args["--n"])
        e = item["state"]["energies"]
        a = coeffs_of(item)
        d = len(e)
        for i in range(d):
            for j in range(d):
                want = complex(a[i, j]) * (1 + 1j * (mp.mpf(e[i]) - mp.mpf(e[j]))) ** (-n)
                got = complex(doc["re"][i][j], doc["im"][i][j])
                v.value(got, want, rel=1e-12, abs_=1e-15)
    elif kind == "classical":
        _check_classical_cli(v, args, rows)
    elif kind == "transform":
        tau = float(args["--tau"])
        sig = args["--signal"]
        param = float(args["--omega"]) if sig != "poly" else int(args["--degree"])
        v.require(len(rows) == 20, "transform: row count")
        for row in rows:
            n = int(_num(row[0]))
            want = transform_exact(sig, param, n, tau)
            if sig == "cexp":
                got, err = complex(_num(row[1]), _num(row[2])), _num(row[3])
            else:
                got, err = _num(row[1]), _num(row[2])
            v.value(got, want, err)
    elif kind == "mc":
        tau, omega = float(args["--tau"]), float(args["--omega"])
        v.require(len(rows) == 5, "mc: row count")
        for row in rows:
            n = int(_num(row[0]))
            want = transform_exact("cos", omega, n, tau)
            v.value(_num(row[1]), want, rel=0.0,
                    abs_=MC_SIGMAS * _num(row[2]))
    elif kind == "chaos_ct":
        a = mp.mpf(args["--a"])
        b = mp.acos(a)
        spread = 1 / mp.sqrt(1 - a * a)
        v.require(len(rows) == 200, "chaos ct: row count")
        for row in rows:
            t = mp.mpf(_num(row[0]))
            growth = mp.exp(t)
            want = spread * abs(mp.sin(b * growth)) * growth
            # the phase b e^t reaches ~1e6 rad: judge against the envelope
            v.value(_num(row[1]), want, rel=0.0, abs_=1e-9 * spread * growth)
            v.require(row[2] not in (None, ""), "chaos ct: fitted line")
        fit = meta.get("fit", {})
        v.require(abs(fit.get("exponent", 0.0) - 1.0) < 0.05,
                  f"chaos ct: fitted exponent {fit.get('exponent')}")
    elif kind == "alpha_scan":
        for row in rows:
            alpha, n = _num(row[0]), int(_num(row[1]))
            al = mp.mpf(alpha)
            _closed(v, row[2], (-al / (1 - al)) ** n)
            scheme = dtmech.StepScheme(alpha)
            probe = dtmech.advection_negativity_probe(
                scheme, dtmech.GammaKernel(n, 1.0), 0.05, 64.0, 16384)
            v.value(_num(row[3]), mp.mpf(probe.min_value), rel=1e-12,
                    abs_=1e-15)
            if alpha == 0.0:
                v.require(_num(row[3]) >= -1e-9 * probe.peak_value,
                          "alpha-scan: backward scheme went negative")
        v.require(len(rows) == 12, "alpha-scan: row count")
    else:
        raise ValueError(kind)


def _argmap(argv: list) -> dict:
    out = {}
    for i, token in enumerate(argv):
        if "=" in token:
            flag, value = token.split("=", 1)
            out[flag] = value
        elif token.startswith("--") and i + 1 < len(argv):
            out[token] = argv[i + 1]
    return out


def _all(argv: list, flag: str) -> list:
    return [argv[i + 1] for i in range(len(argv) - 1) if argv[i] == flag]


def _check_classical_cli(v: Verdict, args: dict, rows: list) -> None:
    x = [mp.mpf(s) for s in args["--x"].split(",")]
    p = [mp.mpf(s) for s in args["--p"].split(",")]
    tau = mp.mpf(args["--tau"])
    dof = len(x)
    free = args["--model"] == "free"
    m = [mp.mpf(s) for s in args["--mass"].split(",")] if free else [1] * dof
    if free:
        energy = sum(p[i] ** 2 / (2 * m[i]) for i in range(dof))
    else:
        energy = sum(x[i] ** 2 + p[i] ** 2 for i in range(dof)) / 2
    v.require(len(rows) == 51 * (2 * dof + dof * (dof + 1) + 1),
              "classical: row count")
    for row in rows:
        n = int(_num(row[0]))
        moment = row[3]
        i = None if row[1] in (None, "") else int(_num(row[1]))
        j = None if row[2] in (None, "") else int(_num(row[2]))
        if moment == "energy":
            want = energy
        elif free:
            def mx(k):
                return x[k] + p[k] * n * tau / m[k]
            if moment == "mean_x":
                want = mx(i)
            elif moment == "mean_p":
                want = p[i]
            elif moment == "second_x":
                want = mx(i) * mx(j) + n * tau * tau * p[i] * p[j] / (m[i] * m[j])
            else:
                want = p[i] * p[j]
        else:
            # E over gamma(n) of r sin(tau U + theta) = Im(e^{i theta}(1 - i tau)^-n)
            def phasor(k, scale):
                return (p[k] + 1j * x[k]) * (1 - 1j * scale * tau) ** (-n)
            if moment == "mean_x":
                want = mp.im(phasor(i, 1))
            elif moment == "mean_p":
                want = mp.re(phasor(i, 1))
            else:
                # x_i x_j = (1/2)[Re(z_i conj z_j) - Re(z_i z_j e^{2it})] with
                # z = p + i x; the rotating part smears with (1 - 2 i tau)^-n
                zi, zj = p[i] + 1j * x[i], p[j] + 1j * x[j]
                static = mp.re(zi * mp.conj(zj))
                rot = mp.re(zi * zj * (1 - 2j * tau) ** (-n))
                want = (static - rot) / 2 if moment == "second_x" \
                    else (static + rot) / 2
        _closed(v, row[4], want)
