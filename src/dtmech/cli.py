"""Command-line interface to the discrete-evolution toolkit.

Subcommands map onto the library's functional areas:

* ``transform`` — smear a time signal over the internal-time distribution
  (quadrature or seeded Monte Carlo; either route gives one
  ``TransformResult`` per step count, rendered alike);
* ``classical`` — moment reports for free particles and oscillator chains,
  by closed form or through the quadrature route;
* ``quantum td|evolve|equivalence|defect`` — decoherence times, density
  matrix evolution, cross-route agreement, and the per-step defect;
* ``chaos ct|dt`` — sensitivity curves and growth-rate fits for the
  chaotic benchmark map, continuous and discrete;
* ``alpha-scan`` — delta remnants and negativity minima across mixed
  stepping schemes.

Each leaf command is declared once, by ``_leaf``: its words, its handler
and the flags every leaf shares (``--output``, ``--format``, ``--config``,
and ``--preset`` on the quantum leaves).

Exit codes: 0 on success, 2 for configuration problems (bad flags, bad
files, invalid physics inputs), 3 when a numerical method honestly fails
(quadrature breakdown, unstable fit, divergent transform).  Every failure
prints exactly one ``ErrorName: message`` line on stderr.

Determinism: the payload (CSV rows / JSON ``data``) is a pure function of
the configuration.  The one random route, ``transform --method
monte-carlo``, is also the one command with ``--seed`` and ``--threads``:
it derives an independent generator per step count from ``(seed, n)`` and
spreads the step counts over at most ``--threads`` worker threads, so
results are identical for any ``--threads`` value, byte for byte.
Metadata (timestamp and friends) lives only in the ``#`` preamble /
``meta`` key and never touches payload bytes.

Configuration files: ``--config FILE`` holds a JSON object keyed by the
command's flag names (dashes or underscores).  Each entry joins the command
line as a ``--flag=value`` token ahead of the given flags, which therefore
win, and passes the flag's own checks.  A switch (``--no-fit``) takes
``true`` or ``false``, a repeatable flag (``--delta-e``) a string, a number
or a list of them (its items come first), and any other flag one string or
number; another value or an unknown key is a configuration error.

Units: with ``--preset si-planck``, energies require an explicit suffix
(``meV``, ``eV``, ``J``) and time horizons require ``s`` or ``yr`` — bare
dimensioned numbers are rejected.  With the default natural-units preset,
inputs are bare numbers and unit suffixes are rejected instead.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .classical import (FreeParticle, HarmonicOscillator, PhaseState,
                        free_particle_moments, quadrature_moments,
                        sho_moments_scaled)
from .errors import NumericalError
from .kernel import (DEFAULT_ERROR_TARGET, FIRST_NODE_COUNT, GammaKernel,
                     QuadratureRule, StepScheme, _positive, _step_count,
                     advection_negativity_probe,
                     complex_exponential_signal, constant_signal,
                     cosine_signal, exponential_signal, monomial_signal,
                     scheme_delta_coefficient, tabulated_signal,
                     transform_monte_carlo, transform_quadrature)
from .nonlinear import (SensitivityModel, _dt_window_fit, ct_distance,
                        ct_lyapunov, dt_sensitivity)
from .quantum import (ELECTRON_VOLT, NATURAL, SECONDS_PER_YEAR, SI_PLANCK,
                      DensityMatrix, decoherence_time, evolve_density,
                      gamma_equivalence_check, project_density,
                      schroedinger_defect)
from .report import build_meta, render_csv, render_json, write_report


class ConfigError(ValueError):
    """Bad flags, files, or parameter combinations; exits with code 2."""


class _Parser(argparse.ArgumentParser):
    """Parser that reports usage problems as ConfigError (one line, exit 2).
    Long flags must be spelled out: an abbreviation such as ``--conf`` for
    ``--config`` is refused, never read as the flag it abbreviates."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


_PRESETS = {"natural": NATURAL, "si-planck": SI_PLANCK}
_UNITS = {
    "energy": {"meV": 1e-3 * ELECTRON_VOLT, "eV": ELECTRON_VOLT, "J": 1.0},
    "time": {"s": 1.0, "yr": SECONDS_PER_YEAR},
}
_NUMBER_UNIT = re.compile(
    r"\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*([A-Za-z]*)\s*$")


def _parse_quantity(text: str, what: str, si: bool) -> float:
    """``what`` ("energy" or "time"): a bare number in natural units, a
    number with a suffix from its :data:`_UNITS` table in SI; refused if it
    overflows a double, as written or once scaled by its unit."""
    m = _NUMBER_UNIT.match(text)
    if not m:
        raise ConfigError(f"cannot parse {what} {text!r}")
    value, unit = float(m.group(1)), m.group(2)
    units = _UNITS[what]
    if si:
        names = ", ".join(units)
        if not unit:
            raise ConfigError(f"{what} {text!r} needs a unit suffix ({names}) "
                              "with --preset si-planck")
        if unit not in units:
            raise ConfigError(f"unknown {what} unit {unit!r} in {text!r} "
                              f"(use {names})")
        value *= units[unit]
    elif unit:
        raise ConfigError(f"unit suffix {unit!r} in {text!r} is only "
                          "accepted with --preset si-planck")
    if not np.isfinite(value):
        raise ConfigError(f"{what} {text!r} overflows a double")
    return value


def _float_list(text: str, flag: str) -> np.ndarray:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"{flag}: expected comma-separated numbers, "
                          f"got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag}: no values given")
    return np.asarray(values)


def _step_list(args) -> list[int]:
    """The step counts of --n or --n-range (argparse requires exactly one)."""
    if args.n is not None:
        return [args.n]
    m = re.fullmatch(r"\s*(\d+)\s*:\s*(\d+)\s*", args.n_range)
    if not m:
        raise ConfigError(f"bad --n-range {args.n_range!r}; expected LO:HI")
    lo, hi = int(m.group(1)), int(m.group(2))
    if hi < lo:
        raise ConfigError(f"empty --n-range {args.n_range!r}")
    return list(range(lo, hi + 1))


def _constants(args):
    return _PRESETS[args.preset], args.preset == "si-planck"


# ---------------------------------------------------------------------------
# signal construction (transform)


def _read_table(path: str):
    """Tabulated signal from a two-column CSV (optional header line)."""
    import csv as _csv
    with open(path, newline="") as handle:
        raw = [row for row in _csv.reader(handle)
               if row and not row[0].lstrip().startswith("#")]
    if not raw:
        raise ConfigError(f"{path}: no data rows")
    start = 0
    try:
        float(raw[0][0])
    except (ValueError, IndexError):
        start = 1  # header line
    data = []
    for row in raw[start:]:
        if len(row) < 2:
            raise ConfigError(f"{path}: rows need two columns (t, value)")
        data.append((float(row[0]), float(row[1])))
    if not data:
        raise ConfigError(f"{path}: no data rows after the header")
    arr = np.asarray(data)
    return tabulated_signal(arr[:, 0], arr[:, 1])


def _build_signal(args):
    kind = args.signal
    if kind == "table":
        if args.table is None:
            raise ConfigError("--table is required with --signal table")
        return _read_table(args.table)
    if kind == "const":
        return constant_signal(args.value)
    if kind == "poly":
        return monomial_signal(args.degree)
    if kind == "cos":
        return cosine_signal(args.omega)
    if kind == "cexp":
        return complex_exponential_signal(args.omega)
    return exponential_signal(args.rate, args.value)  # "exp", the last choice


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, extra_meta)


def _cmd_transform(args):
    signal = _build_signal(args)
    steps = _step_list(args)
    tau = args.tau

    if args.method == "monte-carlo":
        if args.seed is None:
            # draw one, and surface it in the metadata for reruns
            args.seed = int.from_bytes(os.urandom(8), "big")

        def one(n):
            return transform_monte_carlo(signal, GammaKernel(n, tau),
                                         args.samples, (args.seed, n))

        # each step count draws from its own generator, so the rows do not
        # depend on how many threads share them
        workers = min(args.threads, len(steps), os.cpu_count() or 1)
    else:
        def one(n):
            kern = GammaKernel(n, tau)
            return transform_quadrature(
                signal, kern, QuadratureRule.for_kernel(kern, args.error_target))

        workers = 1
    if workers == 1:
        results = [one(n) for n in steps]
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, steps))

    cexp = args.signal == "cexp"  # the one complex signal: split columns
    values = ["value_re", "value_im"] if cexp else ["value"]
    rows = [[n, *([r.value.real, r.value.imag] if cexp else [r.value]),
             r.error, r.node_count, r.method] for n, r in zip(steps, results)]
    return {"columns": ["n", *values, "error", "evaluations", "method"],
            "rows": rows}, {}


def _cmd_classical(args):
    positions = _float_list(args.x, "--x")
    momenta = _float_list(args.p, "--p")
    if args.mass is None:
        masses = np.ones(positions.size)
    else:
        masses = _float_list(args.mass, "--mass")
    state = PhaseState(positions, momenta, masses)
    kern = GammaKernel(args.n, args.tau)

    if args.model == "free":
        if args.route == "closed":
            report = free_particle_moments(state, kern)
        else:
            report = quadrature_moments(FreeParticle(), state, kern)
    else:
        if args.route == "closed":
            report = sho_moments_scaled(state, kern, omega=args.omega)
        else:
            if args.omega != 1.0:
                raise ConfigError("the quadrature route supports omega = 1 "
                                  "only; use --route closed for scaled "
                                  "oscillators")
            report = quadrature_moments(HarmonicOscillator(), state, kern)

    columns = ["n", "i", "j", "moment", "value"]
    rows = list(report.rows())
    return {"columns": columns, "rows": rows}, {"source": report.source}


def _read_density(path: str, repair: bool) -> DensityMatrix:
    """Load a density matrix from JSON: energies[], re[][], im[][].

    Accepts either the bare object or a full report document with the
    object under ``data``.
    """
    with open(path) as handle:
        doc = json.load(handle)
    if isinstance(doc, dict) and "data" in doc and isinstance(doc["data"], dict):
        doc = doc["data"]
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object with "
                          "energies/re/im")
    fields = []
    for name in ("energies", "re", "im"):
        if name not in doc:
            raise ConfigError(f"{path}: missing field {name!r}")
        try:
            fields.append(np.asarray(doc[name], dtype=float))
        except (TypeError, ValueError):
            raise ConfigError(f"{path}: field {name!r} is not an array of "
                              "numbers") from None
    energies, real, imag = fields
    coeffs = real + 1j * imag
    if repair:
        return project_density(energies, coeffs)
    return DensityMatrix(energies, coeffs)


def _density_document(dm: DensityMatrix) -> dict:
    return {"energies": dm.energies, "re": dm.coeffs.real,
            "im": dm.coeffs.imag}


def _cmd_quantum_td(args):
    consts, si = _constants(args)
    gaps = [_parse_quantity(text, "energy", si) for text in args.delta_e]
    horizon_text = args.horizon
    if si:
        # SI always compares against a horizon, by default the 1e10 years
        columns = ["delta_e_joules", "t_d_seconds", "t_d_years",
                   "exceeds_1e10_years" if horizon_text is None
                   else "exceeds_horizon"]
        horizon_text = horizon_text or "1e10yr"
    else:
        columns = ["delta_e", "t_d"]
        if horizon_text is not None:
            columns.append("exceeds_horizon")
    horizon = (None if horizon_text is None
               else _parse_quantity(horizon_text, "time", si))
    rows = []
    for gap in gaps:
        t_d = float(decoherence_time(gap, consts))
        row = [gap, t_d, t_d / SECONDS_PER_YEAR] if si else [gap, t_d]
        if horizon is not None:
            row.append(t_d > horizon)
        rows.append(row)
    return {"columns": columns, "rows": rows}, {}


def _cmd_quantum_evolve(args):
    consts, _ = _constants(args)
    dm = _read_density(args.state, args.repair)
    evolved = evolve_density(dm, args.n, consts)
    extra = {"dim": evolved.dim, "purity": evolved.purity()}
    return {"document": _density_document(evolved)}, extra


def _cmd_quantum_equivalence(args):
    consts, _ = _constants(args)
    dm = _read_density(args.state, args.repair)
    rows = [[n, gamma_equivalence_check(dm, n, consts)]
            for n in _step_list(args)]
    return ({"columns": ["n", "max_deviation"], "rows": rows},
            {"dim": dm.dim})


def _cmd_quantum_defect(args):
    consts, si = _constants(args)
    gaps = [_parse_quantity(text, "energy", si) for text in args.delta_e]
    rows = [[n, gap, float(schroedinger_defect(n, gap, consts))]
            for gap in gaps for n in _step_list(args)]
    return {"columns": ["n", "delta_e", "defect"], "rows": rows}, {}


def _fit_meta(est) -> dict:
    return {"exponent": est.exponent, "intercept": est.intercept,
            "window": list(est.window), "residual": est.residual,
            "samples": est.samples}


def _sensitivity_curve(x, distances, est, step=1.0):
    """Rows ``[x, distance, fitted_line]`` over the array ``x`` (times or
    step counts) and the meta; with a fit ``est``, the line is
    ``exp(intercept + exponent * x * step)`` and the fit goes to
    ``meta.fit``, else the line is empty."""
    extra, line = {}, [None] * len(x)
    if est is not None:
        extra["fit"] = _fit_meta(est)
        line = np.exp(est.intercept + est.exponent * x * step).tolist()
    rows = [[xi, float(d), f] for xi, d, f in zip(x.tolist(), distances, line)]
    return ({"columns": ["n_or_t", "distance", "fitted_line"], "rows": rows},
            extra)


def _cmd_chaos_ct(args):
    model = SensitivityModel(args.a, args.c)
    t_max = _positive("--t-max", args.t_max)
    grid = np.linspace(0.0, t_max, _step_count(args.grid, 1, "--grid"))
    distances = ct_distance(model, grid)
    est = None if args.no_fit else ct_lyapunov(model, t_max)
    return _sensitivity_curve(grid, distances, est)


def _cmd_chaos_dt(args):
    model = SensitivityModel(args.a, args.c)
    tau, n_max = args.tau, _step_count(args.n_max, 1, "--n-max")
    steps = np.arange(1, n_max + 1)
    sens = [dt_sensitivity(model, GammaKernel(int(n), tau)) for n in steps]
    # dt_lyapunov's fit, read from the table's own late half
    est = None if args.no_fit else _dt_window_fit(
        model, GammaKernel(n_max, tau), lambda n: sens[n - 1].log_magnitude)
    return _sensitivity_curve(steps, [abs(r.value) for r in sens], est, tau)


def _cmd_alpha_scan(args):
    alphas = _float_list(args.alphas, "--alphas")
    n_max = _step_count(args.n_max, 1, "--n-max")
    rows = []
    for alpha in alphas:
        scheme = StepScheme(alpha)
        for n in range(1, n_max + 1):
            kern = GammaKernel(n, args.tau)
            delta = scheme_delta_coefficient(scheme, n)
            probe = advection_negativity_probe(scheme, kern, args.sigma,
                                               args.length, args.points)
            rows.append([alpha, n, delta, probe.min_value])
    return ({"columns": ["alpha", "n", "delta_coeff", "grid_min"],
             "rows": rows}, {})


# ---------------------------------------------------------------------------
# parser assembly and config files


def _count(minimum: int):
    """The type of a count flag: an integer >= ``minimum``, refused as the
    flag is read (its ``--config`` entry too)."""
    def parse(text: str) -> int:
        if not text.strip().isdecimal() or int(text) < minimum:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {minimum}, got {text!r}")
        return int(text)
    return parse


def _target(text: str) -> float:
    """``--error-target``: finite and > 0, refused as the flag is read."""
    try:
        return _positive("error target", float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be finite and > 0, got {text!r}") from None


def _add_step_flags(parser):
    steps = parser.add_mutually_exclusive_group(required=True)
    steps.add_argument("--n", type=int, default=None,
                       help="single step count")
    steps.add_argument("--n-range", metavar="LO:HI", default=None,
                       help="inclusive range of step counts")


def _leaf(subs, leaves, path: str, handler, help: str, preset: bool = False,
          **defaults) -> _Parser:
    """Declare the leaf command ``path`` (such as ``"quantum td"``) under
    ``subs``, with the flags every leaf shares, and append it to ``leaves``;
    ``defaults`` are the leaf's own ``set_defaults``."""
    leaf = subs.add_parser(path.split()[-1], help=help)
    leaf.add_argument("--output", metavar="PATH", default=None,
                      help="write the report here (atomic); default stdout")
    leaf.add_argument("--format", choices=("csv", "json"), default="csv",
                      help="report format (default csv)")
    leaf.add_argument("--config", metavar="PATH", default=None,
                      help="JSON object of flag values; flags override")
    if preset:
        leaf.add_argument("--preset", choices=sorted(_PRESETS),
                          default="natural",
                          help="constants: natural (hbar=tau=1) or si-planck")
    leaf.set_defaults(handler=handler, command_path=path, **defaults)
    leaves.append(leaf)
    return leaf


def build_parser() -> tuple[_Parser, list]:
    parser = _Parser(prog="dtmech",
                     description="discrete-evolution toolkit command line")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True,
                                 metavar="COMMAND")
    leaves = []

    t = _leaf(subs, leaves, "transform", _cmd_transform,
              "smear a time signal over internal time")
    t.add_argument("--signal", choices=("const", "poly", "cos", "cexp",
                                        "exp", "table"), required=True,
                   help="signal family")
    t.add_argument("--value", type=float, default=1.0,
                   help="amplitude for const/exp (default 1)")
    t.add_argument("--degree", type=int, default=1,
                   help="power for poly (default 1)")
    t.add_argument("--omega", type=float, default=1.0,
                   help="frequency for cos/cexp (default 1)")
    t.add_argument("--rate", type=float, default=0.0,
                   help="growth rate for exp (default 0)")
    t.add_argument("--table", metavar="PATH", default=None,
                   help="two-column CSV (t, value) for table")
    _add_step_flags(t)
    t.add_argument("--tau", type=float, default=1.0,
                   help="time quantum (default 1)")
    t.add_argument("--method", choices=("quadrature", "monte-carlo"),
                   default="quadrature")
    t.add_argument("--samples", type=_count(2), default=100_000,
                   help="Monte Carlo sample count (default 100000)")
    t.add_argument("--seed", type=int, default=None,
                   help="Monte Carlo seed (default: drawn, and recorded in "
                        "the metadata)")
    t.add_argument("--threads", type=_count(1), default=1,
                   help="Monte Carlo worker threads (default 1), at most one "
                        "per CPU and per step count; payloads do not depend "
                        "on it")
    t.add_argument("--error-target", type=_target,
                   default=DEFAULT_ERROR_TARGET,
                   help=f"relative quadrature target (default "
                        f"{DEFAULT_ERROR_TARGET:g}); node doubling always "
                        f"starts at {FIRST_NODE_COUNT} nodes")

    c = _leaf(subs, leaves, "classical", _cmd_classical,
              "moment report for a classical system")
    c.add_argument("--model", choices=("free", "oscillator"), default="free")
    c.add_argument("--route", choices=("closed", "quadrature"),
                   default="closed")
    c.add_argument("--x", required=True, help="comma-separated positions")
    c.add_argument("--p", required=True, help="comma-separated momenta")
    c.add_argument("--mass", default=None,
                   help="comma-separated masses (default all 1)")
    c.add_argument("--omega", type=float, default=1.0,
                   help="common oscillator frequency (default 1)")
    c.add_argument("--n", type=int, required=True,
                   help="report steps 0..n")
    c.add_argument("--tau", type=float, default=1.0)

    q = subs.add_parser("quantum", help="density-matrix commands")
    qsubs = q.add_subparsers(dest="action", required=True, metavar="ACTION")

    td = _leaf(qsubs, leaves, "quantum td", _cmd_quantum_td,
               "decoherence times for energy gaps", preset=True)
    td.add_argument("--delta-e", action="append", metavar="ENERGY",
                    required=True,
                    help="energy gap; repeatable; needs meV/eV/J in SI mode")
    td.add_argument("--horizon", metavar="TIME", default=None,
                    help="custom comparison horizon (s/yr in SI mode); "
                         "default 1e10yr in SI")

    ev = _leaf(qsubs, leaves, "quantum evolve", _cmd_quantum_evolve,
               "evolve a density matrix n steps", preset=True, format="json")
    ev.add_argument("--state", metavar="PATH", required=True,
                    help="JSON file: energies[], re[][], im[][]")
    ev.add_argument("--n", type=int, required=True, help="step count")
    ev.add_argument("--repair", action="store_true",
                    help="project an almost-valid state instead of rejecting")

    eq = _leaf(qsubs, leaves, "quantum equivalence", _cmd_quantum_equivalence,
               "discrete vs smeared-continuous agreement", preset=True)
    eq.add_argument("--state", metavar="PATH", required=True)
    eq.add_argument("--repair", action="store_true")
    _add_step_flags(eq)

    df = _leaf(qsubs, leaves, "quantum defect", _cmd_quantum_defect,
               "per-step deviation from unitary evolution", preset=True)
    df.add_argument("--delta-e", action="append", metavar="ENERGY",
                    required=True)
    _add_step_flags(df)

    ch = subs.add_parser("chaos", help="sensitivity growth benchmarks")
    chsubs = ch.add_subparsers(dest="action", required=True, metavar="ACTION")

    ct = _leaf(chsubs, leaves, "chaos ct", _cmd_chaos_ct,
               "continuous-time sensitivity curve and fit")
    ct.add_argument("--a", type=float, required=True,
                    help="map parameter in (-1, 1)")
    ct.add_argument("--c", type=float, default=1.0, help="growth rate")
    ct.add_argument("--t-max", type=float, required=True)
    ct.add_argument("--grid", type=int, default=400,
                    help="output samples (default 400); the fit takes "
                         "its own 1200 over the late half")
    ct.add_argument("--no-fit", action="store_true",
                    help="emit the curve without a growth-rate fit")

    dt = _leaf(chsubs, leaves, "chaos dt", _cmd_chaos_dt,
               "discrete-time sensitivity curve and fit")
    dt.add_argument("--a", type=float, required=True)
    dt.add_argument("--c", type=float, default=1.0)
    dt.add_argument("--tau", type=float, required=True)
    dt.add_argument("--n-max", type=int, required=True)
    dt.add_argument("--no-fit", action="store_true")

    al = _leaf(subs, leaves, "alpha-scan", _cmd_alpha_scan,
               "delta remnant and negativity across schemes")
    al.add_argument("--alphas", default="0,0.25,0.5,0.75",
                    help="comma-separated forward weights in [0, 1)")
    al.add_argument("--n-max", type=int, default=6)
    al.add_argument("--tau", type=float, default=1.0)
    al.add_argument("--sigma", type=float, default=0.05,
                    help="probe profile width (default 0.05)")
    al.add_argument("--length", type=float, default=64.0,
                    help="periodic domain length (default 64)")
    al.add_argument("--points", type=int, default=16384,
                    help="grid points, power of two (default 16384)")

    return parser, leaves


def _with_config(argv: list[str], leaves: list) -> list[str]:
    """``argv`` with the ``--config`` file's entries as ``--flag=value``
    tokens (so ``"-0.5,0.2"`` is not read as a flag) right after the command
    words, where the command line's own flags override them."""
    path = None
    for token, following in zip(argv, argv[1:] + [None]):
        if token == "--config":
            path = following
        elif token.startswith("--config="):
            path = token.partition("=")[2]
    if path is None:
        return argv
    words = list(itertools.takewhile(lambda t: not t.startswith("-"), argv))
    for leaf in leaves:
        command = leaf.get_default("command_path").split()
        if words[:len(command)] == command:
            break
    else:
        return argv  # argparse names the missing or unknown command
    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    actions = {action.dest: action for action in leaf._actions
               if action.dest not in ("help", "config")}
    tokens = []
    for key, value in doc.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"unknown config key {key!r} for "
                              f"{' '.join(command)}")
        flag = action.option_strings[0]
        if action.nargs == 0:  # a switch
            rule, valid = "true or false", isinstance(value, bool)
            items = [flag] * (value is True)
        else:
            repeatable = isinstance(action, argparse._AppendAction)
            rule = ("a string, a number or a list of them" if repeatable
                    else "one string or number")
            values = value if repeatable and isinstance(value, list) else [value]
            valid = all(type(v) in (str, int, float) for v in values)  # no bool
            items = [f"{flag}={v}" for v in values]
        if not valid:
            raise ConfigError(f"config {key!r}: {flag} takes {rule}, "
                              f"got {json.dumps(value)}")
        tokens += items
    return argv[:len(command)] + tokens + argv[len(command):]


_META_EXCLUDED = {"handler", "command_path", "command", "action", "output",
                  "config"}


def _run(argv: list[str]) -> int:
    parser, leaves = build_parser()
    args = parser.parse_args(_with_config(argv, leaves))

    payload, extra = args.handler(args)

    config_echo = {k: v for k, v in sorted(vars(args).items())
                   if k not in _META_EXCLUDED}
    meta = build_meta(args.command_path, config_echo)
    meta.update(extra)

    if "document" in payload:
        if args.format != "json":
            raise ConfigError("this command writes a JSON document; "
                              "pass --format json (or omit --format)")
        text = render_json(meta, payload["document"])
    elif args.format == "json":
        text = render_json(meta, {"columns": payload["columns"],
                                  "rows": payload["rows"]})
    else:
        text = render_csv(meta, payload["columns"], payload["rows"])
    write_report(text, args.output)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return _run(argv)
    except SystemExit as exc:  # argparse --help / --version
        code = exc.code
        if code is None or code == 0:
            return 0
        return int(code) if isinstance(code, int) else 2
    except NumericalError as exc:
        message = str(exc).replace("\n", " ")
        print(f"{type(exc).__name__}: {message}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        message = str(exc).replace("\n", " ")
        print(f"{type(exc).__name__}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
