"""Seeded workload definitions: what each run feeds dtmech, and how.

:func:`generate` turns ``(workload, seed)`` into plain JSON-able task specs
using only the standard library, so the orchestrator can rebuild the same
inputs for its oracles without importing the program.  :func:`prepare` runs
inside a worker, after ``import dtmech``: it builds the library objects for
one task and returns the item callables the worker times.

The seed is the only thing that changes inputs.  Parameters are drawn from
fixed ranges and item counts are fixed, so the work per run barely depends
on the seed: where convergence effort depends on a parameter (oscillatory
cells, chirp growth), the seed only jitters it inside a band where the node
counts and tiers were checked to stay put.
"""
from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys

WORKLOADS = ("transform", "observables", "cli")

# --- transform ---------------------------------------------------------------
# Why: the gamma(n) transform itself, in its two regimes, the smooth sweep
# and the oscillatory cells below.  One workload rather than two keeps the
# benchmark at three workloads, so each run can last long enough for its
# items to be executed many times.

# --- transform: smooth sweep -------------------------------------------------
# Why: seeded smooth signals transformed at every n in 1..SWEEP_N_MAX with
# tau = 0.1, one signal after another as ``transform --n-range`` does.
# Time goes almost entirely to building Gauss--Laguerre rules (two fresh
# rules per n, no reuse across signals), with no fallback.  ROADMAP item 2
# should move this part; items 3 and 4 should leave it flat.
# The four signals share the n range: signal k takes every n = k+1 (mod 4),
# so each n in 1..800 is transformed once (800 transforms, not 3,200) and a
# run executes every item several times.
SWEEP_TAU = 0.1
SWEEP_N_MAX = 800
SWEEP_KINDS = ("cos", "poly", "exp", "cexp")

# --- transform: oscillatory cells --------------------------------------------
# Why: cos / e^{i w t} with w*tau spread over 1..16 on a log-spaced n set up
# to 144, plus dt_sensitivity for n = 1..100 at two seeded growth rates and
# the frozen chirp oracle points.  Node doubling runs to the 2048 cap, the
# adaptive fallback and the panel/saddle tiers do the work.  ROADMAP item 4
# should move this part.
# Only cells on which every transform succeeds at the commit that defined
# the benchmark are used (a workload on which operations fail cannot be
# timed fairly); each cell was checked over its whole jitter band and
# over tau in [0.05, 1] to keep its method and final node count.
# (kind, w*tau, step counts)
OSC_CELLS = (
    ("both", 1.0, (1, 2, 3, 5, 8, 13, 21, 34, 55, 144)),
    ("both", 1.6, (1, 2, 3, 5, 8, 13, 21, 34, 55, 144)),
    ("both", 2.5, (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144)),
    ("both", 4.0, (1, 2, 3, 5, 8, 13, 21, 34)),
    ("both", 6.3, (1, 2, 3, 5)),
    # node doubling to the 2048 cap: one cell.  Three more at the cap
    # (w*tau = 6.3 at n = 13 and 21, w*tau = 10 at n = 2) cost 0.8 s each
    # and are left out, so that a run executes every item often enough
    ("both", 10.0, (1,)),
    # e^{i w t} at n = 1 past w*tau ~ 12.5 exhausts doubling and is
    # rescued by the adaptive fallback
    ("cexp", 13.0, (1,)),
    ("cexp", 14.5, (1,)),
    ("cexp", 16.0, (1,)),
)
OSC_JITTER = 0.01
CHIRP_N_MAX = 100
# growth per step c*tau: across this band steps up to n ~ 55 stay in the
# panel tier.  The initial value is held at a = 1/2 (as in the tests):
# the tier split jumps between ~55 and ~155 panel steps for a a few
# hundredths away, which would make the work depend on the seed.
CHIRP_LAMBDA = (0.10, 0.12)
CHIRP_A = 0.5
# E[e^{0.1 U} sin(b e^{0.1 U})], U ~ gamma(n), b = arccos(1/2): the frozen
# oracle values of the test suite (two independent routes), with the
# relative tolerance the suite applies to each tier.
CHIRP_FROZEN = {
    1: 1.014961, 2: 1.164493, 5: 1.440434, 10: 0.1969444, 15: -1.142046,
    30: -5.923805e-3, 40: 1.505297e-4, 50: -4.774240e-7,
    60: 3.369287e-10, 80: 3.992e-18, 100: -6.48e-28,
}
# 50-digit oscillatory-quadrature oracles at steeper growth per step
CHIRP_FROZEN_STEEP = {
    (30, 0.5): -4.039574e-16, (60, 0.5): -7.204959e-43,
    (20, 0.7): 7.1308e-12, (20, 0.9): 1.642444e-13,
}

# --- observables ------------------------------------------------------------
# Why: quadrature_moments for two seeded oscillator states plus one
# free-particle report, plus gamma_equivalence_check on a seeded d = 16
# density matrix for n = 1..40.  The small state's rules (two per step, 2
# dof x 100 steps) fit the 256-entry rule cache; the other (1 dof x 140
# steps: 280 rules per observable) overflows it, so every rule lookup
# misses.  One degree of freedom rather than three keeps that report near
# half a second, so a run executes it many times.
# Many signals share each n, so rule reuse and per-observable overhead
# dominate.  ROADMAP item 3 (vector core) targets this workload, and a cache
# change shows only here.
OBS_TAU = 0.25
EQUIV_DIM = 16
EQUIV_N_MAX = 40

# --- cli ---------------------------------------------------------------------
# Why: 30 sequential cold ``python -m dtmech`` invocations, a closed loop
# with one client, mixed from the README commands with cheap payloads.
# Importing numpy and scipy dominates each call, so import, cli and report
# dominate only here.  ROADMAP item 5 (lazy import) should move cli and
# nothing else.
# (30 rather than 20, so that item_tail_ms has 10 items beyond it above
# the median)
CLI_MIX = (("td", 3), ("defect", 3), ("evolve", 4), ("classical", 4),
           ("transform", 4), ("mc", 4), ("chaos_ct", 3), ("alpha_scan", 3),
           ("invalid", 2))
CLI_PER_TASK = 3


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"dtmech-perfbench:{workload}:{seed}")


def _vector(rng: random.Random, size: int, lo: float, hi: float) -> list:
    return [rng.uniform(lo, hi) for _ in range(size)]


def generate(workload: str, seed: int) -> list[dict]:
    """Task specs of one workload: ``[{"name", "items": [...]}, ...]``.

    Every execution of a task starts with dtmech's caches cleared, so the
    rule cache is empty, as it is for every CLI user.
    """
    if workload == "transform":
        return _gen_sweep(seed) + _gen_oscillatory(seed)
    if workload == "observables":
        return _gen_observables(seed)
    if workload == "cli":
        return _gen_cli(seed)
    raise ValueError(f"unknown workload {workload!r}")


def _gen_sweep(seed: int) -> list[dict]:
    rng = _rng("sweep", seed)
    tasks = []
    for kind in SWEEP_KINDS:
        if kind in ("cos", "cexp"):
            param = rng.uniform(0.05, 0.2) / SWEEP_TAU      # omega*tau <= 0.2
        elif kind == "poly":
            param = rng.randint(1, 3)                        # degree k
        else:
            param = rng.uniform(0.05, 0.3) / SWEEP_TAU      # b*tau <= 0.3
        items = [{"kind": "transform", "signal": kind, "param": param,
                  "n": n, "tau": SWEEP_TAU}
                 for n in range(len(tasks) + 1, SWEEP_N_MAX + 1,
                                len(SWEEP_KINDS))]
        tasks.append({"name": f"sweep-{kind}", "items": items})
    return tasks


def _gen_oscillatory(seed: int) -> list[dict]:
    rng = _rng("oscillatory", seed)
    cells = []
    for kind, wt0, ns in OSC_CELLS:
        kinds = ("cos", "cexp") if kind == "both" else (kind,)
        for n in ns:
            for k in kinds:
                tau = rng.uniform(0.05, 1.0)
                wt = wt0 * (1.0 + rng.uniform(-OSC_JITTER, OSC_JITTER))
                cells.append({"kind": "transform", "signal": k,
                              "param": wt / tau, "n": n, "tau": tau})
    # fixed order (by n, then w*tau): the item that first needs a rule pays
    # for building it, the same item in every seed
    cells.sort(key=lambda c: (c["n"], c["param"] * c["tau"], c["signal"]))
    # two seeded growth rates, one from each half of the band: ~110 panel
    # steps hold the workload's median item well inside them
    chirp = []
    lo, hi = CHIRP_LAMBDA
    for band in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi)):
        lam = rng.uniform(*band)
        c = rng.uniform(0.5, 2.0)
        chirp += [{"kind": "dt_sensitivity", "a": CHIRP_A, "c": c,
                   "tau": lam / c, "n": n} for n in range(1, CHIRP_N_MAX + 1)]
    half = math.acos(0.5)
    chirp += [{"kind": "chirped", "n": n, "lam": 0.1, "b": half, "want": want,
               "rel": 1e-5 if n <= 50 else 1e-3}
              for n, want in CHIRP_FROZEN.items()]
    chirp += [{"kind": "chirped", "n": n, "lam": lam_, "b": half, "want": want,
               "rel": 1e-3}
              for (n, lam_), want in CHIRP_FROZEN_STEEP.items()]
    return [{"name": "osc-grid", "items": cells},
            {"name": "osc-chirp", "items": chirp}]


def _gen_observables(seed: int) -> list[dict]:
    rng = _rng("observables", seed)

    def state(dof, masses):
        return {"x": _vector(rng, dof, -1.0, 1.0),
                "p": _vector(rng, dof, -1.0, 1.0),
                "m": _vector(rng, dof, 0.5, 2.0) if masses else [1.0] * dof}

    # three reports: the first state's rules fit the cache, the last
    # state's overflow it
    reports = [
        {"kind": "moments", "model": "oscillator", "steps": 100,
         "tau": OBS_TAU, **state(2, False)},
        {"kind": "moments", "model": "free", "steps": 100,
         "tau": OBS_TAU, **state(2, True)},
        {"kind": "moments", "model": "oscillator", "steps": 140,
         "tau": OBS_TAU, **state(1, False)},
    ]
    # energies on a fixed grid over [0, 2] with a small jitter: the gaps set
    # the node counts of the d*d phase transforms, so free draws would make
    # the work depend on the seed (by +-20% in total nodes)
    d = EQUIV_DIM
    step = 2.0 / (d - 1)
    energies = [k * step + rng.uniform(-0.01, 0.01) * step for k in range(d)]
    gauss = [[rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)] for _ in range(d * d)]
    equiv = [{"kind": "equivalence", "n": n, "energies": energies,
              "gauss": gauss} for n in range(1, EQUIV_N_MAX + 1)]
    return [{"name": "obs-reports", "items": reports},
            {"name": "obs-equivalence", "items": equiv}]


def _gen_cli(seed: int) -> list[dict]:
    rng = _rng("cli", seed)
    kinds = [k for k, count in CLI_MIX for _ in range(count)]
    rng.shuffle(kinds)
    items = []
    for i, kind in enumerate(kinds):
        fmt = rng.choice(("csv", "json"))
        to_file = rng.random() < 0.35
        argv, extra = _cli_args(kind, rng, i)
        if kind == "evolve":
            fmt = "json"   # writes a density-matrix document
        item = {"kind": "cli", "cli": kind, "argv": argv, "format": fmt,
                "output": f"out_{i}.{fmt}" if to_file and kind != "invalid"
                else None,
                "expect": 2 if kind == "invalid" else 0, **extra}
        items.append(item)
    return [{"name": f"cli-{t // CLI_PER_TASK + 1}",
             "items": items[t:t + CLI_PER_TASK]}
            for t in range(0, len(items), CLI_PER_TASK)]


def _g(x: float) -> str:
    return repr(round(x, 6))


def _cli_args(kind: str, rng: random.Random, i: int) -> tuple[list, dict]:
    if kind == "td":
        gaps = [rng.uniform(1.0, 50.0) for _ in range(2)]
        argv = ["quantum", "td", "--preset", "si-planck"]
        for g in gaps:
            argv += ["--delta-e", f"{_g(g)}meV"]
        return argv, {}
    if kind == "defect":
        gap = rng.uniform(0.1, 2.0)
        return ["quantum", "defect", "--delta-e", _g(gap), "--n-range",
                "1:30"], {}
    if kind == "evolve":
        d = 4
        state = {"energies": sorted(_vector(rng, d, 0.0, 3.0)),
                 "gauss": [[rng.gauss(0, 1), rng.gauss(0, 1)]
                           for _ in range(d * d)]}
        n = rng.randint(1, 200)
        return ["quantum", "evolve", "--state", f"state_{i}.json", "--n",
                str(n)], {"state": state, "state_file": f"state_{i}.json"}
    if kind == "classical":
        model = rng.choice(("oscillator", "free"))
        x = [round(v, 6) for v in _vector(rng, 2, -1.0, 1.0)]
        p = [round(v, 6) for v in _vector(rng, 2, -1.0, 1.0)]
        # "--x=-0.2,..." keeps argparse from reading a negative as a flag
        argv = ["classical", "--model", model, "--route", "closed",
                "--x=" + ",".join(map(repr, x)), "--p=" + ",".join(map(repr, p)),
                "--n", "50", "--tau", _g(rng.uniform(0.1, 0.5))]
        if model == "free":
            m = [round(v, 6) for v in _vector(rng, 2, 0.5, 2.0)]
            argv += ["--mass", ",".join(map(repr, m))]
        return argv, {}
    if kind == "transform":
        sig = rng.choice(("cos", "cexp", "poly"))
        tau = _g(rng.uniform(0.1, 0.5))
        argv = ["transform", "--signal", sig, "--n-range", "1:20", "--tau", tau]
        if sig == "poly":
            argv += ["--degree", str(rng.randint(1, 3))]
        else:
            argv += ["--omega", _g(rng.uniform(0.5, 2.0))]
        return argv, {}
    if kind == "mc":
        return ["transform", "--signal", "cos", "--method", "monte-carlo",
                "--samples", "20000", "--seed", str(rng.randint(1, 10**6)),
                "--n-range", "1:5", "--omega", _g(rng.uniform(0.5, 2.0)),
                "--tau", _g(rng.uniform(0.1, 0.5))], {}
    if kind == "chaos_ct":
        return ["chaos", "ct", "--a", _g(rng.uniform(0.3, 0.7)), "--t-max",
                "14", "--grid", "200"], {}
    if kind == "alpha_scan":
        alphas = [0.0] + sorted(round(rng.uniform(0.1, 0.8), 4)
                                for _ in range(2))
        return ["alpha-scan", "--alphas", ",".join(map(repr, alphas)),
                "--n-max", "4"], {}
    if kind == "invalid":
        flag = "--" + rng.choice(("bogus", "nodes-max", "omgea", "taus"))
        return ["transform", "--signal", "cos", "--n", "1", flag, "1"], {}
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# worker side: library objects and item callables


def density_coeffs(gauss, d: int):
    """Seeded Wishart state A A^H / tr, from the spec's Gaussian pairs."""
    import numpy as np

    a = np.array([complex(re, im) for re, im in gauss]).reshape(d, d)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _build_signal(dtmech, kind: str, param):
    if kind == "cos":
        return dtmech.cosine_signal(param)
    if kind == "cexp":
        return dtmech.complex_exponential_signal(param)
    if kind == "poly":
        return dtmech.monomial_signal(int(param))
    if kind == "exp":
        return dtmech.exponential_signal(param)
    raise ValueError(kind)


def _number(v):
    v = complex(v)
    return [v.real, v.imag]


def prepare(task: dict, ctx: dict) -> list:
    """Item callables of one task; runs after ``import dtmech``.

    Functions are looked up on the ``dtmech`` package at call time, so the
    tracing wrappers (installed on every namespace) see these calls too.
    ``ctx`` carries ``work`` (scratch directory), ``src``, ``tracer`` (or
    None) and ``cli_driver`` (path of the traced CLI entry point).
    """
    import dtmech

    return [_callable(dtmech, item, ctx) for item in task["items"]]


def _callable(dtmech, item: dict, ctx: dict):
    kind = item["kind"]
    if kind == "transform":
        signal = _build_signal(dtmech, item["signal"], item["param"])
        kernel = dtmech.GammaKernel(item["n"], item["tau"])

        def run():
            r = dtmech.transform_quadrature(signal, kernel)
            return {"v": _number(r.value), "e": r.error, "m": r.method,
                    "nodes": r.node_count}
        return run
    if kind == "dt_sensitivity":
        model = dtmech.SensitivityModel(item["a"], item["c"])
        kernel = dtmech.GammaKernel(item["n"], item["tau"])

        def run():
            r = dtmech.dt_sensitivity(model, kernel)
            return {"v": r.value, "e": r.error, "m": r.method}
        return run
    if kind == "chirped":
        def run():
            r = dtmech.chirped_sine_expectation(item["n"], item["lam"],
                                                item["b"])
            return {"v": r.value, "e": r.error, "m": r.method}
        return run
    if kind == "moments":
        import numpy as np

        state = dtmech.PhaseState(np.array(item["x"]), np.array(item["p"]),
                                  np.array(item["m"]))
        model = (dtmech.HarmonicOscillator() if item["model"] == "oscillator"
                 else dtmech.FreeParticle())
        kernel = dtmech.GammaKernel(item["steps"], item["tau"])

        def run():
            rep = dtmech.quadrature_moments(model, state, kernel)
            return {"mx": rep.mean_positions.tolist(),
                    "mp": rep.mean_momenta.tolist(),
                    "sx": rep.second_positions.tolist(),
                    "sp": rep.second_momenta.tolist(),
                    "en": rep.energy.tolist()}
        return run
    if kind == "equivalence":
        import numpy as np

        d = len(item["energies"])
        dm = dtmech.DensityMatrix(np.array(item["energies"]),
                                  density_coeffs(item["gauss"], d))

        def run():
            return {"v": dtmech.gamma_equivalence_check(dm, item["n"])}
        return run
    if kind == "cli":
        return _cli_callable(item, ctx)
    raise ValueError(kind)


def _write_state(item: dict, path: str) -> None:
    d = len(item["state"]["energies"])
    rho = density_coeffs(item["state"]["gauss"], d)
    doc = {"energies": item["state"]["energies"],
           "re": rho.real.tolist(), "im": rho.imag.tolist()}
    with open(path, "w") as handle:
        json.dump(doc, handle)


def _cli_callable(item: dict, ctx: dict):
    work = ctx["work"]
    if "state_file" in item:
        _write_state(item, os.path.join(work, item["state_file"]))
    argv = [os.path.join(work, a) if a == item.get("state_file") else a
            for a in item["argv"]]
    argv += ["--format", item["format"]]
    out_path = None
    if item["output"]:
        out_path = os.path.join(work, item["output"])
        argv += ["--output", out_path]
    env = dict(os.environ)
    env["PYTHONPATH"] = ctx["src"] + (os.pathsep + env["PYTHONPATH"]
                                      if env.get("PYTHONPATH") else "")
    env.pop("DTMECH_THREADS", None)
    tracer = ctx.get("tracer")

    def run():
        if tracer is None:
            cmd = [sys.executable, "-m", "dtmech", *argv]
        else:
            spans_path = os.path.join(work, "cli_spans.json")
            cmd = [sys.executable, ctx["cli_driver"], spans_path, *argv]
        # bytes, not text mode: CSV payloads end lines in CRLF
        proc = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
        result = {"code": proc.returncode,
                  "stdout": proc.stdout.decode("utf-8", "replace"),
                  "stderr": proc.stderr.decode("utf-8", "replace")}
        if out_path is not None and os.path.exists(out_path):
            with open(out_path, newline="") as handle:
                result["file"] = handle.read()
            os.unlink(out_path)
        if tracer is not None:
            with open(spans_path) as handle:
                child = json.load(handle)
            os.unlink(spans_path)
            result["imports"] = child["imports"]
            tracer.adopt(child["spans"])
        return result
    return run
