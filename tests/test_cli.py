"""Command-line interface: formats, exit codes, determinism, config merging."""

import argparse
import contextlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtmech import (FreeParticle, GammaKernel, HarmonicOscillator, PhaseState,
                    SensitivityModel, cli, dt_lyapunov, free_particle_moments,
                    nonlinear, quadrature_moments, sho_moments)
from dtmech.cli import main
from dtmech.report import csv_payload


def run_cli(args, tmp_path=None, name="out"):
    """Invoke main() writing to a temp file; return (exit, text or None)."""
    if tmp_path is None:
        return main(list(args)), None
    out = tmp_path / name
    code = main(list(args) + ["--output", str(out)])
    text = out.read_bytes().decode() if out.exists() else None
    return code, text


def payload_rows(text):
    lines = [ln for ln in text.split("\r\n") if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# transform


def test_transform_unit_example(tmp_path):
    # one step, unit time quantum: the smeared cosine is exactly 1/2
    code, text = run_cli(["transform", "--signal", "cos", "--n", "1",
                          "--tau", "1"], tmp_path)
    assert code == 0
    header, rows = payload_rows(text)
    assert header == ["n", "value", "error", "evaluations", "method"]
    assert len(rows) == 1
    assert float(rows[0][1]) == pytest.approx(0.5, abs=1e-12)


def test_transform_range_rows(tmp_path):
    code, text = run_cli(["transform", "--signal", "poly", "--degree", "2",
                          "--n-range", "2:5", "--tau", "0.5"], tmp_path)
    assert code == 0
    _, rows = payload_rows(text)
    assert [int(r[0]) for r in rows] == [2, 3, 4, 5]
    # E[(tau U)^2] = tau^2 n (n+1)
    for r in rows:
        n = int(r[0])
        assert float(r[1]) == pytest.approx(0.25 * n * (n + 1), rel=1e-10)


def test_csv_is_crlf_with_commented_preamble(tmp_path):
    code, text = run_cli(["transform", "--signal", "cos", "--n", "3"],
                         tmp_path)
    assert code == 0
    assert "\r\n" in text
    lines = text.split("\r\n")
    assert lines[0].startswith("# ")
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    assert body[0] == "n,value,error,evaluations,method"


def test_json_format_meta_data_split(tmp_path):
    code, text = run_cli(["transform", "--signal", "cos", "--n", "2",
                          "--format", "json"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert set(doc) == {"meta", "data"}
    assert doc["meta"]["command"] == "transform"
    assert doc["meta"]["config"]["n"] == 2
    assert doc["data"]["columns"][0] == "n"
    assert doc["data"]["rows"][0][0] == 2


def test_default_format_is_csv(tmp_path):
    code, text = run_cli(["transform", "--signal", "cos", "--n", "1"],
                         tmp_path)
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(text)


def test_complex_signal_gets_split_columns(tmp_path):
    code, text = run_cli(["transform", "--signal", "cexp", "--omega", "0.5",
                          "--n", "2"], tmp_path)
    assert code == 0
    header, rows = payload_rows(text)
    assert header[:3] == ["n", "value_re", "value_im"]
    # E[e^{i omega tau U}] = (1 - i omega tau)^{-n}
    expect = (1 - 0.5j) ** -2
    assert float(rows[0][1]) == pytest.approx(expect.real, rel=1e-10)
    assert float(rows[0][2]) == pytest.approx(expect.imag, rel=1e-10)


def test_complex_monte_carlo_gets_split_columns(tmp_path):
    code, text = run_cli(["transform", "--signal", "cexp", "--omega", "0.5",
                          "--n", "2", "--method", "monte-carlo",
                          "--samples", "2000", "--seed", "4"], tmp_path)
    assert code == 0
    header, rows = payload_rows(text)
    assert header == ["n", "value_re", "value_im", "error", "evaluations",
                      "method"]
    expect = (1 - 0.5j) ** -2
    est = complex(float(rows[0][1]), float(rows[0][2]))
    assert abs(est - expect) <= 6.0 * float(rows[0][3])


def test_tabulated_signal_from_file(tmp_path):
    table = tmp_path / "sig.csv"
    t = np.linspace(0, 150, 4001)
    rows = "\n".join(f"{ti},{vi}" for ti, vi in zip(t, t * t))
    table.write_text("t,value\n" + rows + "\n")
    code, text = run_cli(["transform", "--signal", "table", "--table",
                          str(table), "--n", "3", "--tau", "1",
                          "--error-target", "1e-4"], tmp_path)
    assert code == 0
    _, out = payload_rows(text)
    # quadratic table: E[U^2] = n(n+1) = 12, up to interpolation error
    assert float(out[0][1]) == pytest.approx(12.0, rel=1e-3)


# ---------------------------------------------------------------------------
# exit codes and error lines


def test_missing_signal_is_config_error(capsys):
    code, _ = run_cli(["transform", "--n", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ConfigError:")


@pytest.mark.parametrize("argv", [
    ["transform", "--signal", "cos", "--n", "1", "--bogus", "3"],
    # removed settings: doubling always starts at 32 nodes, and the
    # continuous fit always takes 1200 samples
    ["transform", "--signal", "cos", "--n", "1", "--nodes", "8"],
    ["chaos", "ct", "--a", "0.5", "--t-max", "14", "--fit-samples", "100"],
], ids=" ".join)
def test_unknown_flag_exits_2(capsys, argv):
    code, _ = run_cli(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ConfigError: unrecognized arguments: ")


def test_n_and_range_together_rejected(capsys):
    code, _ = run_cli(["transform", "--signal", "cos", "--n", "1",
                       "--n-range", "1:5"])
    assert code == 2


_TRANSFORM = ["transform", "--n", "3", "--tau", "0.5"]


@pytest.mark.parametrize("argv", [
    _TRANSFORM + ["--signal", "cos", "--omega", "nan"],
    _TRANSFORM + ["--signal", "cos", "--omega", "inf"],
    _TRANSFORM + ["--signal", "cexp", "--omega", "nan"],
    _TRANSFORM + ["--signal", "const", "--value", "nan"],
    _TRANSFORM + ["--signal", "exp", "--rate", "nan"],
    _TRANSFORM + ["--signal", "exp", "--rate", "0.5", "--value", "inf"],
    _TRANSFORM + ["--signal", "table", "--table", "{table}"],
    _TRANSFORM + ["--signal", "cos", "--omega", "nan", "--method",
                  "monte-carlo", "--samples", "1000", "--seed", "1"],
    # each transform flag is checked alike on both routes, as it is parsed
    *[_TRANSFORM + ["--signal", "cos", "--method", method] + flags
      for method in ("quadrature", "monte-carlo")
      for flags in (["--error-target", "nan"], ["--samples", "1"])],
    # a density file whose field is no array of numbers
    ["quantum", "evolve", "--state", "{state}", "--n", "1"],
    ["quantum", "equivalence", "--state", "{state}", "--n", "1"],
    ["chaos", "ct", "--a", "0.5", "--t-max", "710"],
    ["chaos", "ct", "--a", "0.5", "--t-max", "800"],
    ["chaos", "ct", "--a", "0.5", "--t-max", "800", "--no-fit"],
    ["chaos", "ct", "--a", "0.5", "--t-max", "inf"],
    ["alpha-scan", "--sigma", "nan", "--n-max", "1"],
    ["alpha-scan", "--length", "inf", "--n-max", "1"],
    # finite states whose moments pass the largest double
    ["classical", "--x", "1e300", "--p", "1e300", "--n", "2", "--tau", "1"],
    ["classical", "--model", "oscillator", "--x", "1e300", "--p", "1e300",
     "--n", "2", "--tau", "1"],
    ["classical", "--route", "quadrature", "--x", "1e300", "--p", "1e300",
     "--n", "2", "--tau", "1"],
    ["classical", "--model", "oscillator", "--route", "quadrature",
     "--x", "1e300", "--p", "1e300", "--n", "2", "--tau", "1"],
    # a frequency the free model has no use for, instead of ignoring it
    ["classical", "--model", "free", "--omega", "nan", "--x", "1", "--p", "0",
     "--n", "2"],
    ["classical", "--omega", "-3", "--x", "1", "--p", "0", "--n", "2"],
    # quantity literals past the largest double, as written or once scaled
    ["quantum", "td", "--delta-e", "1e400"],
    ["quantum", "td", "--preset", "si-planck", "--delta-e", "1e400J"],
    ["quantum", "td", "--delta-e", "1", "--horizon", "1e400"],
    ["quantum", "td", "--preset", "si-planck", "--delta-e", "7meV",
     "--horizon", "1e308yr"],
    ["quantum", "defect", "--delta-e", "1e400", "--n", "1"],
], ids=" ".join)
def test_non_finite_or_overflowing_input_is_one_config_error(tmp_path, capsys,
                                                             argv):
    # refused up front: no nan payload, no numpy warning, no numerical
    # failure blamed on the method
    table = tmp_path / "nan.csv"
    table.write_text("t,value\n0,1\n1,nan\n500,1\n")
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"energies": {"a": 1}, "re": [[1]],
                                 "im": [[0]]}))
    files = {"{table}": str(table), "{state}": str(state)}
    argv = [files.get(a, a) for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run_cli(argv)
    assert code == 2
    assert caught == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(("ValueError: ", "ConfigError: "))


@pytest.mark.parametrize("tau", ["1e300", "1.7e308"])
def test_oscillator_at_a_huge_time_quantum_keeps_the_initial_state(tmp_path,
                                                                   tau):
    # tau^2 overflows a double, yet row 0 is the initial state and every
    # moment is finite: the damped terms vanish for n >= 1
    base = ["classical", "--model", "oscillator", "--route", "closed",
            "--x", "1", "--p", "1", "--n", "2", "--format", "json"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, text = run_cli(base + ["--tau", tau], tmp_path, "huge")
    assert code == 0
    assert caught == []
    rows = json.loads(text)["data"]["rows"]
    assert all(np.isfinite(r[-1]) for r in rows)
    _, ref = run_cli(base + ["--tau", "1"], tmp_path, "unit")
    ref_rows = json.loads(ref)["data"]["rows"]
    row0 = [r for r in rows if r[0] == 0]
    assert row0 == [r for r in ref_rows if r[0] == 0]
    assert {r[3]: r[4] for r in row0} == pytest.approx(
        {"mean_x": 1.0, "mean_p": 1.0, "second_x": 1.0, "second_p": 1.0,
         "energy": 1.0}, rel=1e-15)
    damped = [r[4] for r in rows if r[0] > 0 and r[3].startswith("mean")]
    assert len(damped) == 4 and max(map(abs, damped)) <= 1e-299


def test_divergent_growth_exits_3(capsys):
    code, _ = run_cli(["transform", "--signal", "exp", "--rate", "2.0",
                       "--tau", "1", "--n", "3"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("DivergentTransform:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flags, exact", [
    # the weight's bulk sits where e^{g t} is inf and e^{-g t} is 0: the
    # exact 1e100 came back as 0 +- 0
    (["--rate", "9.9", "--tau", "0.1", "--n", "50"], None),
    # nodes with g t in (709.8, 745.1] multiplied inf by a subnormal: the
    # exact 1e50 came back as inf +- inf
    (["--rate", "9", "--tau", "0.1", "--n", "50"], None),
    # (1 - g tau)^-n = 1e400 is past the largest double: an OverflowError
    # traceback
    (["--rate", "2", "--tau", "0.45", "--n", "400"], None),
    # 2 g tau = 0.6 < 1, yet the sampled e^{g t} gave 1.70e118 +- 1.69e118
    (["--rate", "3", "--tau", "0.1", "--n", "800", "--method", "monte-carlo",
      "--seed", "1"], (1 - mpmath.mpf(3) * mpmath.mpf(0.1)) ** -800),
], ids=lambda v: (" ".join(v) if isinstance(v, list)
                 else "refused" if v is None else "exact"))
def test_a_growth_near_the_float_range_is_exact_or_refused(tmp_path, capsys,
                                                           flags, exact):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(["transform", "--signal", "exp"] + flags,
                             tmp_path)
    out, err = capsys.readouterr()
    if exact is None:
        assert code == 2 and text is None
        assert err.count("\n") == 1
        assert err.startswith("ValueError: the smearing integral at growth "
                              "rate ") and err.endswith(" float range\n")
    else:
        assert code == 0 and err == ""
        _, [[_, value, error, _, _]] = payload_rows(text)
        assert abs(float(value) - exact) <= float(error)


@pytest.mark.parametrize("flags, exact", [
    # the tilted draws differ by ulps of 1e300: their residuals' squares
    # overflowed
    (["exp", "--value", "1e300", "--rate", "1", "--tau", "0.1", "--n", "3"],
     mpmath.mpf(1e300) / (1 - mpmath.mpf(0.1)) ** 3),
    # the mean's sum overflowed; the quadrature route returns 1e308
    (["const", "--value", "1e308", "--n", "2", "--samples", "100"], 1e308),
    # the squares of t^100 overflowed
    (["poly", "--degree", "100", "--n", "5", "--tau", "10", "--samples",
      "100"], None),
    # F passes the largest double at the bulk: the draws hold inf
    (["exp", "--value", "1e5", "--rate", "0.01", "--tau", "0.1", "--n",
      "700000", "--samples", "1000"], "refused"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_monte_carlo_sums_near_the_float_range(tmp_path, capsys, flags,
                                               exact):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(["transform", "--signal"] + flags + [
            "--method", "monte-carlo", "--seed", "1"], tmp_path)
    err = capsys.readouterr().err
    if exact == "refused":
        assert (code, text) == (2, None)
        assert err.count("\n") == 1
        assert err.startswith("ValueError: the Monte Carlo estimate at ")
        assert err.endswith(" leaves the float range\n")
        return
    assert code == 0 and err == ""
    _, [[_, value, error, _, _]] = payload_rows(text)
    assert math.isfinite(float(value)) and math.isfinite(float(error))
    if exact is not None:
        assert abs(float(value) - exact) <= float(error)


@pytest.mark.parametrize("degree", ["100", "170", "400"])
def test_a_polynomial_past_the_float_range_is_one_numerical_error(capsys,
                                                                  degree):
    # t^k overflows at the far nodes: no numpy warning (an exception under
    # warnings-as-errors) and no inf - inf spread may accept it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = run_cli(["transform", "--signal", "poly", "--degree",
                           degree, "--n", "2", "--tau", "0.5"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("QuadratureNotConverged: ")


@pytest.mark.parametrize("flag", ["--conf", "--sig"])
def test_an_abbreviated_flag_is_refused(tmp_path, capsys, flag):
    # argparse read --conf as --config, which the config splice never saw,
    # so the file's tau = 0.5 was silently left out
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"tau": 0.5}))
    value = {"--conf": str(path), "--sig": "cos"}[flag]
    code, _ = run_cli(["transform", "--signal", "cos", "--n", "1", flag,
                       value])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"ConfigError: unrecognized arguments: {flag} ")


@pytest.mark.parametrize("argv", [
    ["chaos", "dt", "--a", "0.5", "--tau", "0.1", "--n-max", "0"],
    ["alpha-scan", "--alphas", "0.5", "--n-max", "-3"],
], ids=" ".join)
def test_n_max_is_checked_by_the_one_step_count_rule(capsys, argv):
    code, _ = run_cli(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ValueError: --n-max must be an integer >= 1, got ")


@pytest.mark.parametrize("grid", ["0", "-1"])
def test_chaos_ct_grid_is_checked_by_the_one_step_count_rule(capsys, grid):
    # --grid 0 gave a header without rows, --grid -1 numpy's message
    code, _ = run_cli(["chaos", "ct", "--a", "0.5", "--t-max", "12",
                       "--grid", grid])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ValueError: --grid must be an integer >= 1, got ")


def test_denormal_growth_per_step_is_one_numerical_error(capsys):
    # c * tau = 1e-321 puts the contour's end 12/lam past the float range:
    # refused before the path is built, not with numpy warnings and a math
    # domain error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run_cli(["chaos", "dt", "--a", "0.5", "--tau", "0.1",
                           "--n-max", "20", "--c", "1e-320", "--no-fit"])
    assert code == 3
    assert caught == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("QuadratureNotConverged: ") and "not finite" in err


def test_fit_failure_exits_3(capsys):
    # strong smearing decay: log-distance is curved, the line fit must refuse
    code, _ = run_cli(["chaos", "dt", "--a", "0.5", "--tau", "0.1",
                       "--n-max", "400"])
    assert code == 3
    assert capsys.readouterr().err.startswith("FitUnstable:")


def test_version_exits_0(capsys):
    assert main(["--version"]) == 0


# ---------------------------------------------------------------------------
# determinism and seeds


def test_seed_recorded_in_meta(tmp_path):
    code, text = run_cli(["transform", "--signal", "cos", "--n", "1",
                          "--seed", "42", "--format", "json"], tmp_path)
    assert code == 0
    assert json.loads(text)["meta"]["config"]["seed"] == 42


def test_absent_seed_recorded_as_null(tmp_path):
    code, text = run_cli(["transform", "--signal", "cos", "--n", "1",
                          "--format", "json"], tmp_path)
    assert json.loads(text)["meta"]["config"]["seed"] is None


def test_monte_carlo_draws_and_records_a_seed(tmp_path):
    code, text = run_cli(["transform", "--signal", "cos", "--n", "2",
                          "--method", "monte-carlo", "--samples", "500",
                          "--format", "json"], tmp_path)
    assert code == 0
    assert isinstance(json.loads(text)["meta"]["config"]["seed"], int)


def test_payload_bytes_identical_across_thread_counts(tmp_path):
    base = ["transform", "--signal", "cos", "--n-range", "1:12",
            "--method", "monte-carlo", "--samples", "4000", "--seed", "11"]
    _, one = run_cli(base + ["--threads", "1"], tmp_path, "a.csv")
    _, four = run_cli(base + ["--threads", "4"], tmp_path, "b.csv")
    assert csv_payload(one) == csv_payload(four)
    assert one != four  # metadata timestamps differ; payload must not


def test_payload_depends_on_seed(tmp_path):
    base = ["transform", "--signal", "cos", "--n", "4", "--method",
            "monte-carlo", "--samples", "2000"]
    _, a = run_cli(base + ["--seed", "1"], tmp_path, "a.csv")
    _, b = run_cli(base + ["--seed", "2"], tmp_path, "b.csv")
    assert csv_payload(a) != csv_payload(b)


def test_zero_threads_exit_2_on_every_route(capsys):
    base = ["transform", "--signal", "cos", "--n", "3", "--samples", "200",
            "--threads", "0"]
    for method in ("quadrature", "monte-carlo"):
        assert run_cli(base + ["--method", method]) == (2, None)
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("ConfigError: argument --threads: must be an "
                              "integer >= 1")


@pytest.mark.parametrize("cpus, threads, steps, workers", [
    (4, 6, "1:6", 4), (4, 3, "1:6", 3), (4, 64, "1:2", 2), (None, 6, "1:6", 1),
    (4, 1, "1:6", 1)])
def test_thread_pool_is_bounded(tmp_path, monkeypatch, cpus, threads, steps,
                                workers):
    # a stand-in executor records the pool size and starts no thread
    import concurrent.futures

    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return map(func, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    base = ["transform", "--signal", "cos", "--n-range", steps,
            "--method", "monte-carlo", "--samples", "500", "--seed", "3"]
    _, pooled = run_cli(base + ["--threads", str(threads)], tmp_path, "a.csv")
    _, serial = run_cli(base, tmp_path, "b.csv")
    assert sizes == ([workers] if workers > 1 else [])
    assert csv_payload(pooled) == csv_payload(serial)


# ---------------------------------------------------------------------------
# config files


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"signal": "cos", "n": 5, "tau": 0.25}))
    code, text = run_cli(["transform", "--config", str(cfg),
                          "--format", "json"], tmp_path)
    assert code == 0
    echoed = json.loads(text)["meta"]["config"]
    assert echoed["n"] == 5 and echoed["tau"] == 0.25


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"signal": "cos", "n": 5, "tau": 0.25}))
    code, text = run_cli(["transform", "--config", str(cfg), "--tau", "0.7",
                          "--format", "json"], tmp_path)
    assert json.loads(text)["meta"]["config"]["tau"] == 0.7


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"signal": "cos", "n": 1, "bogus_key": 1}))
    code, _ = run_cli(["transform", "--config", str(cfg)])
    assert code == 2
    assert "bogus_key" in capsys.readouterr().err


def test_missing_config_file_exits_2(capsys):
    code, _ = run_cli(["transform", "--config", "/nonexistent/cfg.json",
                       "--signal", "cos", "--n", "1"])
    assert code == 2


@pytest.mark.parametrize("command, cfg, argv, flags", [
    # refused (flags None): each once bypassed argparse's type, choice or
    # action, with a traceback, a silent truncation or an ignored value
    ("transform", {"signal": "cos", "n": 3, "tau": [1]}, [], None),
    ("transform", {"signal": "cos", "n": [3]}, [], None),
    ("transform", {"signal": "cos", "n": 3, "tau": None}, [], None),
    ("chaos ct", {"a": 0.5, "t_max": 14, "grid": 2.5}, [], None),
    ("transform", {"signal": "cos", "n": 3, "method": "bogus"}, [], None),
    ("transform", {"signal": "cos", "n": 3, "format": "xml"}, [], None),
    ("transform", {"signal": "cos", "n": 2.5}, [], None),
    ("alpha-scan", {"n_max": 2.5, "alphas": "0.5"}, [], None),
    ("classical", {"n": 2.5, "x": "1", "p": "0"}, [], None),
    ("classical", {"n": 2, "x": "1", "p": "0", "omega": 2}, [], None),
    ("chaos ct", {"a": 0.5, "t_max": 14, "no_fit": "false"}, [], None),
    ("transform", {"signal": "cos", "n": 3}, ["--n-range", "1:2"], None),
    # a key of another command, and two that name no value
    ("transform", {"signal": "cos", "n": 1, "delta_e": "1"}, [], None),
    ("transform", {"signal": "cos", "n": 1, "help": True}, [], None),
    ("transform", {"signal": "cos", "n": 1, "config": "c.json"}, [], None),
    # accepted: the payload of these flags; config items precede the flags'
    ("quantum td", {"delta_e": "12"}, [], ["--delta-e", "12"]),
    ("quantum td", {"delta_e": ["5"]}, ["--delta-e", "3"],
     ["--delta-e", "5", "--delta-e", "3"]),
    ("classical", {"x": "-0.5,0.2", "p": "0,1", "n": 1}, [],
     ["--x=-0.5,0.2", "--p", "0,1", "--n", "1"]),
], ids=lambda v: json.dumps(v) if isinstance(v, (dict, list)) else None)
def test_config_values_parse_as_flags(tmp_path, capsys, command, cfg, argv,
                                      flags):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, text = run_cli(command.split() + ["--config", str(path)] + argv,
                         tmp_path, "cfg.csv")
    err = capsys.readouterr().err
    if flags is None:
        assert (code, text) == (2, None)
        assert err.count("\n") == 1 and err.startswith("ConfigError: ")
    else:
        assert (code, err) == (0, "")
        _, want = run_cli(command.split() + flags, tmp_path, "flags.csv")
        assert csv_payload(text) == csv_payload(want)


# One to three (key, value) entries drawn on a valid argv of each command:
# values of the flags' JSON types give the same outcome as the flags
# themselves, and any other value one ConfigError line.  Several keys reach
# a value that matters only with another flag (--degree with --signal poly).
# Counts that allocate or spawn stay small.
_BASE = {
    "transform": ["--signal", "cos", "--n", "2", "--tau", "0.5",
                  "--samples", "200", "--seed", "1"],
    "classical": ["--x", "1", "--p", "0", "--n", "2"],
    "quantum td": ["--delta-e", "0.5"],
    "quantum evolve": ["--state", "{rho}", "--n", "3"],
    "quantum equivalence": ["--state", "{rho}", "--n", "2"],
    "quantum defect": ["--delta-e", "0.5", "--n", "2"],
    "chaos ct": ["--a", "0.5", "--t-max", "12", "--grid", "20"],
    "chaos dt": ["--a", "0.5", "--tau", "0.5", "--n-max", "20"],
    "alpha-scan": ["--alphas", "0,0.5", "--n-max", "2", "--points", "256",
                   "--length", "8", "--sigma", "0.2"],
}
_COUNTS = {"n": 60, "n_max": 60, "samples": 10**4, "points": 2**12,
           "grid": 10**3}
_SPECIAL = st.sampled_from([0, 0.0, -0.0, 5e-324, 1e300, -1e300, math.inf,
                            -math.inf, math.nan])
_NUMBERS = st.one_of(st.floats(-2, 2), st.integers(-3, 60), _SPECIAL,
                     st.floats(), st.integers(-10**6, 10**6))
_WRONG = st.one_of(st.none(), st.booleans(), st.lists(st.integers(),
                                                      max_size=2),
                   st.dictionaries(st.text(max_size=2), st.integers(),
                                   max_size=1))


def _scalar(action):
    """A string or JSON number for one value of ``action``."""
    dest = action.dest
    if dest in _COUNTS or dest == "threads":
        ints = (st.sampled_from([-1, 0, 1, 2]) if dest == "threads"
                else st.integers(-2, _COUNTS[dest]))
        # a float never reads as an int, so it allocates nothing
        return st.one_of(ints, ints.map(str), _SPECIAL, st.floats(),
                         st.sampled_from(["", "2.5", "1e3", "x"]))
    if dest == "n_range":
        bound = st.integers(0, _COUNTS["n"])
        return st.one_of(st.tuples(bound, bound).map("{0[0]}:{0[1]}".format),
                         _NUMBERS, st.text(max_size=4))
    if dest in ("alphas", "x", "p", "mass"):
        return st.one_of(st.lists(st.one_of(_SPECIAL, st.floats(-2, 2)),
                                  max_size=3).map(lambda v: ",".join(map(str, v))),
                         _NUMBERS, st.text(max_size=4))
    if action.choices:
        return st.one_of(st.sampled_from(list(action.choices)),
                         st.text(max_size=4))
    return st.one_of(_NUMBERS, _NUMBERS.map(str), st.text(max_size=8))


def _entries(leaf):
    """1-3 ``(key as written, action, (value, valid))`` for distinct options
    of ``leaf``; only the first may hold a value of the wrong JSON type,
    since one such value already decides the outcome."""
    actions = [a for a in leaf._actions
               if a.dest not in ("help", "config", "output")]

    def values(action, first):
        if action.nargs == 0:  # a switch: true or false
            good = st.booleans()
            wrong = st.one_of(_NUMBERS, st.text(max_size=4), st.none(),
                              st.lists(st.booleans(), max_size=1))
        elif isinstance(action, argparse._AppendAction):
            good = st.one_of(_scalar(action),
                             st.lists(_scalar(action), max_size=3))
            wrong = st.one_of(st.none(), st.booleans(),
                              st.lists(st.none(), min_size=1, max_size=2))
        else:
            good, wrong = _scalar(action), _WRONG
        good = good.map(lambda v: (v, True))
        return st.one_of(good, wrong.map(lambda v: (v, False))) if first else good

    def entry(a, first):
        return st.tuples(st.sampled_from([a.dest, a.dest.replace("_", "-")]),
                         st.just(a), values(a, first))

    return st.lists(st.sampled_from(actions), min_size=1, max_size=3,
                    unique_by=lambda a: a.dest).flatmap(
        lambda chosen: st.tuples(*(entry(a, i == 0)
                                   for i, a in enumerate(chosen))))


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("config")
    (root / "rho.json").write_text(json.dumps(
        {"energies": [0.0, 1.0], "re": [[0.5, 0.5], [0.5, 0.5]],
         "im": [[0.0, 0.0], [0.0, 0.0]]}))
    return root


def _invoke(argv):
    """``main(argv)`` with warnings as errors: (exit, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 2, 3)
    lines = err.getvalue().splitlines()
    assert len(lines) == (code != 0)
    return code, out.getvalue(), err.getvalue()


def _payload(text):
    if text.startswith("{"):
        return json.dumps(json.loads(text)["data"])
    return csv_payload(text)


@pytest.mark.parametrize("command", sorted(_BASE))
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_config_entry_equals_its_flag(config_dir, command, data):
    leaf = next(leaf for leaf in cli.build_parser()[1]
                if leaf.get_default("command_path") == command)
    entries = data.draw(_entries(leaf))
    dropped = {action.dest for _, action, _ in entries}
    steps = {"n", "n_range"}  # one group: a drawn one replaces either
    if dropped & steps:
        dropped |= steps
    base = []
    for flag, arg in zip(_BASE[command][::2], _BASE[command][1::2]):
        if flag.lstrip("-").replace("-", "_") not in dropped:
            base += [flag, arg.format(rho=config_dir / "rho.json")]
    words = command.split()
    cfg = config_dir / "cfg.json"
    cfg.write_text(json.dumps({key: value for key, _, (value, _) in entries}))
    by_config = _invoke(words + base + ["--config", str(cfg)])
    if not all(valid for _, _, (_, valid) in entries):
        assert by_config[0] == 2
        assert by_config[2].startswith("ConfigError: ")
        return
    tokens = []
    for _, action, (value, _) in entries:
        flag = action.option_strings[0]
        if action.nargs == 0:
            tokens += [flag] if value else []
        else:
            items = value if isinstance(value, list) else [value]
            tokens += [f"{flag}={item}" for item in items]
    by_flag = _invoke(words + base + tokens)
    assert by_config[0] == by_flag[0] and by_config[2] == by_flag[2]
    if by_flag[0] == 0:
        assert _payload(by_config[1]) == _payload(by_flag[1])
    else:
        assert by_config[1] == by_flag[1] == ""


@pytest.mark.parametrize("flag, value", [("--seed", 1), ("--threads", 2)])
@pytest.mark.parametrize("command", sorted(set(_BASE) - {"transform"}))
def test_seed_and_threads_belong_to_transform(config_dir, command, flag,
                                              value):
    # only the Monte Carlo transform reads them
    words = command.split()
    base = [arg.format(rho=config_dir / "rho.json") for arg in _BASE[command]]
    code, out, err = _invoke(words + base + [flag, str(value)])
    assert (code, out) == (2, "")
    assert err.startswith(
        f"ConfigError: unrecognized arguments: {flag} {value}")
    cfg = config_dir / "cfg.json"
    cfg.write_text(json.dumps({flag[2:]: value}))
    code, out, err = _invoke(words + base + ["--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err.startswith(f"ConfigError: unknown config key '{flag[2:]}'")


@pytest.mark.parametrize("leaf", cli.build_parser()[1],
                         ids=lambda leaf: leaf.get_default("command_path"))
def test_each_leaf_is_declared_once(capsys, leaf):
    # one declaration gives a leaf its words, its handler and the flags
    # every leaf shares, in this order, right after --help
    path = leaf.get_default("command_path")
    assert path in _BASE
    assert path == leaf.prog.removeprefix("dtmech ")
    handler = "_cmd_" + path.replace(" ", "_").replace("-", "_")
    assert leaf.get_default("handler") is getattr(cli, handler)
    shared = ["--output", "--format", "--config"]
    if path.startswith("quantum "):
        shared.append("--preset")
    flags = [action.option_strings[0] for action in leaf._actions]
    assert flags[:len(shared) + 1] == ["-h"] + shared
    assert main(path.split() + ["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: dtmech {path} [-h] ")
    assert all(f"\n  {flag} " in out for flag in shared)


# ---------------------------------------------------------------------------
# classical reports


def test_classical_long_format_and_conservation(tmp_path):
    code, text = run_cli(["classical", "--model", "oscillator", "--x", "1",
                          "--p", "0", "--n", "3", "--tau", "0.5"], tmp_path)
    assert code == 0
    header, rows = payload_rows(text)
    assert header == ["n", "i", "j", "moment", "value"]
    names = {r[3] for r in rows}
    assert names == {"mean_x", "mean_p", "second_x", "second_p", "energy"}
    by_moment = {}
    for r in rows:
        by_moment.setdefault((int(r[0]), r[3]), []).append(float(r[4]))
    for n in range(4):
        # <x^2> + <p^2> is the conserved r^2 = 1 at every step count
        total = by_moment[(n, "second_x")][0] + by_moment[(n, "second_p")][0]
        assert total == pytest.approx(1.0, rel=1e-12)
        assert by_moment[(n, "energy")][0] == pytest.approx(0.5, rel=1e-12)


def test_classical_two_particle_pair_columns(tmp_path):
    code, text = run_cli(["classical", "--model", "free", "--x", "0,1",
                          "--p", "1,-1", "--mass", "1,2", "--n", "1",
                          "--tau", "0.2"], tmp_path)
    assert code == 0
    _, rows = payload_rows(text)
    pair = [r for r in rows
            if r[3] == "second_x" and r[0] == "1" and r[1] == "0" and r[2] == "1"]
    assert len(pair) == 1
    # mean_x0 mean_x1 + n tau^2 p0 p1 / (m0 m1)
    expect = (0.2 * 1.0) * (1.0 - 0.1) + 1 * 0.04 * (1 * -1) / (1 * 2)
    assert float(pair[0][4]) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("base", [
    ["classical", "--model", "free", "--x", "1", "--p", "0.5", "--n", "3",
     "--tau", "0.4"],
    ["classical", "--model", "oscillator", "--x", "1,0", "--p", "0,1",
     "--mass", "2,1", "--omega", "1.5", "--n", "20", "--tau", "0.25"],
], ids=lambda argv: argv[2])
def test_classical_quadrature_route_matches_closed(tmp_path, base):
    _, closed = run_cli(base + ["--route", "closed"], tmp_path, "c.csv")
    _, quad = run_cli(base + ["--route", "quadrature"], tmp_path, "q.csv")
    _, rc = payload_rows(closed)
    _, rq = payload_rows(quad)
    assert len(rc) == len(rq)
    for a, b in zip(rc, rq):
        assert a[:4] == b[:4]
        assert float(a[4]) == pytest.approx(float(b[4]), rel=1e-6, abs=1e-9)


def test_classical_row_0_is_the_state(tmp_path):
    # once 1.2246467991473535e-16 for <p_0> and <p_0 p_1>, and
    # 1.5000000000000002 for the energy
    code, text = run_cli(["classical", "--model", "oscillator", "--x", "1,0",
                          "--p", "0,1", "--mass", "2,1", "--n", "3",
                          "--tau", "0.25", "--format", "json"], tmp_path)
    assert code == 0
    rows = json.loads(text)["data"]["rows"]
    assert [r[1:] for r in rows if r[0] == 0] == [
        [0, None, "mean_x", 1.0], [1, None, "mean_x", 0.0],
        [0, None, "mean_p", 0.0], [1, None, "mean_p", 1.0],
        [0, 0, "second_x", 1.0], [0, 1, "second_x", 0.0],
        [1, 1, "second_x", 0.0], [0, 0, "second_p", 0.0],
        [0, 1, "second_p", 0.0], [1, 1, "second_p", 1.0],
        [None, None, "energy", 1.5]]


_CLASSICAL_REPORTS = {
    ("closed", "free"): free_particle_moments,
    ("closed", "oscillator"): sho_moments,
    ("quadrature", "free"):
        lambda s, k: quadrature_moments(FreeParticle(), s, k),
    ("quadrature", "oscillator"):
        lambda s, k: quadrature_moments(HarmonicOscillator(), s, k),
}


@pytest.mark.parametrize("route, model", sorted(_CLASSICAL_REPORTS))
def test_classical_rows_are_the_report_rows(tmp_path, route, model):
    code, text = run_cli(["classical", "--model", model, "--route", route,
                          "--x", "1,-0.5", "--p", "0.25,0.75", "--n", "4",
                          "--tau", "0.3", "--format", "json"], tmp_path)
    assert code == 0
    data = json.loads(text)["data"]
    assert data["columns"] == ["n", "i", "j", "moment", "value"]
    state = PhaseState([1.0, -0.5], [0.25, 0.75], [1.0, 1.0])
    report = _CLASSICAL_REPORTS[route, model](state, GammaKernel(4, 0.3))
    want = list(report.rows())
    assert data["rows"] == want
    assert [type(v) for v in want[0]] == [int, int, type(None), str, float]


def test_classical_needs_state_flags(capsys):
    code, _ = run_cli(["classical", "--model", "free", "--n", "2"])
    assert code == 2


def test_classical_reports_at_least_one_step(capsys):
    # a report covers rows 0..n of its kernel, whose step count is >= 1
    code, _ = run_cli(["classical", "--x", "1", "--p", "0", "--n", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ValueError: step count n must be an integer >= 1")


# ---------------------------------------------------------------------------
# quantum commands


PLANCK_MEV_SECONDS = 3.27470128301005e17  # lifetime of a 7 meV gap, seconds


def test_td_planck_scale_seven_mev(tmp_path):
    code, text = run_cli(["quantum", "td", "--preset", "si-planck",
                          "--delta-e", "7meV", "--format", "json"], tmp_path)
    assert code == 0
    doc = json.loads(text)["data"]
    assert doc["columns"] == ["delta_e_joules", "t_d_seconds", "t_d_years",
                              "exceeds_1e10_years"]
    row = doc["rows"][0]
    assert row[1] == pytest.approx(PLANCK_MEV_SECONDS, rel=1e-9)
    assert row[2] == pytest.approx(1.0376902182073574e10, rel=1e-9)
    assert row[3] is True


def test_td_huge_gap_drops_below_visibility(tmp_path):
    # the same gap twenty orders of magnitude up: lifetime scales by 1e-40
    code, text = run_cli(["quantum", "td", "--preset", "si-planck",
                          "--delta-e", "7e20meV", "--format", "json"],
                         tmp_path)
    doc = json.loads(text)["data"]
    row = doc["rows"][0]
    assert row[1] == pytest.approx(PLANCK_MEV_SECONDS * 1e-40, rel=1e-6)
    assert 1e-23 <= row[1] <= 1e-22
    assert row[3] is False


def test_td_si_mode_requires_unit_suffix(capsys):
    code, _ = run_cli(["quantum", "td", "--preset", "si-planck",
                       "--delta-e", "7"])
    assert code == 2
    assert "suffix" in capsys.readouterr().err


def test_td_natural_mode_rejects_suffix(capsys):
    code, _ = run_cli(["quantum", "td", "--delta-e", "7meV"])
    assert code == 2


def test_td_natural_mode_bare_number(tmp_path):
    code, text = run_cli(["quantum", "td", "--delta-e", "0.5",
                          "--format", "json"], tmp_path)
    doc = json.loads(text)["data"]
    assert doc["columns"] == ["delta_e", "t_d"]
    assert doc["rows"][0][1] == pytest.approx(2.0 / np.log1p(0.25), rel=1e-12)


def test_td_zero_gap_serializes_infinity(tmp_path):
    code, csv_text = run_cli(["quantum", "td", "--delta-e", "0"],
                             tmp_path, "a.csv")
    _, rows = payload_rows(csv_text)
    assert rows[0][1] == "inf"
    code, json_text = run_cli(["quantum", "td", "--delta-e", "0",
                               "--format", "json"], tmp_path, "b.json")
    assert json.loads(json_text)["data"]["rows"][0][1] == "inf"


def test_td_custom_horizon_column(tmp_path):
    code, text = run_cli(["quantum", "td", "--delta-e", "0.5", "--horizon",
                          "5", "--format", "json"], tmp_path)
    doc = json.loads(text)["data"]
    assert doc["columns"][-1] == "exceeds_horizon"
    assert doc["rows"][0][2] is True  # t_d ~ 8.96 > 5


def _mp_rate(z):
    return mpmath.log1p(z * z) / 2


_HBAR, _TAU = mpmath.mpf("1.054571817e-34"), mpmath.mpf("5.4e-44")


@pytest.mark.parametrize("argv, column, exact", [
    (["quantum", "td", "--delta-e", "1e200"], 1,
     lambda: 1 / _mp_rate(mpmath.mpf("1e200"))),
    (["quantum", "td", "--preset", "si-planck", "--delta-e", "1e180J"], 1,
     lambda: _TAU / _mp_rate(mpmath.mpf("1e180") * _TAU / _HBAR)),
    (["quantum", "defect", "--delta-e", "1e200", "--n", "1"], 2,
     lambda: _mp_rate(mpmath.mpf("1e200"))),
], ids=["td 1e200", "td si-planck 1e180J", "defect 1e200"])
def test_a_huge_gap_has_a_finite_lifetime_and_defect(tmp_path, capsys, argv,
                                                      column, exact):
    # the gap's square overflows a double; its lifetime and defect do not
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, text = run_cli(argv + ["--format", "json"], tmp_path)
    assert code == 0
    assert caught == []
    assert capsys.readouterr().err == ""
    [row] = json.loads(text)["data"]["rows"]
    with mpmath.workdps(40):
        assert row[column] == pytest.approx(float(exact()), rel=1e-15)


def test_evolve_across_a_huge_gap_keeps_the_coherence(tmp_path, capsys):
    # one step multiplies the coherence by (1 - 1e200 i)^-1, about 1e-200 i,
    # not by 0
    state = tmp_path / "rho.json"
    state.write_text(json.dumps({"energies": [0.0, 1e200],
                                 "re": [[0.5, 0.5], [0.5, 0.5]],
                                 "im": [[0.0, 0.0], [0.0, 0.0]]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, text = run_cli(["quantum", "evolve", "--state", str(state),
                              "--n", "1"], tmp_path)
    assert code == 0
    assert caught == []
    assert capsys.readouterr().err == ""
    doc = json.loads(text)["data"]
    got = np.asarray(doc["re"]) + 1j * np.asarray(doc["im"])
    with mpmath.workdps(40):
        z = mpmath.mpf(1e200)
        want = complex(0.5 / mpmath.mpc(1, -z))
        rate = float(_mp_rate(z))
    assert got[0, 0] == got[1, 1] == 0.5
    assert got[1, 0] == np.conj(got[0, 1])
    # the modulus is exp(-rate): see the decoherence report's mpmath test
    tol = (rate + 2) * np.finfo(float).eps
    assert abs(got[0, 1] - want) <= tol * abs(want)


def test_evolve_across_an_overflowing_gap_keeps_the_coherence(tmp_path,
                                                              capsys):
    # e_a - e_b = -2e308 overflows a double: one step still multiplies the
    # coherence by about 5e-309 i, silently, instead of giving 0 and a warning
    state = tmp_path / "rho.json"
    state.write_text(json.dumps({"energies": [-1e308, 1e308],
                                 "re": [[0.5, 0.5], [0.5, 0.5]],
                                 "im": [[0.0, 0.0], [0.0, 0.0]]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, text = run_cli(["quantum", "evolve", "--state", str(state),
                              "--n", "1"], tmp_path)
    assert code == 0
    assert caught == []
    assert capsys.readouterr().err == ""
    doc = json.loads(text)["data"]
    got = complex(doc["re"][0][1], doc["im"][0][1])
    with mpmath.workdps(40):
        gap = mpmath.mpf(-1e308) - mpmath.mpf(1e308)
        want = complex(0.5 / mpmath.mpc(1, gap))
    assert abs(got - want) <= 1e-13 * abs(want)


def _state_file(tmp_path, name="state.json", dim=3, seed=5):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= rho.trace()
    path = tmp_path / name
    path.write_text(json.dumps({
        "energies": list(np.linspace(0.0, 2.0, dim)),
        "re": rho.real.tolist(),
        "im": rho.imag.tolist(),
    }))
    return path


def test_evolve_zero_steps_round_trips_exactly(tmp_path):
    state = _state_file(tmp_path)
    out = tmp_path / "evolved.json"
    code = main(["quantum", "evolve", "--state", str(state), "--n", "0",
                 "--output", str(out)])
    assert code == 0
    original = json.loads(state.read_text())
    evolved = json.loads(out.read_text())["data"]
    # identity evolution + shortest round-trip floats: bytes-equal values
    assert evolved["re"] == original["re"]
    assert evolved["im"] == original["im"]
    assert evolved["energies"] == original["energies"]


def test_evolve_output_feeds_back_in(tmp_path):
    state = _state_file(tmp_path)
    first = tmp_path / "n10.json"
    assert main(["quantum", "evolve", "--state", str(state), "--n", "10",
                 "--output", str(first)]) == 0
    second = tmp_path / "n10p7.json"
    assert main(["quantum", "evolve", "--state", str(first), "--n", "7",
                 "--output", str(second)]) == 0
    direct = tmp_path / "n17.json"
    assert main(["quantum", "evolve", "--state", str(state), "--n", "17",
                 "--output", str(direct)]) == 0
    a = json.loads(second.read_text())["data"]
    b = json.loads(direct.read_text())["data"]
    assert np.max(np.abs(np.asarray(a["re"]) - np.asarray(b["re"]))) < 1e-15
    assert np.max(np.abs(np.asarray(a["im"]) - np.asarray(b["im"]))) < 1e-15


def test_evolve_rejects_csv_format(tmp_path, capsys):
    state = _state_file(tmp_path)
    code, _ = run_cli(["quantum", "evolve", "--state", str(state), "--n", "1",
                       "--format", "csv"])
    assert code == 2


def test_evolve_invalid_state_exits_2_and_repair_accepts(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "energies": [0.0, 1.0],
        "re": [[0.6, 0.0], [0.0, 0.41]],  # trace 1.01
        "im": [[0.0, 0.0], [0.0, 0.0]],
    }))
    code, _ = run_cli(["quantum", "evolve", "--state", str(bad), "--n", "1"])
    assert code == 2
    out = tmp_path / "ok.json"
    with pytest.warns(UserWarning):
        code = main(["quantum", "evolve", "--state", str(bad), "--n", "1",
                     "--repair", "--output", str(out)])
    assert code == 0


def test_equivalence_deviations_are_tiny(tmp_path):
    state = _state_file(tmp_path)
    code, text = run_cli(["quantum", "equivalence", "--state", str(state),
                          "--n-range", "1:5", "--format", "json"], tmp_path)
    assert code == 0
    rows = json.loads(text)["data"]["rows"]
    assert [r[0] for r in rows] == [1, 2, 3, 4, 5]
    assert all(r[1] < 1e-8 for r in rows)


def test_defect_grows_linearly(tmp_path):
    code, text = run_cli(["quantum", "defect", "--delta-e", "0.7",
                          "--n-range", "1:3", "--format", "json"], tmp_path)
    rows = json.loads(text)["data"]["rows"]
    assert rows[2][2] == pytest.approx(3 * rows[0][2], rel=1e-12)


# ---------------------------------------------------------------------------
# chaos and scheme scan


def test_chaos_ct_curve_and_fit(tmp_path):
    code, text = run_cli(["chaos", "ct", "--a", "0.5", "--t-max", "14",
                          "--grid", "50", "--format", "json"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    fit = doc["meta"]["fit"]
    assert fit["exponent"] == pytest.approx(1.0, rel=0.05)
    cols = doc["data"]["columns"]
    assert cols == ["n_or_t", "distance", "fitted_line"]
    assert len(doc["data"]["rows"]) == 50
    assert all(isinstance(r[2], float) for r in doc["data"]["rows"])


def test_chaos_ct_no_fit(tmp_path):
    code, text = run_cli(["chaos", "ct", "--a", "0.5", "--t-max", "14",
                          "--grid", "10", "--no-fit", "--format", "json"],
                         tmp_path)
    doc = json.loads(text)
    assert "fit" not in doc["meta"]
    assert all(r[2] is None for r in doc["data"]["rows"])


def test_chaos_dt_curve_without_fit(tmp_path):
    code, text = run_cli(["chaos", "dt", "--a", "0.5", "--tau", "0.1",
                          "--n-max", "30", "--no-fit"], tmp_path)
    assert code == 0
    _, rows = payload_rows(text)
    assert len(rows) == 30
    assert [r[2] for r in rows] == [""] * 30  # no fitted line requested
    assert all(float(r[1]) >= 0 for r in rows)


def test_chaos_dt_steep_growth_at_one_step(tmp_path):
    # growth 0.95 per step: mpmath gives 0.61327682883223399 * 2/sqrt(3)
    code, text = run_cli(["chaos", "dt", "--a", "0.5", "--tau", "0.95",
                          "--n-max", "3", "--no-fit"], tmp_path)
    assert code == 0
    _, rows = payload_rows(text)
    assert float(rows[0][1]) == pytest.approx(0.70815108442810067, rel=1e-12)


def test_chaos_dt_row_off_half_matches_mpmath(tmp_path):
    # a = cos(1.047): the distance at n = 300 is about 5e-168, from mpmath
    code, text = run_cli(["chaos", "dt", "--a", "0.5001710745970701",
                          "--tau", "0.1", "--n-max", "300", "--no-fit"],
                         tmp_path)
    assert code == 0
    _, rows = payload_rows(text)
    assert int(rows[-1][0]) == 300
    assert float(rows[-1][1]) == pytest.approx(5.3936759355770687e-168,
                                               rel=1e-12)


def test_chaos_dt_fit_reuses_the_table(tmp_path, monkeypatch):
    # the fit's late half n = 60..120 is read from the table's sensitivities,
    # so each step count is integrated once
    real = nonlinear.chirped_sine_expectation
    calls = []

    def counting(n, *args):
        calls.append(n)
        return real(n, *args)

    monkeypatch.setattr(nonlinear, "chirped_sine_expectation", counting)
    code, text = run_cli(["chaos", "dt", "--a", "0.5", "--tau", "0.1",
                          "--n-max", "120", "--format", "json"], tmp_path)
    assert code == 0
    assert sorted(calls) == list(range(1, 121))
    fit = json.loads(text)["meta"]["fit"]
    est = dt_lyapunov(SensitivityModel(0.5, 1.0), GammaKernel(120, 0.1))
    assert fit == cli._fit_meta(est)


def test_alpha_scan_backward_scheme_stays_nonnegative(tmp_path):
    code, text = run_cli(["alpha-scan", "--alphas", "0,0.5", "--n-max", "2",
                          "--format", "json"], tmp_path)
    assert code == 0
    doc = json.loads(text)["data"]
    assert doc["columns"] == ["alpha", "n", "delta_coeff", "grid_min"]
    for alpha, n, delta, grid_min in doc["rows"]:
        if alpha == 0.0:
            assert grid_min > -1e-12
            assert delta == 0.0
        else:
            assert delta == pytest.approx((-1.0) ** n, rel=1e-12)
            assert grid_min < -1e-3


def test_alpha_scan_bad_alphas_is_one_config_error(capsys):
    code, _ = run_cli(["alpha-scan", "--alphas", "0,x", "--n-max", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ConfigError: --alphas: ")


# ---------------------------------------------------------------------------
# process-level entry point


def test_module_invocation_round_trip(tmp_path):
    out = tmp_path / "out.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "dtmech", "transform", "--signal", "cos",
         "--n", "1", "--tau", "1", "--output", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    _, rows = payload_rows(out.read_bytes().decode())
    assert float(rows[0][1]) == pytest.approx(0.5, abs=1e-12)


# a fresh interpreter imports dtmech and its cli, then runs each argv list
# through main(); it prints the scipy modules loaded after every step
_SCIPY_PROBE = r"""
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out_path, commands = sys.argv[1], json.loads(sys.argv[2])
seen = {}
import dtmech
seen["import dtmech"] = [0, scipy_modules()]
import dtmech.cli
seen["import dtmech.cli"] = [0, scipy_modules()]
for argv in commands:
    code = dtmech.cli.main(argv + ["--output", out_path])
    seen[" ".join(argv)] = [code, scipy_modules()]
print(json.dumps(seen))
"""


def scipy_after_each_step(commands, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path / "out"),
         json.dumps(commands)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_and_scipy_free_commands_load_no_scipy(tmp_path):
    commands = [
        ["quantum", "td", "--preset", "si-planck", "--delta-e", "7meV"],
        ["classical", "--model", "oscillator", "--route", "closed",
         "--x", "1,0", "--p", "0,1", "--n", "50", "--tau", "0.25"],
        ["quantum", "defect", "--delta-e", "0.5", "--n-range", "1:5"],
        ["chaos", "ct", "--a", "0.5", "--t-max", "14"],
        ["chaos", "dt", "--a", "0.5", "--tau", "0.1", "--n-max", "100"],
        ["alpha-scan", "--alphas", "0,0.5", "--n-max", "2"],
        ["transform", "--signal", "cos", "--method", "monte-carlo",
         "--samples", "2000", "--seed", "7", "--n-range", "1:5"],
    ]
    seen = scipy_after_each_step(commands, tmp_path)
    assert len(seen) == 2 + len(commands)
    assert seen == {step: [0, []] for step in seen}


def test_gauss_laguerre_transform_loads_no_ode_solver(tmp_path):
    step = ["transform", "--signal", "cos", "--n-range", "1:5"]
    code, loaded = scipy_after_each_step([step], tmp_path)[" ".join(step)]
    assert code == 0
    assert {"scipy.linalg", "scipy.special"} <= set(loaded)
    assert not [m for m in loaded if m.startswith("scipy.integrate")]


def test_fallback_on_a_short_table_keeps_the_cli_contract(tmp_path):
    # cos tabulated on [0, 200] at n = 5, tau = 1: node doubling gives up
    # and the panel fallback stays inside the screening window, which the
    # table covers.  Linear interpolation keeps the panels from the default
    # 1e-10 target (one typed stderr line, exit 3); a looser target returns
    # Re (1 - i)^-5 = -1/8 up to the table's interpolation error
    table = tmp_path / "cos.csv"
    t = np.linspace(0, 200, 4001)
    rows = "\n".join(f"{ti},{vi}" for ti, vi in zip(t, np.cos(t)))
    table.write_text("t,value\n" + rows + "\n")
    args = [sys.executable, "-m", "dtmech", "transform", "--signal", "table",
            "--table", str(table), "--n", "5", "--tau", "1"]
    proc = subprocess.run(args, capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("QuadratureNotConverged: ")
    out = tmp_path / "loose.csv"
    proc = subprocess.run(args + ["--error-target", "1e-6", "--output", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    _, rows = payload_rows(out.read_bytes().decode())
    assert rows[0][-1] == "adaptive"
    assert float(rows[0][1]) == pytest.approx(-0.125, abs=1e-4)


def test_no_stray_temp_files(tmp_path):
    out = tmp_path / "only.csv"
    assert main(["transform", "--signal", "cos", "--n", "1",
                 "--output", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["only.csv"]


_SMALL_REPORT = ["transform", "--signal", "cos", "--n", "1"]


def test_output_through_a_symlink_writes_its_target(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("old")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(_SMALL_REPORT + ["--output", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    _, rows = payload_rows(target.read_bytes().decode())
    assert float(rows[0][1]) == pytest.approx(0.5, abs=1e-12)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv",
                                                         "target.csv"]


def test_output_to_a_fifo_writes_into_it(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    # the read end first, non-blocking: the report's writer cannot block,
    # and a FIFO replaced by a file leaves nothing to read instead of a hang
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(_SMALL_REPORT + ["--output", str(fifo)]) == 0
        text = os.read(reader, 1 << 16).decode()
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert csv_payload(text).startswith("n,value,error,evaluations,method\r\n")


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
def test_a_new_report_file_gets_the_mode_open_would_give(tmp_path, umask):
    out = tmp_path / "new.csv"
    old = os.umask(umask)
    try:
        assert main(_SMALL_REPORT + ["--output", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(out).st_mode) == 0o666 & ~umask


def test_a_rewritten_report_file_keeps_its_mode(tmp_path):
    out = tmp_path / "kept.csv"
    out.write_text("old")
    out.chmod(0o640)
    assert main(_SMALL_REPORT + ["--output", str(out)]) == 0
    assert stat.S_IMODE(os.stat(out).st_mode) == 0o640
    assert out.read_text() != "old"
