"""dtmech benchmark: time to a checked answer, per workload and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload transform --seed 1 --seconds 40 --trace 0

A run starts ``WORKERS`` worker processes (``worker.py``) one after another,
each a fresh interpreter that sets up once (its set-up time is one sample
of ``setup_s``) and then executes the workload's tasks until its share of
``--seconds`` is used.  Every execution starts with dtmech's rule cache
cleared, as for every CLI user, and runs at the library defaults
(``error_target = 1e-10``, one thread).  Every output is then checked
against an oracle (``oracles.py``), outside the timed sections.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced workers and reports the per-layer table
(``tracing.py``) with its tracing overhead.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

WORK_DIR = ".perfbench_work"
# every worker is stopped this long after the run started
RUN_TIMEOUT_S = 160
# worker processes per run, one after another: each is one set-up sample
WORKERS = 4
# item_tail_ms is the latency with exactly this many items above it
TAIL_BEYOND = 10

class BenchmarkError(RuntimeError):
    """A fault of the benchmark or its environment, not of the program."""


# ---------------------------------------------------------------------------
# running workers


# One thread everywhere: dtmech's own default, and BLAS/OpenMP pinned to
# one thread, since the reference host has two shared vCPUs and a second
# BLAS thread (the d = 16 matrix products) measured the scheduler: 2.4x the
# CPU time and a wider spread for the same work.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("DTMECH_THREADS", None)
    env.update(ONE_THREAD)
    return env


class Runner:
    def __init__(self, workload: str, seed: int, root: str, scratch: str):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.scratch = scratch
        self.tasks = workloads.generate(workload, seed)
        self.stop_at = time.monotonic() + RUN_TIMEOUT_S
        self.workers: list[dict] = []
        # per mode (untraced, traced), per task: executions, spent, last
        self.state = {mode: [{"executions": 0, "spent": 0.0, "last": 0.0}
                             for _ in self.tasks] for mode in (False, True)}
        env = worker_env()
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.env = env
        self.src = src

    def run_worker(self, traced: bool, deadline: float) -> None:
        n = len(self.workers)
        spec_path = os.path.join(self.scratch, f"spec_{n}.json")
        result_path = os.path.join(self.scratch, f"result_{n}.json")
        with open(spec_path, "w") as handle:
            json.dump({"workload": self.workload, "seed": self.seed,
                       "trace": traced, "work": self.scratch,
                       "src": self.src, "result": result_path,
                       "cli_driver": os.path.join(HERE, "cli_driver.py"),
                       "deadline": deadline, "state": self.state[traced]},
                      handle)
        # the worker's set-up clock starts here: same monotonic clock
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path,
             repr(start)],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.stop_at - time.monotonic()))
        except BaseException as exc:
            # timed out or interrupted (SIGINT/SIGTERM): leave no worker
            # behind; the worker in turn stops its own child on SIGTERM
            proc.terminate()
            try:
                proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchmarkError(f"run exceeded {RUN_TIMEOUT_S} s")
            raise
        if proc.returncode != 0:
            raise BenchmarkError(f"worker {n} exited {proc.returncode}:\n"
                                 f"{err.strip()}")
        with open(result_path) as handle:
            result = json.load(handle)
        os.unlink(result_path)
        os.unlink(spec_path)
        result["traced"] = traced
        self.state[traced] = result.pop("state")
        self.workers.append(result)

    def schedule(self, seconds: float, trace: bool) -> None:
        """WORKERS processes one after another, each up to its deadline.

        Worker ``k`` of ``K`` executes tasks until ``(k+1)/K`` of the run
        has passed; every task runs at least once per mode, even past the
        deadline.  With tracing, untraced and traced workers alternate, so
        the overhead compares the same tasks over the same stretch of time.
        """
        start = time.monotonic()
        for k in range(WORKERS):
            traced = trace and k % 2 == 1
            self.run_worker(traced, start + seconds * (k + 1) / WORKERS)

    def executions(self, traced: bool):
        for worker in self.workers:
            if worker["traced"] == traced:
                yield from worker["executions"]


# ---------------------------------------------------------------------------
# checking


def check(runner: Runner) -> dict:
    """Judge outputs outside every timed section.

    Library items are judged against their oracle once, on the first
    output seen; every later output of the same item must be identical to
    it (workers already compare their own repeats).  CLI outputs are
    judged on every execution.  Accuracy counts come from the first output
    of each item.
    """
    sys.path.insert(0, runner.src)
    import dtmech
    import oracles

    def coeffs_of(item):
        d = len(item["state"]["energies"])
        return workloads.density_coeffs(item["state"]["gauss"], d)

    seen: dict[int, str] = {}
    totals = oracles.Verdict()
    problems: list[str] = []
    failures: list[str] = []
    tolerance_any = 0
    attempted = failed = 0
    for ex in [*runner.executions(False), *runner.executions(True)]:
        task = runner.tasks[ex["task"]]
        attempted += len(ex["status"])
        failed += ex["status"].count("failed")
        if len(ex["status"]) != len(task["items"]):
            problems.append(f"task {task['name']}: item count")
        if ex.get("differs"):
            problems.append(f"task {task['name']}: a repeated execution "
                            "returned other outputs than the first")
        if "out" not in ex:
            continue
        outs = ex["out"]
        is_cli = task["items"][0]["kind"] == "cli"
        if not is_cli and ex["task"] in seen:
            if json.dumps(outs) != seen[ex["task"]]:
                problems.append(f"task {task['name']}: outputs differ "
                                "between worker processes")
            continue
        first = ex["task"] not in seen
        seen[ex["task"]] = json.dumps(outs)
        for item, status, out in zip(task["items"], ex["status"], outs):
            if status == "failed":
                if first:
                    failures.append(f"{task['name']} item {item}: "
                                    f"{json.dumps(out)[:300]}")
                continue
            if is_cli:
                v = oracles.check_cli(item, out, dtmech, coeffs_of)
            else:
                v = oracles.check_item(item, out, dtmech)
            tolerance_any += v.tolerance_misses
            problems += v.problems
            if first:
                totals.merge(v)
    for t, task in enumerate(runner.tasks):
        if t not in seen:
            problems.append(f"task {task['name']} never ran")
    return {"attempted": attempted, "failed": failed,
            "checked": totals.checked,
            "tolerance_misses": totals.tolerance_misses,
            "err_bound_misses": totals.err_bound_misses,
            "correct": tolerance_any == 0 and not problems,
            "problems": problems, "failures": failures}


# ---------------------------------------------------------------------------
# metrics


def upper_quartile(values: list) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def item_latencies(runner: Runner, traced: bool) -> tuple[dict, dict]:
    """Each item's latency over the mode's executions, and counts."""
    samples: dict[tuple, list] = {}
    count: dict[int, int] = {}
    for ex in runner.executions(traced):
        t = ex["task"]
        count[t] = count.get(t, 0) + 1
        for j, latency in enumerate(ex["latency_s"]):
            samples.setdefault((t, j), []).append(latency)
    return ({key: upper_quartile(v) for key, v in samples.items()}, count)


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    """End-to-end metrics from the untraced executions.

    An item's latency is the upper quartile of its executions in the run.
    The host's speed changes with its neighbours: it is slower by up to
    1.6x for stretches from seconds to more than half a minute, with fast
    spells in between.  A low statistic depends on whether fast spells
    happened to cover the item, so minima and even medians scatter between
    runs; the upper quartile lands on the prevailing speed.  ``wall_s`` is
    the sum of the item latencies, the timed section of every item of the
    workload.  Set-up time is the median over the run's worker
    processes, memory the largest peak among them.
    """
    latency, count = item_latencies(runner, False)
    lat = sorted(latency.values())
    n = len(lat)
    tail_index = max(0, n - TAIL_BEYOND - 1)
    plain = [w for w in runner.workers if not w["traced"]]
    metrics = {
        "wall_s": (sum(lat), "s"),
        "item_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "item_tail_ms": (1e3 * lat[tail_index], "ms"),
        "setup_s": (statistics.median(w["setup_s"] for w in plain), "s"),
        "peak_rss_mb": (max(w["rss_kb"] for w in plain) / 1024.0, "MB"),
    }
    info = {"items": n, "tail_percentile": 100.0 * (tail_index + 1) / n,
            "tail_beyond": n - tail_index - 1,
            "executions": {runner.tasks[t]["name"]: c
                           for t, c in sorted(count.items())},
            "setups": len(plain)}
    return metrics, info


def per_layer(runner: Runner, checked: dict, declared: list) -> tuple[dict, list]:
    traced = [ex for ex in runner.executions(True)]
    tables: dict[int, list] = {}
    for ex in traced:
        tables.setdefault(ex["task"], []).append(ex["table"])
    totals: dict[str, float] = {}
    for task_tables in tables.values():
        keys = set().union(*task_tables)
        for key in keys:
            totals[key] = totals.get(key, 0.0) + statistics.median(
                tab.get(key, 0.0) for tab in task_tables)
    if runner.workload == "cli":
        imports = [i for ex in traced for i in ex["imports"] or ()]
    else:
        imports = [w["imports"] for w in runner.workers if w["traced"]]
    totals["import.numpy_scipy_s"] = statistics.median(
        i["numpy_scipy_s"] for i in imports)
    totals["import.dtmech_s"] = statistics.median(
        i["dtmech_s"] for i in imports)
    # every task ran in both modes (see Runner.schedule)
    traced_wall = sum(item_latencies(runner, True)[0].values())
    plain_wall = sum(item_latencies(runner, False)[0].values())
    totals["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    totals["accuracy.err_bound_misses"] = checked["err_bound_misses"]
    totals["accuracy.tolerance_misses"] = checked["tolerance_misses"]
    missing = {m for w in runner.workers for m in w["missing"]}
    metrics = {}
    absent = []
    for spec in declared:
        name = spec["name"]
        if name.rsplit(".", 1)[0] in missing:
            absent.append(name)
            continue
        metrics[name] = (totals.get(name, 0.0), spec["unit"])
    return metrics, absent


# ---------------------------------------------------------------------------
# reporting


def machine_facts(root: str) -> dict:
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    threads = {k: v for k, v in sorted(worker_env().items())
               if k.endswith("_NUM_THREADS") or k in ("DTMECH_THREADS",
                                                      "OPENBLAS_CORETYPE")}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "mpmath": version("mpmath"), "thread_env": threads,
            "commit": git_commit(root)}


def git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _terminate(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, _terminate)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dtmech", "__init__.py")):
        print("perfbench: no src/dtmech under the current directory; run "
              "from the root of a dtmech checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    scratch = os.path.join(root, WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, root, scratch)
        runner.schedule(args.seconds, bool(args.trace))
        checked = check(runner)
        if args.trace:
            metrics, absent = per_layer(runner, checked, declared["per_layer"])
            spans_path = os.path.join(
                root, WORK_DIR, f"spans-{args.workload}-{args.seed}.json")
            with open(spans_path, "w") as handle:
                json.dump([{"task": ex["task"], "spans": ex["spans"]}
                           for ex in runner.executions(True)
                           if "spans" in ex],
                          handle)
            info = {}
        else:
            metrics, info = end_to_end(runner)
            if set(metrics) != {m["name"] for m in declared["end_to_end"]}:
                raise BenchmarkError("end-to-end metrics differ from "
                                     "BENCHMARK.json")
            absent = []
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    facts = machine_facts(root)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(facts, sort_keys=True))
    print(f"items attempted={checked['attempted']} failed={checked['failed']}"
          f" failed_frac={checked['failed'] / checked['attempted']:.4g}"
          f" checked_values={checked['checked']}"
          f" tolerance_misses={checked['tolerance_misses']}"
          f" err_bound_misses={checked['err_bound_misses']}"
          f" correct={checked['correct']}")
    for problem in checked["problems"][:20]:
        print(f"problem: {problem}")
    for failure in checked["failures"][:20]:
        print(f"failed: {failure}")
    if info:
        print(f"samples: {info['items']} items, each timed at the upper "
              f"quartile of its task's executions; {info['setups']} set-ups; "
              f"item_tail_ms is p{info['tail_percentile']:.2f} with "
              f"{info['tail_beyond']} items beyond it")
        print("executions per task: " + " ".join(
            f"{k}={v}" for k, v in info["executions"].items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    for name in absent:
        print(f"  {name:36s} {'absent':>14s} (hook target gone)")
    result = {"correct": checked["correct"], "attempted": checked["attempted"],
              "failed": checked["failed"],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
