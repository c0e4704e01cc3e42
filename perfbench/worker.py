"""One worker process of a benchmark run: set up once, execute tasks.

Usage: ``python perfbench/worker.py SPEC_PATH LAUNCHED``

The spec (written by ``run.py``) names the workload, seed, whether to
trace, the run's scheduling state and this worker's deadline;
``LAUNCHED`` is the ``time.monotonic()`` reading the orchestrator took just
before starting this process (one clock for every process).  Set-up is
everything from that launch until the first timed call is ready:
interpreter start, ``import dtmech`` and input generation.

The worker then executes whole tasks (all items of one task, in order) until
its deadline.  Every functools cache in dtmech (the Gauss--Laguerre rule
cache) is cleared before each execution, so every execution starts with the
cold rule cache of a fresh CLI process.  A task that has not yet run in this
run's mode runs regardless of the deadline; after that the task with the
fewest executions so far runs next, as long as its last execution time
says it ends before the deadline.

A typed ``NumericalError`` marks the item failed and the task goes on; any
other exception ends the worker with a traceback, which aborts the run.
Repeated executions must return exactly the outputs of the first one in
this process.  The result goes to the spec's ``result`` path as one JSON
document.
"""
import json
import resource
import signal
import sys
import time


def _terminate(signum, frame):
    # unwinds through subprocess.run, which then kills a running dtmech child
    raise SystemExit(128 + signum)


def dtmech_caches() -> list:
    """Every functools cache bound in a loaded dtmech module or its classes."""
    caches, seen = [], set()
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "dtmech"
                                  or name.startswith("dtmech.")):
            continue
        values = list(vars(module).values())
        values += [v for cls in values if isinstance(cls, type)
                   and cls.__module__.startswith("dtmech")
                   for v in vars(cls).values()]
        for value in values:
            value = getattr(value, "__func__", value)
            if callable(getattr(value, "cache_clear", None)) \
                    and id(value) not in seen:
                seen.add(id(value))
                caches.append(value)
    return caches


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    with open(sys.argv[1]) as handle:
        spec = json.load(handle)
    tracer = None
    imports = None
    if spec["trace"]:
        from tracing import Tracer, timed_import_dtmech, summarize

        imports = timed_import_dtmech()
    else:
        import dtmech.cli  # noqa: F401  (the import a CLI user pays)
    from dtmech.errors import NumericalError

    import workloads

    caches = dtmech_caches()
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    tasks = workloads.generate(spec["workload"], spec["seed"])
    ctx = {"work": spec["work"], "src": spec["src"], "tracer": tracer,
           "cli_driver": spec["cli_driver"]}
    calls = [workloads.prepare(task, ctx) for task in tasks]
    setup_s = time.monotonic() - float(sys.argv[2])

    state = spec["state"]        # per task: executions, spent, last
    deadline = spec["deadline"]
    executions = []
    first_out: dict = {}
    spans_kept: set = set()
    clock = time.perf_counter
    while True:
        pending = [t for t, s in enumerate(state) if s["executions"] == 0]
        if pending:
            t = pending[0]
        else:
            left = deadline - time.monotonic()
            fitting = [t for t, s in enumerate(state) if s["last"] <= left]
            if not fitting:
                break
            t = min(fitting, key=lambda i: (state[i]["executions"],
                                            state[i]["spent"], i))
        for cache in caches:
            cache.cache_clear()
        if tracer is not None:
            tracer.spans = []
        launched = time.monotonic()
        latencies, statuses, outs = [], [], []
        start = clock()
        for index, call in enumerate(calls[t]):
            root = None
            if tracer is not None:
                tracer.item = index
                root = tracer.open("item")
            t0 = clock()
            try:
                out, status = call(), "ok"
            except NumericalError as exc:
                out, status = {"raised": type(exc).__name__,
                               "message": str(exc)}, "failed"
            latency = clock() - t0
            if root is not None:
                tracer.close(root)
            if status == "ok" and "code" in out:
                # a CLI item fails on a non-zero exit it was not expected
                # to give
                if out["code"] not in (0, tasks[t]["items"][index]["expect"]):
                    status = "failed"
            latencies.append(latency)
            statuses.append(status)
            outs.append(out)
        wall_s = clock() - start
        state[t]["executions"] += 1
        state[t]["last"] = time.monotonic() - launched
        state[t]["spent"] += state[t]["last"]
        record = {"task": t, "wall_s": wall_s, "latency_s": latencies,
                  "status": statuses}
        if tasks[t]["items"][0]["kind"] == "cli":
            # CLI payloads: every execution is judged on its own
            record["out"] = outs
        elif t not in first_out:
            first_out[t] = outs
            record["out"] = outs
        elif json.dumps(outs) != json.dumps(first_out[t]):
            record["out"] = outs
            record["differs"] = True
        if tracer is not None:
            record["table"] = summarize(tracer.spans)
            if t not in spans_kept:
                spans_kept.add(t)
                record["spans"] = tracer.spans
            record["imports"] = [o["imports"] for o in outs
                                 if "imports" in o] or None
        executions.append(record)

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"setup_s": setup_s, "rss_kb": rss_kb, "imports": imports,
              "executions": executions, "state": state,
              "missing": tracer.missing if tracer is not None else []}
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
