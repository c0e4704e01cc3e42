"""Span recording around dtmech's public functions, from outside the package.

Nothing in ``src/`` is instrumented.  :func:`install` replaces each traced
function in every ``dtmech`` module namespace that holds it, so a caller that
bound the name at import time (``from .kernel import transform_quadrature``
in ``classical``) reaches the wrapper as well.  Spans live in memory as
``[name, start, end, parent, item, extra]`` lists and are written out once,
when the worker ends; :func:`summarize` turns them into the per-layer table.
"""
from __future__ import annotations

import builtins
import functools
import sys
import time

# (layer, dotted name inside dtmech) of every wrapped function.
# ``kernel.rule_build`` is the private cached Gauss--Laguerre builder: the
# measured hot spot, timed on hits and misses alike.
TRACED = [
    ("kernel.transform", "kernel.transform_quadrature"),
    ("kernel.rule", "kernel.QuadratureRule.for_kernel"),
    ("kernel.rule_build", "kernel._laguerre_rule"),
    ("kernel.mc", "kernel.transform_monte_carlo"),
    ("nonlinear.chirped", "nonlinear.chirped_sine_expectation"),
    ("classical.report", "classical.quadrature_moments"),
    ("classical.report", "classical.free_particle_moments"),
    ("classical.report", "classical.sho_moments"),
    ("classical.report", "classical.sho_moments_scaled"),
    ("classical.observable", "classical.evolve_observable"),
    ("quantum.equivalence", "quantum.gamma_equivalence_check"),
    ("cli.main", "cli.main"),
    ("report.render", "report.render_csv"),
    ("report.render", "report.render_json"),
    ("report.write", "report.write_report"),
]


class ImportClock:
    """Times imports of numpy/scipy, counting only the outermost one.

    Installed on ``builtins.__import__`` before ``import dtmech``; the time
    spent inside numpy or scipy imports (including everything they pull in)
    accumulates in ``numpy_scipy_s``.
    """

    def __init__(self):
        self.numpy_scipy_s = 0.0
        self._depth = 0
        self._original = builtins.__import__

    def __enter__(self):
        builtins.__import__ = self._import
        return self

    def __exit__(self, *exc):
        builtins.__import__ = self._original

    def _import(self, name, globals=None, locals=None, fromlist=(), level=0):
        heavy = level == 0 and name.split(".")[0] in ("numpy", "scipy")
        if not heavy or self._depth:
            return self._original(name, globals, locals, fromlist, level)
        self._depth += 1
        start = time.perf_counter()
        try:
            return self._original(name, globals, locals, fromlist, level)
        finally:
            self.numpy_scipy_s += time.perf_counter() - start
            self._depth -= 1


def timed_import_dtmech() -> dict:
    """Import dtmech (and its cli) and split the time into numpy/scipy vs own."""
    start = time.perf_counter()
    with ImportClock() as clock:
        import dtmech.cli  # noqa: F401
    total = time.perf_counter() - start
    return {"numpy_scipy_s": clock.numpy_scipy_s,
            "dtmech_s": total - clock.numpy_scipy_s}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item = None
        self.missing: list[str] = []
        self._cache = None

    # -- recording ---------------------------------------------------------

    def open(self, name: str, extra: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.item,
                           {} if extra is None else extra])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = {}
            before = tracer._cache_info() if layer == "kernel.transform" else None
            index = tracer.open(layer, extra)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                extra["raised"] = type(exc).__name__
                raise
            finally:
                tracer.close(index)
                if before is not None:
                    after = tracer._cache_info()
                    extra["hits"] = after.hits - before.hits
                    extra["misses"] = after.misses - before.misses
            method = getattr(out, "method", None)
            if method is not None:
                extra["method"] = method
            node_count = getattr(out, "node_count", None)
            if node_count is not None:
                extra["nodes"] = int(node_count)
            return out

        return wrapper

    def _cache_info(self):
        return self._cache.cache_info() if self._cache is not None else None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in :data:`TRACED` wherever dtmech binds it."""
        import dtmech
        import dtmech.cli  # noqa: F401  (make sure every module is loaded)

        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "dtmech" or name.startswith("dtmech."))
                   and m is not None]
        cache = getattr(dtmech.kernel, "_laguerre_rule", None)
        self._cache = cache if hasattr(cache, "cache_info") else None
        if self._cache is None:
            self.missing.append("kernel.rule_cache")
        for layer, dotted in TRACED:
            module_name, _, attr = dotted.rpartition(".")
            owner = dtmech
            for part in module_name.split("."):
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                self.missing.append(layer)
                continue
            original = getattr(owner, attr)
            if isinstance(owner, type):
                # a classmethod: callers reach it through the class
                setattr(owner, attr, staticmethod(self._wrap(layer, original)))
                continue
            wrapped = self._wrap(layer, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)

    def adopt(self, spans: list[list]) -> None:
        """Append spans recorded by a child process under the open span.

        Both processes read the same monotonic clock, so the child's
        intervals nest inside the parent's item span as recorded.
        """
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for name, start, end, p, _item, extra in spans:
            self.spans.append([name, start, end,
                               parent if p is None else base + p,
                               self.item, extra])


# ---------------------------------------------------------------------------
# aggregation


def _self_times(spans: list[list]) -> list[float]:
    """Per-span self time: duration minus the time covered by child spans.

    A child of the same layer (``sho_moments_scaled`` calling ``sho_moments``)
    is transparent: its own self time stays with the enclosing span.
    Single-threaded spans nest, so children never overlap one another.
    """
    dur = [s[2] - s[1] for s in spans]
    own = list(dur)
    for i in range(len(spans) - 1, -1, -1):
        parent = spans[i][3]
        if parent is None:
            continue
        own[parent] -= dur[i]
        if spans[parent][0] == spans[i][0]:
            own[parent] += own[i]
    return own


def summarize(spans: list[list]) -> dict:
    """Per-layer counts and times of one traced execution.

    Only spans not nested inside a span of the same layer are counted, so
    busy time is the time the layer was active, never double counted.
    """
    own = _self_times(spans)
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for i, (name, start, end, parent, _item, extra) in enumerate(spans):
        if name == "item":
            continue
        p = parent
        nested = False
        while p is not None:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if nested:
            continue
        busy = end - start
        add(f"{name}.calls", 1)
        add(f"{name}.busy_s", busy)
        add(f"{name}.self_s", own[i])
        raised = "raised" in extra
        method = extra.get("method")
        if name == "kernel.transform":
            add("kernel.transform.nodes", extra.get("nodes", 0))
            add("kernel.rule_cache.hits", extra.get("hits", 0))
            add("kernel.rule_cache.misses", extra.get("misses", 0))
            add("kernel.transform.failed", int(raised))
            add("kernel.transform.fallback", int(method == "adaptive"))
            if raised or method == "adaptive":
                add("kernel.transform.fallback_busy_s", busy)
        elif name == "nonlinear.chirped":
            add("nonlinear.chirped.failed", int(raised))
            add("nonlinear.chirped.panel", int(method == "oscillatory-panels"))
            add("nonlinear.chirped.saddle", int(method == "saddle-point"))
            if method == "saddle-point":
                add("nonlinear.chirped.saddle_busy_s", busy)
    return out
