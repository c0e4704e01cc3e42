"""Shared numeric plumbing: deterministic reductions, Gauss--Legendre panels,
the doubling loop of every rule, and thread helpers."""
from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

THREAD_ENV_VAR = "DTMECH_THREADS"

#: Points per Gauss--Legendre panel; panel rules start from FIRST_PANELS
#: panels and double up to MAX_PANELS
PANEL_NODES = 32
FIRST_PANELS = 8
MAX_PANELS = 1024

EPS = float(np.finfo(float).eps)
#: log of the largest double: e^x overflows past it
LOG_MAX_DOUBLE = float(np.log(np.finfo(float).max))


def pairwise_sum(values):
    """Sum an array with a fixed binary-tree reduction order.

    The tree depends only on the array length, never on chunking or thread
    count, so reductions are bit-reproducible across runs and executors.  An
    ``(m, k)`` array gives ``k`` sums, each bit-identical to its column's.
    """
    a = np.asarray(values)
    if a.ndim != 2:
        a = a.ravel()
        if a.size == 0:
            return a.dtype.type(0.0) if a.dtype.kind in "fc" else 0.0
    while a.shape[0] > 1:
        half = a.shape[0] // 2
        merged = a[0 : 2 * half : 2] + a[1 : 2 * half : 2]
        if a.shape[0] % 2:
            merged = np.concatenate([merged, a[-1:]])
        a = merged
    return a[0]


def pairwise_dot(weights, values):
    """Deterministic dot product built on :func:`pairwise_sum`, per column."""
    values = np.asarray(values)
    return pairwise_sum(as_rows(np.asarray(weights), values) * values)


def as_rows(per_row, values):
    """View a per-row array so it broadcasts against ``(m,)`` or ``(m, k)``."""
    return per_row.reshape(per_row.shape + (1,) * (values.ndim - per_row.ndim))


def modulus(values):
    """Elementwise ``|z|`` bit-identical to Python's ``abs`` on each entry
    (``np.abs`` on complex arrays can differ from it in the last bit)."""
    a = np.asarray(values)
    return np.hypot(a.real, a.imag) if a.dtype.kind == "c" else np.abs(a)


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The PANEL_NODES-point Gauss--Legendre rule on [0, 1], built on first use."""
    x, w = np.polynomial.legendre.leggauss(PANEL_NODES)
    return 0.5 * (x + 1.0), 0.5 * w


def legendre_panels(panels: int, length: float):
    """Nodes and weights of ``panels`` equal Gauss--Legendre panels on [0, length]."""
    x, w = _legendre_rule()
    h = length / panels
    nodes = (np.arange(panels)[:, None] + x).ravel() * h
    return nodes, np.tile(w * h, panels)


def refine(estimate, size: int, limit: int, rel: float, floor: float = 0.0):
    """Double a rule's size until every column is kept, or up to ``limit``.

    ``estimate(size)`` returns the columns' values (0-d for a scalar) and the
    part of their errors that more resolution cannot shrink: the rounding of
    the sums, and a bound on what the rule leaves out.  A column is kept, as
    a scalar run would keep it, at the first doubling where its spread
    against the size before plus that part is at most
    ``max(rel |value|, floor)``: that sum is its error, which must be finite,
    so an overflowing column is never kept.  It is given up once
    the spread is below that part and the part alone exceeds the target.
    Returns values, errors, the size each column was kept at (0 where none
    was; value and error are then the last ones) and the last size tried.
    """
    prev = np.asarray(estimate(size)[0])
    value = prev.copy()
    error = np.full(prev.shape, np.inf)
    kept = np.zeros(prev.shape, dtype=int)
    open_ = np.ones(prev.shape, dtype=bool)
    while size < limit and open_.any():
        size *= 2
        cur, fixed = estimate(size)
        with np.errstate(over="ignore", invalid="ignore"):
            spread = modulus(cur - prev)
            err = spread + fixed
        target = np.maximum(rel * modulus(cur), floor)
        np.copyto(value, cur, where=open_)
        np.copyto(error, err, where=open_)
        accept = open_ & np.isfinite(err) & (err <= target)
        kept[accept] = size
        open_ &= ~accept
        if np.any(fixed):
            open_ &= (spread > fixed) | (fixed <= target)
        prev = cur
    return value, error, kept, size


def resolve_thread_count(threads=None):
    """Thread count from the argument, else the environment, else 1."""
    if threads is not None:
        n = int(threads)
    else:
        raw = os.environ.get(THREAD_ENV_VAR, "")
        try:
            n = int(raw) if raw else 1
        except ValueError:
            raise ValueError(f"{THREAD_ENV_VAR} must be an integer, got {raw!r}")
    if n < 1:
        raise ValueError(f"thread count must be >= 1, got {n}")
    return n


def deterministic_map(func, items, threads=None):
    """Map preserving input order; results are independent of thread count.

    Parallelism is only ever applied across independent work items; each item
    is computed single-threaded, so the gathered list is identical for any
    executor width.
    """
    items = list(items)
    n = resolve_thread_count(threads)
    if n <= 1 or len(items) <= 1:
        return [func(x) for x in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(func, items))

