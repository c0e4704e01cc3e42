"""Shared numeric plumbing: deterministic reductions and thread helpers."""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

THREAD_ENV_VAR = "DTMECH_THREADS"


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

