"""Shared numeric plumbing: deterministic reductions, Gauss--Legendre panels
and the doubling loop of every rule."""
from __future__ import annotations

import functools

import numpy as np

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

    ``estimate(size, open_)`` returns the columns' values (0-d for a scalar)
    and the part of their errors that more resolution cannot shrink: the
    rounding of the sums, and a bound on what the rule leaves out.
    ``open_`` marks the columns still open (it is ``True`` at the first
    call, when all are); the values of the others are never read, so an
    estimate may skip them.  A column is kept, as a scalar run would keep
    it, at the first doubling where its spread against the size before
    plus that part is at most
    ``max(rel |value|, floor)``: that sum is its error, which must be finite,
    so an overflowing column is never kept.  It is given up once
    the spread is below that part and the part alone exceeds the target.
    Returns values, errors, the size each column was kept at (0 where none
    was; value and error are then the last ones) and the last size tried.
    """
    prev = np.asarray(estimate(size, True)[0])
    value = prev.copy()
    error = np.full(prev.shape, np.inf)
    kept = np.zeros(prev.shape, dtype=int)
    open_ = np.ones(prev.shape, dtype=bool)
    while size < limit and open_.any():
        size *= 2
        cur, fixed = estimate(size, open_)
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
