"""SMAWK: row minima of a totally monotone matrix in O(rows + cols) evals.

This is the classic Aggarwal–Klawe–Moran–Shor–Wilber algorithm the paper
reaches through [1, 3] (Lemma 3): multiplying Monge matrices in the
(min,+) semiring reduces to one row-minima problem per output row, each
solved with a linear number of entry evaluations.

The matrix is supplied as a callable ``f(row, col)``; entries may be
``+∞`` (Lemma 4 padding) — ties keep the leftmost column, which preserves
total monotonicity for Monge inputs.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

import numpy as np

R = TypeVar("R")
C = TypeVar("C")


def smawk_row_minima(
    rows: Sequence[R],
    cols: Sequence[C],
    f: Callable[[R, C], float],
) -> dict[R, C]:
    """Argmin column of every row of a totally monotone matrix."""
    out: dict[R, C] = {}
    if rows and cols:
        _smawk(list(rows), list(cols), f, out)
    return out


def _smawk(rows: list[R], cols: list[C], f, out: dict[R, C]) -> None:
    if not rows:
        return
    # REDUCE: prune columns that cannot hold any row's minimum.
    stack: list[C] = []
    for c in cols:
        while stack:
            r = rows[len(stack) - 1]
            if f(r, stack[-1]) <= f(r, c):
                break
            stack.pop()
        if len(stack) < len(rows):
            stack.append(c)
    cols2 = stack
    # Recurse on the odd rows.
    _smawk(rows[1::2], cols2, f, out)
    # INTERPOLATE the even rows between their odd neighbours' argmins.
    index = {c: i for i, c in enumerate(cols2)}
    lo = 0
    for i in range(0, len(rows), 2):
        r = rows[i]
        hi = index[out[rows[i + 1]]] if i + 1 < len(rows) else len(cols2) - 1
        best = None
        bestc = cols2[lo]
        for j in range(lo, hi + 1):
            v = f(r, cols2[j])
            if best is None or v < best:
                best = v
                bestc = cols2[j]
        out[r] = bestc
        if i + 1 < len(rows):
            lo = index[out[rows[i + 1]]]


def smawk_row_minima_array(offsets: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Argmin over ``k`` of ``offsets[i, k] + b[k, j]`` for *every* ``(i, j)``.

    The array fast path behind :func:`repro.monge.multiply.minplus_monge`:
    one call solves all ``α`` output rows of a Monge product at once with
    NumPy index arithmetic — no per-entry Python callables.  ``b`` must be
    Monge (``+∞`` entries allowed); ties keep the leftmost ``k``, matching
    the callable SMAWK above.

    Every output row ``i`` is an independent totally monotone row-minima
    instance ``M_i[j, k] = offsets[i, k] + b[k, j]``, so the leftmost
    argmins are non-decreasing in ``j``.  We run the classic monotone
    divide-and-conquer over output columns, level by level, batched across
    all rows: each level gathers every (row, node) search segment into one
    flat value vector and reduces it with ``np.minimum.reduceat``.  Work is
    ``O(α(β + γ log γ))`` array-element touches — a ``log`` factor above
    SMAWK's eval count, repaid thousands of times over by leaving the
    Python interpreter out of the inner loop.

    Returns the ``(α, γ)`` int array of argmin inner indices.
    """
    offsets = np.ascontiguousarray(offsets, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if offsets.ndim != 2 or b.ndim != 2:
        raise ValueError("offsets and b must be 2-D")
    al, inner = offsets.shape
    inner2, bc = b.shape
    if inner != inner2:
        raise ValueError(f"inner dimensions differ: {offsets.shape} vs {b.shape}")
    if inner == 0:
        raise ValueError("cannot take row minima over an empty inner dimension")
    argmin = np.zeros((al, bc), dtype=np.intp)
    if al == 0 or bc == 0:
        return argmin
    # Level-order traversal of the balanced conquer over [0, bc).  A node
    # is (jlo, jhi) half-open with bounding columns lb/rb already solved
    # (-1 = no bound yet); monotonicity pins its mid column's search range
    # to the bounds induced by those columns.  Rows whose minimum is ``+∞``
    # (Lemma 4's padded columns) carry no monotonicity information, so they
    # pass their *own* search range through as the bound instead of their
    # arbitrary argmin — `bound_lo`/`bound_hi` hold that per-column answer.
    bound_lo = np.zeros((al, bc), dtype=np.intp)
    bound_hi = np.zeros((al, bc), dtype=np.intp)
    jlo = np.array([0], dtype=np.intp)
    jhi = np.array([bc], dtype=np.intp)
    lb = np.array([-1], dtype=np.intp)
    rb = np.array([-1], dtype=np.intp)
    while jlo.size:
        nn = jlo.size
        mids = (jlo + jhi) // 2
        klo = np.where(lb >= 0, bound_lo[:, np.maximum(lb, 0)], 0)
        khi = np.where(rb >= 0, bound_hi[:, np.maximum(rb, 0)], inner - 1)
        lengths = (khi - klo + 1).ravel()  # (al·nn,) all ≥ 1 by monotonicity
        starts = np.empty(lengths.size, dtype=np.intp)
        starts[0] = 0
        np.cumsum(lengths[:-1], out=starts[1:])
        seg = np.repeat(np.arange(al * nn, dtype=np.intp), lengths)
        k_idx = np.arange(lengths.sum(), dtype=np.intp)
        k_idx -= np.repeat(starts, lengths)
        k_idx += np.repeat(klo.ravel(), lengths)
        i_idx = seg // nn
        j_idx = mids[seg % nn]
        vals = offsets[i_idx, k_idx] + b[k_idx, j_idx]
        seg_min = np.minimum.reduceat(vals, starts)
        first = np.where(vals == np.repeat(seg_min, lengths), k_idx, inner)
        arg = np.minimum.reduceat(first, starts).reshape(al, nn)
        finite = np.isfinite(seg_min).reshape(al, nn)
        argmin[:, mids] = arg
        bound_lo[:, mids] = np.where(finite, arg, klo)
        bound_hi[:, mids] = np.where(finite, arg, khi)
        # children inherit the freshly solved mids as bounds
        lmask = mids > jlo
        rmask = mids + 1 < jhi
        jlo, jhi, lb, rb = (
            np.concatenate([jlo[lmask], mids[rmask] + 1]),
            np.concatenate([mids[lmask], jhi[rmask]]),
            np.concatenate([lb[lmask], mids[rmask]]),
            np.concatenate([mids[lmask], rb[rmask]]),
        )
    return argmin


def brute_force_row_minima(
    rows: Sequence[R], cols: Sequence[C], f: Callable[[R, C], float]
) -> dict[R, C]:
    """O(rows × cols) reference used by the tests and the naive product."""
    out: dict[R, C] = {}
    for r in rows:
        best = None
        bestc = cols[0]
        for c in cols:
            v = f(r, c)
            if best is None or v < best:
                best = v
                bestc = c
        out[r] = bestc
    return out
