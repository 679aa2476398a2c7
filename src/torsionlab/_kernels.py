"""The hot numeric kernel: a logarithmic source expansion at many points.

The expensive inner loop of the whole package is evaluating
sum_j a_j (1/2pi) log|x - s_j| and its derivatives at many points.  The
caller names the parts it reads (``want``: value ``u``, gradient ``g``,
Hessian ``h``) and only those are computed; each part is the same expression
over the same point blocks whatever else is asked for, so it is bitwise equal
to the corresponding part of a full ``want="ugh"`` call.

Points go through in blocks of about ``BLOCK_PAIRS`` point-source pairs, so
each (rows, m) float64 temporary is about 256 KB and stays in cache.  A
block's row count is a multiple of 4: the value part is a matrix-vector
product, and OpenBLAS's ``dgemv`` takes rows in groups of 4 and the trailing
``n % 4`` through another kernel, so only 4-aligned splits leave every row's
sum unchanged.  The gradient and Hessian are per-row sums.  Every row is
therefore bitwise what a single-block call gives, whatever the blocking.

A block's temporaries (dx, dy, r2, the log or a summand, inv, inv2) are
C-contiguous (rows, m) views of one workspace, written through ufunc ``out=``
arguments with the same expressions in the same order as fresh arrays would
be, so every result is bitwise unchanged.  Fresh 256 KB temporaries cost page
faults, not arithmetic: glibc hands such freed blocks back to the OS, and the
next block faults the same pages in again.  Workspaces, 6 * min(rows, n) * m float64s each,
live on the module's free list ``_WORKSPACES``: a call pops one (or makes one
when none is large enough) and appends it back when it returns.
``list.pop`` and ``list.append`` are atomic, so concurrent calls, such as
those of a sweep's worker threads, never share one, and no more workspaces
exist than calls have run at once.  Only workspaces of at most 6 *
BLOCK_PAIRS values (1.5 MB) are kept; a larger need (m > 8192 sources) gets
a one-off workspace.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi

# the only implementation; recorded in report.json and the benchmark environment
BACKEND = "numpy"

# point-source pairs per block: 32768 float64s are 256 KB per temporary
BLOCK_PAIRS = 32_768

# free workspaces of six block temporaries each (see the module docstring);
# none above six 256 KB temporaries, 1.5 MB, is kept
_WORKSPACES = []
_POOLED_VALUES = 6 * BLOCK_PAIRS


def block_rows(m):
    """Rows per block for m sources: about BLOCK_PAIRS pairs, a multiple of 4,
    and at least 4."""
    return max(4, BLOCK_PAIRS // m // 4 * 4)


def log_source_fields(points, sources, coeffs, want="ugh"):
    """Value/gradient/Hessian of sum_j a_j * (1/2pi) log|x - s_j|.

    points: (n, 2), sources: (m, 2), coeffs: (m,); want: a non-empty subset
    of "ugh".  Returns u (n,), grad (n, 2), hess (n, 3) as (uxx, uxy, uyy),
    with None for each part not in want.  Points go through in blocks of
    ``block_rows(m)`` rows, which bounds the (rows, m) temporaries and leaves
    every result bitwise equal to a single-block call.  The temporaries are
    views of a workspace from ``_WORKSPACES``, which the call returns there.
    """
    if not want or not set(want) <= set("ugh"):
        raise ValueError(f"want must be a non-empty subset of 'ugh', got {want!r}")
    points = np.ascontiguousarray(points, dtype=np.float64)
    sources = np.ascontiguousarray(sources, dtype=np.float64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
    n, m = points.shape[0], sources.shape[0]
    u = np.zeros(n) if "u" in want else None
    grad = np.zeros((n, 2)) if "g" in want else None
    hess = np.zeros((n, 3)) if "h" in want else None
    if m == 0 or n == 0:
        return u, grad, hess
    rows = block_rows(m)
    # values per temporary, a multiple of 8 so that every view is as aligned as ws
    size = -(-min(rows, n) * m // 8) * 8
    ws = None
    if 6 * size <= _POOLED_VALUES:
        try:
            ws = _WORKSPACES.pop()
        except IndexError:
            pass
    if ws is None or ws.size < 6 * size:
        ws = np.empty(6 * size)
    try:
        scaled = coeffs / TWO_PI
        for lo in range(0, n, rows):
            hi = min(n, lo + rows)
            # (hi - lo, m) C-contiguous views of six disjoint stretches of ws,
            # each written in this block before it is read
            dx, dy, r2, inv, inv2, t = (
                ws[i * size : i * size + (hi - lo) * m].reshape(hi - lo, m) for i in range(6)
            )
            _difference(dx, points[lo:hi, 0, None], sources[:, 0], t)
            _difference(dy, points[lo:hi, 1, None], sources[:, 1], t)
            np.add(np.multiply(dx, dx, out=r2), np.multiply(dy, dy, out=t), out=r2)
            if u is not None:
                u[lo:hi] = (0.5 / TWO_PI) * (np.log(r2, out=t) @ coeffs)
            if grad is None and hess is None:
                continue
            np.copyto(inv, scaled)
            np.divide(inv, r2, out=inv)  # coeffs / TWO_PI / r2
            if grad is not None:
                grad[lo:hi, 0] = np.sum(np.multiply(dx, inv, out=t), axis=1)
                grad[lo:hi, 1] = np.sum(np.multiply(dy, inv, out=t), axis=1)
            if hess is not None:
                np.divide(inv, r2, out=inv2)
                # inv - 2.0 * dx * dx * inv2 and the like, left to right
                _product(t, 2.0, dx, dx, inv2)
                hess[lo:hi, 0] = np.sum(np.subtract(inv, t, out=t), axis=1)
                hess[lo:hi, 1] = np.sum(_product(t, -2.0, dx, dy, inv2), axis=1)
                _product(t, 2.0, dy, dy, inv2)
                hess[lo:hi, 2] = np.sum(np.subtract(inv, t, out=t), axis=1)
    finally:
        if ws.size <= _POOLED_VALUES:
            _WORKSPACES.append(ws)
    return u, grad, hess


def _difference(out, col, row, scratch):
    """col - row broadcast to out's shape, using scratch.  The broadcasts are
    copies: a ufunc that broadcasts allocates 64 KB iterator buffers per
    operand, and is slower than the copies and a same-shape subtraction."""
    np.copyto(out, col)
    np.copyto(scratch, row)
    return np.subtract(out, scratch, out=out)


def _product(out, s, a, b, c):
    """s * a * b * c, multiplied left to right into out."""
    np.multiply(s, a, out=out)
    np.multiply(out, b, out=out)
    return np.multiply(out, c, out=out)
