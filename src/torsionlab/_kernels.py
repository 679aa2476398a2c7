"""The hot numeric kernel: a logarithmic source expansion at many points.

The expensive inner loop of the whole package is evaluating
sum_j a_j (1/2pi) log|x - s_j| and its derivatives at many points.  The
caller names the parts it reads (``want``: value ``u``, gradient ``g``,
Hessian ``h``) and only those are computed; each part is the same expression
over the same point chunks whatever else is asked for, so it is bitwise equal
to the corresponding part of a full ``want="ugh"`` call.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi

# the only implementation; recorded in report.json and the benchmark environment
BACKEND = "numpy"


def log_source_fields(points, sources, coeffs, want="ugh"):
    """Value/gradient/Hessian of sum_j a_j * (1/2pi) log|x - s_j|.

    points: (n, 2), sources: (m, 2), coeffs: (m,); want: a non-empty subset
    of "ugh".  Returns u (n,), grad (n, 2), hess (n, 3) as (uxx, uxy, uyy),
    with None for each part not in want.  Chunked over points to bound the
    (chunk, m) temporaries.
    """
    if not want or not set(want) <= set("ugh"):
        raise ValueError(f"want must be a non-empty subset of 'ugh', got {want!r}")
    points = np.ascontiguousarray(points, dtype=np.float64)
    sources = np.ascontiguousarray(sources, dtype=np.float64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
    n = points.shape[0]
    u = np.zeros(n) if "u" in want else None
    grad = np.zeros((n, 2)) if "g" in want else None
    hess = np.zeros((n, 3)) if "h" in want else None
    if sources.shape[0] == 0:
        return u, grad, hess
    chunk = max(1, int(2_000_000 // max(1, sources.shape[0])))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        dx = points[lo:hi, 0, None] - sources[None, :, 0]
        dy = points[lo:hi, 1, None] - sources[None, :, 1]
        r2 = dx * dx + dy * dy
        if u is not None:
            u[lo:hi] = (0.5 / TWO_PI) * (np.log(r2) @ coeffs)
        if grad is None and hess is None:
            continue
        inv = coeffs / TWO_PI / r2
        if grad is not None:
            grad[lo:hi, 0] = np.sum(dx * inv, axis=1)
            grad[lo:hi, 1] = np.sum(dy * inv, axis=1)
        if hess is not None:
            inv2 = inv / r2
            hess[lo:hi, 0] = np.sum(inv - 2.0 * dx * dx * inv2, axis=1)
            hess[lo:hi, 1] = np.sum(-2.0 * dx * dy * inv2, axis=1)
            hess[lo:hi, 2] = np.sum(inv - 2.0 * dy * dy * inv2, axis=1)
    return u, grad, hess
