import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from torsionlab import _kernels


def _reference(points, sources, coeffs):
    """Straightforward per-point loop, the kernel oracle."""
    n = points.shape[0]
    u = np.zeros(n)
    grad = np.zeros((n, 2))
    hess = np.zeros((n, 3))
    for i in range(n):
        for j in range(sources.shape[0]):
            d = points[i] - sources[j]
            r2 = float(d @ d)
            a = coeffs[j] / (2.0 * np.pi)
            u[i] += 0.5 * a * np.log(r2)
            grad[i] += a * d / r2
            hess[i, 0] += a * (1.0 / r2 - 2.0 * d[0] * d[0] / r2**2)
            hess[i, 1] += a * (-2.0 * d[0] * d[1] / r2**2)
            hess[i, 2] += a * (1.0 / r2 - 2.0 * d[1] * d[1] / r2**2)
    return u, grad, hess


def _allocating_kernel(points, sources, coeffs, want):
    """The kernel as it was before its workspace: the same blocks and
    expressions, with fresh temporaries in every block; the bitwise oracle."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    sources = np.ascontiguousarray(sources, dtype=np.float64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
    n = points.shape[0]
    u = np.zeros(n) if "u" in want else None
    grad = np.zeros((n, 2)) if "g" in want else None
    hess = np.zeros((n, 3)) if "h" in want else None
    if sources.shape[0] == 0:
        return u, grad, hess
    rows = _kernels.block_rows(sources.shape[0])
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        dx = points[lo:hi, 0, None] - sources[None, :, 0]
        dy = points[lo:hi, 1, None] - sources[None, :, 1]
        r2 = dx * dx + dy * dy
        if u is not None:
            u[lo:hi] = (0.5 / _kernels.TWO_PI) * (np.log(r2) @ coeffs)
        if grad is None and hess is None:
            continue
        inv = coeffs / _kernels.TWO_PI / r2
        if grad is not None:
            grad[lo:hi, 0] = np.sum(dx * inv, axis=1)
            grad[lo:hi, 1] = np.sum(dy * inv, axis=1)
        if hess is not None:
            inv2 = inv / r2
            hess[lo:hi, 0] = np.sum(inv - 2.0 * dx * dx * inv2, axis=1)
            hess[lo:hi, 1] = np.sum(-2.0 * dx * dy * inv2, axis=1)
            hess[lo:hi, 2] = np.sum(inv - 2.0 * dy * dy * inv2, axis=1)
    return u, grad, hess


# every non-empty subset of the parts, in the order the kernel returns them
WANTS = ("u", "g", "h", "ug", "uh", "gh", "ugh")


def _assert_parts_equal(parts, refs, label):
    for letter, part, ref in zip("ugh", parts, refs):
        assert (part is None) == (ref is None), (label, letter)
        if ref is not None:
            assert part.shape == ref.shape and np.array_equal(part, ref), (label, letter)


def test_active_backend_matches_reference(rng):
    pts = rng.uniform(-0.7, 0.7, size=(40, 2))
    src = 2.0 * rng.standard_normal((15, 2))
    src[np.hypot(src[:, 0], src[:, 1]) < 1.2] += 3.0
    coeffs = rng.standard_normal(15)
    ur, gr, hr = _reference(pts, src, coeffs)
    for want in ("ugh", "u", "g"):
        u, g, h = _kernels.log_source_fields(pts, src, coeffs, want)
        if "u" in want:
            assert np.max(np.abs(u - ur)) <= 1e-13
        if "g" in want:
            assert np.max(np.abs(g - gr)) <= 1e-13
        if "h" in want:
            assert np.max(np.abs(h - hr)) <= 1e-12


def _assert_parts_equal_full_call(pts, src, coeffs):
    full = _kernels.log_source_fields(pts, src, coeffs, "ugh")
    for want in WANTS:
        parts = _kernels.log_source_fields(pts, src, coeffs, want)
        for letter, part, ref in zip("ugh", parts, full):
            if letter in want:
                assert part.shape == ref.shape and np.array_equal(part, ref), (want, letter)
            else:
                assert part is None, (want, letter)


def test_requested_parts_equal_full_call_bitwise(rng):
    pts = rng.uniform(-0.7, 0.7, size=(200, 2))
    src = np.stack([3.0 + rng.uniform(0, 1, 30), rng.uniform(-2, 2, 30)], axis=-1)
    coeffs = rng.standard_normal(30)
    _assert_parts_equal_full_call(pts, src, coeffs)


def _ring_sources(rng, m):
    """m sources at random angles and radii in [1.5, 3], outside the points."""
    theta = rng.uniform(0.0, 2.0 * np.pi, m)
    return rng.uniform(1.5, 3.0, m)[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def test_requested_parts_equal_full_call_across_chunks():
    # 4000 sources give 8-row blocks, so 1200 points span 150 of them
    rng = np.random.default_rng(4000)
    pts = rng.uniform(-0.7, 0.7, size=(1200, 2))
    _assert_parts_equal_full_call(pts, _ring_sources(rng, 4000), rng.standard_normal(4000))


def _problem(n, m, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.7, 0.7, size=(n, 2)), _ring_sources(rng, m), rng.standard_normal(m)


# largest workspace first, so the smaller calls after it reuse it
ORACLE_SHAPES = [(9984, 16), (10_000, 145), (1203, 97), (3, 16), (0, 16), (11, 40_000)]


def test_workspace_kernel_equals_allocating_kernel_bitwise(monkeypatch):
    # (1203, 97) has n % 4 = 3; (11, 40000) has m > BLOCK_PAIRS / 4, a
    # one-off workspace.  The pooled workspace is poisoned with NaN before
    # every call, so stale contents read before being written would show.
    monkeypatch.setattr(_kernels, "_WORKSPACES", [])
    for n, m in ORACLE_SHAPES:
        pts, src, coeffs = _problem(n, m, n + m)
        for want in WANTS:
            for ws in _kernels._WORKSPACES:
                ws.fill(np.nan)
            parts = _kernels.log_source_fields(pts, src, coeffs, want)
            _assert_parts_equal(parts, _allocating_kernel(pts, src, coeffs, want), (n, m, want))
    (pooled,) = _kernels._WORKSPACES  # the first call's, reused by every later one
    assert pooled.size == 6 * 2048 * 16 == _kernels._POOLED_VALUES


def test_concurrent_calls_equal_serial_calls_bitwise(monkeypatch):
    # more threads than cores, switching often: two calls sharing one
    # workspace would overwrite each other's temporaries
    monkeypatch.setattr(_kernels, "_WORKSPACES", [])
    shapes = [(2000, 16), (700, 145), (1203, 97), (3, 16), (4000, 8), (11, 40_000)] * 2
    calls = [(_problem(n, m, i), WANTS[i % len(WANTS)]) for i, (n, m) in enumerate(shapes)]
    serial = [_kernels.log_source_fields(*problem, want) for problem, want in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(3) as pool:
            futures = [pool.submit(_kernels.log_source_fields, *p, w) for p, w in calls]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, (parts, refs) in enumerate(zip(threaded, serial)):
        _assert_parts_equal(parts, refs, i)
    assert 1 <= len(_kernels._WORKSPACES) <= 3


@pytest.mark.parametrize(
    "n, m",
    [
        (1203, 97),  # 336-row blocks: three full blocks, then 195 rows (n % 4 = 3)
        (11, 40_000),  # m > BLOCK_PAIRS: the 4-row floor, three blocks
    ],
)
def test_blocking_leaves_every_part_bitwise_unchanged(monkeypatch, n, m):
    # a split inside a 4-row group would send rows through dgemv's tail
    # kernel and move u in the last bits
    rng = np.random.default_rng(n + m)
    pts = rng.uniform(-0.7, 0.7, size=(n, 2))
    src = _ring_sources(rng, m)
    coeffs = rng.standard_normal(m)
    blocked = {want: _kernels.log_source_fields(pts, src, coeffs, want) for want in WANTS}
    assert -(-n // _kernels.block_rows(m)) > 1
    monkeypatch.setattr(_kernels, "BLOCK_PAIRS", 10**12)
    assert _kernels.block_rows(m) >= n
    for want in WANTS:
        single = _kernels.log_source_fields(pts, src, coeffs, want)
        for letter, part, ref in zip("ugh", blocked[want], single):
            assert (part is None) == (ref is None) == (letter not in want), (want, letter)
            if ref is not None:
                assert np.array_equal(part, ref), (want, letter)


@pytest.mark.parametrize("n, m, want", [(12_300, 96, "g"), (10_000, 192, "u")])
def test_block_temporaries_stay_small(n, m, want):
    # the shapeflow energy and stability_dirichlet calls; numpy reports its
    # buffers to tracemalloc, and one 2,000,000-pair chunk peaked at 45-59 MB.
    # A call that finds no workspace large enough allocates one of at most
    # 1.5 MB.
    rng = np.random.default_rng(m)
    pts = rng.uniform(-0.7, 0.7, size=(n, 2))
    src = _ring_sources(rng, m)
    coeffs = rng.standard_normal(m)
    tracemalloc.start()
    try:
        parts = _kernels.log_source_fields(pts, src, coeffs, want)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = sum(p.nbytes for p in parts if p is not None)
    assert peak - outputs <= 4 * 2**20


def test_warm_call_allocates_no_block_temporaries():
    # the temporaries live in the pooled workspace: past the outputs, the
    # only allocations are per-row sums and coeffs / TWO_PI
    pts, src, coeffs = _problem(12_300, 96, 96)
    _kernels.log_source_fields(pts, src, coeffs, "g")
    tracemalloc.start()
    try:
        parts = _kernels.log_source_fields(pts, src, coeffs, "g")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = sum(p.nbytes for p in parts if p is not None)
    assert peak <= outputs + 64 * 2**10


def test_empty_source_set():
    for want in WANTS:
        parts = _kernels.log_source_fields(np.zeros((5, 2)), np.zeros((0, 2)), np.zeros(0), want)
        for letter, part, shape in zip("ugh", parts, [(5,), (5, 2), (5, 3)]):
            if letter in want:
                assert part.shape == shape and not part.any()
            else:
                assert part is None


@pytest.mark.parametrize("want", ["", "x", "uv"])
def test_rejects_unknown_parts(want):
    with pytest.raises(ValueError, match="want"):
        _kernels.log_source_fields(np.zeros((2, 2)), np.ones((1, 2)), np.ones(1), want)


def test_log_part_is_harmonic(rng):
    pts = rng.uniform(-0.5, 0.5, size=(100, 2))
    src = np.stack([2.5 * np.cos(np.linspace(0, 6, 20)), 2.5 * np.sin(np.linspace(0, 6, 20))], axis=-1)
    coeffs = rng.standard_normal(20)
    _, _, h = _kernels.log_source_fields(pts, src, coeffs, "h")
    assert np.max(np.abs(h[:, 0] + h[:, 2])) <= 1e-12  # trace of the log part vanishes
