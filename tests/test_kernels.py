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


# every non-empty subset of the parts, in the order the kernel returns them
WANTS = ("u", "g", "h", "ug", "uh", "gh", "ugh")


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


def test_requested_parts_equal_full_call_across_chunks():
    # 4000 sources give 500-point chunks, so 1200 points span three of them
    rng = np.random.default_rng(4000)
    pts = rng.uniform(-0.7, 0.7, size=(1200, 2))
    theta = rng.uniform(0.0, 2.0 * np.pi, 4000)
    src = rng.uniform(1.5, 3.0, 4000)[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    _assert_parts_equal_full_call(pts, src, rng.standard_normal(4000))


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
