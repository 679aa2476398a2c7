import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from torsionlab import _blas  # noqa: E402
from torsionlab.geometry import TWO_PI, DomainSpec, Hole, build_quadratures  # noqa: E402
from torsionlab.shapeflow import _cosine_fit  # noqa: E402
from torsionlab.solver import radial_model  # noqa: E402


@pytest.fixture(scope="session")
def ball():
    return DomainSpec(1.0)


@pytest.fixture(scope="session")
def annulus():
    rho = 0.2
    return DomainSpec(1.0, holes=(Hole((0.0, 0.0), rho, (rho**2 - 1.0) / 4.0),))


@pytest.fixture(scope="session")
def annulus_model():
    return radial_model(1.0)


@pytest.fixture(scope="session")
def annulus_quads(annulus):
    return build_quadratures(annulus, 256, 48)


@pytest.fixture(scope="session")
def ball_quads(ball):
    return build_quadratures(ball, 256, 48)


@pytest.fixture(scope="session")
def perturb_radially():
    """perturb_radially(spec, v_n_fn, t): the domain flowed for time t along
    the normal velocity v_n_fn(theta), realized as the radial update
    r += t * v_n / <nu, e_r> at 1024 angles, refit to the first 24 cosine
    modes.  Exact at t=0 in the initial velocity, so central differences of
    smooth functionals converge at O(t^2)."""

    def perturb(spec, v_n_fn, t):
        theta = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
        r = spec.radius(theta)
        normals = spec.boundary_normal(theta)
        e_r = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        cosf = np.sum(normals * e_r, axis=1)
        r_new = r + t * np.asarray(v_n_fn(theta)) / cosf
        return _cosine_fit(r_new, 24)

    return perturb


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def blas_threads_at_start():
    control = _blas.thread_control()
    return control[0]() if control else None


@pytest.fixture(autouse=True)
def blas_threads_unchanged(blas_threads_at_start):
    """Fail a test that leaves numpy's BLAS thread count changed."""
    yield
    control = _blas.thread_control()
    if control is not None:
        assert control[0]() == blas_threads_at_start, "numpy's BLAS thread count was not restored"
