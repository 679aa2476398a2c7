import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from torsionlab import _blas  # noqa: E402
from torsionlab.geometry import DomainSpec, Hole, build_quadratures  # noqa: E402
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
