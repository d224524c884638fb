import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from rackit import numkernel
from rackit.model import generate_model

from .helpers import small_config

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def tiny_model():
    return generate_model(small_config(), seed=7)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def blas_controls():
    """Every loaded OpenBLAS at its own count above one (2, 3, ...), restored after."""
    controls = numkernel._openblas_thread_controls()
    if not controls:
        pytest.skip("no loaded OpenBLAS exports a thread setter and getter")
    saved = [getter() for _, getter in controls]
    for count, (setter, _) in enumerate(controls, start=2):
        setter(count)
    yield controls
    for (setter, _), count in zip(controls, saved):
        setter(count)
