import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from dtwsearch import _native

# Seeded, derandomized property-test runs so failures are reproducible.
settings.register_profile(
    "ci",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(params=[2, 3, 7])
def parts(request, monkeypatch):
    """Split every compiled call into 2, 3 or 7 parts, however small it is and however many CPUs there are."""
    monkeypatch.setattr(_native, "_cpus", lambda: request.param)
    monkeypatch.setattr(_native, "_MIN_PART", 1)
    return request.param
