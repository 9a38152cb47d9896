import numpy as np
import pytest
from hypothesis import settings

# every property replays the same examples on every run, with no per-example time limit
settings.register_profile("secap", derandomize=True, deadline=None)
settings.load_profile("secap")


@pytest.fixture
def rng():
    return np.random.default_rng(42)
