import errno
import os

import numpy as np
import pytest
from hypothesis import settings

import secap.storage

# every property replays the same examples on every run, with no per-example time limit
settings.register_profile("secap", derandomize=True, deadline=None)
settings.load_profile("secap")


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def disk_full_at_record(monkeypatch):
    """arm(n): from then on the n-th array record saved (0 first) writes half its bytes and raises
    ENOSPC, as on a full disk; arm returns the list of records reached, by shape."""
    real = secap.storage._write_array

    def arm(failing):
        calls = []

        def write_array(fh, arr):
            calls.append(arr.shape)
            if len(calls) - 1 == failing:
                fh.write(arr.tobytes()[: arr.nbytes // 2])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            real(fh, arr)

        monkeypatch.setattr(secap.storage, "_write_array", write_array)
        return calls

    return arm
