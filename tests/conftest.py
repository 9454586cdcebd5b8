import numpy as np
import pytest

from clouds import random_cloud


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_cloud(rng):
    return random_cloud(rng)
