import numpy as np
import pytest

from stealthgame.grid import build_dc_jacobian, parse_network
from stealthgame.model import (
    StatePriorSpec,
    build_model,
    calibrate_noise,
    toeplitz_cov,
)

from _helpers import ieee9_model_at

RING3_TEXT = "bus 3\nslack 1\nbranch 1 2 1.0\nbranch 2 3 1.0\nbranch 1 3 1.0\n"


@pytest.fixture
def scalar_model():
    """m = n = 1 model with Sigma_YY = [2]; analytic NE at (sqrt(5)-1)/2."""
    return build_model([[1.0]], [[1.0]], 1.0)


@pytest.fixture
def ring3_model():
    """3-bus ring (m=6, n=2), rho=0.9, SNR 20 dB."""
    H = build_dc_jacobian(parse_network(RING3_TEXT)).H
    Sigma_XX = toeplitz_cov(StatePriorSpec(2, 0.9))
    return build_model(H, Sigma_XX, calibrate_noise(H, Sigma_XX, 20.0))


@pytest.fixture(scope="session")
def ieee9_model():
    """Bundled 9-bus case (m=18, n=8), rho=0.9, SNR 30 dB."""
    return ieee9_model_at(30.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)
