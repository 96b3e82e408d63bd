"""Shared fixtures: small STFT configs and quick synthetic scenes.

Unit tests run on deliberately small windows so the suite stays fast; the
acceptance tests exercise the full default sizes.
"""

import numpy as np
import pytest

from arraysep import MesslConfig, StftConfig, random_scene_spec, render_scene


@pytest.fixture
def small_cfg():
    return StftConfig(window_size=64, hop_size=16)


@pytest.fixture
def tiny_cfg():
    return StftConfig(window_size=16, hop_size=4)


@pytest.fixture
def fast_messl():
    return MesslConfig(n_iterations=6)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def two_channel_render():
    spec = random_scene_spec(np.random.default_rng(7), n_channels=2,
                             duration=0.6, snr_db=10.0)
    return render_scene(spec)
