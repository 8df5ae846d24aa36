import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohcirc import click_probability, sample_clicks, success_probability
from cohcirc.detection import _uniforms
from cohcirc.errors import NonFiniteError


def test_vacuum_never_clicks():
    assert click_probability(0.0) == 0.0


def test_half_click_point():
    assert click_probability(np.sqrt(np.log(2))) == pytest.approx(0.5)


def test_click_probability_matches_identification_success():
    # The discriminating port carries |a1 - a2|/sqrt(3), so its click
    # probability is exactly the two-state identification success rate.
    a1, a2 = 1.2 + 0.4j, -0.3 - 1.0j
    beta = (a1 - a2) / np.sqrt(3)
    assert click_probability(beta) == pytest.approx(success_probability(a1, a2))


@given(st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=0.0, max_value=50.0))
def test_click_probability_monotone(n1, n2):
    lo, hi = sorted([n1, n2])
    assert click_probability(np.sqrt(lo)) <= click_probability(np.sqrt(hi))


@given(st.complex_numbers(max_magnitude=30, allow_nan=False, allow_infinity=False))
def test_click_probability_range(beta):
    p = click_probability(beta)
    assert 0.0 <= p <= 1.0
    assert (p == 0.0) == (abs(beta) ** 2 == 0.0)  # |b|^2 may underflow
    if abs(beta) ** 2 <= 36:  # beyond this 1 - exp(-|b|^2) rounds to 1.0
        assert p < 1.0


def test_zero_amplitudes_never_click():
    for seed in range(50):
        clicked = sample_clicks(np.zeros(4), seed)
        assert clicked.dtype == bool and clicked.tolist() == [False] * 4


def test_sample_clicks_is_deterministic():
    amps = np.array([0.7, 1.1j, 0.0])
    first = sample_clicks(amps, seed=123)
    second = sample_clicks(amps, seed=123)
    np.testing.assert_array_equal(first, second)


def test_bright_port_essentially_always_clicks():
    amps = np.array([5.0])  # |beta|^2 = 25, miss probability e^-25
    # The batch row t is the single draw with seed t, bit for bit.
    misses = np.count_nonzero(~sample_clicks(amps, seed=0, trials=100_000)[:, 0])
    assert misses <= 5


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_empirical_click_frequency(p):
    beta = np.sqrt(-np.log(1 - p))
    trials = 100_000
    hits = np.count_nonzero(sample_clicks([beta], seed=7_000_000, trials=trials)[:, 0])
    bound = 4 * np.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) <= bound


def seed_bands(trials: int) -> list[int]:
    """First seeds of bands around 0, 2**32, 2**63 and the top of 2**64."""
    return [0, 2**32 - trials // 2, 2**63 - trials // 2, 2**64 - trials]


@pytest.mark.parametrize("n", [1, 2, 3, 9])
@pytest.mark.parametrize("start", seed_bands(3125))
def test_batch_uniforms_equal_default_rng(start, n):
    # 16 cases of 3125 seeds: about 5e4 seeds in all.
    expected = [np.random.default_rng(start + t).random(n) for t in range(3125)]
    np.testing.assert_array_equal(_uniforms(start, 3125, n), expected)


@pytest.mark.parametrize("seed, trials", [(-1, 1), (2**64 - 2, 3), (2**64, 1), (0, -1)])
def test_batch_uniforms_reject_seeds_beyond_64_bits(seed, trials):
    with pytest.raises(ValueError, match="2\\*\\*64"):
        _uniforms(seed, trials, 2)


@pytest.mark.parametrize("trials", [0, 3, 1000])
def test_batch_clicks_equal_single_draws(trials):
    amps = np.array([0.7, 1.1j, 0.0, 0.3 - 0.4j])
    batch = sample_clicks(amps[[3, 0, 1, 2]], seed=500, trials=trials)
    assert batch.shape == (trials, 4) and batch.dtype == bool
    for t, row in enumerate(batch):
        np.testing.assert_array_equal(row, sample_clicks(amps[[3, 0, 1, 2]], seed=500 + t))


def test_click_probability_saturates_instead_of_overflowing():
    assert click_probability(2.7e154j) == 1.0
    assert click_probability(complex(1.7e308, 1.7e308)) == 1.0


@pytest.mark.parametrize("beta", [np.nan, complex(0, np.inf)])
def test_click_probability_rejects_non_finite(beta):
    with pytest.raises(NonFiniteError):
        click_probability(beta)
