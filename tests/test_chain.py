"""Chain primitives: sampling, difference calculus, norms, periodic indexing."""

import math

import numpy as np
import pytest

from qclab import ChainConfig, PeriodicField, difference, lp_norm, sample_field


def cfg(N, R=1):
    return ChainConfig(N=N, F=1.0, R=R)


def test_config_epsilon_exact():
    for N in (4, 7, 64, 1000):
        c = cfg(N)
        assert c.epsilon * N == 1.0


def test_config_rejects_bad_sizes():
    with pytest.raises(ValueError):
        ChainConfig(N=0)
    with pytest.raises(ValueError):
        ChainConfig(N=4, R=0)
    with pytest.raises(ValueError):
        ChainConfig(N=4, R=2)  # stencil of width 5 self-wraps
    # a size that is not an integer is refused by name, never truncated
    for field, value in (("N", 64.5), ("N", 64.0), ("R", 2.5), ("N", "64")):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            ChainConfig(**{"N": 64, field: value})
    config = ChainConfig(N=np.int64(64), R=np.int32(2))
    assert config == ChainConfig(N=64) and type(config.N) is int and type(config.R) is int


def test_sample_sin_n4():
    u = sample_field(lambda x: np.sin(2 * np.pi * x), cfg(4))
    np.testing.assert_allclose(u.values, [1.0, 0.0, -1.0, 0.0], atol=1e-15)


def test_sample_constant():
    u = sample_field(lambda x: np.full_like(x, 2.5), cfg(9))
    assert np.all(u.values == 2.5)


def test_sample_sin_matches_high_precision():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    N = 64
    u = sample_field(lambda x: np.sin(2 * np.pi * x), cfg(N))
    exact = [float(mpmath.sin(2 * mpmath.pi * mpmath.mpf(i) / N)) for i in range(1, N + 1)]
    np.testing.assert_allclose(u.values, exact, atol=1e-15)


def test_periodic_indexing_and_wrap():
    c = cfg(4)
    u = PeriodicField(c, [1.0, 2.0, 3.0, 4.0])
    assert u[1] == 1.0 and u[4] == 4.0
    for i in range(-9, 10):
        assert u[i] == u[i + 4]
    np.testing.assert_array_equal(u[np.array([0, 1, 5])], [4.0, 1.0, 1.0])


def test_field_immutable_and_sized():
    c = cfg(4)
    u = PeriodicField(c, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        u.values[0] = 9.0
    with pytest.raises(AttributeError):
        u.values = np.zeros(4)
    with pytest.raises(ValueError):
        PeriodicField(c, [1.0, 2.0])


def test_backward_difference_example():
    u = PeriodicField(cfg(4), [1.0, 0.0, -1.0, 0.0])
    du = difference(u, 1, 1)
    np.testing.assert_allclose(du.values, [4.0, -4.0, -4.0, 4.0], atol=1e-14)


def test_differences_annihilate_constants():
    u = PeriodicField(cfg(12), np.full(12, 3.7))
    for r in (1, 2, 3):
        for order in (1, 2):
            assert np.all(difference(u, r, order).values == 0.0)


def dense_difference_oracle(values, N, r, order):
    """Explicit circulant matrix product, independent of the windowed path."""
    eps = 1.0 / N
    M = np.zeros((N, N))
    for i in range(N):
        if order == 1:
            M[i, i] += 1.0 / (r * eps)
            M[i, (i - r) % N] -= 1.0 / (r * eps)
        else:
            M[i, (i + r) % N] += 1.0 / (r * eps) ** 2
            M[i, i] -= 2.0 / (r * eps) ** 2
            M[i, (i - r) % N] += 1.0 / (r * eps) ** 2
    return M @ values


@pytest.mark.parametrize("r,order", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)])
def test_difference_matches_dense_oracle(r, order):
    rng = np.random.default_rng(42)
    c = cfg(16)
    v = rng.standard_normal(16)
    u = PeriodicField(c, v)
    got = difference(u, r, order).values
    want = dense_difference_oracle(v, 16, r, order)
    np.testing.assert_allclose(got, want, atol=1e-13 * max(1.0, np.abs(want).max()))


@pytest.mark.parametrize("N", [4, 6, 10])
def test_difference_at_half_the_ring(N):
    # 2r = N: u_{i+r} and u_{i-r} are one atom, read through both wrapped ends
    r, eps = N // 2, 1.0 / N
    v = np.random.default_rng(N).standard_normal(N)
    u = PeriodicField(cfg(N), v)
    first, second = difference(u, r, 1).values, difference(u, r, 2).values
    behind, ahead = np.roll(v, r), np.roll(v, -r)  # one and the same atom
    assert first.tobytes() == ((v - behind) / (r * eps)).tobytes()
    assert second.tobytes() == ((ahead - 2.0 * v + behind) / (r * eps) ** 2).tobytes()
    want = dense_difference_oracle(v, N, r, 1)
    np.testing.assert_allclose(first, want, rtol=1e-13, atol=1e-13 * N)
    np.testing.assert_allclose(second, 2.0 * (behind - v) / (r * eps) ** 2, rtol=1e-13)


def test_difference_rejects_overlapping_stencil():
    u = PeriodicField(cfg(8), np.zeros(8))
    with pytest.raises(ValueError):
        difference(u, 5, 1)
    with pytest.raises(ValueError):
        difference(u, 0, 1)
    with pytest.raises(ValueError):
        difference(u, 1, 3)


def test_difference_linearity():
    rng = np.random.default_rng(7)
    c = cfg(32)
    for _ in range(20):
        a, b = rng.standard_normal(2)
        u, v = rng.standard_normal((2, 32))
        left = difference(PeriodicField(c, a * u + b * v), 2, 2).values
        right = a * difference(PeriodicField(c, u), 2, 2).values + b * difference(
            PeriodicField(c, v), 2, 2
        ).values
        np.testing.assert_allclose(left, right, atol=1e-13 * max(1.0, np.abs(right).max()))


def test_periodic_sum_of_differences_vanishes_exactly():
    rng = np.random.default_rng(3)
    c = cfg(17)
    # integer-valued fields make the telescoping sum exact in floating point
    v = rng.integers(-50, 50, size=17).astype(float)
    du = difference(PeriodicField(c, v), 1, 1)
    assert c.epsilon * np.sum(du.values) == 0.0


def test_second_difference_is_iterated_first_difference():
    rng = np.random.default_rng(11)
    c = cfg(24)
    u = PeriodicField(c, rng.standard_normal(24))
    du = difference(u, 1, 1)
    d2 = difference(u, 1, 2)
    # (D^2 u)_i == (Du_{i+1} - Du_i) / eps
    want = (np.roll(du.values, -1) - du.values) / c.epsilon
    np.testing.assert_allclose(d2.values, want, atol=1e-13 * max(1.0, np.abs(want).max()))


def test_lp_norm_examples():
    c = cfg(4)
    ones = PeriodicField(c, np.ones(4))
    for p in (1.0, 2.0, 3.5, math.inf):
        assert lp_norm(ones, p) == pytest.approx(1.0, abs=1e-15)
    e1 = PeriodicField(c, [1.0, 0.0, 0.0, 0.0])
    assert lp_norm(e1, 1) == pytest.approx(0.25)
    assert lp_norm(e1, 2) == pytest.approx(0.5)
    assert lp_norm(e1, math.inf) == 1.0


def test_lp_norm_rejects_p_below_one():
    u = PeriodicField(cfg(4), np.ones(4))
    with pytest.raises(ValueError):
        lp_norm(u, 0.5)


def test_norm_equivalence_chain_random_fields():
    rng = np.random.default_rng(2024)
    c = cfg(32)
    for _ in range(1000):
        u = PeriodicField(c, rng.standard_normal(32))
        sup = lp_norm(u, math.inf)
        for p in (1.0, 2.0, 4.0):
            val = lp_norm(u, p)
            assert val >= c.epsilon ** (1.0 / p) * sup * (1 - 1e-12)
            assert val <= sup * (1 + 1e-12)


@pytest.mark.parametrize("F", [math.nan, math.inf, -math.inf])
def test_config_rejects_nonfinite_stretch(F):
    with pytest.raises(ValueError, match="F must be finite"):
        ChainConfig(N=64, F=F, R=2)


def test_lp_norm_rejects_nan_p_and_keeps_inf():
    u = PeriodicField(cfg(4), [1.0, -3.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="p must lie in"):
        lp_norm(u, math.nan)
    assert lp_norm(u, math.inf) == 3.0
