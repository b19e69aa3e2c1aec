"""Pair potentials and their analytic derivatives."""

import math

import numpy as np
import pytest

from qclab import derivative_check, evaluate, harmonic, lennard_jones
from qclab.potentials import PairPotential


def test_harmonic_values():
    pot = harmonic(k=1.0, s0=1.0)
    assert evaluate(pot, 2.0, 0) == pytest.approx(0.5)
    assert evaluate(pot, 2.0, 1) == pytest.approx(1.0)
    assert evaluate(pot, 2.0, 2) == pytest.approx(1.0)


def test_harmonic_second_derivative_constant():
    pot = harmonic(k=3.0, s0=0.8)
    vals = [evaluate(pot, s, 2) for s in (0.5, 1.0, 2.0, 7.3)]
    assert vals == [3.0] * 4


def test_lennard_jones_minimum():
    pot = lennard_jones()
    assert evaluate(pot, 1.0, 0) == pytest.approx(-1.0)
    assert evaluate(pot, 1.0, 1) == pytest.approx(0.0, abs=1e-14)


def test_lennard_jones_first_derivative_matches_fd():
    pot = lennard_jones()
    h = 1e-6
    fd = (evaluate(pot, 1.1 + h, 0) - evaluate(pot, 1.1 - h, 0)) / (2 * h)
    exact = evaluate(pot, 1.1, 1)
    assert fd == pytest.approx(exact, rel=1e-6)


def test_second_derivative_matches_fd_on_grid():
    h = 1e-4
    for pot in (harmonic(2.0, 1.1), lennard_jones()):
        for s in (0.9, 1.0, 1.3, 2.0):
            fd = (
                evaluate(pot, s + h, 0) - 2 * evaluate(pot, s, 0) + evaluate(pot, s - h, 0)
            ) / h**2
            exact = evaluate(pot, s, 2)
            assert abs(fd - exact) <= 1e-5 * max(1.0, abs(exact))


def test_lennard_jones_rejects_nonpositive_separation():
    pot = lennard_jones()
    with pytest.raises(ValueError):
        evaluate(pot, 0.0, 0)
    with pytest.raises(ValueError):
        evaluate(pot, -1.0, 1)


def test_evaluate_rejects_bad_order_and_kind():
    with pytest.raises(ValueError):
        evaluate(harmonic(), 1.0, 3)
    with pytest.raises(ValueError):
        evaluate(PairPotential("morse"), 1.0, 0)


def test_evaluate_vectorized():
    pot = harmonic(1.0, 1.0)
    out = evaluate(pot, np.array([1.0, 2.0, 3.0]), 1)
    np.testing.assert_allclose(out, [0.0, 1.0, 2.0])


def test_derivative_check_harmonic():
    assert derivative_check(harmonic(1.0, 1.0), [0.5, 1.0, 2.0]) <= 1e-9


def test_derivative_check_lennard_jones():
    assert derivative_check(lennard_jones(), [0.9, 1.0, 1.2]) <= 1e-5


def test_derivative_check_empty_samples():
    assert derivative_check(lennard_jones(), []) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_potentials_reject_nonfinite_parameters(bad):
    with pytest.raises(ValueError, match="k must be finite"):
        harmonic(bad, 1.0)
    with pytest.raises(ValueError, match="s0 must be finite"):
        harmonic(1.0, bad)
    with pytest.raises(ValueError, match="s0 must be finite"):
        PairPotential("lennard_jones", s0=bad)
