"""Mean-zero equilibrium solves and convergence-rate experiments."""

import itertools
import math

import numpy as np
import pytest

from qclab import (
    ChainConfig,
    ModelKind,
    NumericalError,
    PeriodicField,
    RegionPartition,
    apply_linear,
    assemble_operator,
    convergence_study,
    default_witness,
    difference,
    fit_slope,
    harmonic,
    lp_norm,
    sample_field,
    solve_equilibrium,
)
from qclab.convergence import RESIDUAL_RTOL
from qclab.models import LinearChainOperator
from qclab.potentials import evaluate

HALF_PART = RegionPartition([(0.0, 0.5)], interface_width_m=4, reach=2)
POT1 = harmonic(1.0, 1.0)


def bordered_reference(op, f):
    """The bordered SuperLU solve that qclab used before its banded solver,
    kept as an oracle: the mean constraint is appended as row and column N+1,
    the left-null vector comes from the transposed factors, then three
    refinement steps. Returns (mean-zero u, projected right-hand side)."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    N = op.config.N
    K = op.half_width
    idx = np.arange(N)
    rows = [np.full(N, N), idx]
    cols = [idx, np.full(N, N)]
    vals = [np.ones(N), np.ones(N)]
    for k in range(-K, K + 1):
        rows.append(idx)
        cols.append((idx + k) % N)
        vals.append(op.band[:, K + k] / op.config.epsilon**2)
    B = sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N + 1, N + 1),
    )
    lu = spla.splu(B)
    w = lu.solve(np.append(np.zeros(N), 1.0), trans="T")[:N]
    fproj = f - (w @ f) / (w @ w) * w
    u = lu.solve(np.append(fproj, 0.0))[:N]
    for _ in range(3):
        u = u + lu.solve(np.append(fproj - apply_linear(op, u), 0.0))[:N]
    return u - u.mean(), fproj


def residual_contract(op, u, f):
    """max(1e-10 ||f||, 8 eps_mach || |A| |u| ||), the bound solve_equilibrium keeps."""
    abs_op = LinearChainOperator(op.config, op.kind, np.abs(op.band), np.zeros(op.config.N))
    floor = np.finfo(float).eps * np.abs(apply_linear(abs_op, np.abs(u))).max()
    return max(RESIDUAL_RTOL * np.abs(f).max(), 8.0 * floor)


# ---------------------------------------------------------------------------
# slope fitting


def test_fit_slope_exact_power_law():
    pts = [(2.0**-k, 3.0 * (2.0**-k) ** 1.5) for k in range(6, 11)]
    slope, intercept, r2 = fit_slope(pts)
    assert slope == pytest.approx(1.5, abs=1e-12)
    assert math.exp(intercept) == pytest.approx(3.0, rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_slope_rejects_degenerate_input():
    with pytest.raises(ValueError):
        fit_slope([(0.5, 1.0)])
    with pytest.raises(ValueError):
        fit_slope([(0.5, 1.0), (0.25, -1.0)])
    with pytest.raises(ValueError):
        fit_slope([(0.0, 1.0), (0.25, 1.0)])


def test_fit_slope_constant_series():
    slope, _, r2 = fit_slope([(0.5, 2.0), (0.25, 2.0), (0.125, 2.0)])
    assert slope == pytest.approx(0.0, abs=1e-14)
    assert r2 == 1.0


# ---------------------------------------------------------------------------
# equilibrium solves


def test_zero_rhs_gives_zero_solution():
    config = ChainConfig(N=64, F=1.2, R=2)
    op = assemble_operator(ModelKind.ATOMISTIC, config, POT1)
    u = solve_equilibrium(op, np.zeros(64))
    assert np.abs(u.values).max() <= 1e-14


def test_solve_recovers_mean_zero_preimage():
    rng = np.random.default_rng(21)
    config = ChainConfig(N=64, F=1.2, R=2)
    op = assemble_operator(ModelKind.ATOMISTIC, config, POT1)
    v = rng.standard_normal(64)
    v -= v.mean()
    f = apply_linear(op, v)
    u = solve_equilibrium(op, f)
    assert np.abs(u.values - v).max() <= 1e-10


def test_solution_is_mean_zero_with_small_residual():
    config = ChainConfig(N=512, F=1.2, R=2)
    op = assemble_operator(ModelKind.QNL, config, POT1, partition=HALF_PART)
    f = sample_field(default_witness, config).values
    u = solve_equilibrium(op, f)
    assert abs(u.values.mean()) <= 1e-12
    fproj = f - f.mean()
    resid = apply_linear(op, u.values) - fproj
    assert np.abs(resid).max() <= 1e-10 * np.abs(f).max()


def test_solve_matches_dense_oracle():
    config = ChainConfig(N=1024, F=1.2, R=2)
    op = assemble_operator(ModelKind.ATOMISTIC, config, POT1)
    f = sample_field(default_witness, config).values
    u = solve_equilibrium(op, f)
    dense = op.dense()
    fproj = f - f.mean()
    want, *_ = np.linalg.lstsq(dense, fproj, rcond=None)  # minimum-norm => mean-zero
    assert np.abs(u.values - want).max() <= 1e-9


def test_solve_nonsymmetric_qcf_projection():
    config = ChainConfig(N=256, F=1.2, R=2)
    op = assemble_operator(ModelKind.QCF, config, POT1, partition=HALF_PART)
    f = sample_field(default_witness, config).values
    u = solve_equilibrium(op, f)
    assert abs(u.values.mean()) <= 1e-12
    # residual orthogonal to the solvable directions: re-applying stays close
    # to the projected rhs even though the left-null vector is not the mean
    dense = op.dense()
    wvals = np.linalg.svd(dense)[0][:, -1]  # left-singular vector, null direction
    fproj = f - (wvals @ f) / (wvals @ wvals) * wvals
    resid = apply_linear(op, u.values) - fproj
    assert np.abs(resid).max() <= 1e-8 * np.abs(f).max()


def test_solver_reports_rank_deficiency():
    config = ChainConfig(N=16, F=1.2, R=2)
    band = np.zeros((16, 5))
    op = LinearChainOperator(config, ModelKind.ATOMISTIC, band, np.zeros(16))
    with pytest.raises(NumericalError):
        solve_equilibrium(op, np.ones(16))


@pytest.mark.parametrize("N", [16, 1024])
def test_solver_rejects_kernel_beyond_constants(N):
    # [-1, 0, 2, 0, -1] on every row: for even N the kernel is {1, (-1)^i}, and
    # the residual floor, which grows with u, would otherwise accept garbage
    config = ChainConfig(N=N, F=1.2, R=2)
    band = np.tile([-1.0, 0.0, 2.0, 0.0, -1.0], (N, 1))
    op = LinearChainOperator(config, ModelKind.ATOMISTIC, band, np.zeros(N))
    f = np.random.default_rng(0).standard_normal(N)
    with pytest.raises(NumericalError, match="kernel is larger than the constants"):
        solve_equilibrium(op, f)


def test_solver_rejects_operator_that_moves_constants():
    config = ChainConfig(N=32, F=1.2, R=2)
    band = np.tile([-1.0, 0.0, 2.5, 0.0, -1.0], (32, 1))
    op = LinearChainOperator(config, ModelKind.ATOMISTIC, band, np.zeros(32))
    with pytest.raises(ValueError, match="row sum"):
        solve_equilibrium(op, np.ones(32))


@pytest.mark.parametrize(
    "N, potential, n_intervals",
    list(itertools.product([64, 256, 1024, 4096], ["harmonic", "lennard_jones"], [1, 2, 3])),
)
def test_solve_matches_bordered_reference(N, potential, n_intervals, random_geometry):
    rng = np.random.default_rng([N, n_intervals, len(potential)])
    config, pot, partition = random_geometry(rng, N, potential, n_intervals)
    # For a discrete -(c u')' on the unit period, ||D e||_inf <= 2 ||A e||_inf / c.
    # Two solutions that both keep the residual contract R have ||A e|| <= 2R;
    # c is the Cauchy-Born modulus of the uniform chain.
    c = sum(r * r * evaluate(pot, r * config.F, 2) for r in (1, 2))
    for kind in (ModelKind.QNL, ModelKind.QCF, ModelKind.QCE, ModelKind.CONTINUUM):
        op = assemble_operator(kind, config, pot, partition=partition)
        f = rng.standard_normal(N)
        u = solve_equilibrium(op, f).values
        want, fproj = bordered_reference(op, f)
        tol = 4.0 * residual_contract(op, want, f) / c
        assert lp_norm(difference(PeriodicField(config, u - want), 1, 1), math.inf) <= tol
        assert abs(u.mean()) <= 1e-12 * np.abs(u).max()
        resid = np.abs(apply_linear(op, u) - fproj).max()
        assert resid <= residual_contract(op, u, f)


def test_solve_rejects_wrong_length():
    config = ChainConfig(N=32, F=1.2, R=2)
    op = assemble_operator(ModelKind.ATOMISTIC, config, POT1)
    with pytest.raises(ValueError):
        solve_equilibrium(op, np.ones(16))


# ---------------------------------------------------------------------------
# convergence studies


def test_atomistic_self_consistency():
    table = convergence_study(
        ModelKind.ATOMISTIC, default_witness, [64, 128], [1, 2, math.inf], POT1
    )
    for row in table.rows:
        assert row.error_norm <= 1e-9


def test_qnl_rates_shallow_ladder():
    table = convergence_study(
        ModelKind.QNL,
        default_witness,
        [2**k for k in range(6, 10)],
        [1, 2, math.inf],
        POT1,
        partition=HALF_PART,
    )
    slope1 = table.fits[1][0]
    slope2 = table.fits[2][0]
    slope_inf = table.fits[math.inf][0]
    assert slope1 == pytest.approx(2.0, abs=0.25)
    assert slope2 == pytest.approx(1.5, abs=0.25)
    assert slope_inf == pytest.approx(1.0, abs=0.25)
    # the model is inconsistent: the error never vanishes
    assert all(row.error_norm > 0 for row in table.rows)
    # exact per-row inequality chain
    assert all(c.chain_ok and c.norm_equiv_ok for c in table.checks)


def test_qce_study_includes_ghost_on_the_left():
    table = convergence_study(
        ModelKind.QCE,
        default_witness,
        [64, 128, 256],
        [math.inf],
        POT1,
        partition=HALF_PART,
    )
    # QCE converges slower than QNL but the solve must still satisfy the
    # inequality chain row by row
    assert all(c.chain_ok for c in table.checks)
    assert all(row.error_norm > 0 for row in table.rows)


def test_table_layout():
    table = convergence_study(
        ModelKind.QNL, default_witness, [64, 128], [1, math.inf], POT1,
        partition=HALF_PART,
    )
    assert len(table.rows) == 4
    assert table.norms(1)[0][0] == 64
    assert set(table.fits) == {1, math.inf}
    for fit in table.fits.values():
        assert all(map(math.isfinite, fit))
