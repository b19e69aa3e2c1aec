"""Mean-zero equilibrium solves and convergence-rate experiments."""

import itertools
import math

import numpy as np
import pytest

from qclab import (
    ChainConfig,
    InterfaceStencil,
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
    min_residual,
    sample_field,
    solve_equilibrium,
    to_strain_form,
)
from qclab import convergence
from qclab.convergence import RESIDUAL_RTOL, _folded_storage, _grounded_lu, _stress_lu
from qclab.models import COUPLED, LinearChainOperator
from qclab.potentials import evaluate, lennard_jones

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


def grounded_reference(op, f):
    """The grounded banded LU with three refinement steps, kept as the oracle
    for the stress-form path. Returns (mean-zero u, projected right-hand side)."""
    solve, w = _grounded_lu(op)
    fproj = f - (w @ f) / (w @ w) * w
    u = solve(fproj)
    for _ in range(3):
        u = u + solve(fproj - apply_linear(op, u))
    return u - u.mean(), fproj


def stress_matrix(band):
    """Dense cyclic tridiagonal C with band = D^T C D, read off the two lower
    diagonals: C[i, i-1] = -band[i, 0], C[i, i] = C[i, i-1] + C[i+1, i] - band[i, 1]."""
    N = band.shape[0]
    sub = -band[:, 0]
    idx = np.arange(N)
    C = np.zeros((N, N))
    C[idx, idx] = sub + np.roll(sub, -1) - band[:, 1]
    C[idx, idx - 1] = sub
    C[idx - 1, idx] = sub
    return C


def band_from_stress(C):
    """Half-width-2 band (eps^2 units) of D^T C D for a cyclic tridiagonal C."""
    N = C.shape[0]
    D = np.eye(N) - np.roll(np.eye(N), -1, axis=1)  # (D u)_i = u_i - u_{i-1}
    A = D.T @ C @ D
    idx = np.arange(N)
    return np.stack([A[idx, (idx + k) % N] for k in range(-2, 3)], axis=1)


def forbid(name):
    def refuse(op):
        raise AssertionError(f"{name} must not run on this band")

    return refuse


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


def test_fit_slope_has_one_definition():
    # defined beside the study rungs, imported by the convergence module
    assert convergence.fit_slope is fit_slope


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


ENERGY_KINDS = (ModelKind.ATOMISTIC, ModelKind.CONTINUUM, ModelKind.QCE, ModelKind.QNL)


@pytest.mark.parametrize(
    "N, potential, n_intervals",
    list(itertools.product([64, 1024, 2**14], ["harmonic", "lennard_jones"], [1, 2, 3])),
)
def test_stress_path_matches_grounded_oracle(
    N, potential, n_intervals, random_geometry, monkeypatch
):
    rng = np.random.default_rng([N, n_intervals, len(potential), 6])
    config, pot, partition = random_geometry(rng, N, potential, n_intervals)
    c = sum(r * r * evaluate(pot, r * config.F, 2) for r in (1, 2))  # as above
    for kind in ENERGY_KINDS:
        op = assemble_operator(kind, config, pot, partition=partition)
        f = rng.standard_normal(N)
        want, fproj = grounded_reference(op, f)
        # one stress solve keeps the contract by itself, so no refinement runs
        solve, w = _stress_lu(op)
        assert np.array_equal(w, np.ones(N))
        u = solve(f - f.mean())
        u -= u.mean()
        assert np.abs(apply_linear(op, u) - (f - f.mean())).max() <= residual_contract(op, u, f)
        with monkeypatch.context() as patch:
            patch.setattr(convergence, "_grounded_lu", forbid("the grounded LU"))
            u = solve_equilibrium(op, f).values
        tol = 4.0 * residual_contract(op, want, f) / c
        assert lp_norm(difference(PeriodicField(config, u - want), 1, 1), math.inf) <= tol
        assert abs(u.mean()) <= 1e-12 * np.abs(u).max()
        assert np.abs(apply_linear(op, u) - fproj).max() <= residual_contract(op, u, f)


@pytest.mark.parametrize("potential", ["harmonic", "lennard_jones"])
def test_stress_matrix_rebuilds_the_band(potential, random_geometry):
    rng = np.random.default_rng(60 + len(potential))
    for N, n_intervals in ((64, 1), (128, 2), (256, 3)):
        config, pot, partition = random_geometry(rng, N, potential, n_intervals)
        for kind in ENERGY_KINDS:
            band = assemble_operator(kind, config, pot, partition=partition).band
            rebuilt = band_from_stress(stress_matrix(band))
            if potential == "harmonic":
                assert rebuilt.tobytes() == np.ascontiguousarray(band).tobytes()
            else:
                assert np.abs(rebuilt - band).max() <= 1e-15 * np.abs(band).max()


def test_stress_path_pivots_through_indefinite_stress_matrices():
    # random symmetric C with entries of both signs: a positive-definite
    # factorization would refuse these, the pivoted tridiagonal LU must not
    rng = np.random.default_rng(66)
    for N in (16, 64, 512):
        config = ChainConfig(N=N, F=1.2, R=2)
        sub = rng.uniform(-1.0, 1.0, N)
        C = np.diag(rng.uniform(-3.0, 3.0, N))
        idx = np.arange(N)
        C[idx, idx - 1] = sub
        C[idx - 1, idx] = sub
        assert np.linalg.eigvalsh(C).min() < 0.0 < np.linalg.eigvalsh(C).max()
        op = LinearChainOperator(config, ModelKind.ATOMISTIC, band_from_stress(C), np.zeros(N))
        assert _stress_lu(op) is not None
        v = rng.standard_normal(N)
        v -= v.mean()
        u = solve_equilibrium(op, apply_linear(op, v)).values
        assert np.abs(u - v).max() <= 1e-8 * np.abs(v).max()


@pytest.mark.parametrize("F", [1.2, 1.3, 1.5])
@pytest.mark.parametrize("kind", [ModelKind.ATOMISTIC, ModelKind.QNL])
def test_stress_path_solves_negative_moduli(F, kind, monkeypatch):
    # Lennard-Jones chains stretched past the inflection point: every modulus
    # is negative, so C is negative definite
    config = ChainConfig(N=1024, F=F, R=2)
    pot = lennard_jones()
    assert evaluate(pot, F, 2) < 0.0
    op = assemble_operator(kind, config, pot, partition=HALF_PART)
    f = np.random.default_rng(int(10 * F)).standard_normal(config.N)
    want, fproj = grounded_reference(op, f)
    monkeypatch.setattr(convergence, "_grounded_lu", forbid("the grounded LU"))
    u = solve_equilibrium(op, f).values
    assert np.abs(apply_linear(op, u) - fproj).max() <= residual_contract(op, u, f)
    c = abs(sum(r * r * evaluate(pot, r * F, 2) for r in (1, 2)))
    tol = 4.0 * residual_contract(op, want, f) / c
    assert lp_norm(difference(PeriodicField(config, u - want), 1, 1), math.inf) <= tol


def test_nonsymmetric_pentadiagonal_band_takes_grounded_route(monkeypatch):
    # an ATOMISTIC label does not select the stress path; the band does
    rng = np.random.default_rng(67)
    N = 256
    config = ChainConfig(N=N, F=1.2, R=2)
    band = np.array(assemble_operator(ModelKind.ATOMISTIC, config, POT1).band)
    skew = 0.1 * rng.random(N)
    band[:, 1] -= skew  # row sums stay zero, A[i, i+1] != A[i+1, i]
    band[:, 3] += skew
    op = LinearChainOperator(config, ModelKind.ATOMISTIC, band, np.zeros(N))
    monkeypatch.setattr(convergence, "_stress_lu", forbid("the stress path"))
    v = rng.standard_normal(N)
    v -= v.mean()
    u = solve_equilibrium(op, apply_linear(op, v)).values
    assert np.abs(u - v).max() <= 1e-10 * np.abs(v).max()


@pytest.mark.parametrize("N", [16, 17, 1024])
def test_singular_stress_matrix_defers_to_grounded_lu(N):
    # the bilaplacian [1, -4, 6, -4, 1] is D^T C D with C = D D^T, singular on
    # the constants, while the band's own kernel is the constants
    config = ChainConfig(N=N, F=1.2, R=2)
    band = np.tile([1.0, -4.0, 6.0, -4.0, 1.0], (N, 1))
    op = LinearChainOperator(config, ModelKind.ATOMISTIC, band, np.zeros(N))
    assert _stress_lu(op) is None
    v = np.random.default_rng(N).standard_normal(N)
    v -= v.mean()
    f = apply_linear(op, v)
    u = solve_equilibrium(op, f).values
    assert np.abs(apply_linear(op, u) - f).max() <= residual_contract(op, u, f)


@pytest.mark.parametrize("row", [[0.0] * 5, [-1.0, 0.0, 2.0, 0.0, -1.0]])
def test_singular_stress_matrix_keeps_the_kernel_error(row):
    # C = 0 fails the tridiagonal pivot test and C = cyclic [1, 2, 1] (even N)
    # the corner correction; the grounded LU then names the kernel
    config = ChainConfig(N=64, F=1.2, R=2)
    op = LinearChainOperator(config, ModelKind.ATOMISTIC, np.tile(row, (64, 1)), np.zeros(64))
    assert _stress_lu(op) is None
    with pytest.raises(NumericalError, match="kernel is larger than the constants"):
        solve_equilibrium(op, np.random.default_rng(1).standard_normal(64))


def test_stress_solve_spreads_the_mean_of_its_right_hand_side():
    # like the grounded LU, one stress solve returns u with A u = r - mu w for
    # any r (w = 1): the mean of r is removed, not left on one atom
    rng = np.random.default_rng(68)
    config = ChainConfig(N=4096, F=1.1, R=2)
    op = assemble_operator(ModelKind.QNL, config, lennard_jones(), partition=HALF_PART)
    r = rng.standard_normal(config.N) + 5.0
    solve, w = _stress_lu(op)
    u = solve(r)
    assert np.abs(apply_linear(op, u) - (r - r.mean())).max() <= residual_contract(op, u, r)


def test_stress_path_rejects_kernel_beyond_constants():
    # C regular with C g = 1 for the alternating, mean-zero g: then
    # u = cumsum(g) is a non-constant kernel vector of D^T C D
    N = 64
    config = ChainConfig(N=N, F=1.2, R=2)
    C = np.diag(2.0 + (-1.0) ** np.arange(N))
    idx = np.arange(N)
    C[idx, idx - 1] = C[idx - 1, idx] = 1.0
    assert np.abs(np.linalg.eigvalsh(C)).min() > 0.01
    op = LinearChainOperator(config, ModelKind.ATOMISTIC, band_from_stress(C), np.zeros(N))
    with pytest.raises(NumericalError, match="kernel is larger than the constants"):
        _stress_lu(op)
    with pytest.raises(NumericalError, match="kernel is larger than the constants"):
        solve_equilibrium(op, np.random.default_rng(0).standard_normal(N))


@pytest.mark.parametrize(
    "kind, potential",
    [(ModelKind.QNL, "lennard_jones"), (ModelKind.QCE, "lennard_jones"),
     (ModelKind.ATOMISTIC, "harmonic")],
)
def test_stress_path_residual_contract_at_large_n(kind, potential, monkeypatch):
    pot, F = {"harmonic": (POT1, 1.2), "lennard_jones": (lennard_jones(), 1.1)}[potential]
    config = ChainConfig(N=2**16, F=F, R=2)
    op = assemble_operator(kind, config, pot, partition=HALF_PART)
    op_a = assemble_operator(ModelKind.ATOMISTIC, config, pot)
    f = apply_linear(op_a, sample_field(default_witness, config).values) - op.ghost
    fproj = f - f.mean()
    # one stress solve already keeps the contract: no refinement step is needed
    solve, w = _stress_lu(op)
    u = solve(fproj)
    u -= u.mean()
    assert np.abs(apply_linear(op, u) - fproj).max() <= residual_contract(op, u, f)
    monkeypatch.setattr(convergence, "_grounded_lu", forbid("the grounded LU"))
    u = solve_equilibrium(op, f).values
    assert abs(u.mean()) <= 1e-12 * np.abs(u).max()
    assert np.abs(apply_linear(op, u) - fproj).max() <= residual_contract(op, u, f)


def test_solve_rejects_wrong_length():
    config = ChainConfig(N=32, F=1.2, R=2)
    op = assemble_operator(ModelKind.ATOMISTIC, config, POT1)
    with pytest.raises(ValueError):
        solve_equilibrium(op, np.ones(16))


def folded_scatter_reference(op):
    """The folded band storage as qclab first built it, kept as the exact
    reference: one fancy-indexed scatter per offset through the position
    permutation, with the grounded atom's column sent to the diagonal as 0."""
    N = op.config.N
    K = op.half_width
    n = N - 1
    kb = 2 * K
    order = np.empty(n, dtype=np.intp)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = np.arange(n - 1, (n + 1) // 2 - 1, -1)
    pos = np.zeros(N, dtype=np.intp)
    pos[order] = np.arange(n)
    p = pos[:n]
    ab = np.zeros((3 * kb + 1, n))
    flat = ab.reshape(-1)
    last_row = np.zeros(N)
    scale = 1.0 / op.config.epsilon**2
    for k in range(-K, K + 1):
        vals = op.band[:n, K + k] * scale
        q = np.roll(pos, -k)[:n]
        i0 = (n - k) % N
        if i0 < n:
            q[i0], vals[i0] = p[i0], 0.0
        flat[(2 * kb + p - q) * n + q] += vals
        last_row[(n + k) % N] += op.band[n, K + k] * scale
    return ab, order, last_row


def test_folded_storage_matches_scatter_reference(random_geometry):
    rng = np.random.default_rng(61)
    ops = []
    for N in (12, 13, 64, 65, 1024, 1025):  # even and odd chains
        config, pot, partition = random_geometry(rng, N, "lennard_jones", 1)
        m = partition.interface_width_m
        block = rng.standard_normal((m, m))
        ops.append(assemble_operator(ModelKind.QCF, config, pot, partition=partition))
        ops.append(assemble_operator(
            ModelKind.CUSTOM, config, pot, partition=partition,
            stencil=InterfaceStencil(m, block + block.T),
        ))
        # F = 1.3 stretches both Lennard-Jones moduli negative: -0.0 band entries
        ops.append(assemble_operator(
            ModelKind.QCF, ChainConfig(N=N, F=1.3, R=2), pot, partition=partition,
        ))
        for kind in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM):
            ops.append(assemble_operator(kind, ChainConfig(N=N, F=1.1, R=3), pot))
    # bands as wide as the ring or wider, which the fold wraps more than once
    for N in (3, 4, 5, 8):
        for K in (1, 3, N, N + 2):
            band = rng.standard_normal((N, 2 * K + 1))
            band[rng.random(band.shape) < 0.2] = -0.0
            ops.append(LinearChainOperator(ChainConfig(N=N, R=1), ModelKind.CUSTOM, band, np.zeros(N)))
    assert any((np.signbit(op.band) & (op.band == 0)).any() for op in ops[:-16])  # assembled -0.0
    for op in ops:
        got, want = _folded_storage(op), folded_scatter_reference(op)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


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


@pytest.mark.parametrize("potential", ["harmonic", "lennard_jones"])
def test_study_rows_and_checks_match_per_rung_reference(potential):
    # each rung rebuilt as the study first did it: a full strain form of the
    # ghost-free operator for bound_C, and every norm computed where it is used
    pot, F = (POT1, 1.2) if potential == "harmonic" else (lennard_jones(), 1.1)
    N_list, p_list = [64, 128, 256], [1.0, 2.0, math.inf]
    for kind in (ModelKind.QNL, ModelKind.QCF, ModelKind.QCE):
        table = convergence_study(
            kind, default_witness, N_list, p_list, pot, partition=HALF_PART, F=F,
        )
        rows = iter(table.rows)
        for N, checks in zip(N_list, table.checks):
            config = ChainConfig(N=N, F=F, R=2)
            u = sample_field(default_witness, config)
            op_k = assemble_operator(kind, config, pot, partition=HALF_PART)
            op_a = assemble_operator(ModelKind.ATOMISTIC, config, pot)
            u_qc = solve_equilibrium(op_k, apply_linear(op_a, u.values) - op_k.ghost)
            de = difference(PeriodicField(config, u.values - u_qc.values), 1, 1)
            for p in p_list:
                assert next(rows).error_norm == lp_norm(de, p)
            ghost_free = LinearChainOperator(config, kind, op_k.band, np.zeros(N))
            assert checks.bound_C == to_strain_form(ghost_free).bound_C
            assert checks.de_inf == lp_norm(de, math.inf)


def test_study_names_an_N_list_that_does_not_increase():
    for N_list in ([64, 64], [128, 64]):
        with pytest.raises(ValueError, match=rf"strictly increasing, got \[{N_list[0]}, {N_list[1]}\]"):
            convergence_study(
                ModelKind.QNL, default_witness, N_list, [1.0], POT1, partition=HALF_PART
            )


def accepts_row_sums(action, op) -> bool:
    """False when action(op) refuses the operator for its row sums."""
    try:
        action(op)
    except NumericalError:
        pass  # the row sums passed; the kernel or the residual did not
    except ValueError as exc:
        assert "row sum" in str(exc)
        return False
    return True


@pytest.mark.parametrize("potential", ["harmonic", "lennard_jones"])
def test_solver_and_strain_form_share_the_row_sum_test(potential, random_geometry):
    rng = np.random.default_rng([11, len(potential)])
    for n_intervals in (1, 2, 3):
        config, pot, partition = random_geometry(rng, 256, potential, n_intervals)
        N, m = config.N, partition.interface_width_m
        for kind in ModelKind:
            op = assemble_operator(
                kind, config, pot,
                partition=partition if kind in COUPLED else None,
                stencil=min_residual(m).stencil if kind is ModelKind.CUSTOM else None,
            )
            scale = float(np.abs(op.band).max())
            # a row sum nudged to half and twice the shared relative tolerance
            for nudge, zero_sums in ((0.0, True), (0.5e-12, True), (2e-12, False), (math.nan, False)):
                band = np.array(op.band)
                band[int(rng.integers(N)), 2] += nudge * scale
                trial = LinearChainOperator(config, kind, band, np.zeros(N))
                solver = accepts_row_sums(lambda o: solve_equilibrium(o, np.zeros(N)), trial)
                strain = accepts_row_sums(to_strain_form, trial)
                assert solver == strain, (kind, nudge)
                # min_residual's stencil is not consistent: its row sums are O(1)
                assert solver == (zero_sums and kind is not ModelKind.CUSTOM), (kind, nudge)
