"""Mean-zero equilibrium solves and convergence-rate experiments."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from qclab import (
    ChainConfig,
    InterfaceStencil,
    ModelKind,
    NumericalError,
    PeriodicField,
    RegionPartition,
    apply_linear,
    assemble_operator,
    classify,
    consistency_sweep,
    convergence_study,
    default_witness,
    difference,
    fit_slope,
    harmonic,
    lp_norm,
    min_residual,
    sample_field,
    solve_equilibrium,
    symmetry_defect,
    to_strain_form,
)
from qclab import consistency, convergence
from qclab.consistency import _slope_or_nan
from qclab.convergence import (
    RESIDUAL_RTOL,
    _cyclic_banded,
    _cyclic_tridiagonal,
    _diagonals,
    _factor,
    _folded_storage,
    _patch_lu,
    _stress_diagonals,
    _stress_lu,
)
from qclab.models import COUPLED, LinearChainOperator, _band_runs
from qclab.potentials import evaluate, lennard_jones

HALF_PART = RegionPartition([(0.0, 0.5)], interface_width_m=4, reach=2)
POT1 = harmonic(1.0, 1.0)
# the pure L2 rows, offset -> coefficient, written out as literals
ATOM_L2 = {-2: -1, 0: 2, 2: -1}
CONT_L2 = {-1: -4, 0: 8, 1: -4}


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


def band_from_stress(C, K=2):
    """Half-width-K band (eps^2 units) of D^T C D for a cyclic C of half-width
    K - 1."""
    N = C.shape[0]
    D = np.eye(N) - np.roll(np.eye(N), -1, axis=1)  # (D u)_i = u_i - u_{i-1}
    A = D.T @ C @ D
    idx = np.arange(N)
    return np.stack([A[idx, (idx + k) % N] for k in range(-K, K + 1)], axis=1)


def patch_matrix(band):
    """Dense cyclic tridiagonal T with band = T Delta for a band that passes the
    linear patch test: row i of T is (b_-2, b_1 + 2 b_2, b_2) of band row i."""
    N = band.shape[0]
    idx = np.arange(N)
    T = np.zeros((N, N))
    T[idx, idx - 1] = band[:, 0]
    T[idx, idx] = band[:, 3] + 2.0 * band[:, 4]
    T[idx, (idx + 1) % N] = band[:, 4]
    return T


def band_from_patch(t_lo, t_diag, t_up):
    """Half-width-2 band (eps^2 units) of T Delta for the cyclic tridiagonal T
    with rows (t_lo, t_diag, t_up), (Delta u)_i = u_{i-1} - 2 u_i + u_{i+1}."""
    return np.stack(
        [t_lo, t_diag - 2.0 * t_lo, t_lo - 2.0 * t_diag + t_up, t_diag - 2.0 * t_up, t_up],
        axis=1,
    )


def forbid(name):
    def refuse(op):
        raise AssertionError(f"{name} must not run on this band")

    return refuse


def refusal_route(call, match):
    """Run call, which must raise a NumericalError matching match, and return
    its route: (kernel, "factored" or "refused") for each kernel that `_factor`
    reached, then "_factor" where `_factor` raised the error."""
    route = []
    factor = convergence._factor

    def traced(*args, **kwargs):
        try:
            return factor(*args, **kwargs)
        except NumericalError:
            route.append("_factor")
            raise

    with pytest.MonkeyPatch.context() as patch:
        for name, label in (("_cyclic_tridiagonal", "ring"), ("_cyclic_banded", "gbtrf")):
            def run(*args, kernel=getattr(convergence, name), label=label):
                solve = kernel(*args)
                route.append((label, "refused" if solve is None else "factored"))
                return solve

            patch.setattr(convergence, name, run)
        patch.setattr(convergence, "_factor", traced)
        with pytest.raises(NumericalError, match=match):
            call()
    return route


def count_kernel_calls(patch) -> list:
    """Spy on the solver's run kernel: each call appends (len(v), floor). The
    residual check is one call that sums A u and |A| |u| together."""
    calls, kernel = [], convergence._runs_apply

    def counted(runs, v, floor=False):
        calls.append((len(v), floor))
        return kernel(runs, v, floor)

    patch.setattr(convergence, "_runs_apply", counted)
    return calls


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


def test_fit_slope_refuses_equal_x_before_lapack(capfd):
    # a ValueError first: no LAPACK message on stderr and no RuntimeWarning
    # (an error under this suite's filterwarnings)
    for pts in ([(1, 1), (1, 2)], [(0.5, 1.0), (0.5, 2.0), (0.5, 3.0)]):
        with pytest.raises(ValueError, match="needs at least two distinct x"):
            fit_slope(pts)
    assert capfd.readouterr().err == ""


def test_fit_slope_refuses_non_finite_points(capfd):
    # a NaN came out as a nan fit, an inf as a RuntimeWarning and a NaN x as
    # a LAPACK message on stderr before a LinAlgError; each is refused by the
    # positivity check, and a ladder holding one has no slope
    for bad in ((1.0, math.nan), (1.0, math.inf), (math.nan, 1.0), (math.inf, 1.0)):
        pts = [(0.5, 2.0), bad]
        with pytest.raises(ValueError, match="strictly positive, finite coordinates"):
            fit_slope(pts)
        assert all(math.isnan(v) for v in _slope_or_nan(pts))
    assert capfd.readouterr().err == ""


def test_ladders_without_a_slope_fit_to_nan():
    # the sweep, the study and the running slopes of converge share this rule
    for pts in ([], [(0.5, 1.0)], [(0.5, 1.0), (0.25, 0.0)], [(0.5, 1.0), (0.25, math.nan)]):
        assert all(math.isnan(v) for v in _slope_or_nan(pts))
    pts = [(0.5, 1.0), (0.25, 0.3), (0.125, 0.1)]
    assert _slope_or_nan(pts) == fit_slope(pts)


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
    # the residual floor, which grows with u, would otherwise accept garbage;
    # its C = cyclic [1, 2, 1] is singular, and the error names C
    config = ChainConfig(N=N, F=1.2, R=2)
    band = np.tile([-1.0, 0.0, 2.0, 0.0, -1.0], (N, 1))
    op = LinearChainOperator(config, ModelKind.ATOMISTIC, band, np.zeros(N))
    f = np.random.default_rng(0).standard_normal(N)
    with pytest.raises(NumericalError, match="stress matrix C is"):
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
        want, fproj = bordered_reference(op, f)
        # one stress solve keeps the contract by itself
        solve, w = _stress_lu(op)
        assert np.array_equal(w, np.ones(N))
        u = solve(f - f.mean())
        u -= u.mean()
        assert np.abs(apply_linear(op, u) - (f - f.mean())).max() <= residual_contract(op, u, f)
        with monkeypatch.context() as patch:
            patch.setattr(convergence, "_patch_lu", forbid("the patch path"))
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
    # factorization would refuse these, the ring reduction must not. The dense
    # product rounds some A[i, j] and A[j, i] apart, and the stress form takes
    # a band that is symmetric to rounding
    rng = np.random.default_rng(66)
    rounded = []
    for N in (16, 64, 512):
        config = ChainConfig(N=N, F=1.2, R=2)
        sub = rng.uniform(-1.0, 1.0, N)
        C = np.diag(rng.uniform(-3.0, 3.0, N))
        idx = np.arange(N)
        C[idx, idx - 1] = sub
        C[idx - 1, idx] = sub
        assert np.linalg.eigvalsh(C).min() < 0.0 < np.linalg.eigvalsh(C).max()
        op = LinearChainOperator(config, ModelKind.ATOMISTIC, band_from_stress(C), np.zeros(N))
        rounded.append(symmetry_defect(op) > 0.0)
        assert _stress_lu(op) is not None
        v = rng.standard_normal(N)
        v -= v.mean()
        u = solve_equilibrium(op, apply_linear(op, v)).values
        assert np.abs(u - v).max() <= 1e-8 * np.abs(v).max()
    assert any(rounded)


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
    want, fproj = bordered_reference(op, f)
    monkeypatch.setattr(convergence, "_patch_lu", forbid("the patch path"))
    u = solve_equilibrium(op, f).values
    assert np.abs(apply_linear(op, u) - fproj).max() <= residual_contract(op, u, f)
    c = abs(sum(r * r * evaluate(pot, r * F, 2) for r in (1, 2)))
    tol = 4.0 * residual_contract(op, want, f) / c
    assert lp_norm(difference(PeriodicField(config, u - want), 1, 1), math.inf) <= tol


@pytest.mark.parametrize("R", [2, 3])
def test_nonsymmetric_band_outside_the_patch_form_is_refused(R):
    # an ATOMISTIC label does not select the stress path; the band does. A
    # skewed band is not symmetric: at half-width 2 it fails the patch test,
    # and wider bands have no patch form
    rng = np.random.default_rng(67)
    N = 256
    config = ChainConfig(N=N, F=1.2, R=R)
    band = np.array(assemble_operator(ModelKind.ATOMISTIC, config, POT1).band)
    skew = 0.1 * rng.random(N)
    band[:, R - 1] -= skew  # row sums stay zero, A[i, i-1] != A[i-1, i]
    band[:, R + 1] += skew
    op = LinearChainOperator(config, ModelKind.ATOMISTIC, band, np.zeros(N))
    message = "fails the linear patch test" if R == 2 else "half-width 3 has no patch form"
    with pytest.raises(ValueError, match=f"not symmetric .*{message}"):
        solve_equilibrium(op, rng.standard_normal(N))


@pytest.mark.parametrize("R", [2, 3])
def test_symmetry_is_judged_relative_to_the_largest_entry(R, monkeypatch):
    # a band whose transpose gaps stay within the row-sum tolerance, 1e-12 of
    # its largest entry, is solved in stress form; at twice the tolerance it
    # is not symmetric, and being skewed it fails the patch test too
    N = 64
    config = ChainConfig(N=N, F=1.2, R=R)
    band = np.array(assemble_operator(ModelKind.ATOMISTIC, config, POT1).band)
    reached = []
    stress = convergence._stress_lu
    monkeypatch.setattr(convergence, "_stress_lu", lambda op: reached.append(R) or stress(op))
    f = np.random.default_rng(R).standard_normal(N)
    for gap in (0.5e-12, 2e-12):
        skewed = band.copy()
        skewed[:, R - 1] -= 0.5 * gap * np.abs(band).max()  # A[i, i+1] - A[i+1, i] = gap
        skewed[:, R + 1] += 0.5 * gap * np.abs(band).max()
        op = LinearChainOperator(config, ModelKind.ATOMISTIC, skewed, np.zeros(N))
        assert symmetry_defect(op) > 0.0
        if gap < 1e-12:
            u = solve_equilibrium(op, f).values
            assert reached == [R]
            assert np.abs(apply_linear(op, u) - (f - f.mean())).max() <= residual_contract(op, u, f)
        else:
            with pytest.raises(ValueError, match="not symmetric"):
                solve_equilibrium(op, f)
            assert reached == [R]


@pytest.mark.parametrize("N", [16, 17, 64, 1024])
def test_singular_stress_matrix_is_refused(N):
    # the bilaplacian [1, -4, 6, -4, 1] is D^T C D with C = D D^T, singular on
    # the constants, while the band's own kernel is the constants: the stress
    # form cannot solve it, and `_factor` names C after the ring refuses a
    # pivot. So for three bands of half-width 3, whose C goes to the banded
    # LU: -Delta^3 with C = Delta^2; C = cyclic [1, 0, -2, 0, 1], with C 1 = 0
    # and its outer diagonals kept; and C = d I - Delta_2 (Delta_2 the second
    # difference over two atoms, d = 1e-9), whose LU pivots pass from N = 64
    # on while C^-1 1 ~ 1/d breaks the bound on max |C^-1 1|
    config = ChainConfig(N=N, F=1.2, R=2)
    v = np.random.default_rng(N).standard_normal(N)
    d = 1e-9
    circulant = sum(c * np.roll(np.eye(N), k, axis=1)
                    for k, c in zip(range(-2, 3), [1.0, 0.0, -2.0, 0.0, 1.0]))
    bound = "factored" if N >= 64 else "refused"
    cases = [
        (np.tile([1.0, -4.0, 6.0, -4.0, 1.0], (N, 1)), ("ring", "refused")),
        (np.tile([-1.0, 6.0, -15.0, 20.0, -15.0, 6.0, -1.0], (N, 1)), ("gbtrf", "refused")),
        (band_from_stress(circulant, 3), ("gbtrf", "refused")),
        (np.tile([1.0, -2.0, -1.0 - d, 4.0 + 2.0 * d, -1.0 - d, -2.0, 1.0], (N, 1)),
         ("gbtrf", bound)),
    ]
    for band, kernel in cases:
        op = LinearChainOperator(config, ModelKind.ATOMISTIC, band, np.zeros(N))
        route = refusal_route(
            lambda: solve_equilibrium(op, apply_linear(op, v - v.mean())), "stress matrix C is"
        )
        assert route == [kernel, "_factor"]


def test_solver_checks_the_residual_of_its_one_solve(monkeypatch):
    # a factorization whose solve misses the contract is not refined: the one
    # residual check names the miss
    config = ChainConfig(N=64, F=1.2, R=2)
    op = assemble_operator(ModelKind.QNL, config, POT1, partition=HALF_PART)
    solve, w = _stress_lu(op)
    monkeypatch.setattr(convergence, "_stress_lu", lambda op_: (lambda r: 1.001 * solve(r), w))
    with pytest.raises(NumericalError, match="exceeds its contract"):
        solve_equilibrium(op, np.random.default_rng(6).standard_normal(64))


@pytest.mark.parametrize("row", [[0.0] * 5, [-1.0, 0.0, 2.0, 0.0, -1.0], [0.0] * 7])
def test_singular_stress_matrix_keeps_the_kernel_error(row):
    # C = 0 fails the pivot test of the ring reduction and C = cyclic [1, 2, 1]
    # (even N) its final 2-ring; C = 0 of half-width 2 is trimmed to
    # tridiagonal, so it too meets a zero pivot in the ring reduction. Each
    # band has a kernel beyond the constants, which a singular C does not
    # prove, so the error names C
    config = ChainConfig(N=64, F=1.2, R=2)
    op = LinearChainOperator(config, ModelKind.ATOMISTIC, np.tile(row, (64, 1)), np.zeros(64))
    f = np.random.default_rng(1).standard_normal(64)
    for call in (lambda: _stress_lu(op), lambda: solve_equilibrium(op, f)):
        assert refusal_route(call, "stress matrix C is") == [("ring", "refused"), "_factor"]


def test_stress_solve_spreads_the_mean_of_its_right_hand_side():
    # one stress solve returns u with A u = r - mu w for any r (w = 1): the
    # mean of r is removed, not left on one atom
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
    # one stress solve keeps the contract by itself
    solve, w = _stress_lu(op)
    u = solve(fproj)
    u -= u.mean()
    assert np.abs(apply_linear(op, u) - fproj).max() <= residual_contract(op, u, f)
    monkeypatch.setattr(convergence, "_patch_lu", forbid("the patch path"))
    u = solve_equilibrium(op, f).values
    assert abs(u.mean()) <= 1e-12 * np.abs(u).max()
    assert np.abs(apply_linear(op, u) - fproj).max() <= residual_contract(op, u, f)


@pytest.mark.parametrize("potential", ["harmonic", "lennard_jones"])
def test_patch_matrix_rebuilds_the_band(potential, random_geometry):
    rng = np.random.default_rng(70 + len(potential))
    for N, n_intervals in ((64, 1), (128, 2), (256, 3)):
        config, pot, partition = random_geometry(rng, N, potential, n_intervals)
        op = assemble_operator(ModelKind.QCF, config, pot, partition=partition)
        eye = np.eye(N)
        second_difference = np.roll(eye, 1, axis=1) + np.roll(eye, -1, axis=1) - 2.0 * eye
        rebuilt = patch_matrix(op.band) @ second_difference / config.epsilon**2
        ulp = np.finfo(float).eps * np.abs(op.band).max() / config.epsilon**2
        assert np.abs(rebuilt - op.dense()).max() <= 4.0 * ulp
        # QCE is symmetric but fails the patch test: its first moments are O(1)
        qce = assemble_operator(ModelKind.QCE, config, pot, partition=partition)
        with pytest.raises(ValueError, match="fails the linear patch test"):
            _patch_lu(qce)


@pytest.mark.parametrize(
    "N, potential, n_intervals",
    list(itertools.product([64, 1024, 2**14], ["harmonic", "lennard_jones"], [1, 2, 3])),
)
def test_patch_path_matches_grounded_oracle(
    N, potential, n_intervals, random_geometry, monkeypatch
):
    rng = np.random.default_rng([N, n_intervals, len(potential), 10])
    config, pot, partition = random_geometry(rng, N, potential, n_intervals)
    c = sum(r * r * evaluate(pot, r * config.F, 2) for r in (1, 2))  # as above
    op = assemble_operator(ModelKind.QCF, config, pot, partition=partition)
    f = rng.standard_normal(N)
    want, fproj = bordered_reference(op, f)
    solve, w = _patch_lu(op)
    # w^T A = 0 to rounding: (A^T w)_j = sum_k band[j-k, k] w_{j-k}, eps^2 units
    left = sum(np.roll(op.band[:, 2 + k] * w, k) for k in range(-2, 3))
    left_abs = sum(np.roll(np.abs(op.band[:, 2 + k] * w), k) for k in range(-2, 3))
    assert np.abs(left).max() <= 16 * np.finfo(float).eps * left_abs.max()
    # one patch solve keeps the contract by itself
    u = solve(fproj)
    u -= u.mean()
    assert np.abs(apply_linear(op, u) - fproj).max() <= residual_contract(op, u, f)
    with monkeypatch.context() as patch:
        patch.setattr(convergence, "_stress_lu", forbid("the stress path"))
        u = solve_equilibrium(op, f).values
    tol = 4.0 * residual_contract(op, want, f) / c
    assert lp_norm(difference(PeriodicField(config, u - want), 1, 1), math.inf) <= tol
    assert abs(u.mean()) <= 1e-12 * np.abs(u).max()
    assert np.abs(apply_linear(op, u) - fproj).max() <= residual_contract(op, u, f)


def test_patch_path_pivots_through_indefinite_patch_matrices(monkeypatch):
    # random nonsymmetric T with entries of both signs, down to a ring of 5
    rng = np.random.default_rng(71)
    monkeypatch.setattr(convergence, "_stress_lu", forbid("the stress path"))
    for N in (5, 16, 64, 512):
        config = ChainConfig(N=N, F=1.2, R=2)
        t_diag = rng.uniform(-3.0, 3.0, N)
        band = band_from_patch(rng.uniform(-1.0, 1.0, N), t_diag, rng.uniform(-1.0, 1.0, N))
        assert (t_diag < 0).any() and (t_diag > 0).any()
        op = LinearChainOperator(config, ModelKind.QCF, band, np.zeros(N))
        v = rng.standard_normal(N)
        v -= v.mean()
        u = solve_equilibrium(op, apply_linear(op, v)).values
        assert np.abs(u - v).max() <= 1e-8 * np.abs(v).max()


def test_patch_solve_spreads_the_left_null_component():
    # one patch solve returns u with A u = r - mu w for any r: the left-null
    # component of r is removed, not left on one atom
    rng = np.random.default_rng(72)
    config = ChainConfig(N=4096, F=1.1, R=2)
    op = assemble_operator(ModelKind.QCF, config, lennard_jones(), partition=HALF_PART)
    solve, w = _patch_lu(op)
    r = rng.standard_normal(config.N) + 5.0 * w / np.abs(w).max()
    u = solve(r)
    rproj = r - (w @ r) / (w @ w) * w
    assert np.abs(apply_linear(op, u) - rproj).max() <= residual_contract(op, u, r)


def assert_refuses_patch_matrix(op, seed, outcome):
    """The patch path and the solver both name a singular T, raised by
    `_factor` after the ring kernel's outcome ("refused" a pivot, or
    "factored" T and left max |T^-T 1| to break its bound)."""
    f = np.random.default_rng(seed).standard_normal(op.config.N)
    for call in (lambda: _patch_lu(op), lambda: solve_equilibrium(op, f)):
        assert refusal_route(call, "patch matrix T is") == [("ring", outcome), "_factor"]


@pytest.mark.parametrize("N", [16, 17, 64])
def test_singular_patch_matrix_is_refused(N):
    # T with rows (1, -3, 2) has T 1 = 0, but 1 is not a second difference, so
    # the band T Delta = [1, -5, 9, -7, 2] still has only the constants as
    # kernel: the patch form cannot solve it, and the solver names T. With
    # rows (1, -3 + d, 2), d = 1e-8, every pivot passes, but T^-T 1 = 1/d
    # breaks the bound on max |T^-T 1|
    config = ChainConfig(N=N, F=1.2, R=2)
    band = np.tile([1.0, -5.0, 9.0, -7.0, 2.0], (N, 1))
    assert_refuses_patch_matrix(
        LinearChainOperator(config, ModelKind.QCF, band, np.zeros(N)), N, "refused")
    band = band_from_patch(np.ones(N), np.full(N, -3.0 + 1e-8), np.full(N, 2.0))
    assert_refuses_patch_matrix(
        LinearChainOperator(config, ModelKind.QCF, band, np.zeros(N)), N, "factored")


def test_roundoff_pivot_of_patch_matrix_is_refused():
    # row and column j of T decoupled with T[j, j] = 1e-17: the ring reduction
    # meets that pivot as it is, and the band's row j is numerically zero
    N, j = 64, 32
    config = ChainConfig(N=N, F=1.2, R=2)
    t_lo, t_diag, t_up = np.ones(N), np.full(N, 4.0), np.full(N, 2.0)
    t_lo[j:j + 2], t_diag[j], t_up[j - 1:j + 1] = 0.0, 1e-17, 0.0
    band = band_from_patch(t_lo, t_diag, t_up)
    assert_refuses_patch_matrix(
        LinearChainOperator(config, ModelKind.QCF, band, np.zeros(N)), 4, "refused")


def test_roundoff_row_of_patch_matrix_that_pivoting_swaps_away():
    # only row j of T is at roundoff level (a pivoted LU would swap it below
    # row j+1, keep every pivot and see T^-T 1 blow up); the ring reduction
    # carries it unchanged to the level that eliminates it and refuses that
    # pivot
    N, j = 64, 32
    config = ChainConfig(N=N, F=1.2, R=2)
    t_lo, t_diag, t_up = np.ones(N), np.full(N, 4.0), np.full(N, 2.0)
    t_lo[j], t_diag[j], t_up[j] = 0.0, 1e-17, 0.0
    band = band_from_patch(t_lo, t_diag, t_up)
    assert_refuses_patch_matrix(
        LinearChainOperator(config, ModelKind.QCF, band, np.zeros(N)), 5, "refused")


def test_singular_patch_matrix_keeps_the_kernel_error():
    # T with rows (1, 3, 2) annihilates the alternating vector on an even ring,
    # which is a second difference: A = [1, 1, -3, -1, 2] has it in its
    # kernel, which a singular T does not prove, so the error names T
    N = 64
    config = ChainConfig(N=N, F=1.2, R=2)
    band = np.tile([1.0, 1.0, -3.0, -1.0, 2.0], (N, 1))
    assert_refuses_patch_matrix(
        LinearChainOperator(config, ModelKind.QCF, band, np.zeros(N)), 2, "refused")


@pytest.mark.parametrize("N", [2**14, 2**16])
@pytest.mark.parametrize("potential", ["harmonic", "lennard_jones"])
def test_qcf_solve_keeps_the_contract_without_refinement(N, potential, monkeypatch):
    # one patch solve keeps the contract on long Lennard-Jones chains too
    pot, F = {"harmonic": (POT1, 1.2), "lennard_jones": (lennard_jones(), 1.1)}[potential]
    config = ChainConfig(N=N, F=F, R=2)
    op = assemble_operator(ModelKind.QCF, config, pot, partition=HALF_PART)
    op_a = assemble_operator(ModelKind.ATOMISTIC, config, pot)
    f = apply_linear(op_a, sample_field(default_witness, config).values) - op.ghost
    checks = count_kernel_calls(monkeypatch)
    u = solve_equilibrium(op, f).values
    assert checks == [(N, True)]  # one residual check, its floor from the same pass
    w = _patch_lu(op)[1]
    fproj = f - (w @ f) / (w @ w) * w
    # with a wide margin: one solve lands at 0.06-0.08 of the contract
    assert np.abs(apply_linear(op, u) - fproj).max() <= residual_contract(op, u, f) / 8


def consistent_custom_stencil(m):
    """A diagonal (so symmetric) block that gives every block row a zero row
    sum: it cancels the continuum and atomistic entries the row reads."""
    outer = [
        sum(CONT_L2.get(j - i, 0) for j in (-1, 0))
        + sum(ATOM_L2.get(j - i, 0) for j in (m + 1, m + 2))
        for i in range(1, m + 1)
    ]
    return InterfaceStencil(m, -np.diag(np.asarray(outer, dtype=float)))


def dense_custom_stencil(m):
    """`consistent_custom_stencil` plus the zero-row-sum coupling m I - 1 1^T
    between all m block atoms: dense, symmetric and with zero row sums. From
    m = 4 on, where it couples atoms 3 apart, C is wider than tridiagonal
    next to the cuts."""
    coupling = m * np.eye(m) - np.ones((m, m))
    return InterfaceStencil(m, consistent_custom_stencil(m).block + coupling)


def test_route_table(monkeypatch):
    # which factorization and which kernel serve each assembled operator: the
    # ring (cyclic reduction of a tridiagonal C or T) or gbtrf (banded LU of
    # a wider C). A change that moves a kind from one form or kernel to the
    # other must show here
    reached = []

    def recording(name, factory):
        def run(*args):
            out = factory(*args)
            if out is not None:
                reached.append(name)
            return out

        return run

    kernels = {"_stress_lu": "_stress_lu", "_patch_lu": "_patch_lu",
               "_cyclic_tridiagonal": "ring", "_cyclic_banded": "gbtrf"}
    for name, label in kernels.items():
        monkeypatch.setattr(convergence, name, recording(label, getattr(convergence, name)))
    config = ChainConfig(N=256, F=1.1, R=2)
    pot = lennard_jones()
    ops = {
        kind: assemble_operator(kind, config, pot, partition=HALF_PART if kind in COUPLED else None)
        for kind in (
            ModelKind.QNL, ModelKind.QCE, ModelKind.ATOMISTIC, ModelKind.CONTINUUM, ModelKind.QCF
        )
    }
    ops[ModelKind.CUSTOM] = assemble_operator(
        ModelKind.CUSTOM, config, pot, partition=HALF_PART, stencil=consistent_custom_stencil(4)
    )
    ops["CUSTOM m=1"] = assemble_operator(  # K = 2
        ModelKind.CUSTOM, config, pot,
        partition=RegionPartition([(0.0, 0.5)], interface_width_m=1, reach=2),
        stencil=consistent_custom_stencil(1),
    )
    ops["CUSTOM m=2"] = assemble_operator(  # K = 3
        ModelKind.CUSTOM, config, pot,
        partition=RegionPartition([(0.0, 0.5)], interface_width_m=2, reach=2),
        stencil=consistent_custom_stencil(2),
    )
    ops["CUSTOM m=4 dense"] = assemble_operator(  # K = 5, C of half-width 2
        ModelKind.CUSTOM, config, pot, partition=HALF_PART, stencil=dense_custom_stencil(4)
    )
    ops["R=3"] = assemble_operator(ModelKind.ATOMISTIC, ChainConfig(N=256, F=1.1, R=3), pot)
    ops["R=4"] = assemble_operator(ModelKind.CONTINUUM, ChainConfig(N=256, F=1.1, R=4), pot)
    routes = {}
    for label, op in ops.items():
        reached.clear()
        solve_equilibrium(op, np.random.default_rng(3).standard_normal(op.config.N))
        routes[label] = list(reached)
    # a diagonal CUSTOM block leaves C tridiagonal (its outer diagonals are
    # exact zeros, trimmed), whatever the band's half-width; so does the
    # continuum, whose rows read nearest neighbours only at any R
    assert routes == {
        ModelKind.QNL: ["ring", "_stress_lu"],
        ModelKind.QCE: ["ring", "_stress_lu"],
        ModelKind.ATOMISTIC: ["ring", "_stress_lu"],
        ModelKind.CONTINUUM: ["ring", "_stress_lu"],
        ModelKind.QCF: ["ring", "_patch_lu"],
        ModelKind.CUSTOM: ["ring", "_stress_lu"],
        "CUSTOM m=1": ["ring", "_stress_lu"],
        "CUSTOM m=2": ["ring", "_stress_lu"],
        "CUSTOM m=4 dense": ["gbtrf", "_stress_lu"],
        "R=3": ["gbtrf", "_stress_lu"],
        "R=4": ["ring", "_stress_lu"],
    }


def ring_matrix(lower, diag, upper):
    """Dense cyclic tridiagonal T with T[i, i-1] = lower[i], T[i, i] = diag[i]
    and T[i, i+1] = upper[i], indices mod N; on a ring of 1 or 2 the three
    entries of a row add up where they land on the same column."""
    N = len(diag)
    idx = np.arange(N)
    T = np.zeros((N, N))
    for offset, values in ((-1, lower), (0, diag), (1, upper)):
        np.add.at(T, (idx, (idx + offset) % N), values)
    return T


def ring_runs(lower, diag, upper):
    """The cyclic tridiagonal T with rows (lower, diag, upper), as the runs
    of its rows that the ring kernel takes."""
    return _band_runs(np.stack([lower, diag, upper], axis=1))


@settings(max_examples=120)
@given(
    N=st.one_of(st.integers(1, 9), st.integers(10, 300)),
    signs=st.sampled_from(["positive", "negative", "mixed"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ring_kernel_matches_dense_solve(N, signs, seed):
    # strictly dominant rows with off-diagonal entries of both signs and a
    # diagonal of either sign, on rings of every length: odd lengths keep both
    # ends, and rings of 1 and 2 are solved in closed form
    rng = np.random.default_rng(seed)
    lower, upper = rng.uniform(-1.0, 1.0, N), rng.uniform(-1.0, 1.0, N)
    sign = {"positive": 1.0, "negative": -1.0, "mixed": rng.choice([-1.0, 1.0], N)}[signs]
    diag = sign * (np.abs(lower) + np.abs(upper) + rng.uniform(0.05, 2.0, N))
    T = ring_matrix(lower, diag, upper)
    for transpose, M in ((False, T), (True, T.T)):
        solve, g = _factor(ring_runs(lower, diag, upper), "ring matrix", transpose)
        assert np.abs(M @ g - 1.0).max() <= 1e-13 * np.abs(M).max() * np.abs(g).max()
        b = rng.standard_normal(N)
        x = solve(b.copy(), transpose)
        assert np.abs(M @ x - b).max() <= 1e-13 * np.abs(M).max() * np.abs(x).max()
        want = np.linalg.solve(M, b)
        assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()


def ring_refuses(lower, diag, upper):
    """Whether the ring kernel refuses T at the tolerance `_factor` gives it,
    sqrt(eps_mach) max |T|; `_factor` must then raise the error naming T."""
    tol = math.sqrt(np.finfo(float).eps) * max(np.abs(t).max() for t in (lower, diag, upper))
    with pytest.raises(NumericalError, match="ring matrix is"):
        _factor(ring_runs(lower, diag, upper), "ring matrix")
    return _cyclic_tridiagonal(ring_runs(lower, diag, upper), tol) is None


def test_ring_kernel_refuses_a_roundoff_pivot_and_a_singular_final_ring():
    # row j of a ring of 8 at 1e-17 with no neighbours: the reduction keeps it
    # as it is until it is eliminated, at the first level (j = 3) or the second
    # (j = 2), or reaches the final 2-ring (j = 0)
    for j in (3, 2, 0):
        lower, diag, upper = np.ones(8), np.full(8, 4.0), np.full(8, 2.0)
        lower[j], diag[j], upper[j] = 0.0, 1e-17, 0.0
        assert ring_refuses(lower, diag, upper)
    # a singular 2-ring, given as it is, and the 2-ring [-1/4, 1/2, -1/4] that
    # the singular cyclic [1, 2, 1] on 8 atoms reduces to with regular pivots
    assert ring_refuses(np.array([1.0, 0.25]), np.array([1.0, 1.0]), np.array([1.0, 0.25]))
    assert ring_refuses(np.ones(8), np.full(8, 2.0), np.ones(8))
    assert ring_refuses(np.array([3.0]), np.array([-5.0]), np.array([2.0]))


@settings(max_examples=60)
@given(
    N=st.integers(16, 3000),
    ends=st.sampled_from([1, 2, 3]).flatmap(
        lambda n: st.lists(st.integers(0, 2**16), min_size=2 * n, max_size=2 * n, unique=True)),
    m=st.integers(2, 8),
    F=st.sampled_from([0.95, 1.0, 1.1, 1.2, 1.3, 1.5]),
    potential=st.sampled_from(["harmonic", "lennard_jones"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_assembled_r2_kinds_take_their_o_n_route(N, ends, m, F, potential, seed):
    # the route table over random geometries: every R = 2 energy kind solves
    # in stress form and QCF in patch form (in stress form where a degenerate
    # geometry leaves its band symmetric), and one solve keeps the residual
    # contract
    ends = sorted(e / 2**16 for e in ends)
    partition = RegionPartition(list(zip(ends[::2], ends[1::2])), interface_width_m=m, reach=2)
    config = ChainConfig(N=N, F=F, R=2)
    try:
        classify(partition, config)
    except ValueError:
        reject()
    pot = POT1 if potential == "harmonic" else lennard_jones()
    f = np.random.default_rng(seed).standard_normal(N)
    for kind in (*ENERGY_KINDS, ModelKind.QCF):
        op = assemble_operator(kind, config, pot, partition=partition if kind in COUPLED else None)
        solve, w = (_patch_lu if kind is ModelKind.QCF else _stress_lu)(op)
        fproj = f - (w @ f) / (w @ w) * w
        u = solve(fproj)
        u -= u.mean()
        assert np.abs(apply_linear(op, u) - fproj).max() <= residual_contract(op, u, f), kind
        solve_equilibrium(op, f)


@settings(max_examples=100)
@given(
    N=st.one_of(st.integers(9, 64), st.integers(65, 1500)),
    band=st.sampled_from(  # (kind, m) or (kind, R)
        [(ModelKind.CUSTOM, m) for m in range(1, 8)]
        + [(kind, R) for kind in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM) for R in (3, 4)]
    ),
    ends=st.lists(st.integers(0, 2**16), min_size=2, max_size=2, unique=True),
    potential=st.sampled_from(["harmonic", "lennard_jones"]),
    seed=st.integers(0, 2**32 - 1),
    dense=st.booleans(),
)
def test_wide_symmetric_bands_take_the_stress_route(N, band, ends, potential, seed, dense):
    # every assembled band wider than 2 is exactly symmetric, and so is CUSTOM
    # at every m: CUSTOM with the zero-row-sum diagonal or dense block (K =
    # max(2, m + 1); a dense block of m >= 4 makes C wider than tridiagonal)
    # and pure chains at R = 3 and 4 solve in stress form with one residual
    # check within the contract, and agree with the SuperLU oracle
    kind, width = band
    pot, F = (POT1, 1.2) if potential == "harmonic" else (lennard_jones(), 1.1)
    if kind is ModelKind.CUSTOM:
        a, b = sorted(e / 2**16 for e in ends)
        partition = RegionPartition([(a, b)], interface_width_m=width, reach=2)
        config = ChainConfig(N=N, F=F, R=2)
        try:
            classify(partition, config)
        except ValueError:
            reject()
        stencil = (dense_custom_stencil if dense else consistent_custom_stencil)(width)
        op = assemble_operator(kind, config, pot, partition=partition, stencil=stencil)
    else:
        config = ChainConfig(N=N, F=F, R=width)
        op = assemble_operator(kind, config, pot)
    f = np.random.default_rng(seed).standard_normal(N)
    routes = []

    def stress(op_):
        routes.append("stress")
        return _stress_lu(op_)

    def banded(*args):
        routes.append("gbtrf")
        return _cyclic_banded(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(convergence, "_stress_lu", stress)
        patch.setattr(convergence, "_patch_lu", forbid("the patch path"))
        patch.setattr(convergence, "_cyclic_banded", banded)
        checks = count_kernel_calls(patch)
        u = solve_equilibrium(op, f).values
    # the kernel follows C's true width: gbtrf when a diagonal beyond +-1 is
    # nonzero (atomistic chains, and dense blocks of m >= 4 on most
    # geometries), the ring when the trim leaves C tridiagonal
    diags = _diagonals(_stress_diagonals(op.runs))
    wide = any(d.any() for d in diags[:len(diags) // 2 - 1])
    assert wide or kind is not ModelKind.ATOMISTIC
    assert routes == ["stress"] + ["gbtrf"] * wide and checks == [(N, True)]
    fproj = f - f.mean()
    assert abs(u.mean()) <= 1e-12 * np.abs(u).max()
    assert np.abs(apply_linear(op, u) - fproj).max() <= residual_contract(op, u, f)
    if N <= 1024:
        want, _ = bordered_reference(op, f)
        c = abs(sum(r * r * evaluate(pot, r * F, 2) for r in range(1, config.R + 1)))
        tol = 4.0 * residual_contract(op, want, f) / c  # as for the R = 2 kinds
        assert lp_norm(difference(PeriodicField(config, u - want), 1, 1), math.inf) <= tol
    if N <= 64:  # C rebuilds the band: A[i, j] = C[i, j] - C[i, j+1] - C[i+1, j] + C[i+1, j+1]
        diags = _diagonals(_stress_diagonals(op.runs))
        Kc = (len(diags) - 1) // 2
        idx = np.arange(N)
        dense = np.zeros((N, N))
        for k in range(-Kc, Kc + 1):
            np.add.at(dense, (idx, (idx + k) % N), diags[Kc + k])
        D = np.eye(N) - np.roll(np.eye(N), -1, axis=1)
        assert np.abs(D.T @ dense @ D - op.dense() * config.epsilon**2).max() <= (
            1e-13 * np.abs(op.band).max())


def test_wide_stress_path_pivots_through_indefinite_stress_matrices(monkeypatch):
    # random symmetric C of half-width 2-5 with entries of both signs: the
    # recursion reads it back off D^T C D, symmetric to rounding, and the
    # banded LU of its folded ring pivots through it
    rng = np.random.default_rng(69)
    monkeypatch.setattr(convergence, "_patch_lu", forbid("the patch path"))
    for N, Kc in ((16, 2), (17, 3), (64, 5), (257, 3)):
        config = ChainConfig(N=N, F=1.2, R=2)
        idx = np.arange(N)
        C = np.diag(rng.uniform(-3.0, 3.0, N))
        for j in range(1, Kc + 1):
            C[idx, idx - j] = C[idx - j, idx] = rng.uniform(-1.0, 1.0, N)
        D = np.eye(N) - np.roll(np.eye(N), -1, axis=1)
        A = D.T @ C @ D
        band = np.stack([A[idx, (idx + k) % N] for k in range(-Kc - 1, Kc + 2)], axis=1)
        op = LinearChainOperator(config, ModelKind.ATOMISTIC, band, np.zeros(N))
        rebuilt = _diagonals(_stress_diagonals(op.runs))
        for k in range(-Kc, Kc + 1):
            assert np.abs(rebuilt[Kc + k] - C[idx, (idx + k) % N]).max() <= 1e-13 * np.abs(C).max()
        v = rng.standard_normal(N)
        v -= v.mean()
        u = solve_equilibrium(op, apply_linear(op, v)).values
        assert np.abs(u - v).max() <= 1e-8 * np.abs(v).max()


@pytest.mark.parametrize("F", [1.2, 1.5])
def test_wide_stress_path_solves_negative_moduli(F, monkeypatch):
    # Lennard-Jones chains at R = 3 and 4 stretched past the inflection point:
    # every modulus is negative, and so is C
    pot = lennard_jones()
    monkeypatch.setattr(convergence, "_patch_lu", forbid("the patch path"))
    for R, kind in itertools.product((3, 4), (ModelKind.ATOMISTIC, ModelKind.CONTINUUM)):
        config = ChainConfig(N=1024, F=F, R=R)
        moduli = [evaluate(pot, r * F, 2) for r in range(1, R + 1)]
        assert max(moduli) < 0.0
        op = assemble_operator(kind, config, pot)
        f = np.random.default_rng(R).standard_normal(config.N)
        want, fproj = bordered_reference(op, f)
        u = solve_equilibrium(op, f).values
        assert np.abs(apply_linear(op, u) - fproj).max() <= residual_contract(op, u, f)
        c = abs(sum(r * r * phi2 for r, phi2 in enumerate(moduli, 1)))
        tol = 4.0 * residual_contract(op, want, f) / c  # as for the R = 2 chains
        assert lp_norm(difference(PeriodicField(config, u - want), 1, 1), math.inf) <= tol


def test_solve_refuses_a_right_hand_side_of_another_shape(monkeypatch):
    # an (N, 1) column is named and refused before anything is factored
    config = ChainConfig(N=32, F=1.2, R=2)
    op = assemble_operator(ModelKind.ATOMISTIC, config, POT1)
    monkeypatch.setattr(convergence, "_stress_lu", forbid("the stress path"))
    with pytest.raises(ValueError, match=r"has shape \(32, 1\), expected \(32,\)"):
        solve_equilibrium(op, np.ones((32, 1)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solve_names_the_first_non_finite_atom(bad, monkeypatch):
    # named and refused before anything is factored, without a RuntimeWarning
    config = ChainConfig(N=32, F=1.2, R=2)
    op = assemble_operator(ModelKind.QCF, config, POT1, partition=HALF_PART)
    monkeypatch.setattr(convergence, "_patch_lu", forbid("the patch path"))
    f = np.ones(32)
    f[[6, 20]] = bad, -bad
    with pytest.raises(ValueError, match=f"not finite at atom 7: {bad}"):
        solve_equilibrium(op, f)


def test_solve_rejects_wrong_length():
    config = ChainConfig(N=32, F=1.2, R=2)
    op = assemble_operator(ModelKind.ATOMISTIC, config, POT1)
    with pytest.raises(ValueError):
        solve_equilibrium(op, np.ones(16))


def folded_scatter_reference(diags):
    """The folded band storage as qclab first built it, kept as the exact
    reference: one fancy-indexed scatter per offset through the position
    permutation."""
    N = len(diags[0])
    K = (len(diags) - 1) // 2
    kb = 2 * K
    order = np.empty(N, dtype=np.intp)
    order[0::2] = np.arange((N + 1) // 2)
    order[1::2] = np.arange(N - 1, (N + 1) // 2 - 1, -1)
    pos = np.zeros(N, dtype=np.intp)
    pos[order] = np.arange(N)
    ab = np.zeros((3 * kb + 1, N))
    flat = ab.reshape(-1)
    for k in range(-K, K + 1):
        q = np.roll(pos, -k)
        flat[(2 * kb + pos - q) * N + q] += diags[K + k]
    return ab, order


def test_folded_storage_matches_scatter_reference(random_geometry):
    # the fold of each wide C that the stress form factors, bit for bit
    rng = np.random.default_rng(61)
    bands = []
    for N in (12, 13, 64, 65, 1024, 1025):  # even and odd chains
        config, pot, partition = random_geometry(rng, N, "lennard_jones", 1)
        m = partition.interface_width_m
        block = rng.standard_normal((m, m))
        ops = [assemble_operator(
            ModelKind.CUSTOM, config, pot, partition=partition,
            stencil=InterfaceStencil(m, block + block.T),
        )]
        # F = 1.3 stretches every Lennard-Jones modulus negative
        for F, R, kind in itertools.product((1.1, 1.3), (3, 4), (ModelKind.ATOMISTIC, ModelKind.CONTINUUM)):
            ops.append(assemble_operator(kind, ChainConfig(N=N, F=F, R=R), pot))
        bands += [_diagonals(_stress_diagonals(op.runs)) for op in ops]
    # bands as wide as the ring or wider, which the fold wraps more than once
    for N in (3, 4, 5, 8):
        for K in (1, 3, N, N + 2):
            band = rng.standard_normal((2 * K + 1, N))  # one row per offset
            band[rng.random(band.shape) < 0.2] = -0.0
            bands.append(band)
    assert any((np.signbit(band) & (band == 0)).any() for band in bands)  # -0.0 entries
    for band in bands:
        got, want = _folded_storage(band), folded_scatter_reference(band)
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


def test_study_never_builds_a_band(monkeypatch):
    # every rung of a study reads its operators' runs: assembly, the solve,
    # the |A| |u| floor, L e and bound_C; none asks for the (N, 2K+1) band
    def refuse(op):
        raise AssertionError(f"a {op.kind.value} band was built")

    monkeypatch.setattr(LinearChainOperator, "band", property(refuse))
    for kind in ("qnl", "qcf", "qce", "continuum"):
        table = convergence_study(kind, default_witness, [64, 128, 1024], (1.0, math.inf), POT1,
                                  partition=HALF_PART)
        assert all(c.chain_ok and c.norm_equiv_ok for c in table.checks)


def test_study_and_sweep_only_read_the_witness_samples():
    # the rungs take the witness's array as it is, without a copy into a
    # field: a sample the witness keeps is neither written nor frozen, and
    # the rows are those of a witness that returns a fresh array each time
    kept = {}

    def keeping(x):
        return kept.setdefault(len(x), default_witness(x))

    for run in (
        lambda f: convergence_study(ModelKind.QNL, f, [64, 128], (1.0, math.inf), POT1,
                                    partition=HALF_PART),
        lambda f: consistency_sweep(ModelKind.QCE, f, [64, 128], POT1, partition=HALF_PART),
    ):
        got = run(keeping)
        assert all(v.flags.writeable for v in kept.values())
        assert all(v.tobytes() == default_witness(np.arange(1, N + 1) / N).tobytes()
                   for N, v in kept.items())
        assert got == run(default_witness)
    for bad in (lambda x: x[:-1], lambda x: 0.5):
        for run in (convergence_study, consistency_sweep):
            args = (ModelKind.QNL, bad, [64], *([(1.0,)] if run is convergence_study else []), POT1)
            with pytest.raises(ValueError, match="expected 64 values, got shape"):
                run(*args, partition=HALF_PART)


def test_study_names_the_first_non_finite_witness_sample():
    # the study used to report "right-hand side is not finite at atom 1", the
    # first atom that L^a spread the NaN of atom 45 (x = 45/64) to
    with pytest.raises(ValueError, match=r"^witness is not finite at atom 45 \(x = 0\.703125\): nan$"):
        convergence_study(ModelKind.QNL, lambda x: np.where(x > 0.7, np.nan, default_witness(x)),
                          [64, 128], [1.0], POT1, partition=HALF_PART)


def test_study_names_an_N_list_that_does_not_increase():
    for N_list in ([64, 64], [128, 64]):
        with pytest.raises(ValueError, match=rf"strictly increasing, got \[{N_list[0]}, {N_list[1]}\]"):
            convergence_study(
                ModelKind.QNL, default_witness, N_list, [1.0], POT1, partition=HALF_PART
            )


def test_study_names_a_repeated_p():
    # a repeated p listed every row twice, and fitted a running slope through
    # two points at one N
    for p_list in ([2, 2], [1.0, math.inf, 2.0, math.inf]):
        with pytest.raises(ValueError, match=r"must not repeat a p"):
            convergence_study(
                ModelKind.QNL, default_witness, [64, 128], p_list, POT1, partition=HALF_PART
            )


@pytest.mark.parametrize("bad", [0.5, 0.0, -math.inf, math.nan])
def test_study_names_a_bad_p_before_it_assembles(bad, monkeypatch):
    # a p below 1 or NaN was refused only by the first rung's norms, after
    # two assemblies and a solve
    assembled = []
    monkeypatch.setattr(consistency, "assemble_operator",
                        lambda *args, **kwargs: assembled.append(args))
    with pytest.raises(ValueError, match=rf"^p must lie in \[1, inf\], got {bad}$"):
        convergence_study(ModelKind.QNL, default_witness, [64, 128], [1.0, bad], POT1,
                          partition=HALF_PART)
    assert assembled == []


def test_study_refuses_an_empty_p_list():
    # an empty p_list made every solve and returned no rows and no fits
    for p_list in ([], (), iter([])):
        with pytest.raises(ValueError, match=r"p_list must name at least one p"):
            convergence_study(
                ModelKind.QNL, default_witness, [64, 128], p_list, POT1, partition=HALF_PART
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
