"""Equilibrium solves on the mean-zero subspace and convergence-rate studies.

The linearized operators annihilate constants, so an equilibrium is fixed
only up to a constant. Two factorizations solve it, and `solve_equilibrium`
picks one from the band alone:

- Stress form, for an exactly symmetric band of half-width 2 (every
  energy-based kind at R = 2): the band is D^T C D / eps^2 with D the backward
  difference and C a cyclic symmetric tridiagonal matrix of condition O(1).
  One pivoted tridiagonal LU of C (LAPACK gttrf) with a rank-1 correction
  for the ring's corner gives the strains, and a running sum the
  displacements.
- Grounded LU, for every other band (QCF, custom stencils, R > 2) and for a
  stress form whose C is singular: atom N is grounded (its row and column
  dropped), which leaves a nonsingular system whenever the kernel is
  exactly the constants. Numbering the remaining atoms 1, N-1, 2, N-2, ...
  folds the ring so that the periodic band of half-width K becomes a plain
  band of half-width 2K, which one banded LU factorization (LAPACK gbtrf)
  handles.

The right-hand side is first projected off the left-null direction (the
mean, for symmetric operators; from the transposed factors otherwise), and
iterative refinement keeps the residual at the 1e-10 ||f|| contract even on
the largest chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainConfig, PeriodicField, difference, lp_norm, sample_field
from .models import (
    LinearChainOperator,
    ModelKind,
    _band_apply,
    apply_linear,
    assemble_operator,
    to_strain_form,
)
from .potentials import PairPotential
from .regions import RegionPartition

RESIDUAL_RTOL = 1e-10


class NumericalError(RuntimeError):
    """Solver-level failure: rank deficiency beyond the constant kernel or a
    residual that refuses to meet the contract."""


def fit_slope(points) -> tuple:
    """Least-squares line through (log x, log y): (slope, intercept, r_squared).

    Requires at least two strictly positive points. A constant y gives slope 0
    with r_squared reported as 1 (the fit is exact).
    """
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least two points to fit a slope")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("slope fit needs strictly positive coordinates")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def _grounded_lu(op: LinearChainOperator):
    """Factor the operator with atom N grounded, in folded ring order.

    Returns (solve, w): w is the left-null vector of A scaled to w_N = 1, and
    solve(r) is the u with u_N = 0 and A u = r - mu w, mu being the left-null
    component of r (zero for a projected r, up to rounding).
    Raises NumericalError when the grounded system is (numerically) singular,
    i.e. when the kernel of A is larger than the constants.
    """
    # imported here so that `import qclab` does not load scipy
    from scipy.linalg.lapack import dgbtrf, dgbtrs

    N = op.config.N
    K = op.half_width
    n = N - 1
    kb = 2 * K  # a ring distance d <= K becomes a folded distance <= 2d
    order = np.empty(n, dtype=np.intp)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = np.arange(n - 1, (n + 1) // 2 - 1, -1)
    pos = np.zeros(N, dtype=np.intp)
    pos[order] = np.arange(n)
    p = pos[:n]
    # LAPACK band storage: A'[p, q] at ab[2*kb + p - q, q], kb spare rows on top
    ab = np.zeros((3 * kb + 1, n))
    flat = ab.reshape(-1)
    last_row = np.zeros(N)
    scale = 1.0 / op.config.epsilon**2
    for k in range(-K, K + 1):
        vals = op.band[:n, K + k] * scale
        q = np.roll(pos, -k)[:n]
        i0 = (n - k) % N  # the one row whose k-th neighbour is the grounded atom
        if i0 < n:
            q[i0], vals[i0] = p[i0], 0.0
        flat[(2 * kb + p - q) * n + q] += vals  # distinct targets: p is a permutation
        last_row[(n + k) % N] += op.band[n, K + k] * scale
    lu, piv, info = dgbtrf(ab, kb, kb, overwrite_ab=1)
    pivots = np.abs(lu[2 * kb])
    ratio = pivots.min() / pivots.max() if info == 0 else 0.0
    # A well-posed chain keeps the smallest U pivot near 1/N of the largest;
    # a kernel beyond the constants leaves one at roundoff level, and the
    # refinement loop cannot see that (its floor grows with the garbage u).
    if ratio < math.sqrt(np.finfo(float).eps):
        raise NumericalError(
            "operator is singular: its kernel is larger than the constants "
            f"(smallest/largest LU pivot {ratio:.1e})"
        )

    def grounded(r, trans=0):
        x, _ = dgbtrs(lu, kb, kb, r[order], piv, trans=trans)
        out = np.zeros(N)
        out[order] = x
        return out

    # w^T A = 0 with w_N = 1: rows 1..N-1 give A'^T w' = -(row N of A)'
    w = grounded(-last_row, trans=1)
    w[n] = 1.0
    z = grounded(w)
    denom = 1.0 - last_row @ z  # = w.w in exact arithmetic

    def solve(r):
        # A u = r - mu w on all N rows: mu picks up what rounding leaves of
        # r outside the range of A and spreads it along w, instead of
        # dumping it on the grounded row (N times larger in the sup norm)
        y = grounded(r)
        mu = (r[n] - last_row @ y) / denom
        return y - mu * z

    return solve, w


def _stress_lu(op: LinearChainOperator):
    """Factor a symmetric, zero-row-sum band of half-width 2 in stress form.

    Such a band is A = D^T C D / eps^2, with (D u)_i = u_i - u_{i-1} and C the
    cyclic symmetric tridiagonal matrix read off its two lower diagonals:
    C[i, i-1] = -band[i, 0] and C[i, i] = C[i, i-1] + C[i+1, i] - band[i, 1].
    A u = r becomes C t = sigma + c 1 with sum(t) = 0, where the stress
    sigma is a prefix sum of eps^2 r and c is fixed by the constraint; then
    u = cumsum(t). C is factored as its open chain (pivoted tridiagonal LU,
    LAPACK gttrf) plus a Sherman-Morrison correction for the two corner
    entries. Folding the ring instead would fill a banded factor with
    subnormal numbers, and gttrf pivots where a positive-definite factor
    would refuse the negative moduli of stretched Lennard-Jones chains.

    Returns (solve, w) as `_grounded_lu` does, with w = 1. Returns None when
    C itself is (numerically) singular: A may still be well posed then (the
    bilaplacian band has C = D D^T), and the grounded LU decides. Raises
    NumericalError when C is regular but A's kernel is larger than the
    constants, i.e. when sum(C^-1 1) vanishes.
    """
    from scipy.linalg.lapack import dgttrf, dgttrs

    N = op.config.N
    band = op.band
    sub = -band[:, 0]  # C[i, i-1]; sub[0] is the corner C[0, N-1]
    diag = sub + np.roll(sub, -1) - band[:, 1]
    corner = float(sub[0])
    # C = T + x v^T: T is the open chain, x = gamma e_0 + corner e_{N-1} and
    # v = e_0 + (corner / gamma) e_{N-1}; |gamma| >= |C[0,0]| keeps T's
    # first pivot away from cancellation
    gamma = -math.copysign(max(abs(diag[0]), abs(corner)) or 1.0, diag[0])
    diag[0] -= gamma
    diag[-1] -= corner * corner / gamma
    off = sub[1:]
    dl, d, du, du2, ipiv, info = dgttrf(off, diag, off)
    pivots = np.abs(d)
    if info != 0 or pivots.min() < math.sqrt(np.finfo(float).eps) * pivots.max():
        return None

    def open_solve(b):
        return dgttrs(dl, d, du, du2, ipiv, b)[0]

    x = np.zeros(N)
    x[0], x[-1] = gamma, corner
    zg = open_solve(np.column_stack((x, np.ones(N))))
    z = zg[:, 0]
    ratio = corner / gamma
    vz = z[0] + ratio * z[-1]
    denom = 1.0 + vz
    if abs(denom) < math.sqrt(np.finfo(float).eps) * max(1.0, abs(vz)):
        return None

    def corrected(y):  # C^-1 b from y = T^-1 b
        return y - ((y[0] + ratio * y[-1]) / denom) * z

    g = corrected(zg[:, 1])  # C^-1 1
    g_sum = float(g.sum())
    if abs(g_sum) <= math.sqrt(np.finfo(float).eps) * float(np.abs(g).sum()):
        raise NumericalError(
            "operator is singular: its kernel is larger than the constants "
            f"(sum of C^-1 1 is {g_sum:.1e})"
        )
    eps2 = op.config.epsilon**2
    ramp = np.arange(1, N + 1) / N

    def solve(r):
        # D^T sigma = eps^2 r for the mean-free part of r (w = 1)
        sigma = np.empty(N)
        sigma[0] = 0.0
        np.cumsum(r[:-1] - r.mean(), out=sigma[1:])
        t = corrected(open_solve(sigma * -eps2))
        t -= (t.sum() / g_sum) * g
        u = np.cumsum(t)
        # u[-1] is the rounding the running sum gathered (sum(t) = 0); left
        # in place it is a jump between atoms N and 1, and A would see it
        # there with weight 1/eps^2, so spread it evenly over the ring
        u -= u[-1] * ramp
        return u

    return solve, np.ones(N)


def solve_equilibrium(op: LinearChainOperator, f) -> PeriodicField:
    """Unique mean-zero u with (linear part of op) u = P f, where P removes
    the left-null component of f (the mean, for symmetric operators).

    An exactly symmetric band of half-width 2 (two O(N) comparisons) is
    solved in stress form through its tridiagonal C (`_stress_lu`); any other
    band, and a stress form whose C is singular, through one banded LU of the
    grounded, ring-folded operator (`_grounded_lu`). Either factorization
    serves the left-null vector, the solve and the refinement steps. The
    residual contract is 1e-10 ||f||_inf, widened to the float64
    representation floor eps_mach * || |A| |u| ||_inf where the latter is
    larger (rounding u alone perturbs A u by that much on the finest chains);
    it is checked on the returned mean-zero u. Raises ValueError for an
    operator with nonzero row sums and NumericalError when the kernel is
    larger than the constants.
    """
    fv = f.values if isinstance(f, PeriodicField) else np.asarray(f, dtype=float)
    N = op.config.N
    if len(fv) != N:
        raise ValueError("right-hand side length does not match operator size")
    defect = float(np.abs(op.row_sums()).max())
    if defect > 1e-12 * float(np.abs(op.band).max()):
        raise ValueError(
            f"operator does not annihilate constants (max |row sum| {defect:.1e} "
            "in eps^2 stencil units); equilibria are defined up to a constant only "
            "for shift-invariant operators"
        )
    band = op.band
    symmetric_pentadiagonal = (
        band.shape[1] == 5
        and np.array_equal(band[:, 3], np.roll(band[:, 1], -1))  # A[i,i+1] = A[i+1,i]
        and np.array_equal(band[:, 4], np.roll(band[:, 0], -2))  # A[i,i+2] = A[i+2,i]
    )
    factor = _stress_lu(op) if symmetric_pentadiagonal else None
    solve, w = factor or _grounded_lu(op)
    fproj = fv - (w @ fv) / (w @ w) * w
    u = solve(fproj)
    scale = float(np.abs(fv).max())
    macheps = np.finfo(float).eps
    converged = False
    resid_inf = math.inf
    for attempt in range(4):  # iterative refinement: LU error grows with cond(A)
        u = u - u.mean()
        resid = fproj - apply_linear(op, u)
        resid_inf = float(np.abs(resid).max())
        abs_au = _band_apply(np.abs(op.band), -op.half_width, np.abs(u))  # eps^2 |A| |u|
        floor = macheps * float(abs_au.max()) / op.config.epsilon**2
        if resid_inf <= max(RESIDUAL_RTOL * scale, 8.0 * floor):
            converged = True
            break
        if attempt < 3:
            u = u + solve(resid)
    if not converged:
        raise NumericalError(
            f"equilibrium residual {resid_inf:.3e} exceeds "
            f"{RESIDUAL_RTOL:.0e} * ||f|| after refinement"
        )
    return PeriodicField(op.config, u)


@dataclass(frozen=True)
class ConvergenceRow:
    N: int
    epsilon: float
    p: float
    error_norm: float


@dataclass(frozen=True)
class ConvergenceChecks:
    """Per-N certificates of the error-bound inequality chain."""

    N: int
    de_inf: float            # ||D e||_inf
    le_inf: float            # ||L e||_inf (linear part on the error)
    bound_C: float           # sup row l1 norm of eps * Ltilde
    chain_ok: bool           # le_inf <= (bound_C / eps) * de_inf
    norm_equiv_ok: bool      # ||De||_p >= eps^(1/p) ||De||_inf for all p


@dataclass(frozen=True)
class ConvergenceTable:
    """Error norms ||D e||_p per chain size with log-log fits per p."""

    kind: ModelKind
    witness: str
    rows: tuple              # ConvergenceRow entries, grouped by N then p
    fits: dict               # p -> (slope, intercept, r_squared)
    checks: tuple            # ConvergenceChecks per N

    def norms(self, p: float):
        return [(r.N, r.error_norm) for r in self.rows if r.p == p]


def convergence_study(
    kind: ModelKind,
    f_witness,
    N_list,
    p_list,
    potential: PairPotential,
    partition: RegionPartition | None = None,
    F: float = 1.2,
    witness_name: str = "sin(2*pi*x + 0.3)",
) -> ConvergenceTable:
    """Solve L^kind u_qc = L^a u (ghost of L^kind on the left) across chain
    sizes and record ||D e||_p for e = u - u_qc."""
    kind = ModelKind(kind)
    p_list = list(p_list)
    rows = []
    checks = []
    per_p = {p: [] for p in p_list}
    for N in N_list:
        config = ChainConfig(N=int(N), F=F, R=2)
        eps = config.epsilon
        u = sample_field(f_witness, config)
        op_a = assemble_operator(ModelKind.ATOMISTIC, config, potential)
        op_k = assemble_operator(kind, config, potential, partition=partition)
        rhs = apply_linear(op_a, u.values) - op_k.ghost
        u_qc = solve_equilibrium(op_k, rhs)
        e = PeriodicField(config, u.values - u_qc.values)
        de = difference(e, 1, 1)
        de_inf = lp_norm(de, math.inf)
        for p in p_list:
            val = lp_norm(de, p)
            rows.append(ConvergenceRow(N=int(N), epsilon=eps, p=p, error_norm=val))
            per_p[p].append((eps, val))
        ghost_free = LinearChainOperator(config, op_k.kind, op_k.band, np.zeros(config.N))
        bound_C = to_strain_form(ghost_free).bound_C
        le_inf = float(np.abs(apply_linear(op_k, e.values)).max())
        norm_ok = all(
            lp_norm(de, p) >= eps ** (1.0 / p) * de_inf * (1.0 - 1e-12)
            for p in p_list
            if p != math.inf
        )
        checks.append(
            ConvergenceChecks(
                N=int(N),
                de_inf=de_inf,
                le_inf=le_inf,
                bound_C=bound_C,
                chain_ok=le_inf <= bound_C / eps * de_inf * (1.0 + 1e-12),
                norm_equiv_ok=norm_ok,
            )
        )
    fits = {}
    for p, pts in per_p.items():
        if all(v > 0 for _, v in pts) and len(pts) >= 2:
            fits[p] = fit_slope(pts)
        else:
            fits[p] = (float("nan"), float("nan"), float("nan"))
    return ConvergenceTable(
        kind=kind, witness=witness_name, rows=tuple(rows), fits=fits, checks=tuple(checks)
    )
