"""Equilibrium solves on the mean-zero subspace and convergence-rate studies.

The linearized operators annihilate constants, so an equilibrium is fixed
only up to a constant. The solver grounds atom N (drops its row and column),
which leaves a nonsingular system whenever the kernel is exactly the
constants. Numbering the remaining atoms 1, N-1, 2, N-2, ... folds the ring
so that the periodic band of half-width K becomes a plain band of half-width
2K, which one banded LU factorization (LAPACK gbtrf) handles for every model
kind. The right-hand side is first projected off the left-null direction
(from the transposed factors; for symmetric operators this is mean removal),
and iterative refinement keeps the residual at the 1e-10 ||f|| contract even
on the largest chains.
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


def solve_equilibrium(op: LinearChainOperator, f) -> PeriodicField:
    """Unique mean-zero u with (linear part of op) u = P f, where P removes
    the left-null component of f (the mean, for symmetric operators).

    One banded LU factorization of the grounded, ring-folded operator serves
    the left-null vector, the solve and the refinement steps. The residual
    contract is 1e-10 ||f||_inf, widened to the float64 representation floor
    eps_mach * || |A| |u| ||_inf where the latter is larger (rounding u alone
    perturbs A u by that much on the finest chains); it is checked on the
    returned mean-zero u. Raises ValueError for an operator with nonzero row
    sums and NumericalError when the kernel is larger than the constants.
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
    solve, w = _grounded_lu(op)
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
