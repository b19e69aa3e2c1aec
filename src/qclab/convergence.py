"""Equilibrium solves on the mean-zero subspace and convergence-rate studies.

The linearized operators annihilate constants, so an equilibrium is fixed
only up to a constant. Three factorizations solve it, and `solve_equilibrium`
picks one from the band alone:

- Stress form, for an exactly symmetric band of half-width 2 (every
  energy-based kind at R = 2): the band is D^T C D / eps^2 with D the backward
  difference and C a cyclic symmetric tridiagonal matrix of condition O(1).
  C is solved for the strains, and a running sum gives the displacements.
- Patch form, for any other band of half-width 2 that passes the linear
  patch test, zero first moments per row (QCF): the band is T Delta / eps^2
  with Delta the centred second difference and T cyclic tridiagonal. T is
  solved, and two running sums give the strains and the displacements.
- Grounded LU, for every other band (custom stencils, R > 2, a band that
  fails the patch test) and for a C or T that is singular: atom N is grounded
  (its row and column dropped), which leaves a nonsingular system whenever
  the kernel is exactly the constants. Numbering the remaining atoms 1, N-1,
  2, N-2, ... folds the ring so that the periodic band of half-width K
  becomes a plain band of half-width 2K, which one banded LU factorization
  (LAPACK gbtrf) handles. Its column-major band storage is filled from the
  operator's contiguous band columns: two strided slices per offset (the rows
  whose neighbour lies in the same half of the fold) and O(K^2) single
  entries where the fold turns or the ring wraps.

The stress and patch forms share one cyclic tridiagonal kernel: a pivoted
tridiagonal LU of the open chain (LAPACK gttrf) with a rank-1 correction for
the ring's corners, which also solves with the transpose. Both are O(N).

The right-hand side is first projected off the left-null direction (the
mean, for symmetric operators; T^-T 1 in patch form; from the transposed
factors otherwise), and iterative refinement keeps the residual at the
1e-10 ||f|| contract even on the largest chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import PeriodicField, difference, lp_norm
from .consistency import _rungs, fit_slope
from .models import (
    LinearChainOperator,
    ModelKind,
    _band_apply,
    _constants_defect,
    _distinct_rows,
    _moment_defect,
    _telescope,
    _transpose_gaps,
    apply_linear,
)
from .potentials import PairPotential
from .regions import RegionPartition

RESIDUAL_RTOL = 1e-10


class NumericalError(RuntimeError):
    """Solver-level failure: rank deficiency beyond the constant kernel or a
    residual that refuses to meet the contract."""


def _folded_storage(op: LinearChainOperator):
    """The grounded operator in folded ring order, as LAPACK band storage.

    Atom N is grounded; atoms 1..h take positions 0, 2, 4, ... and atoms
    N-1 down to h+1 the odd positions (h = ceil((N-1)/2)), so that ring
    distance d becomes folded distance at most 2d. Returns (ab, order,
    last_row): A'[p, q] sits at ab[2*kb + p - q, q] with kb = 2K and kb spare
    rows on top for the pivoting; order[p] is the 0-based atom at position
    p; last_row is the grounded atom's row of A.

    Each offset fills two band diagonals with strided slices: the rows
    whose neighbour lies in the same half, unwrapped (p = 2i in the front
    half, p = 2(n-1-i) + 1 in the back half, n = N-1). The at most 2|k|
    rows that cross between the halves or wrap round the ring are placed
    one by one, and the column of the grounded atom is dropped.
    """
    N = op.config.N
    K = op.half_width
    n = N - 1
    h = (n + 1) // 2
    kb = 2 * K  # a ring distance d <= K becomes a folded distance <= 2d
    order = np.empty(n, dtype=np.intp)
    order[0::2] = np.arange(h)
    order[1::2] = np.arange(n - 1, h - 1, -1)
    pos = np.zeros(N, dtype=np.intp)
    pos[order] = np.arange(n)
    ab = np.zeros((3 * kb + 1, n), order="F")
    last_row = np.zeros(N)
    scale = 1.0 / op.config.epsilon**2
    for k in range(-K, K + 1):
        col = op.band[:, K + k]
        # 0 <= f0 <= f1 <= b0 <= b1 <= n: rows f0..f1-1 have i and i+k in
        # the front half, rows b0..b1-1 both in the back half
        f0 = min(max(0, -k), n)
        f1 = max(f0, min(h, h - k))
        b0 = max(f1, min(max(h, h - k), n))
        b1 = max(b0, min(n, n - k))
        if f1 > f0:  # q = 2(i+k), p - q = -2k
            ab[2 * kb - 2 * k, 2 * (f0 + k):2 * (f1 + k):2] += col[f0:f1] * scale
        if b1 > b0:  # q = 2(n-1-i-k) + 1 falls as i rises, p - q = 2k
            ab[2 * kb + 2 * k, 2 * (n - b1 - k) + 1:2 * (n - b0 - k):2] += (
                col[b0:b1][::-1] * scale
            )
        rest = np.r_[0:f0, f1:b0, b1:n]
        j = (rest + k) % N
        i, j = rest[j != n], j[j != n]
        p, q = pos[i], pos[j]
        ab[2 * kb + p - q, q] += col[i] * scale  # distinct targets: p is a permutation
        last_row[(n + k) % N] += op.band[n, K + k] * scale
    return ab, order, last_row


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
    kb = 2 * op.half_width
    ab, order, last_row = _folded_storage(op)
    n = N - 1
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


def _cyclic_tridiagonal(lower, diag, upper, transpose=False):
    """Factor the cyclic tridiagonal T with T[i, i-1] = lower[i], T[i, i] =
    diag[i] and T[i, i+1] = upper[i], indices mod N: lower[0] is the corner
    T[0, N-1] and upper[-1] the corner T[N-1, 0].

    T is its open chain T0 (pivoted tridiagonal LU, LAPACK gttrf) plus the
    rank-1 corner term x v^T, x = gamma e_0 + bottom e_{N-1} and v = e_0 +
    (top / gamma) e_{N-1} with top = lower[0] and bottom = upper[-1], which
    a Sherman-Morrison correction undoes; |gamma| >= |T[0, 0]| keeps T0's
    first pivot away from cancellation. Folding the ring instead would fill a
    banded factor with subnormal numbers, and gttrf pivots where a
    positive-definite factor would refuse an indefinite T.

    The factorization overwrites diag. Returns (solve, g): solve(b,
    transpose=False) gives T^-1 b, or T^-T b, and may overwrite b; g is
    solve(1, transpose). Both are None when T is (numerically) singular: a
    roundoff-level pivot of T0, a vanishing Sherman-Morrison denominator, or
    max |g| max |T| > 1/sqrt(eps_mach) (0.6-1.7 for the model kinds), as
    for a roundoff-level row that pivoting swaps away.
    """
    from scipy.linalg.lapack import dgttrf, dgttrs

    N = len(diag)
    scale = max(float(np.abs(t).max()) for t in (lower, diag, upper))
    top, bottom = float(lower[0]), float(upper[-1])
    gamma = -math.copysign(max(abs(diag[0]), abs(top), abs(bottom)) or 1.0, diag[0])
    diag[0] -= gamma
    diag[-1] -= top * bottom / gamma
    dl, d, du, du2, ipiv, info = dgttrf(lower[1:], diag, upper[:-1], overwrite_d=1)
    pivots = np.abs(d)
    if info != 0 or pivots.min() < math.sqrt(np.finfo(float).eps) * pivots.max():
        return None, None

    def open_solve(rhs, trans=b"N"):
        return dgttrs(dl, d, du, du2, ipiv, rhs, trans=trans, overwrite_b=1)[0]

    x = np.zeros(N)
    x[0], x[-1] = gamma, bottom
    z = open_solve(x)
    ratio = top / gamma
    vz = z[0] + ratio * z[-1]
    denom = 1.0 + vz
    if abs(denom) < math.sqrt(np.finfo(float).eps) * max(1.0, abs(vz)):
        return None, None

    def solve(rhs, transpose=False):
        if not transpose:
            y = open_solve(rhs)
            y -= ((y[0] + ratio * y[-1]) / denom) * z
            return y
        # T^T = T0^T + v x^T, and x.(T^-T b) = b.(T^-1 x) = b.z / denom, so
        # T^-T b = T0^-T (b - (b.z / denom) v) needs no second correction vector
        c = (rhs @ z) / denom
        rhs[0] -= c
        rhs[-1] -= c * ratio
        return open_solve(rhs, b"T")

    g = solve(np.ones(N), transpose)
    if float(np.abs(g).max()) * scale > 1.0 / math.sqrt(np.finfo(float).eps):
        return None, None
    return solve, g


def _close_ring(s, ramp):
    """u = cumsum(s), in place, for strains s with sum(s) = 0 and ramp =
    (1..N) / N. u[-1] is then the rounding the running sum gathered; left in
    place it is a jump between atoms N and 1, and A would see it there with
    weight 1/eps^2, so it is spread evenly over the ring."""
    u = np.cumsum(s, out=s)
    u -= u[-1] * ramp
    return u


def _stress_lu(op: LinearChainOperator):
    """Factor a symmetric, zero-row-sum band of half-width 2 in stress form.

    Such a band is A = D^T C D / eps^2, with (D u)_i = u_i - u_{i-1} and C the
    cyclic symmetric tridiagonal matrix read off its two lower diagonals:
    C[i, i-1] = -band[i, 0] and C[i, i] = C[i, i-1] + C[i+1, i] - band[i, 1].
    A u = r becomes C t = sigma + c 1 with sum(t) = 0, where the stress
    sigma is a prefix sum of eps^2 r and c is fixed by the constraint; then
    u = cumsum(t). C goes through `_cyclic_tridiagonal`, which pivots where
    a positive-definite factor would refuse the negative moduli of stretched
    Lennard-Jones chains.

    Returns (solve, w) as `_grounded_lu` does, with w = 1. Returns None when
    C itself is (numerically) singular: A may still be well posed then (the
    bilaplacian band has C = D D^T), and the grounded LU decides. Raises
    NumericalError when C is regular but A's kernel is larger than the
    constants, i.e. when sum(C^-1 1) vanishes.
    """
    N = op.config.N
    sub = -op.band[:, 0]  # C[i, i-1]; sub[0] is the corner C[0, N-1]
    C, g = _cyclic_tridiagonal(sub, sub + np.roll(sub, -1) - op.band[:, 1], np.roll(sub, -1))
    if C is None:  # g = C^-1 1 otherwise
        return None
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
        t = C(sigma * -eps2)
        t -= (t.sum() / g_sum) * g
        return _close_ring(t, ramp)

    return solve, np.ones(N)


def _patch_lu(op: LinearChainOperator):
    """Factor a zero-row-sum band of half-width 2 that passes the linear
    patch test: every row's first moment -2 b_-2 - b_-1 + b_1 + 2 b_2
    vanishes, relative to the largest entry (`_moment_defect`).

    Such a band is A = T Delta / eps^2, with (Delta u)_i = u_{i-1} - 2 u_i +
    u_{i+1} and T the cyclic tridiagonal matrix whose row i is
    (b_-2, b_1 + 2 b_2, b_2) of band row i. Delta annihilates constants on
    both sides, so w = T^-T 1 is A's left-null vector. A u = r - mu w becomes
    Delta u = y with y = T^-1 eps^2 (r - mu w) and mu = w.r / w.w, which
    makes sum(y) = eps^2 w.(r - mu w) vanish; then s = D u is a running sum
    of y made mean-free, and u = cumsum(s).

    Returns (solve, w) as `_grounded_lu` does, or None when the band fails
    the patch test or T is (numerically) singular; the grounded LU then
    decides. A regular T leaves A the kernel of Delta, the constants.
    """
    band = op.band
    if not _moment_defect(band[:, 3] - band[:, 1] + 2.0 * (band[:, 4] - band[:, 0]), band)[1]:
        return None
    T, w = _cyclic_tridiagonal(band[:, 0], band[:, 3] + 2.0 * band[:, 4], band[:, 4], True)
    if T is None:  # w = T^-T 1 otherwise
        return None
    N = op.config.N
    ww = float(w @ w)
    eps2 = op.config.epsilon**2
    ramp = np.arange(1, N + 1) / N

    def solve(r):
        rhs = w * -((w @ r) / ww)
        rhs += r
        rhs *= eps2
        y = T(rhs)
        # s_{i+1} - s_i = y_i; y[-1] closes the ring, as sum(y) = 0 up to rounding
        s = np.empty(N)
        s[0] = 0.0
        np.cumsum(y[:-1], out=s[1:])
        # mean-free strains leave u[-1] at rounding level, so that spreading
        # it adds no rounding of its own (one solve lands 3x further inside
        # the contract than without)
        s -= s.mean()
        return _close_ring(s, ramp)

    return solve, w


def solve_equilibrium(op: LinearChainOperator, f) -> PeriodicField:
    """Unique mean-zero u with (linear part of op) u = P f, where P removes
    the left-null component of f (the mean, for symmetric operators).

    The band picks the factorization: an exactly symmetric band of half-width
    2 (`_transpose_gaps` all zero) is solved in stress form through its
    tridiagonal C (`_stress_lu`); any other band of half-width 2 whose rows
    have zero first moments in patch form through its tridiagonal T
    (`_patch_lu`); every other band, and a C or T that is singular, through
    one banded LU of the grounded, ring-folded operator (`_grounded_lu`). Each
    factorization serves the left-null vector, the solve and the refinement
    steps. The residual contract is 1e-10 ||f||_inf, widened to the float64
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
    defect, annihilates = _constants_defect(op)
    if not annihilates:
        raise ValueError(
            f"operator does not annihilate constants (max |row sum| {defect:.1e} "
            "in eps^2 stencil units); equilibria are defined up to a constant only "
            "for shift-invariant operators"
        )
    factor = None
    if op.half_width == 2:
        symmetric = not any(gap.any() for gap in _transpose_gaps(op.band))
        factor = _stress_lu(op) if symmetric else _patch_lu(op)
    solve, w = factor or _grounded_lu(op)
    fproj = fv - (w @ fv) / (w @ w) * w
    u = solve(fproj)
    scale = float(np.abs(fv).max())
    macheps = np.finfo(float).eps
    converged = False
    resid_inf = math.inf
    abs_band = np.broadcast_to(np.abs(_distinct_rows(op.band)), op.band.shape)
    for attempt in range(4):  # iterative refinement: LU error grows with cond(A)
        u = u - u.mean()
        resid = fproj - apply_linear(op, u)
        resid_inf = float(np.abs(resid).max())
        abs_au = _band_apply(abs_band, -op.half_width, np.abs(u))  # eps^2 |A| |u|
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
) -> ConvergenceTable:
    """Solve L^kind u_qc = L^a u (ghost of L^kind on the left) across chain
    sizes and record ||D e||_p for e = u - u_qc. Raises ValueError for an
    N_list that is not strictly increasing."""
    kind = ModelKind(kind)
    p_list = list(p_list)
    rows = []
    checks = []
    per_p = {p: [] for p in p_list}
    for config, u, op_k, La_u in _rungs(kind, f_witness, N_list, potential, partition, F):
        N, eps = config.N, config.epsilon
        u_qc = solve_equilibrium(op_k, La_u - op_k.ghost)
        e = PeriodicField(config, u.values - u_qc.values)
        de = difference(e, 1, 1)
        norms = {p: lp_norm(de, p) for p in dict.fromkeys([*p_list, math.inf])}
        de_inf = norms[math.inf]
        for p in p_list:
            rows.append(ConvergenceRow(N=N, epsilon=eps, p=p, error_norm=norms[p]))
            per_p[p].append((eps, norms[p]))
        # the solve has checked the row sums; the strain band itself is not needed
        bound_C = _telescope(op_k.band)[1]
        le_inf = float(np.abs(apply_linear(op_k, e.values)).max())
        norm_ok = all(
            norms[p] >= eps ** (1.0 / p) * de_inf * (1.0 - 1e-12)
            for p in p_list
            if p != math.inf
        )
        checks.append(
            ConvergenceChecks(
                N=N,
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
    return ConvergenceTable(kind=kind, rows=tuple(rows), fits=fits, checks=tuple(checks))
