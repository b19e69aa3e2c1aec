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

The stress and patch forms share one cyclic tridiagonal kernel, cyclic
reduction on the ring in numpy: each level eliminates the odd-indexed
unknowns, and a ring of 1 or 2 is solved in closed form. It needs neither
pivoting nor a corner correction, since every C and T that assembly produces
is strictly diagonally dominant, and it solves with the transpose from the
same levels. It refuses a pivot, or a final ring, below sqrt(eps_mach) max |T|
and a T whose T^-T 1 (or T^-1 1) blows up, and the grounded LU then decides.
Both forms are O(N), and only the grounded LU loads scipy.linalg.

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


def _reduce_forward(d, dn, nrb, left, right, wrap, t1, t2):
    """One level of forward elimination into dn, the kept rows 0, 2, ...: with
    t = nrb d_odd, kept j gains left[j] t[j] and kept j + 1 gains right[j]
    t[j]; on an even ring kept 0 gains wrap t[-1] from across the wrap."""
    o, k = len(nrb), len(dn) - 1
    de, t = d[0::2], np.multiply(nrb, d[1::2], out=t1[:o])
    dn[o:] = de[o:]
    np.add(de[:o], np.multiply(left, t, out=t2[:o]), out=dn[:o])
    dn[1:] += np.multiply(right, t[:k], out=t2[:k])
    if k < o:
        dn[0] += wrap * t[k]


def _reduce_back(d, x, nrb, left, right, wrap, t1, t2):
    """One level of back substitution, in place: the kept rows of d take x,
    and odd row j takes nrb[j] (left[j] x[j] + right[j] x[j + 1] - d[j]); on
    an even ring the last odd row takes wrap x[0] from across the wrap in
    place of its right term."""
    o, k = len(nrb), len(x) - 1
    xo = d[1::2]
    np.subtract(np.multiply(left, x[:o], out=t1[:o]), xo, out=xo)
    xo[:k] += np.multiply(right, x[1:], out=t2[:k])
    if k < o:
        xo[k] += wrap * x[0]
    xo *= nrb
    d[0::2] = x


def _cyclic_tridiagonal(lower, diag, upper, transpose=False):
    """Factor the cyclic tridiagonal T with T[i, i-1] = lower[i], T[i, i] =
    diag[i] and T[i, i+1] = upper[i], indices mod N: lower[0] is the corner
    T[0, N-1] and upper[-1] the corner T[N-1, 0].

    Cyclic reduction on the ring (Buzbee, Golub & Nielson 1970): each level
    eliminates the odd-indexed unknowns, whose rows couple only to kept
    neighbours, and leaves the kept rows a cyclic tridiagonal Schur complement
    of half the length. Kept row k takes alpha = a_k / b_{k-1} and gamma =
    c_k / b_{k+1} (a, b, c being the level's lower, diagonal and upper); on an
    odd ring rows 0 and N-1 are both kept and meet across the wrap. A ring of
    1 or 2 is solved in closed form. There is neither pivoting nor a corner
    correction: the C and T that assembly produces are strictly diagonally
    dominant by rows, and so is every Schur complement. A level keeps its a,
    c and -1/b_odd, from which the solves form alpha, gamma, a_odd/b_odd and
    c_odd/b_odd; the transposed solve runs the same levels with the forward
    and backward coefficients swapped, and no second reduction.

    Returns (solve, g): solve(b, transpose=False) gives T^-1 b, or T^-T b,
    overwriting b; g is solve(1, transpose). Both are None when T is
    (numerically) singular: a pivot b_odd at some level below sqrt(eps_mach)
    max |T|, a final ring whose determinant is below that times max
    |ring|^(n-1), or max |g| max |T| > 1/sqrt(eps_mach) (0.6-1.7 for the
    model kinds).
    """
    N = len(diag)
    scale = max(max(float(t.max()), -float(t.min())) for t in (lower, diag, upper))
    tol = math.sqrt(np.finfo(float).eps) * scale
    t1, t2 = np.empty(N // 2), np.empty(N // 2)
    a, b, c = lower, diag, upper
    levels = []
    while len(b) > 2:
        m, o = (len(b) + 1) // 2, len(b) // 2
        k = m - 1  # odd rows with a kept row on their right, but for the wrap
        ae, be, ce, ao, bo, co = a[0::2], b[0::2], c[0::2], a[1::2], b[1::2], c[1::2]
        if not float(np.abs(bo, out=t1[:o]).min()) > tol:
            return None, None
        nrb = np.divide(-1.0, bo)
        ab, cb = np.multiply(ao, nrb, out=t1[:o]), np.multiply(co, nrb, out=t2[:o])
        a2, b2, c2 = np.empty(m), be.copy(), np.empty(m)
        np.multiply(ae[1:], ab[:k], out=a2[1:])
        np.multiply(ce[:o], cb, out=c2[:o])
        if k < o:  # even ring: kept 0 and odd o - 1 meet across the wrap
            a2[0] = ae[0] * ab[k]
            b2[0] += ae[0] * cb[k]
        else:  # odd ring: kept 0 and kept m - 1 meet across the wrap
            a2[0], c2[k] = ae[0], ce[k]
        b2[:o] += np.multiply(ce[:o], ab, out=ab)
        b2[1:] += np.multiply(ae[1:], cb[:k], out=cb[:k])
        # (left, right, wrap) of the normal forward and the transposed back
        # step, then of the normal back and the transposed forward step
        rows = ((ce[:o], ae[1:], ae[0]), (ao, co[:k], co[-1]))
        levels.append((nrb, rows, np.empty(m)))
        a, b, c = a2, b2, c2
    if len(b) == 1:
        ring = np.array([[a[0] + b[0] + c[0]]])
    else:
        ring = np.array([[b[0], a[0] + c[0]], [a[1] + c[1], b[1]]])
    if not abs(np.linalg.det(ring)) > tol * float(np.abs(ring).max()) ** (len(b) - 1):
        return None, None
    ring_inv = np.linalg.inv(ring)

    def solve(rhs, transpose=False):
        d, chain = rhs, []
        for nrb, rows, dn in levels:
            _reduce_forward(d, dn, nrb, *rows[transpose], t1, t2)
            chain.append(d)
            d = dn
        d[:] = (ring_inv.T if transpose else ring_inv) @ d
        for (nrb, rows, x), dl in zip(levels[::-1], chain[::-1]):
            _reduce_back(dl, x, nrb, *rows[not transpose], t1, t2)
        return rhs

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
    u = cumsum(t). C goes through `_cyclic_tridiagonal`, which, unlike a
    positive-definite factor, accepts the negative moduli of stretched
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
