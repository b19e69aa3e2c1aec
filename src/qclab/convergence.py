"""Equilibrium solves on the mean-zero subspace and convergence-rate studies.

The linearized operators annihilate constants, so an equilibrium is fixed
only up to a constant. The band's symmetry picks one of two factorizations:

- Stress form, for a band of any half-width K symmetric to 1e-12 of its
  largest entry (every energy-based kind at any R, CUSTOM): the band is
  D^T C D / eps^2 with D the backward difference and C cyclic, symmetric and
  of half-width K - 1. C gives the strains, a running sum the displacements.
- Patch form, for a band of half-width 2 that is not symmetric but passes
  the linear patch test, zero first moments per row (QCF): the band is
  T Delta / eps^2 with Delta the centred second difference and T cyclic
  tridiagonal. T is solved, and two running sums give the displacements.

Any other band is refused with a ValueError naming the test it failed. C
and T are factored by `_factor`, which drops outer diagonal pairs that are
exactly zero, picks the kernel, forms C^-1 1 or T^-T 1 and raises the one
NumericalError that names a singular C or T. The kernels are cyclic
reduction on the ring in numpy for a tridiagonal C or T (no pivoting: every
C and T that assembly produces is strictly diagonally dominant) and one
banded LU of the folded ring, LAPACK gbtrf, for a wider C. The right-hand
side is projected off the left-null direction (the mean in stress form,
T^-T 1 in patch form), and the one solve is checked once against the 1e-10
||f|| residual contract. Only gbtrf loads scipy.linalg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import PeriodicField, _magnitude_norm
from .consistency import _rungs, _slope_or_nan, fit_slope
from .models import (
    LinearChainOperator,
    ModelKind,
    _bound_C,
    _constants_defect,
    _moment_defect,
    _Runs,
    _runs_apply,
    _transpose_gap,
    apply_linear,
)
from .potentials import PairPotential
from .regions import RegionPartition

RESIDUAL_RTOL = 1e-10


class NumericalError(RuntimeError):
    """Solver-level failure: a singular C or T, rank deficiency beyond the
    constant kernel, or a residual that misses the contract."""


def _folded_storage(diags):
    """A cyclic band matrix M in folded ring order, as LAPACK band storage.

    diags[K + k][i] is M[i, (i+k) mod N], for the 2K + 1 offsets k = -K..K.
    Atoms 1..h take positions 0, 2, 4, ... and atoms N down to h+1 the odd
    positions (h = ceil(N/2)), so that ring distance d becomes folded
    distance at most 2d. Returns (ab, order): M'[p, q] sits at
    ab[2*kb + p - q, q] with kb = 2K and kb spare rows on top for the
    pivoting; order[p] is the 0-based atom at position p.

    Each offset fills two band diagonals with strided slices: the rows whose
    neighbour lies in the same half, unwrapped (p = 2i in the front half,
    p = 2(N-1-i) + 1 in the back half). The at most 2|k| rows that cross
    between the halves or wrap round the ring are placed one by one; entries
    of a band as wide as the ring that land on one place add up.
    """
    N = len(diags[0])
    K = (len(diags) - 1) // 2
    h = (N + 1) // 2
    kb = 2 * K  # a ring distance d <= K becomes a folded distance <= 2d
    order = np.empty(N, dtype=np.intp)
    order[0::2] = np.arange(h)
    order[1::2] = np.arange(N - 1, h - 1, -1)
    pos = np.empty(N, dtype=np.intp)
    pos[order] = np.arange(N)
    ab = np.zeros((3 * kb + 1, N), order="F")
    for k in range(-K, K + 1):
        col = diags[K + k]
        # 0 <= f0 <= f1 <= b0 <= b1 <= N: rows f0..f1-1 have i and i+k in
        # the front half, rows b0..b1-1 both in the back half
        f0 = min(max(0, -k), N)
        f1 = max(f0, min(h, h - k))
        b0 = max(f1, min(max(h, h - k), N))
        b1 = max(b0, min(N, N - k))
        if f1 > f0:  # q = 2(i+k), p - q = -2k
            ab[2 * kb - 2 * k, 2 * (f0 + k):2 * (f1 + k):2] += col[f0:f1]
        if b1 > b0:  # q = 2(N-1-i-k) + 1 falls as i rises, p - q = 2k
            ab[2 * kb + 2 * k, 2 * (N - b1 - k) + 1:2 * (N - b0 - k):2] += col[b0:b1][::-1]
        rest = np.r_[0:f0, f1:b0, b1:N]
        p, q = pos[rest], pos[(rest + k) % N]
        ab[2 * kb + p - q, q] += col[rest]  # distinct targets: p is a permutation
    return ab, order


def _cyclic_banded(diags, tol):
    """Factor the cyclic band matrix M with diagonals diags, as in
    `_folded_storage`, by one banded LU of its folded ring (LAPACK gbtrf,
    partial pivoting). Returns solve, where solve(b) gives M^-1 b,
    overwriting b; or None when an LU pivot is below tol.
    """
    # imported here: no band of half-width 2 or less loads scipy.linalg
    from scipy.linalg.lapack import dgbtrf, dgbtrs

    kb = len(diags) - 1  # twice M's half-width
    ab, order = _folded_storage(diags)
    lu, piv, info = dgbtrf(ab, kb, kb, overwrite_ab=1)
    if info != 0 or not float(np.abs(lu[2 * kb]).min()) > tol:
        return None

    def solve(b):
        b[order] = dgbtrs(lu, kb, kb, b[order], piv, overwrite_b=1)[0]
        return b

    return solve


def _reduce_forward(d, dn, nrb, left, right, wrap, t):
    """One level of forward elimination into dn, the kept rows 0, 2, ...: with
    t = nrb d_odd, kept j gains left[j] t[j] and kept j + 1 gains right[j]
    t[j]; on an even ring kept 0 gains wrap t[-1] from across the wrap."""
    o, k = len(nrb), len(dn) - 1
    de, t = d[0::2], np.multiply(nrb, d[1::2], out=t[:o])
    dn[o:] = de[o:]
    np.multiply(left, t, out=dn[:o])
    dn[:o] += de[:o]
    dn[1:] += np.multiply(right, t[:k], out=t[:k])
    if k < o:
        dn[0] += wrap * t[k]


def _reduce_back(d, x, nrb, left, right, wrap, t):
    """One level of back substitution, in place: the kept rows of d take x,
    and odd row j takes nrb[j] (left[j] x[j] + right[j] x[j + 1] - d[j]); on
    an even ring the last odd row takes wrap x[0] from across the wrap in
    place of its right term."""
    o, k = len(nrb), len(x) - 1
    xo = d[1::2]
    np.subtract(np.multiply(left, x[:o], out=t[:o]), xo, out=xo)
    xo[:k] += np.multiply(right, x[1:], out=t[:k])
    if k < o:
        xo[k] += wrap * x[0]
    xo *= nrb
    d[0::2] = x


def _cyclic_tridiagonal(lower, diag, upper, tol):
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

    Returns solve, where solve(b, transpose=False) gives T^-1 b, or T^-T b,
    overwriting b; or None when a pivot b_odd at some level is below tol, or
    the final ring's determinant below tol max |ring|^(n-1).
    """
    N = len(diag)
    t1, t2 = np.empty(N // 2), np.empty(N // 2)  # the solves keep only t1 as scratch
    a, b, c = lower, diag, upper
    levels = []
    while len(b) > 2:
        m, o = (len(b) + 1) // 2, len(b) // 2
        k = m - 1  # odd rows with a kept row on their right, but for the wrap
        ae, be, ce, ao, bo, co = a[0::2], b[0::2], c[0::2], a[1::2], b[1::2], c[1::2]
        if not float(np.abs(bo, out=t1[:o]).min()) > tol:
            return None
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
        # step, then of the normal back and the transposed forward step; b2
        # is read only while factoring, so it then holds the level's forward
        # elimination
        rows = ((ce[:o], ae[1:], ae[0]), (ao, co[:k], co[-1]))
        levels.append((nrb, rows, b2))
        a, b, c = a2, b2, c2
    if len(b) == 1:
        ring = np.array([[a[0] + b[0] + c[0]]])
    else:
        ring = np.array([[b[0], a[0] + c[0]], [a[1] + c[1], b[1]]])
    if not abs(np.linalg.det(ring)) > tol * float(np.abs(ring).max()) ** (len(b) - 1):
        return None
    ring_inv = np.linalg.inv(ring)

    def solve(rhs, transpose=False):
        d, chain = rhs, []
        for nrb, rows, dn in levels:
            _reduce_forward(d, dn, nrb, *rows[transpose], t1)
            chain.append(d)
            d = dn
        d[:] = (ring_inv.T if transpose else ring_inv) @ d
        for (nrb, rows, x), dl in zip(levels[::-1], chain[::-1]):
            _reduce_back(dl, x, nrb, *rows[not transpose], t1)
        return rhs

    return solve


def _factor(diags, name, transpose=False):
    """Factor the cyclic band matrix M with diagonals diags, as in
    `_folded_storage`, at its true width: outer diagonal pairs that are
    exactly zero at both ends are dropped, then a tridiagonal M goes through
    `_cyclic_tridiagonal` and a wider one through `_cyclic_banded`.

    Returns (solve, g), solve as the kernel gives it and g = M^-1 1, or M^-T
    1 with transpose (a tridiagonal M only). Raises NumericalError naming M
    when M is (numerically) singular: a pivot below sqrt(eps_mach) max |M|,
    or max |g| max |M| > 1/sqrt(eps_mach) (0.6-1.7 for the model kinds).
    """
    while len(diags) > 3 and not (diags[0].any() or diags[-1].any()):
        diags = diags[1:-1]
    scale = max(max(float(d.max()), -float(d.min())) for d in diags)
    root_eps = math.sqrt(np.finfo(float).eps)
    if len(diags) == 3:
        solve = _cyclic_tridiagonal(*diags, root_eps * scale)
        g = solve and solve(np.ones(len(diags[1])), transpose)
    else:  # no transposed solve: only T asks for one, and T is tridiagonal
        solve = _cyclic_banded(diags, root_eps * scale)
        g = solve and solve(np.ones(len(diags[1])))
    if solve is None or max(float(g.max()), -float(g.min())) * scale > 1.0 / root_eps:
        raise NumericalError(f"{name} is (numerically) singular and cannot be factored")
    return solve, g


def _close_ring(s, ramp):
    """u = cumsum(s), in place, for strains s with sum(s) = 0. u[-1] is then
    the rounding the running sum gathered; left in place it is a jump between
    atoms N and 1, and A would see it there with weight 1/eps^2, so it is
    spread evenly over the ring, as u[-1] (1..N) / N, formed in ramp (an
    array of the same length, overwritten)."""
    u = np.cumsum(s, out=s)
    ramp.fill(1.0)
    np.cumsum(ramp, out=ramp)  # 1..N, exact
    ramp /= len(u)
    ramp *= u[-1]
    u -= ramp
    return u


def _stress_diagonals(runs: _Runs) -> list:
    """C of a symmetric, zero-row-sum band A = D^T C D (eps^2 units), as its
    diagonals: C[i, i+k] is diags[Kc + k][i] for k = -Kc..Kc, Kc = max(K - 1, 1).

    Entrywise A[i, j] = C[i, j] - C[i, j+1] - C[i+1, j] + C[i+1, j+1]. For
    the lower diagonals l_j[i] = C[i, i-j] and b_j[i] = band[i, K-j] this is
    one inward recursion from l_K = l_{K+1} = 0:

        l_{j-1}[i] = l_j[i] + l_j[i+1] - l_{j+1}[i+1] - b_j[i],  j = K..1.

    The upper diagonals follow by symmetry, C[i, i+j] = l_j[i+j]. l_j[i]
    reads the band rows i..i+K-1-j, so the atoms of a run before its last
    K - 1 share the values of its first atom, and for j >= 1 so does the
    first of those K - 1. The recursion therefore runs on each run's first
    atom and its last K - 1 atoms only, each reading the next one of these.
    Each lower diagonal l_j is then repeated over the atoms, and over its
    first j atoms once more, into one array of which the upper diagonal j
    is a view; a solve keeps only the arrays it reads.
    """
    starts, lengths, rows, N = runs
    K = (rows.shape[1] - 1) // 2
    Kc = max(K - 1, 1)
    ends = starts + lengths
    at = np.sort(np.concatenate([starts, *(np.maximum(starts, ends - j) for j in range(1, K))]))
    at = at[np.diff(at, prepend=-1) > 0]  # not np.unique, whose first call imports numpy.ma
    mult, ahead, b = np.diff(at, append=N), np.roll(np.arange(len(at)), -1), rows[runs.of(at)]
    low = [None] * K + [np.zeros(len(at))] * (Kc + 1 - K)  # low[j] is l_j; l_1 = 0 for K = 1
    low[K - 1] = -b[:, 0]
    for j in range(K - 1, 0, -1):
        nxt = low[j] + low[j][ahead]
        if j + 1 < K:
            nxt -= low[j + 1][ahead]
        nxt -= b[:, K - j]
        low[j - 1] = nxt
    # l_j over the atoms, then its values at atoms 0..j-1 again: C[i, i+j] = l_j[i+j]
    low = [np.repeat(np.concatenate((d, d)), np.concatenate((mult, np.clip(j - at, 0, mult))))
           for j, d in enumerate(low)]
    return [d[:N] for d in low[::-1]] + [low[j][j:] for j in range(1, Kc + 1)]


def _stress_lu(op: LinearChainOperator):
    """Factor a symmetric, zero-row-sum band of any half-width K in stress
    form; a band symmetric only to rounding is read by its lower diagonals.

    Such a band is A = D^T C D / eps^2, with (D u)_i = u_i - u_{i-1} and C the
    cyclic symmetric matrix of half-width K - 1 whose diagonals
    `_stress_diagonals` reads off it. A u = r becomes C t = sigma + c 1 with
    sum(t) = 0, where the stress sigma is a prefix sum of eps^2 r and c is
    fixed by the constraint; then u = cumsum(t). `_factor` solves C at its
    true half-width: a tridiagonal C (every K <= 2, and CUSTOM with a
    diagonal block) goes through the ring kernel, which, unlike a
    positive-definite factor, accepts the negative moduli of stretched
    Lennard-Jones chains.

    Returns (solve, w) with w = 1: solve(r) is the u with A u = r - mean(r).
    The solve reads no ghost (it may be broadcast) and makes its scratch
    after the kernel. Raises NumericalError when C is (numerically) singular,
    and when C is regular but A's kernel is larger than the constants, i.e.
    when sum(C^-1 1) vanishes.
    """
    N = op.config.N
    C, g = _factor(_stress_diagonals(op.runs), "stress matrix C")
    g_sum, w = float(g.sum()), np.abs(g)  # |g|, then the left-null vector 1
    if abs(g_sum) <= math.sqrt(np.finfo(float).eps) * float(w.sum()):
        raise NumericalError(
            "operator is singular: its kernel is larger than the constants "
            f"(sum of C^-1 1 is {g_sum:.1e})"
        )
    eps2 = op.config.epsilon**2

    def solve(r):
        # D^T sigma = eps^2 r for the mean-free part of r (w = 1)
        sigma = np.empty(N)
        sigma[0] = 0.0
        np.subtract(r[:-1], r.mean(), out=sigma[1:])
        np.cumsum(sigma[1:], out=sigma[1:])
        sigma *= -eps2
        t = C(sigma)
        work = np.multiply(g, t.sum() / g_sum)  # made after the kernel has run
        t -= work
        return _close_ring(t, work)

    w.fill(1.0)
    return solve, w


def _patch_diagonals(runs: _Runs) -> list:
    """T's diagonals (b_-2, b_1 + 2 b_2, b_2) of the run rows, repeated over
    each run; one array serves both outer ones where they agree bit for bit
    (every QCF band), so that T's factorization keeps one column fewer."""
    rows, lengths = runs.rows, runs.lengths
    lower = np.repeat(rows[:, 0], lengths)
    upper = lower if rows[:, 0].tobytes() == rows[:, 4].tobytes() else np.repeat(rows[:, 4], lengths)
    return [lower, np.repeat(rows[:, 3] + 2.0 * rows[:, 4], lengths), upper]


def _patch_lu(op: LinearChainOperator):
    """Factor a zero-row-sum band of half-width 2 that passes the linear
    patch test: every row's first moment -2 b_-2 - b_-1 + b_1 + 2 b_2
    vanishes, relative to the largest entry (`_moment_defect` of the run
    rows).

    Such a band is A = T Delta / eps^2, with (Delta u)_i = u_{i-1} - 2 u_i +
    u_{i+1} and T the cyclic tridiagonal matrix whose row i is
    (b_-2, b_1 + 2 b_2, b_2) of band row i. Delta annihilates constants on
    both sides, so w = T^-T 1 is A's left-null vector. A u = r - mu w becomes
    Delta u = y with y = T^-1 eps^2 (r - mu w) and mu = w.r / w.w, which
    makes sum(y) = eps^2 w.(r - mu w) vanish; then s = D u is a running sum
    of y made mean-free, and u = cumsum(s).

    Returns (solve, w): solve(r) is the u with A u = r - mu w. A regular T
    leaves A the kernel of Delta, the constants. Raises ValueError when the
    band (one that is not symmetric) fails the patch test and NumericalError
    when T is (numerically) singular.
    """
    rows = op.runs.rows
    moment, passes = _moment_defect(rows[:, 3] - rows[:, 1] + 2.0 * (rows[:, 4] - rows[:, 0]), rows)
    if not passes:
        raise ValueError(
            "operator is not symmetric and fails the linear patch test "
            f"(max |first moment| {moment:.1e} in eps^2 stencil units)"
        )
    T, w = _factor(_patch_diagonals(op.runs), "patch matrix T", True)
    N = op.config.N
    ww = float(w @ w)
    eps2 = op.config.epsilon**2

    def solve(r):
        rhs = np.multiply(w, -((w @ r) / ww))
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
        return _close_ring(s, y)

    return solve, w


def solve_equilibrium(op: LinearChainOperator, f) -> PeriodicField:
    """Unique mean-zero u with (linear part of op) u = P f, where P removes
    the left-null component of f (the mean, for symmetric operators).

    The band's symmetry picks the factorization: a band of any half-width
    whose transpose gap vanishes relative to its largest entry, as its row
    sums must (`_moment_defect`, both read off the operator's runs), is
    solved in stress form through its cyclic C (`_stress_lu`); a band of
    half-width 2 that is not symmetric but whose rows have zero first
    moments in patch form through its tridiagonal T (`_patch_lu`). One solve
    is made, and its residual is checked once against the contract: 1e-10
    ||f||_inf, widened to the float64 representation floor eps_mach *
    || |A| |u| ||_inf where the latter is larger (rounding u alone perturbs
    A u by that much on the finest chains), on the returned mean-zero u;
    one `_runs_apply` pass sums A u and |A| |u| from the same products. The
    ghost is not read (it may be broadcast); u is returned without a copy.

    Raises ValueError for a right-hand side of another shape than (N,) or
    with a non-finite entry, for an operator with nonzero row sums and for
    a band that is neither symmetric nor a half-width-2 band that passes the
    patch test; NumericalError when C or T is singular, when the kernel is
    larger than the constants, or when the residual misses the contract.
    """
    fv = f.values if isinstance(f, PeriodicField) else np.asarray(f, dtype=float)
    N = op.config.N
    if fv.shape != (N,):
        raise ValueError(f"right-hand side has shape {fv.shape}, expected ({N},)")
    f_inf = abs(max(float(fv.max()), -float(fv.min())))  # max |f|; NaN or inf if not finite
    if not math.isfinite(f_inf):
        i = int(np.argmin(np.isfinite(fv)))
        raise ValueError(f"right-hand side is not finite at atom {i + 1}: {fv[i]}")
    defect, annihilates = _constants_defect(op)
    if not annihilates:
        raise ValueError(
            f"operator does not annihilate constants (max |row sum| {defect:.1e} "
            "in eps^2 stencil units); equilibria are defined up to a constant only "
            "for shift-invariant operators"
        )
    K = op.half_width
    gap, symmetric = _moment_defect(_transpose_gap(op.runs), op.runs.rows)
    if symmetric:
        solve, w = _stress_lu(op)
    elif K == 2:
        solve, w = _patch_lu(op)
    else:
        raise ValueError(
            f"operator is not symmetric (max |A[i, j] - A[j, i]| {gap:.1e} in eps^2 stencil "
            f"units), and a band of half-width {K} has no patch form (half-width 2 only)"
        )
    fproj = np.multiply(w, (w @ fv) / (w @ w))
    np.subtract(fv, fproj, out=fproj)
    # w, then the factorization, are freed once used: the check allocates on
    # top of what is still alive
    del w
    u = solve(fproj)
    del solve
    u -= u.mean()
    resid, abs_au = _runs_apply(op.runs, -K, u, floor=True)  # eps^2 A u and eps^2 |A| |u|
    resid /= op.config.epsilon**2  # as apply_linear divides
    resid_inf = float(np.abs(np.subtract(fproj, resid, out=resid), out=resid).max())
    floor = np.finfo(float).eps * float(abs_au.max()) / op.config.epsilon**2
    contract = max(RESIDUAL_RTOL * f_inf, 8.0 * floor)
    if not resid_inf <= contract:
        raise NumericalError(
            f"equilibrium residual {resid_inf:.3e} exceeds its contract {contract:.3e} "
            f"(max of {RESIDUAL_RTOL:.0e} * ||f|| and the float64 floor)"
        )
    return PeriodicField._adopt(op.config, u)


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
    N_list that is not strictly increasing, and for a p_list that is empty
    or repeats a p."""
    kind = ModelKind(kind)
    p_list = list(p_list)
    if not p_list:
        raise ValueError("p_list must name at least one p")
    if len(set(p_list)) < len(p_list):
        raise ValueError(f"p_list must not repeat a p, got {p_list}")
    rows = []
    checks = []
    per_p = {p: [] for p in p_list}
    for config, u, op_k, La_u in _rungs(kind, f_witness, N_list, potential, partition, F):
        N, eps = config.N, config.epsilon
        # the rung's own La_u holds f, then e, then the p-th powers of |D e|;
        # |D e| goes to the array of L e once ||L e||_inf is read
        u_qc = solve_equilibrium(op_k, np.subtract(La_u, op_k.ghost, out=La_u))
        e = np.subtract(u, u_qc.values, out=La_u)
        de = apply_linear(op_k, e)
        le_inf = float(np.abs(de, out=de).max())
        np.subtract(e[1:], e[:-1], out=de[1:])  # (D e)_i = (e_i - e_{i-1}) / eps
        de[0] = e[0] - e[-1]
        de /= eps
        np.abs(de, out=de)
        norms = {p: _magnitude_norm(de, p, eps, e) for p in dict.fromkeys([*p_list, math.inf])}
        de_inf = norms[math.inf]
        for p in p_list:
            rows.append(ConvergenceRow(N=N, epsilon=eps, p=p, error_norm=norms[p]))
            per_p[p].append((eps, norms[p]))
        # the solve has checked the row sums; every row of a run has one l1 norm
        bound_C = _bound_C(op_k.runs.rows)
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
    fits = {p: _slope_or_nan(pts) for p, pts in per_p.items()}
    return ConvergenceTable(kind=kind, rows=tuple(rows), fits=fits, checks=tuple(checks))
