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
and T are read off the operator's runs as runs of their own rows and
factored by `_factor`, which drops outer diagonal pairs that are exactly
zero, picks the kernel, forms C^-1 1 or T^-T 1 and raises the one
NumericalError that names a singular C or T. The kernels are cyclic
reduction on the ring in numpy for a tridiagonal C or T (no pivoting: every
C and T that assembly produces is strictly diagonally dominant), which
reduces its levels of `_LONG_LEVEL` rows or more on runs and only the
shorter ones as arrays, and one banded LU of the folded ring, LAPACK gbtrf,
for a wider C, on the diagonals repeated over the atoms. The right-hand
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
    _field_values,
    _moment_defect,
    _run_moments,
    _LONG_RUN,
    _Runs,
    _runs,
    _runs_apply,
    _telescope,
    _transpose_gap,
    apply_linear,
)
from .potentials import PairPotential
from .regions import RegionPartition

RESIDUAL_RTOL = 1e-10
# Levels of the ring kernel this long or longer are reduced on runs
# (`_level_on_runs`). A level on runs costs about 75 numpy calls whatever its
# length, a whole level about 22 on arrays of half its length. On one Intel
# Xeon vCPU a level of 2^14 rows on runs made a QCF solve at N = 2^14 8%
# slower, and one of 2^15 rows made N = 2^15 no slower (QNL 8-12% faster).
_LONG_LEVEL = 32768


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


def _scale(segments, x, out):
    """out = coefficient * x for a coefficient given as (start, end, value)
    segments, value one scalar over a long run or an array over a stretch of
    short rows: one multiply per segment; out may be x."""
    for s, e, v in segments:
        np.multiply(x[s:e], v, out=out[s:e])
    return out


def _segments(bounds, r, values):
    """The coefficients of a level on runs as segments (`_scale`). Kept piece
    i covers rows bounds[i]..bounds[i+1] - 1 and has the values[:, i] of its
    representative: -1/b_odd, c_even, a_odd and c_odd, the coefficients of
    odd rows 0..o - 1 (the first r pieces; c_odd ends at m - 1), and
    a_even, which serves odd row j as a_{2j+2}, one row down. A piece of
    `_LONG_RUN` rows or more gives each one scalar, and each stretch of
    shorter pieces one array."""
    m, o = int(bounds[-1]), int(bounds[r])
    n = bounds[1:] - bounds[:-1]
    long = n >= _LONG_RUN
    short = np.repeat(values, np.where(long, 0, n), axis=1)  # the short pieces' rows
    lo, is_long, pieces = bounds.tolist(), long.tolist(), values.T.tolist()
    ends = (o, o, o, m - 1, m - 1)
    out, i, at = ([], [], [], [], []), 0, 0
    while i < len(is_long):
        j = i + 1
        if is_long[i]:  # rows s..e-1 of the odd coefficients, s-1..e-2 of a_even
            s, e, group = lo[i], lo[j], pieces[i]
        else:
            while j < len(is_long) and not is_long[j]:
                j += 1
            s, e = lo[i], lo[j]
            group, at = short[:, at:at + e - s], at + e - s
        for segs, v, end, shift in zip(out, group, ends, (0, 0, 0, 0, 1)):
            # kept 0's a_even is the wrap, no right coefficient
            first, last = max(s - shift, 0), min(e - shift, end)
            if last > first:
                segs.append((first, last, v if is_long[i] else v[first + shift - s:last + shift - s]))
        i = j
    return out


def _reduce_forward(d, dn, mul, nrb, left, right, wrap, t):
    """One level of forward elimination into dn, the kept rows 0, 2, ...: with
    t = nrb d_odd, kept j gains left[j] t[j] and kept j + 1 gains right[j]
    t[j]; on an even ring kept 0 gains wrap t[-1] from across the wrap. mul
    multiplies by the level's coefficients nrb, left and right: np.multiply
    for whole arrays, `_scale` for segments."""
    o, k = len(d) // 2, len(dn) - 1
    de, t = d[0::2], mul(nrb, d[1::2], out=t[:o])
    dn[o:] = de[o:]
    mul(left, t, out=dn[:o])
    dn[:o] += de[:o]
    dn[1:] += mul(right, t[:k], out=t[:k])
    if k < o:
        dn[0] += wrap * t[k]


def _reduce_back(d, x, mul, nrb, left, right, wrap, t):
    """One level of back substitution, in place: the kept rows of d take x,
    and odd row j takes nrb[j] (left[j] x[j] + right[j] x[j + 1] - d[j]); on
    an even ring the last odd row takes wrap x[0] from across the wrap in
    place of its right term. mul is as in `_reduce_forward`."""
    o, k = len(d) // 2, len(x) - 1
    xo = d[1::2]
    np.subtract(mul(left, x[:o], out=t[:o]), xo, out=xo)
    xo[:k] += mul(right, x[1:], out=t[:k])
    if k < o:
        xo[k] += wrap * x[0]
    mul(nrb, xo, out=xo)
    d[0::2] = x


def _eliminate(ae, be, ce, ao, bo, co, tol, t1, t2):
    """One level of cyclic reduction: the kept rows' (a2, b2, c2) after the
    odd rows (ao, bo, co) are eliminated, kept row j reading odd rows j - 1
    and j, and -1/bo. On an even ring kept 0 meets odd o - 1 across the
    wrap, on an odd ring kept 0 and kept m - 1. t1 and t2 are scratch of at
    least len(bo). Returns (nrb, a2, b2, c2), or None when some |bo| is not
    above tol."""
    m, o = len(be), len(bo)
    k = m - 1  # odd rows with a kept row on their right, but for the wrap
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
    return nrb, a2, b2, c2


def _level_on_runs(ring: _Runs, tol):
    """One level of cyclic reduction on the runs of the ring's rows. Kept row
    j reads rows 2j - 1..2j + 1 only, so the kept rows between two run
    boundaries share their new row: `_eliminate` runs on one representative
    of each such stretch, on the kept row s >> 1 that straddles each
    boundary s and on kept rows 0, 1 and m - 1 next to the wrap, with the
    float operations of a whole level in the same order. Returns the level,
    its coefficients as segments (`_segments`) and an array for its forward
    elimination, and the runs of the kept rows' ring, equal neighbours
    merged; or None when a pivot is not above tol."""
    starts, _, rows, n = ring
    m, o = (n + 1) // 2, n // 2
    half = starts >> 1  # the start 0 gives kept rows 0 and 1
    q = np.concatenate(([m - 1], half, half + 1))
    q.sort()
    q = q[np.concatenate(([True], q[1:] != q[:-1]))]
    q = q[:len(q) - (q[-1] == m)]  # the representatives
    p, r = len(q), len(q) - (m > o)  # on an odd ring kept m - 1 has no odd row
    near = rows[np.searchsorted(starts, np.concatenate((2 * q, 2 * q[:r] + 1)), "right") - 1].T
    (ae, be, ce), (ao, bo, co) = near[:, :p], near[:, p:]
    step = _eliminate(ae, be, ce, ao, bo, co, tol, np.empty(r), np.empty(r))
    if step is None:
        return None
    values = np.zeros((5, p))
    values[:4, :r] = step[0], ce[:r], ao, co
    values[4] = ae
    nrb, left, back_left, back_right, right = _segments(np.append(q, m), r, values)
    steps = ((left, right, ae[0]), (back_left, back_right, co[-1]))  # as on a whole level
    return (_scale, nrb, steps, np.empty(m)), _runs(q, np.stack(step[1:], axis=1), m)


def _cyclic_tridiagonal(ring: _Runs, tol):
    """Factor the cyclic tridiagonal T given as runs of its rows (T[i, i-1],
    T[i, i], T[i, i+1]), indices mod N: row 0's first entry is the corner
    T[0, N-1] and row N-1's last the corner T[N-1, 0].

    Cyclic reduction on the ring (Buzbee, Golub & Nielson 1970): each level
    eliminates the odd-indexed unknowns, whose rows couple only to kept
    neighbours, and leaves the kept rows a cyclic tridiagonal Schur complement
    of half the length (`_eliminate`). A ring of 1 or 2 is solved in closed
    form. There is neither pivoting nor a corner correction: the C and T that
    assembly produces are strictly diagonally dominant by rows, and so is
    every Schur complement.

    A level of `_LONG_LEVEL` rows or more is reduced on the runs of its rows
    (`_level_on_runs`), so that no array of its length is formed; the first
    shorter level is expanded into arrays and reduced whole from there on.
    A level keeps its a, c and -1/b_odd, as segments on runs and as arrays
    on a short level, from which the solves form alpha, gamma, a_odd/b_odd
    and c_odd/b_odd; one pair of step functions serves both kinds of level
    (`_reduce_forward`, `_reduce_back`). The transposed solve runs the same
    levels with the forward and backward coefficients swapped, and no
    second reduction. The short levels' b2 arrays, read only while
    factoring, then hold the forward elimination.

    Returns solve, where solve(b, transpose=False) gives T^-1 b, or T^-T b,
    overwriting b; or None when a pivot b_odd at some level is below tol, or
    the final ring's determinant below tol max |ring|^(n-1).
    """
    t1 = np.empty(ring.N // 2)  # the solves' one scratch array
    levels = []
    while ring.N >= _LONG_LEVEL:
        step = _level_on_runs(ring, tol)
        if step is None:
            return None
        level, ring = step
        levels.append(level)
    a, b, c = _diagonals(ring)
    t2 = np.empty(ring.N // 2)
    while len(b) > 2:
        o, k = len(b) // 2, (len(b) + 1) // 2 - 1
        ae, ce, ao, co = a[0::2], c[0::2], a[1::2], c[1::2]
        step = _eliminate(ae, b[0::2], ce, ao, b[1::2], co, tol, t1, t2)
        if step is None:
            return None
        nrb, a, b, c = step
        # (left, right, wrap) of the normal forward and the transposed back
        # step, then of the normal back and the transposed forward step; b
        # is read only while factoring, so it then holds the level's forward
        # elimination
        steps = ((ce[:o], ae[1:], ae[0]), (ao, co[:k], co[-1]))
        levels.append((np.multiply, nrb, steps, b))
    if len(b) == 1:
        ring = np.array([[a[0] + b[0] + c[0]]])
    else:
        ring = np.array([[b[0], a[0] + c[0]], [a[1] + c[1], b[1]]])
    if not abs(np.linalg.det(ring)) > tol * float(np.abs(ring).max()) ** (len(b) - 1):
        return None
    ring_inv = np.linalg.inv(ring)

    def solve(rhs, transpose=False):
        d, chain = rhs, []
        for mul, nrb, steps, dn in levels:
            _reduce_forward(d, dn, mul, nrb, *steps[transpose], t1)
            chain.append(d)
            d = dn
        d[:] = (ring_inv.T if transpose else ring_inv) @ d
        for (mul, nrb, steps, x), dl in zip(levels[::-1], chain[::-1]):
            _reduce_back(dl, x, mul, nrb, *steps[not transpose], t1)
        return rhs

    return solve


def _diagonals(matrix: _Runs) -> np.ndarray:
    """The cyclic band matrix given as runs of its rows, as its diagonals:
    row k of the (width, N) result is offset k - width // 2."""
    return matrix.rows.T.repeat(matrix.lengths, axis=1)


def _factor(matrix: _Runs, name, transpose=False):
    """Factor the cyclic band matrix M given as runs of its rows (M[i, i-K],
    ..., M[i, i+K]) at its true width: outer diagonal pairs that are exactly
    zero are dropped, then a tridiagonal M goes through `_cyclic_tridiagonal`
    on its runs and a wider one through `_cyclic_banded` on its diagonals.

    Returns (solve, g), solve as the kernel gives it and g = M^-1 1, or M^-T
    1 with transpose (a tridiagonal M only). Raises NumericalError naming M
    when M is (numerically) singular: a pivot below sqrt(eps_mach) max |M|,
    or max |g| max |M| > 1/sqrt(eps_mach) (0.6-1.7 for the model kinds).
    """
    rows = matrix.rows
    while rows.shape[1] > 3 and not (rows[:, 0].any() or rows[:, -1].any()):
        rows = rows[:, 1:-1]
    if rows is not matrix.rows:  # trimmed rows may repeat
        matrix = _runs(matrix.starts, rows, matrix.N)
    scale = max(max(float(d.max()), -float(d.min())) for d in rows.T)
    root_eps = math.sqrt(np.finfo(float).eps)
    if rows.shape[1] == 3:
        solve = _cyclic_tridiagonal(matrix, root_eps * scale)
        g = solve and solve(np.ones(matrix.N), transpose)
    else:  # no transposed solve: only T asks for one, and T is tridiagonal
        solve = _cyclic_banded(_diagonals(matrix), root_eps * scale)
        g = solve and solve(np.ones(matrix.N))
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


def _stress_diagonals(runs: _Runs) -> _Runs:
    """C of a symmetric, zero-row-sum band A = D^T C D (eps^2 units), as runs
    of its rows (C[i, i-Kc], ..., C[i, i+Kc]), Kc = max(K - 1, 1).

    Entrywise A[i, j] = C[i, j] - C[i, j+1] - C[i+1, j] + C[i+1, j+1]. For
    the lower diagonals l_j[i] = C[i, i-j] and b_j[i] = band[i, K-j] this is
    one inward recursion from l_K = l_{K+1} = 0:

        l_{j-1}[i] = l_j[i] + l_j[i+1] - l_{j+1}[i+1] - b_j[i],  j = K..1.

    The upper diagonals follow by symmetry, C[i, i+j] = l_j[i+j]. l_j[i]
    reads the band rows i..i+K-1-j, so the atoms of a run before its last
    K - 1 share the values of its first atom, and for j >= 1 so does the
    first of those K - 1. The recursion therefore runs on each run's first
    atom and its last K - 1 atoms only, each reading the next one of these.
    A row of C then changes only at one of these atoms or up to Kc atoms
    before one, where its upper diagonals reach it; its runs start there.
    """
    starts, lengths, rows, N = runs
    K = (rows.shape[1] - 1) // 2
    Kc = max(K - 1, 1)
    ends = starts + lengths
    at = np.sort(np.concatenate([starts, *(np.maximum(starts, ends - j) for j in range(1, K))]))
    at = at[np.concatenate(([True], at[1:] != at[:-1]))]  # not np.unique, whose first call imports numpy.ma
    ahead, b = np.arange(1, len(at) + 1), rows[runs.of(at)]
    ahead[-1] = 0
    low = [None] * K + [np.zeros(len(at))] * (Kc + 1 - K)  # low[j] is l_j; l_1 = 0 for K = 1
    low[K - 1] = -b[:, 0]
    for j in range(K - 1, 0, -1):
        nxt = low[j] + low[j][ahead]
        if j + 1 < K:
            nxt -= low[j + 1][ahead]
        nxt -= b[:, K - j]
        low[j - 1] = nxt
    cuts = np.sort(np.concatenate([at, *((at - j) % N for j in range(1, Kc + 1))]))
    cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]
    # the place in `at` of each cut, and of the atom j after it for j = 1..Kc
    place = [np.searchsorted(at, (cuts + j) % N, "right") - 1 for j in range(Kc + 1)]
    C = np.empty((len(cuts), 2 * Kc + 1))
    for j in range(Kc + 1):
        C[:, Kc - j] = low[j][place[0]]
        C[:, Kc + j] = low[j][place[j]]
    return _runs(cuts, C, N)


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


def _patch_diagonals(runs: _Runs) -> _Runs:
    """T as runs of its rows (b_-2, b_1 + 2 b_2, b_2), one for each run of
    band rows."""
    T = runs.rows[:, [0, 3, 4]]
    T[:, 1] += 2.0 * T[:, 2]
    return _Runs(runs.starts, runs.lengths, T, runs.N)


def _patch_lu(op: LinearChainOperator):
    """Factor a zero-row-sum band of half-width 2 that passes the linear
    patch test: every run row's first moment M_1 = -2 b_-2 - b_-1 + b_1 + 2 b_2
    vanishes relative to the largest entry (`_moment_defect`).

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
    moment, passes = _moment_defect(_run_moments(rows, 1)[1], rows)
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

    Raises ValueError for a right-hand side of another shape than (N,), on
    another chain (a PeriodicField) or with a non-finite entry, for an
    operator with nonzero row sums and for a band that is neither symmetric
    nor a half-width-2 band that passes the patch test; NumericalError when
    C or T is singular, when the kernel is larger than the constants, or
    when the residual misses the contract.
    """
    fv = _field_values(op.config, f)
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
    resid, abs_au = _runs_apply(op.runs, u, floor=True)  # eps^2 A u and eps^2 |A| |u|
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
    N_list that is not strictly increasing, and, before the first rung, for
    a p_list that is empty, repeats a p or holds a p outside [1, inf]."""
    kind = ModelKind(kind)
    p_list = list(p_list)
    if not p_list:
        raise ValueError("p_list must name at least one p")
    if len(set(p_list)) < len(p_list):
        raise ValueError(f"p_list must not repeat a p, got {p_list}")
    for p in p_list:
        if not p >= 1:  # NaN fails too
            raise ValueError(f"p must lie in [1, inf], got {p}")
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
        bound_C = _bound_C(_telescope(op_k.runs.rows))
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
