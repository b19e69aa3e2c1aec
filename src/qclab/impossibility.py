"""Infeasibility of o(1)-consistent symmetric interface stencils.

For an interface block of m atoms (indices 1..m, continuum to the left,
atomistic to the right), the consistency equations against the atomistic
second-neighbor operator form an integer linear system in the m(m+1)/2
symmetric block unknowns. Entries outside the block are pinned by symmetry
with the pure rows: continuum values for columns j < 1, atomistic values for
j > m. All quantities are in dimensionless second-neighbor (L2) units, with
the pure stencils the models assemble, read off `models._block_frame`:

    atomistic  (-1, 0, 2, 0, -1)      continuum  (0, -4, 8, -4, 0).

The weighted sum with multipliers i^2 on the p=j equation and -i on the
p=j^2 equation of row i cancels every block unknown exactly and evaluates to
-2, an exact witness that no symmetric block satisfies the consistency
equations. Weights, stencils and moments are all integers, so the witness is
computed exactly in int64: before summing, the certificate checks that 3m
terms times the largest weight times the largest entry stays below 2^63, so
no partial sum can wrap, and refuses an m past that bound. The
least-squares defect over those same equations quantifies the infeasibility
and attains the Cauchy-Schwarz lower bound 2/||w||_2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .chain import _integer
from .models import InterfaceStencil, _block_frame

POWERS = (0, 1, 2)  # moments against u_j = 1, j, j^2


class CertificateError(RuntimeError):
    """Raised when the weighted combination fails to cancel the unknowns."""


def pair_index(m: int):
    """Ordered unknowns (k, l), k <= l, of the symmetric m x m block: the
    upper triangle in row-major order."""
    return [(k, l) for k in range(1, m + 1) for l in range(k, m + 1)]


@functools.lru_cache(maxsize=1)
def _positions(m: int) -> np.ndarray:
    """Read-only (m, m) map of 0-based block entry (k, l) to its unknown in pair_index(m)."""
    k = np.arange(m)
    lo, hi = np.minimum.outer(k, k), np.maximum.outer(k, k)
    pos = lo * m - lo * (lo - 1) // 2 + hi - lo
    pos.flags.writeable = False
    return pos


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """Integer system  matrix . x = rhs  over the symmetric block unknowns.

    Rows are ordered (i=1, p=1), (i=1, p=j), (i=1, p=j^2), (i=2, p=1), ...
    The orientation is chosen so that the defect of a candidate block is
    rhs - matrix . x = sum_j (L^qc - L^a)_{ij} p(j), matching the moment
    reports of the operator module row by row.
    """

    m: int
    matrix: np.ndarray   # (3m, m(m+1)/2) integers
    rhs: np.ndarray      # (3m,) integers

    def row_label(self, row: int):
        return row // 3 + 1, POWERS[row % 3]

    def block_to_vector(self, block: np.ndarray) -> np.ndarray:
        return np.asarray(block, dtype=float)[np.tri(self.m, dtype=bool).T]  # upper triangle

    def vector_to_block(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float)[_positions(self.m)]

    def defect(self, x: np.ndarray) -> np.ndarray:
        """Moment defects sum_j (L^qc - L^a)_{ij} p(j) at candidate x."""
        return self.rhs - self.matrix @ np.asarray(x, dtype=float)

    def consistency_rows(self) -> np.ndarray:
        """Row indices of the p in {j, j^2} equations (Eq. cons2)."""
        return _consistency_rows(self.m)


def _consistency_rows(m: int) -> np.ndarray:
    return np.flatnonzero(np.arange(3 * m) % 3)


def _equations(m: int, n_unknowns: int, column: np.ndarray):
    """Integer (matrix, rhs) of the consistency equations, defect = rhs -
    matrix . x, where block entry (i, j) is the unknown x[column[i-1, j-1]].
    Each row of column is one-to-one, so one assignment sets every entry.

    Columns run over j = -1 .. m+2, every column a second-neighbor row of
    the block reaches. An m below 1 raises ValueError; a pure entry that is
    not an integer raises CertificateError."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    i, j, pure = _block_frame(m)
    lc, la = ints = pure.astype(np.int64)
    if not (ints == pure).all():  # else the integer sums below would truncate it
        raise CertificateError(f"m={m}: pure L2 entry {pure[ints != pure][0]} is not an integer")
    # defect weight of each column: L^c - L^a where j < 1 is pinned to the
    # continuum, -L^a where the block unknown sits, zero where j > m is
    # pinned atomistic
    weight = np.where(j < 1, lc - la, np.where(j <= m, -la, 0))
    jp = j ** np.array(POWERS)[:, None]  # (power, column)
    rhs = (weight @ jp.T).reshape(-1)  # row 3(i-1) + ip
    matrix = np.zeros((3 * m, n_unknowns), dtype=np.int64)
    matrix[3 * (i - 1) + np.arange(len(POWERS))[:, None, None], column] = -jp[:, None, 2:m + 2]
    return matrix, rhs


@functools.lru_cache(maxsize=1, typed=True)
def build_constraint_system(m: int) -> ConstraintSystem:
    """Assemble the consistency equations for an m-atom symmetric block.

    The most recent system is kept, so certificate(m) followed by
    min_residual(m) builds it once; its arrays are read-only because every
    caller shares them. The cache is typed, so that 2.0 does not find the
    system of 2 but is refused, as is any m that is not an integer.
    """
    m = _integer("m", m)
    matrix, rhs = _equations(m, m * (m + 1) // 2, _positions(m))
    matrix.flags.writeable = rhs.flags.writeable = False
    return ConstraintSystem(m=m, matrix=matrix, rhs=rhs)


def certificate_weights(m: int):
    """Multiplier i^2 on the p=j equation and -i on the p=j^2 equation of
    row i; zero on the p=1 equations."""
    w = [0] * (3 * m)
    for i in range(1, m + 1):
        w[3 * (i - 1) + 1] = i * i
        w[3 * (i - 1) + 2] = -i
    return w


@dataclass(frozen=True)
class Certificate:
    """Exact weighted-sum infeasibility witness.

    weights . matrix = 0 (all block unknowns cancel) while weights . rhs =
    value != 0, so no symmetric block solves the system. Both products are
    summed in int64 under a checked overflow bound, so they are exact; value
    and weights are Python ints. weight_norm_sq = sum_i (i^4 + i^2) gives the
    residual lower bound |value|/sqrt(...).
    """

    m: int
    weights: tuple
    value: int
    weight_norm_sq: int

    @property
    def residual_lower_bound(self) -> float:
        return float(abs(self.value)) / float(self.weight_norm_sq) ** 0.5


def _weighted_sums(system: ConstraintSystem, weights) -> tuple:
    """(weights . matrix, weights . rhs) in int64, exact: each sum has 3m
    terms of at most max|w| * max|entry|, and that bound is checked against
    2^63 before summing, so no partial sum can wrap."""
    w = np.array(weights, dtype=np.int64)
    entry = max(_max_abs(system.matrix), _max_abs(system.rhs))
    bound = len(weights) * max(abs(x) for x in weights) * entry
    if bound >= 2**63:
        raise CertificateError(
            f"m={system.m}: int64 sums of the certificate could overflow "
            f"(bound {bound} >= 2^63)"
        )
    return w @ system.matrix, int(w @ system.rhs)


def _max_abs(a: np.ndarray) -> int:
    # as Python ints, since np.abs wraps at the int64 minimum
    return max(int(a.max()), -int(a.min()))


def certificate(m: int) -> Certificate:
    """Compute the weighted combination of the consistency equations in exact
    integer arithmetic and verify that every unknown cancels."""
    m = _integer("m", m)
    system = build_constraint_system(m)
    w = certificate_weights(m)
    sums, value = _weighted_sums(system, w)
    failed = np.flatnonzero(sums)
    if failed.size:
        c = failed[0]
        raise CertificateError(
            f"unknown {pair_index(m)[c]} does not cancel (coefficient {int(sums[c])}); "
            "assembly bug"
        )
    norm_sq = sum(i**4 + i**2 for i in range(1, m + 1))
    return Certificate(m=m, weights=tuple(w), value=value, weight_norm_sq=norm_sq)


@dataclass(frozen=True, eq=False)
class MinResidualResult:
    m: int
    residual: float
    stencil: object          # InterfaceStencil, or a raw block when unsymmetric
    symmetric: bool


def min_residual(m: int, symmetric: bool = True) -> MinResidualResult:
    """Least-squares minimizer of the consistency defect (Eq. cons2 rows,
    p in {j, j^2}) over interface blocks; the residual is its Euclidean norm.

    With the symmetry constraint the residual is strictly positive and attains
    the certificate bound; dropping it (diagnostic mode) admits exact
    solutions such as the force-based (QCF) interface rows.
    """
    m = _integer("m", m)
    rows = _consistency_rows(m)
    if symmetric:
        system = build_constraint_system(m)
        matrix, rhs = system.matrix, system.rhs
    else:  # free m x m block, row-major unknowns
        matrix, rhs = _equations(m, m * m, np.arange(m)[:, None] * m + np.arange(m))
    M = matrix[rows].astype(float)
    b = rhs[rows].astype(float)
    x, *_ = np.linalg.lstsq(M, b, rcond=None)
    res = float(np.linalg.norm(M @ x - b))
    stencil = InterfaceStencil(m, system.vector_to_block(x)) if symmetric else x.reshape(m, m)
    return MinResidualResult(m=m, residual=res, stencil=stencil, symmetric=symmetric)


def qcf_witness_block(m: int) -> np.ndarray:
    """Unsymmetric block realizing zero defect for m >= 4: rows 1..m//2 (at
    least the first two) are pure continuum stencils, the rest (at least the
    last two) pure atomistic, so every row's moments vanish and the pinned
    off-block entries (the equations' `_block_frame`) are matched exactly."""
    m = _integer("m", m)
    if m < 4:
        raise ValueError("the force-based witness needs m >= 4")
    i, _, (cont, atom) = _block_frame(m)
    return np.where(i <= m // 2, cont[:, 2:m + 2], atom[:, 2:m + 2])
