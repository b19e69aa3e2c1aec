"""Infeasibility of o(1)-consistent symmetric interface stencils.

For an interface block of m atoms (indices 1..m, continuum to the left,
atomistic to the right), the consistency equations against the atomistic
second-neighbor operator form an integer linear system in the m(m+1)/2
symmetric block unknowns. Entries outside the block are pinned by symmetry
with the pure rows: continuum values for columns j < 1, atomistic values for
j > m. All quantities are in dimensionless second-neighbor (L2) units, with
pure stencils

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

from .models import ATOM_L2, CONT_L2, InterfaceStencil

POWERS = (0, 1, 2)  # moments against u_j = 1, j, j^2


class CertificateError(RuntimeError):
    """Raised when the weighted combination fails to cancel the unknowns."""


def pair_index(m: int):
    """Ordered unknowns (k, l), k <= l, of the symmetric m x m block: the
    upper triangle in row-major order, as np.triu_indices(m) gives it."""
    k, l = np.triu_indices(m)
    return list(zip((k + 1).tolist(), (l + 1).tolist()))


@dataclass(frozen=True)
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
        return np.asarray(block, dtype=float)[np.triu_indices(self.m)]

    def vector_to_block(self, x: np.ndarray) -> np.ndarray:
        k, l = np.triu_indices(self.m)
        blk = np.zeros((self.m, self.m))
        blk[k, l] = x
        blk[l, k] = x
        return blk

    def defect(self, x: np.ndarray) -> np.ndarray:
        """Moment defects sum_j (L^qc - L^a)_{ij} p(j) at candidate x."""
        return self.rhs - self.matrix @ np.asarray(x, dtype=float)

    def consistency_rows(self) -> np.ndarray:
        """Row indices of the p in {j, j^2} equations (Eq. cons2)."""
        return _consistency_rows(self.m)


def _consistency_rows(m: int) -> np.ndarray:
    return np.flatnonzero(np.arange(3 * m) % 3)


def _equations(m: int, n_unknowns: int, column):
    """Integer (matrix, rhs) of the consistency equations, defect = rhs -
    matrix . x, where block entry (i, j) is the unknown x[column(i, j)];
    column maps integer arrays of i and j elementwise.

    Columns run over j = -1 .. m+2, every column a second-neighbor row of
    the block reaches.
    """
    i = np.arange(1, m + 1)[:, None]                    # block rows
    j = np.arange(-1, m + 3)                            # columns
    off = j - i
    la = sum(c * (off == o) for o, c in ATOM_L2.items())
    lc = sum(c * (off == o) for o, c in CONT_L2.items())
    # defect weight of each column: L^c - L^a where j < 1 is pinned to the
    # continuum, -L^a where the block unknown sits, zero where j > m is
    # pinned atomistic
    weight = np.where(j < 1, lc - la, np.where(j <= m, -la, 0))
    rhs = (weight @ (j ** np.array(POWERS)[:, None]).T).reshape(-1)  # row 3(i-1) + ip
    matrix = np.zeros((3 * m, n_unknowns), dtype=np.int64)
    bi, bj = np.broadcast_arrays(i, np.arange(1, m + 1))
    for ip, p in enumerate(POWERS):
        np.subtract.at(matrix, (3 * (bi - 1) + ip, column(bi, bj)), bj**p)
    return matrix, rhs


@functools.lru_cache(maxsize=1)
def build_constraint_system(m: int) -> ConstraintSystem:
    """Assemble the consistency equations for an m-atom symmetric block.

    The most recent system is kept, so certificate(m) followed by
    min_residual(m) builds it once; its arrays are read-only because every
    caller shares them.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    k, l = np.triu_indices(m)
    column = np.empty((m, m), dtype=np.int64)  # position of (k, l) in pair_index(m)
    column[k, l] = column[l, k] = np.arange(len(k))
    matrix, rhs = _equations(m, len(k), lambda i, j: column[i - 1, j - 1])
    matrix.flags.writeable = False
    rhs.flags.writeable = False
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


@dataclass(frozen=True)
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
    rows = _consistency_rows(m)
    if symmetric:
        system = build_constraint_system(m)
        matrix, rhs = system.matrix, system.rhs
    else:  # free m x m block, row-major unknowns
        if m < 1:
            raise ValueError(f"m must be positive, got {m}")
        matrix, rhs = _equations(m, m * m, lambda i, j: (i - 1) * m + (j - 1))
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
    off-block entries are matched exactly."""
    if m < 4:
        raise ValueError("the force-based witness needs m >= 4")
    block = np.zeros((m, m))
    for i in range(1, m + 1):
        native = CONT_L2 if i <= m // 2 else ATOM_L2
        for j in range(1, m + 1):
            block[i - 1, j - 1] = native.get(j - i, 0)
    return block
