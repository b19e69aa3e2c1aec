"""Consistency of coupled operators against the atomistic reference.

Three instruments: row-wise polynomial moment residuals (the tests against
u_j = 1, j, j^2, evaluated with unwrapped absolute indices because those test
vectors are local, infinite-chain statements), ghost-force extraction, and
smooth-field residual sweeps over a ladder of chain sizes with a fitted
log-log exponent of residual versus eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .chain import ChainConfig, PeriodicField
from .models import LinearChainOperator, ModelKind, apply, apply_linear
from .models import assemble_operator
from .potentials import PairPotential
from .regions import RegionPartition


def default_witness(x, phase=0.3):
    """Smooth 1-periodic probe; the phase keeps the curvature nonzero at the
    default interface locations x = 1/2 and x = 1."""
    return np.sin(2.0 * np.pi * np.asarray(x) + phase)


def _column(o: LinearChainOperator, k: int):
    """Band column of offset k as stored (a broadcast column is read as it is),
    or a zero where the band is narrower."""
    c = o.half_width + k
    return o.band[:, c] if 0 <= c < o.band.shape[1] else np.zeros(1)


@dataclass(frozen=True, eq=False)
class MomentReport:
    """Per-row residuals sum_j (L - L^a)_{ij} p(j) for p in {1, j, j^2}.

    residuals has shape (N, 3), columns ordered by the power of j, values in
    eps^2-scaled stencil units; row i uses absolute indices j = i + offset.
    """

    config: ChainConfig
    residuals: np.ndarray
    op: LinearChainOperator = field(repr=False)
    reference: LinearChainOperator = field(repr=False)

    def max_abs(self, power: int) -> float:
        return float(np.abs(self.residuals[:, power]).max())

    def scale(self) -> np.ndarray:
        """(N, 3) sizes of the residuals' terms, max_k |delta_ik| (i + K)^p: the
        power-p sum rounds to a small multiple of eps_mach times it, however
        far along the chain row i lies."""
        N, K = self.config.N, max(self.op.half_width, self.reference.half_width)
        delta = np.zeros(N)
        for k in range(-K, K + 1):
            np.maximum(delta, np.abs(_column(self.op, k) - _column(self.reference, k)), out=delta)
        reach = np.arange(1.0 + K, N + 1.0 + K)
        return delta[:, None] * np.stack([np.ones(N), reach, reach * reach], axis=1)

    def nonzero_rows(self, tol: float = 1e-11) -> np.ndarray:
        """1-based atoms where any of the three residuals exceeds tol times its
        `scale`."""
        return np.nonzero((np.abs(self.residuals) > tol * self.scale()).any(axis=1))[0] + 1


def _moment_sums(op: LinearChainOperator, reference: LinearChainOperator, exact: bool):
    """sum_k delta_ik (i+k)^p for p = 0, 1, 2 as an (N, 3) array, delta being
    op's band minus the reference's (0 where the narrower has no column), added
    column by column over k = -K..K as `_row_sums` adds. With exact, each entry
    becomes the Fraction it holds (lossless for a float) and so does every
    product and sum: the float sums up to their own rounding, exactly for integer stencils.
    Raises ValueError for a reference on another chain (N, F or R), naming both."""
    if op.config != reference.config:
        what = "chain sizes" if op.config.N != reference.config.N else "chains"
        raise ValueError(f"operators live on different {what}: {op.config} and {reference.config}")
    N, K = op.config.N, max(op.half_width, reference.half_width)
    if N < 2 * (2 * K + 2):
        raise ValueError("chain too short for unwrapped moment tests")

    def column(o: LinearChainOperator, k: int):
        col = _column(o, k)
        return np.vectorize(Fraction, otypes=[object])(col) if exact else col

    sums = np.zeros((3, N), object if exact else float)
    # j = i + k of rows i = 1..N is the window from K + k (floats: exact below 2^53)
    j2 = (j := np.arange(1 - K, N + 1 + K, dtype=int if exact else float)) * j
    for k in range(-K, K + 1):
        d, w = column(op, k) - column(reference, k), slice(K + k, K + k + N)
        for row, term in zip(sums, (d, d * j[w], d * j2[w])):  # in place: no (3, N) temporary
            row += term
    return np.stack(sums, axis=1)


def moment_residuals(op: LinearChainOperator, reference: LinearChainOperator) -> MomentReport:
    """Moment test of op against a reference operator on the same chain."""
    return MomentReport(op.config, _moment_sums(op, reference, exact=False), op, reference)


def ghost_force(
    kind: ModelKind,
    config: ChainConfig,
    potential: PairPotential,
    partition: RegionPartition | None = None,
):
    """Ghost field (scaled force at u = 0) and its sup norm."""
    op = assemble_operator(kind, config, potential, partition=partition)
    return PeriodicField(config, op.ghost), float(np.abs(op.ghost).max())


@dataclass(frozen=True)
class SweepResult:
    """Residual-versus-eps ladder with fitted exponent (slope of log residual
    against log eps) and the r^2 of that fit."""

    kind: ModelKind
    points: tuple          # ((N, residual_sup), ...)
    exponent: float
    r_squared: float


def fit_slope(points) -> tuple:
    """Least-squares line through (log x, log y): (slope, intercept, r_squared).

    Requires at least two strictly positive, finite points with distinct x.
    A constant y gives slope 0 with r_squared reported as 1 (the fit is exact).
    """
    pts = list(points)
    if len({x for x, _ in pts}) < 2:  # polyfit would fail inside LAPACK
        raise ValueError("slope fit needs at least two distinct x")
    if not _positive(pts):
        raise ValueError("slope fit needs strictly positive, finite coordinates")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def _positive(pts) -> bool:
    """Whether every coordinate of the points is positive and finite (a NaN
    is neither)."""
    return all(0.0 < c < math.inf for pt in pts for c in pt)


def _slope_or_nan(points) -> tuple:
    """`fit_slope` of a ladder's points, or (nan, nan, nan) where the ladder
    has no slope: fewer than two points, or a coordinate that is not
    positive and finite, as every residual of a partition without an
    interface is 0."""
    pts = list(points)
    if len(pts) < 2 or not _positive(pts):
        return (float("nan"),) * 3
    return fit_slope(pts)


def _ladder(N_list) -> list:
    """N_list as ints; raises ValueError for one that is not strictly increasing."""
    N_list = [int(N) for N in N_list]
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError(f"N_list must be strictly increasing, got {N_list}")
    return N_list


def _rungs(kind: ModelKind, f, N_list, potential, partition, F):
    """The rungs of a sweep or a study: (config, u = f sampled, only read, L^kind,
    L^a u) per chain size, L^a u being linear (the atomistic ghost is +0.0). Raises
    ValueError, on the first step, for an N_list not strictly increasing or a bad u:
    one of another shape, or one not finite, naming its first such atom and x."""
    for N in _ladder(N_list):
        config = ChainConfig(N=N, F=F, R=2)
        u = np.asarray(f(config.positions()), dtype=float)
        if u.shape != (N,):
            raise ValueError(f"expected {N} values, got shape {u.shape}")
        if not math.isfinite(max(float(u.max()), -float(u.min()))):  # NaN or inf if not finite
            i = int(np.argmin(np.isfinite(u)))
            raise ValueError(f"witness is not finite at atom {i + 1} (x = {(i + 1) / N!r}): {u[i]}")
        op_kind = assemble_operator(kind, config, potential, partition=partition)
        # L^a is not kept alive through the caller's work on the rung
        La_u = apply_linear(assemble_operator(ModelKind.ATOMISTIC, config, potential), u)
        yield config, u, op_kind, La_u


def consistency_sweep(
    kind: ModelKind,
    f,
    N_list,
    potential: PairPotential,
    partition: RegionPartition | None = None,
    F: float = 1.2,
) -> SweepResult:
    """Sample u = f on each chain, measure ||L^kind u - L^a u||_inf (ghost
    terms included) and fit the exponent of residual vs eps; the exponent and
    r^2 are nan for a single rung or a residual of 0."""
    kind = ModelKind(kind)
    pts = []
    for config, u, op_kind, La_u in _rungs(kind, f, N_list, potential, partition, F):
        resid = apply(op_kind, u) - La_u
        pts.append((config.N, float(np.abs(resid).max())))
    slope, _, r2 = _slope_or_nan([(1.0 / N, r) for N, r in pts])
    return SweepResult(kind=kind, points=tuple(pts), exponent=slope, r_squared=r2)
