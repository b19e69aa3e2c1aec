"""Consistency of coupled operators against the atomistic reference.

Three instruments: row-wise polynomial moment residuals (the tests against
u_j = 1, j, j^2 in unwrapped absolute indices, as those test vectors are
local, infinite-chain statements; row i's residual is a polynomial in i whose
coefficients, the offset moments M_0..M_2, are read once per run), ghost-force
extraction, and smooth-field residual sweeps over a ladder of chain sizes
with a fitted log-log exponent of residual versus eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .chain import ChainConfig, PeriodicField
from .models import LinearChainOperator, ModelKind, apply, apply_linear
from .models import _run_moments, assemble_operator
from .potentials import PairPotential
from .regions import RegionPartition


def default_witness(x, phase=0.3):
    """Smooth 1-periodic probe; the phase keeps the curvature nonzero at the
    default interface locations x = 1/2 and x = 1."""
    return np.sin(2.0 * np.pi * np.asarray(x) + phase)


@dataclass(frozen=True, eq=False)
class MomentReport:
    """Per-row residuals sum_j (L - L^a)_{ij} p(j) for p in {1, j, j^2}.

    residuals has shape (N, 3), columns ordered by the power of j, values in
    eps^2-scaled stencil units; row i uses absolute indices j = i + offset,
    summed through its run's offset moments (`_moment_sums`).
    """

    config: ChainConfig
    residuals: np.ndarray
    op: LinearChainOperator = field(repr=False)
    reference: LinearChainOperator = field(repr=False)

    def max_abs(self, power: int) -> float:
        """max |residual| of the power-p column, p in {0, 1, 2}."""
        if power not in (0, 1, 2):
            raise ValueError(f"moment power must be 0, 1 or 2, got {power!r}")
        return float(np.abs(self.residuals[:, power]).max())

    def scale(self) -> np.ndarray:
        """(N, 3) sizes of the residuals' terms, max_k |delta_ik| (i + K)^p: the
        power-p sum rounds to a small multiple of eps_mach times it, however
        far along the chain row i lies."""
        delta, lengths = _delta_runs(self.op, self.reference)
        size = np.repeat(np.abs(delta).max(axis=1), lengths)
        reach = np.arange(1.0, self.config.N + 1.0) + (delta.shape[1] - 1) // 2  # i + K
        return size[:, None] * reach[:, None] ** np.arange(3)

    def nonzero_rows(self, tol: float = 1e-11) -> np.ndarray:
        """1-based atoms where any of the three residuals exceeds tol times its
        `scale`."""
        return np.nonzero((np.abs(self.residuals) > tol * self.scale()).any(axis=1))[0] + 1


def _delta_runs(op: LinearChainOperator, reference: LinearChainOperator, exact: bool = False):
    """op's rows minus the reference's, zero-padded to the wider half-width, at
    both run starts (a shared start twice, first as an empty run), and the runs'
    lengths; with exact, as the Fractions the rows hold. Raises ValueError for
    a short chain, or a reference on another chain (N, F or R), naming both."""
    if op.config != reference.config:
        what = "chain sizes" if op.config.N != reference.config.N else "chains"
        raise ValueError(f"operators live on different {what}: {op.config} and {reference.config}")
    N, K = op.config.N, max(op.half_width, reference.half_width)
    if N < 2 * (2 * K + 2):
        raise ValueError("chain too short for unwrapped moment tests")
    starts = np.sort(np.concatenate((op.runs.starts, reference.runs.starts)))
    rows = np.zeros((2, len(starts), 2 * K + 1))
    for side, o in zip(rows, (op, reference)):
        side[:, K - o.half_width:K + o.half_width + 1] = o.runs.rows[o.runs.of(starts)]
    if exact:
        rows = np.vectorize(Fraction, otypes=[object])(rows)
    return rows[0] - rows[1], np.diff(starts, append=N)


def _moment_sums(op: LinearChainOperator, reference: LinearChainOperator, exact: bool):
    """sum_k delta_ik (i+k)^p for p = 0, 1, 2 as an (N, 3) array, delta being
    op's band minus the reference's (0 where the narrower has no column): M_0,
    i M_0 + M_1 and i^2 M_0 + 2 i M_1 + M_2 of each run's delta row
    (`_delta_runs`, `_run_moments`), which round within a few eps_mach of
    `MomentReport.scale`, or are exact with exact. Raises as `_delta_runs`."""
    delta, lengths = _delta_runs(op, reference, exact)
    m0, m1, m2 = np.repeat(_run_moments(delta, 2), lengths, axis=1)
    i = np.arange(1, op.config.N + 1, dtype=object if exact else float)
    return np.stack([m0, i * m0 + m1, i * i * m0 + 2 * i * m1 + m2], axis=1)


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
