"""Chain models: nonlinear energies and linearized operators with ghost terms.

Energy-based kinds (atomistic, continuum, QCE, QNL) are described by a table
of bond terms w * eps * phi(r F + g.u / eps), where g is a small integer
difference pattern. Everything else derives from that table:

  total energy     sum of the bond terms, evaluated nonlinearly
  energy gradient  (1/eps) dE/du, the residual form of the model
  linear operator  (1/eps) Hessian of E at u = 0, i.e. the operator whose
                   uniform rows are -(sum_r r^2 phi''(rF) D_r^2) in the
                   second-neighbor case
  ghost field      (1/eps) grad E at u = 0 (nonzero only for QCE)

Operators store their rows in eps^2-scaled dimensionless units (integer or
small-rational entries for unit moduli); application divides by eps^2. The
force-based QCF and the parametric interface-stencil model are assembled
directly from closed-form rows and carry no energy.

Translation-invariant kinds (atomistic, continuum) have one stencil row for
every atom. Their band stores that row once, as a read-only broadcast view:
still an (N, 2K+1) array, with row stride 0, so assembling it costs the same
at every N. Coupled kinds build whole band columns from region masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .chain import ChainConfig, PeriodicField
from .potentials import PairPotential, evaluate, singular
from .regions import RegionPartition, block_atoms, classify, membership_mask


class ModelKind(str, Enum):
    ATOMISTIC = "atomistic"
    CONTINUUM = "continuum"
    QCE = "qce"
    QNL = "qnl"
    QCF = "qcf"
    CUSTOM = "custom"


ENERGY_BASED = frozenset(
    {ModelKind.ATOMISTIC, ModelKind.CONTINUUM, ModelKind.QCE, ModelKind.QNL}
)
COUPLED = frozenset({ModelKind.QCE, ModelKind.QNL, ModelKind.QCF, ModelKind.CUSTOM})

# The integer stencils, offset -> coefficient, behind every force-based row
# and the interface certificate: the first-neighbor row shared by every model,
# (L1 u)_j = -eps^2 D^2 u_j, and the pure atomistic and continuum
# second-neighbor (L2) rows in dimensionless L2 units.
L1_ROW = {-1: -1, 0: 2, 1: -1}
ATOM_L2 = {-2: -1, 0: 2, 2: -1}
CONT_L2 = {-1: -4, 0: 8, 1: -4}

# Largest |ghost| (force units) for which an operator still has a strain form,
# and largest max |row sum| / max |entry| of a band that annihilates constants.
STRAIN_FORM_TOL = 1e-12
ROW_SUM_RTOL = 1e-12


@dataclass(frozen=True)
class InterfaceStencil:
    """Symmetric m x m block of second-neighbor interface coefficients."""

    m: int
    block: np.ndarray

    def __init__(self, m: int, block):
        blk = np.asarray(block, dtype=float).copy()
        if blk.shape != (m, m):
            raise ValueError(f"expected a {m}x{m} block, got {blk.shape}")
        if not np.array_equal(blk, blk.T):
            raise ValueError("interface stencil block must be exactly symmetric")
        blk.flags.writeable = False
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "block", blk)


@dataclass(frozen=True)
class LinearChainOperator:
    """Row-stencil operator (L u)_i = (1/eps^2) sum_k band[i, K+k] u_{i+k} + ghost_i.

    band rows are eps^2-scaled and indexed by offset k in -K..K; ghost is the
    affine term at u = 0 in force units.

    Layout: every consumer reads the band one offset (column) at a time, so
    band[:, K+k] is contiguous. The band is either column-major (Fortran
    order) or, for a translation-invariant kind, one stencil row broadcast
    with row stride 0; any other array is copied to Fortran order here. Band
    and ghost are read-only.
    """

    config: ChainConfig
    kind: ModelKind
    band: np.ndarray
    ghost: np.ndarray

    def __post_init__(self):
        if self.band.strides[0] != 0 and not self.band.flags.f_contiguous:
            object.__setattr__(self, "band", np.asfortranarray(self.band))
        self.band.flags.writeable = False
        self.ghost.flags.writeable = False

    @property
    def half_width(self) -> int:
        return (self.band.shape[1] - 1) // 2

    def row(self, i: int):
        """Offsets and eps^2-unit coefficients of the stencil at atom i (1-based)."""
        K = self.half_width
        return np.arange(-K, K + 1), self.band[(i - 1) % self.config.N]

    def row_sums(self) -> np.ndarray:
        # column by column, in less than half the time of band.sum(axis=1);
        # the bits agree up to width 7 (numpy regroups wider rows pairwise)
        out = self.band[:, 0].copy()
        for c in range(1, self.band.shape[1]):
            out += self.band[:, c]
        return out

    def dense(self) -> np.ndarray:
        """Dense realization including the 1/eps^2 scale (small N only)."""
        N = self.config.N
        if N > 4096:
            raise ValueError(f"dense realization refused for N={N} > 4096")
        K = self.half_width
        A = np.zeros((N, N))
        idx = np.arange(N)
        for k in range(-K, K + 1):
            A[idx, (idx + k) % N] += self.band[:, K + k]
        return A / self.config.epsilon**2


def apply(op: LinearChainOperator, u):
    """Apply the affine operator: linear part plus ghost field."""
    out = apply_linear(op, u if isinstance(u, np.ndarray) else u.values) + op.ghost
    if isinstance(u, PeriodicField):
        return PeriodicField(u.config, out)
    return out


def apply_linear(op: LinearChainOperator, v: np.ndarray) -> np.ndarray:
    """Linear part only, on a raw value array."""
    return _band_apply(op.band, -op.half_width, v) / op.config.epsilon**2


def _band_apply(band: np.ndarray, first_offset: int, v) -> np.ndarray:
    """Periodic band product: out_i = sum_c band[i, c] v[(i + first_offset + c) mod N].

    v is padded once with its wrapped ends, so offset first_offset + c reads
    the contiguous window vp[c : c+N] against the contiguous band column c.
    The sum starts from zeros and adds the columns in order, which gives the
    bits of one np.roll per offset. At N = 2^18, K = 2 (one Intel Xeon core,
    best of 30) this takes 5.5 ms on a column-major band, against 13.1 ms
    for the roll loop on a row-major band and 9.9 ms on a column-major one.
    Offsets must lie in -N..N: a band that wraps the ring more than once is
    refused.
    """
    N, width = band.shape
    if len(v) != N:
        raise ValueError("field length does not match operator size")
    lo, hi = -first_offset, first_offset + width - 1  # reach behind and ahead
    if not (0 <= lo <= N and 0 <= hi <= N):
        raise ValueError(
            f"band of width {width} (offsets {first_offset}..{hi}) "
            f"wraps the ring of N={N} atoms more than once"
        )
    vp = np.concatenate((v[N - lo:], v, v[:hi]))
    out = np.zeros(N)
    for c in range(width):
        out += band[:, c] * vp[c:c + N]
    return out


# ---------------------------------------------------------------------------
# bond-term tables for the energy-based kinds


@dataclass(frozen=True)
class _TermGroup:
    shell: int            # neighbor distance r; bond argument is r F + g.u/eps
    anchors: np.ndarray   # distinct 0-based anchor atoms (so indexed += never
                          # collides, and N anchors are every atom)
    pattern: tuple        # ((offset, coeff), ...) defining g relative to anchor
    weight: float


def _coupled_partition(kind: ModelKind, config: ChainConfig, partition):
    """The partition of a coupled kind, which is defined for R = 2 only."""
    if config.R != 2:
        raise ValueError(f"coupled models are defined for R=2 only, got R={config.R}")
    if partition is None:
        raise ValueError(f"{kind.value} requires a region partition")
    return partition


def _term_groups(kind: ModelKind, config: ChainConfig, mask) -> list:
    """Bond-term groups of an energy-based kind; mask is the membership mask
    of a coupled kind's partition (unused by the pure kinds)."""
    N, R = config.N, config.R
    everyone = np.arange(N)
    groups = []
    if kind is ModelKind.ATOMISTIC:
        for r in range(1, R + 1):
            groups.append(_TermGroup(r, everyone, ((0, 1.0), (-r, -1.0)), 1.0))
        return groups
    if kind is ModelKind.CONTINUUM:
        for r in range(1, R + 1):
            groups.append(_TermGroup(r, everyone, ((0, float(r)), (-1, -float(r))), 1.0))
        return groups
    in_a = everyone[mask]
    in_c = everyone[~mask]
    if kind is ModelKind.QCE:
        # Per-atom energies, half of each incident bond; continuum atoms use
        # nearest-neighbor strains (Cauchy-Born) for both shells.
        for r in (1, 2):
            fr = float(r)
            groups.append(_TermGroup(r, in_a, ((0, 1.0), (-r, -1.0)), 0.5))
            groups.append(_TermGroup(r, in_a, ((r, 1.0), (0, -1.0)), 0.5))
            groups.append(_TermGroup(r, in_c, ((0, fr), (-1, -fr)), 0.5))
            groups.append(_TermGroup(r, in_c, ((1, fr), (0, -fr)), 0.5))
        return groups
    if kind is ModelKind.QNL:
        # First neighbors atomistic everywhere; the second-neighbor pair
        # (i-2, i) is an atomistic bond when either endpoint is in A, else it
        # is split into the two overlapping nearest-neighbor halves.
        groups.append(_TermGroup(1, everyone, ((0, 1.0), (-1, -1.0)), 1.0))
        pair_atomistic = mask | np.roll(mask, 2)  # rolled: membership of atom i-2
        nonlocal_pairs = everyone[pair_atomistic]
        local_pairs = everyone[~pair_atomistic]
        groups.append(_TermGroup(2, nonlocal_pairs, ((0, 1.0), (-2, -1.0)), 1.0))
        groups.append(_TermGroup(2, local_pairs, ((-1, 2.0), (-2, -2.0)), 0.5))
        groups.append(_TermGroup(2, local_pairs, ((0, 2.0), (-1, -2.0)), 0.5))
        return groups
    raise ValueError(f"{kind.value} does not derive from an energy")


def _bond_arguments(kind, config: ChainConfig, potential, u: PeriodicField, partition):
    """Each bond-term group of an energy-based kind with its arguments rF + g.u/eps.

    Raises ValueError naming the first bond whose argument is singular for
    the potential.
    """
    kind = ModelKind(kind)
    if kind not in ENERGY_BASED:
        raise ValueError(f"{kind.value} does not derive from an energy")
    mask = None
    if kind in COUPLED:
        mask = membership_mask(_coupled_partition(kind, config, partition), config)
    v = u.values
    for g in _term_groups(kind, config, mask):
        s = np.zeros(len(g.anchors))
        for off, c in g.pattern:
            s += c * v[(g.anchors + off) % config.N]
        args = g.shell * config.F + s / config.epsilon
        bad = np.flatnonzero(singular(potential, args))
        if bad.size:
            first = bad[0]
            raise ValueError(
                f"{potential.kind} is singular at bond argument s = {float(args[first])!r}: "
                f"{kind.value} bond of shell r={g.shell} anchored at atom "
                f"{g.anchors[first] + 1}"
            )
        yield g, args


def total_energy(
    kind: ModelKind,
    config: ChainConfig,
    potential: PairPotential,
    u: PeriodicField,
    partition: RegionPartition | None = None,
) -> float:
    """Scaled total energy sum_terms w * eps * phi(rF + strain)."""
    eps = config.epsilon
    total = 0.0
    for g, args in _bond_arguments(kind, config, potential, u, partition):
        total += g.weight * eps * float(np.sum(evaluate(potential, args, 0)))
    return total


def energy_gradient(
    kind: ModelKind,
    config: ChainConfig,
    potential: PairPotential,
    u: PeriodicField,
    partition: RegionPartition | None = None,
) -> np.ndarray:
    """Scaled gradient (1/eps) dE/du as a raw array; at u = 0 this is the ghost field."""
    grad = np.zeros(config.N)
    for g, args in _bond_arguments(kind, config, potential, u, partition):
        dphi = np.asarray(evaluate(potential, args, 1))
        for off, c in g.pattern:
            grad[(g.anchors + off) % config.N] += g.weight * c * dphi
    return grad / config.epsilon


# ---------------------------------------------------------------------------
# operator assembly


def _shell_bands(groups, N: int, R: int, K: int):
    """Per-shell integer bands and gradient weights, accumulated group by group.

    A shell whose groups all anchor every atom is translation invariant: each
    row receives the same terms in the same order, so its band is one stencil
    row of 2K+1 floats and its gradient weight a 0-d array. Other shells add
    whole columns through a rolled 0/1 anchor indicator; a row outside the
    anchors gains 0.0 * x, which leaves a +0.0 or nonzero entry unchanged, so
    the bits equal those of an indexed scatter.
    """
    bands, gweights = [], []
    for r in range(1, R + 1):
        shell = [g for g in groups if g.shell == r]
        invariant = all(len(g.anchors) == N for g in shell)
        band = np.zeros(2 * K + 1 if invariant else (N, 2 * K + 1), order="F")
        gw = np.zeros(() if invariant else N)
        for g in shell:
            if not invariant:
                anchored = np.zeros(N)
                anchored[g.anchors] = 1.0
            for o1, c1 in g.pattern:
                at = 1.0 if invariant else np.roll(anchored, o1)  # rows anchors + o1
                gw += at * (g.weight * c1)
                for o2, c2 in g.pattern:
                    band[..., K + (o2 - o1)] += at * (g.weight * c1 * c2)
        bands.append(band)
        gweights.append(gw)
    return bands, gweights


def _stencil_row(row_map: dict, K: int) -> np.ndarray:
    """The offset -> coefficient table as one row of a half-width-K band."""
    row = np.zeros(2 * K + 1)
    for off, c in row_map.items():
        row[K + off] = c
    return row


def assemble_from_moduli(
    kind: ModelKind,
    config: ChainConfig,
    second_derivs,
    first_derivs=None,
    partition: RegionPartition | None = None,
    stencil: InterfaceStencil | None = None,
) -> LinearChainOperator:
    """Assemble with explicit per-shell moduli phi''(rF) (and phi'(rF) for the
    ghost term). The resulting band is linear in the moduli, realizing the
    first/second-neighbor decomposition of the coupled operators exactly.
    """
    kind = ModelKind(kind)
    N, R = config.N, config.R
    second = [float(x) for x in second_derivs]
    first = [0.0] * R if first_derivs is None else [float(x) for x in first_derivs]
    if len(second) != R or len(first) != R:
        raise ValueError(f"need one modulus per shell r=1..{R}")

    mask = None
    if kind in COUPLED:
        regions = classify(_coupled_partition(kind, config, partition), config)
        mask = regions.in_atomistic
    if kind in ENERGY_BASED:
        groups = _term_groups(kind, config, mask)
        K = R
        bands, gweights = _shell_bands(groups, N, R, K)
        # one row (and a 0-d ghost weight) while every shell is invariant
        band = np.zeros(np.broadcast_shapes(*(b.shape for b in bands)), order="F")
        ghost = np.zeros(np.broadcast_shapes(*(w.shape for w in gweights)))
        for r in range(R):
            band += second[r] * bands[r]
            ghost += first[r] * gweights[r]
        return LinearChainOperator(
            config, kind, np.broadcast_to(band, (N, 2 * K + 1)),
            np.broadcast_to(ghost, (N,)) / config.epsilon,
        )

    # QCF and CUSTOM: L1 everywhere plus the native L2 row of each atom's
    # region; CUSTOM widens the band to its block and overwrites the block rows.
    K = 2
    if kind is ModelKind.CUSTOM:
        if stencil is None:
            raise ValueError("custom model requires an InterfaceStencil")
        m = partition.interface_width_m
        if stencil.m != m:
            raise ValueError(
                f"stencil block is {stencil.m}x{stencil.m} but partition has m={m}"
            )
        K = max(2, m + 1)
        if K > N:
            # only without interfaces: classify fits every block in the ring
            raise ValueError(
                f"custom block of width m={m} needs a band of half-width {K}, "
                f"which wraps the ring of N={N} atoms more than once"
            )
    # built as (2K+1, N) rows, so that its transpose is column-major
    l2 = np.where(mask, _stencil_row(ATOM_L2, K)[:, None], _stencil_row(CONT_L2, K)[:, None]).T
    if kind is ModelKind.CUSTOM:
        # row i of the block reads continuum values at j < 1, the block at
        # 1 <= j <= m and atomistic values at j > m (j = -1 .. m+2)
        js = np.arange(-1, m + 3)
        for boundary in regions.boundaries:
            atoms = block_atoms(boundary, m, N)         # block index 1..m -> atom
            direction = 1 if boundary[1] == "CA" else -1
            for i in range(1, m + 1):
                row = atoms[i - 1] - 1
                coeffs = np.concatenate((
                    [CONT_L2.get(j - i, 0) for j in (-1, 0)],
                    stencil.block[i - 1],
                    [ATOM_L2.get(j - i, 0) for j in (m + 1, m + 2)],
                ))
                l2[row, :] = 0.0
                l2[row, K + direction * (js - i)] += coeffs
    band = second[0] * _stencil_row(L1_ROW, K) + second[1] * l2
    return LinearChainOperator(config, kind, band, np.zeros(N))


def assemble_operator(
    kind: ModelKind,
    config: ChainConfig,
    potential: PairPotential,
    partition: RegionPartition | None = None,
    stencil: InterfaceStencil | None = None,
) -> LinearChainOperator:
    """Linearize a model at u = 0: linear part (1/eps) Hessian of the energy,
    ghost field (1/eps) grad E(0). QCF/custom are assembled from their
    defining rows and have zero ghost."""
    kind = ModelKind(kind)
    shells = range(1, config.R + 1)
    second = [evaluate(potential, r * config.F, 2) for r in shells]
    first = [evaluate(potential, r * config.F, 1) for r in shells]
    return assemble_from_moduli(
        kind, config, second, first, partition=partition, stencil=stencil
    )


# ---------------------------------------------------------------------------
# strain form and diagnostics


@dataclass(frozen=True)
class StrainFormOperator:
    """Factorization L u = Ltilde D u for shift-invariant, ghost-free operators.

    band holds the coefficients of eps*Ltilde at strain offsets 1-K..K;
    bound_C is the maximal row l1 norm, giving
    ||L v||_inf <= (bound_C / eps) ||D v||_inf.
    """

    config: ChainConfig
    band: np.ndarray
    bound_C: float

    @property
    def offsets(self) -> np.ndarray:
        K = self.band.shape[1] // 2
        return np.arange(1 - K, K + 1)

    def apply_strain(self, du):
        v = du.values if isinstance(du, PeriodicField) else np.asarray(du, float)
        out = _band_apply(self.band, 1 - self.band.shape[1] // 2, v) / self.config.epsilon
        if isinstance(du, PeriodicField):
            return PeriodicField(du.config, out)
        return out


def _telescope(band: np.ndarray):
    """Strain columns of a zero-row-sum band and their bound_C.

    The coefficient of (Du)_{i+k} collects the stencil weight that
    telescopes across the bond (i+k-1, i+k): minus the sum of offsets below
    k for k <= 0, the sum of offsets k..K for k >= 1. Returns the 2K columns
    in offset order 1-K..K and the largest row l1 norm, summed column by
    column as in row_sums.
    """
    K = (band.shape[1] - 1) // 2
    below = above = 0.0  # running sums from the two ends of the stencil
    lows, highs = [], []
    for c in range(K):
        below = below - band[:, c]           # k = c+1-K
        above = above + band[:, 2 * K - c]   # k = K-c
        lows.append(below)
        highs.append(above)
    columns = lows + highs[::-1]
    row_l1 = np.abs(columns[0])
    for col in columns[1:]:
        row_l1 += np.abs(col)
    return columns, float(row_l1.max())


def _constants_defect(op: LinearChainOperator):
    """(max |row sum|, whether the band annihilates constants), the row sums
    in eps^2 stencil units. It does when max |row sum| <= ROW_SUM_RTOL *
    max |band entry|; a NaN or infinite entry never does."""
    defect = float(np.abs(op.row_sums()).max())
    return defect, defect <= ROW_SUM_RTOL * float(np.abs(op.band).max()) < math.inf


def to_strain_form(op: LinearChainOperator) -> StrainFormOperator:
    """Rewrite L in terms of backward differences via telescoping.

    Requires zero row sums (shift invariance, the solver's test) and a zero
    ghost field. The strain band is column-major, like the operator's.
    """
    if not _constants_defect(op)[1]:
        raise ValueError("operator has nonzero row sums; no strain form exists")
    if np.abs(op.ghost).max() > STRAIN_FORM_TOL:
        raise ValueError("operator has a ghost field; no strain form exists")
    columns, bound_C = _telescope(op.band)
    return StrainFormOperator(op.config, np.stack(columns).T, bound_C)


def _transpose_gaps(band: np.ndarray):
    """A[i, i+k] - A[i+k, i] in eps^2 units for k = 0..K, one length-N array
    per k, computed as each is asked for: row i+k holds A[i+k, i] at offset
    -k. Every pair is visited once; k = 0 pairs the diagonal with itself, so
    a NaN anywhere in the band shows as a NaN gap."""
    K = (band.shape[1] - 1) // 2
    return (band[:, K + k] - np.roll(band[:, K - k], -k) for k in range(K + 1))


def symmetry_defect(op: LinearChainOperator) -> float:
    """max |L_ij - L_ji| over the dense realization (computed bandwise); NaN
    when the band holds a NaN."""
    worst = np.max([np.abs(gap).max() for gap in _transpose_gaps(op.band)])
    return float(worst) / op.config.epsilon**2


def hessian_consistency_check(
    kind: ModelKind,
    config: ChainConfig,
    potential: PairPotential,
    partition: RegionPartition | None = None,
    step: float = 1e-5,
) -> float:
    """Worst deviation (in eps^2 stencil units) between the assembled linear
    part and central finite differences of the analytic scaled gradient,
    taken with a strain-sized step eps*step."""
    kind = ModelKind(kind)
    if kind not in ENERGY_BASED:
        raise ValueError(f"{kind.value} does not derive from an energy")
    if config.N > 512:
        raise ValueError("hessian check is a dense diagnostic; use N <= 512")
    op = assemble_operator(kind, config, potential, partition=partition)
    N = config.N
    eps = config.epsilon
    h = eps * step
    fd = np.zeros((N, N))
    base = np.zeros(N)
    for k in range(N):
        for sign in (1.0, -1.0):
            base[k] = sign * h
            g = energy_gradient(kind, config, potential, PeriodicField(config, base), partition)
            fd[:, k] += sign * g
            base[k] = 0.0
    fd /= 2.0 * h
    return float(np.abs(eps**2 * fd - eps**2 * op.dense()).max())
