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

Every band is a table of the kind's distinct rows, gathered column by column
by a per-atom code. A coupled row differs from a pure row only near an
interface, so the table is small. An energy kind's code has one bit per
anchored bond-term group that can reach the row; QCF codes each atom's
region, and CUSTOM adds a code per block row. Translation-invariant kinds
(atomistic, continuum) have one row, broadcast with row stride 0, so their
assembly costs the same at every N. The band product, the row codes and the
bond arguments read neighbours as windows of one `chain.wrap_pad` padding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .chain import ChainConfig, PeriodicField, wrap_pad
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
        return _row_sums(self.band)

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
    out = _band_apply(op.band, -op.half_width, v)
    out /= op.config.epsilon**2
    return out


def _row_sums(band: np.ndarray) -> np.ndarray:
    # column by column, in less than half the time of band.sum(axis=1);
    # the bits agree up to width 7 (numpy regroups wider rows pairwise)
    out = band[:, 0].copy()
    for c in range(1, band.shape[1]):
        out += band[:, c]
    return out


def _distinct_rows(band: np.ndarray) -> np.ndarray:
    return band[:1] if band.strides[0] == 0 else band  # a broadcast band's one row


def _band_apply(band: np.ndarray, first_offset: int, v, magnitudes: bool = False) -> np.ndarray:
    """Periodic band product: out_i = sum_c band[i, c] v[(i + first_offset + c) mod N],
    or with magnitudes sum_c |band[i, c]| |v[...]|, eps^2 |A| |v| for an operator.

    v is padded once by `chain.wrap_pad`, so offset first_offset + c reads
    the contiguous window vp[c : c+N] against the contiguous band column c.
    The sum starts from zeros and adds the columns in order, which gives the
    bits of one np.roll per offset. Besides the result, a call allocates
    two arrays: the padding (of |v| with magnitudes) and one product buffer
    that every column is multiplied into (|band[:, c]| read into it first),
    so |band| is never formed whole. At N = 2^18, K = 2 (one Intel Xeon
    core, best of 30) this takes 6.5 ms on a column-major band (7.4 ms with
    magnitudes), against 14 ms for the roll loop on a row-major band. Warm,
    a fresh product per column costs the same 6.6 ms; the buffer saves the
    pages a call touches. Offsets must lie in -N..N: a band that wraps the
    ring more than once is refused.
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
    vp = wrap_pad(v, lo, hi)
    if magnitudes:
        np.abs(vp, out=vp)
    out, prod = np.zeros(N), np.empty(N)
    for c in range(width):
        if magnitudes:
            np.abs(band[:, c], out=prod)
            prod *= vp[c:c + N]
        else:
            np.multiply(band[:, c], vp[c:c + N], out=prod)
        out += prod
    return out


# ---------------------------------------------------------------------------
# bond-term tables for the energy-based kinds


class _TermGroup(NamedTuple):
    shell: int            # neighbor distance r; bond argument is r F + g.u/eps
    anchors: object       # distinct 0-based anchor atoms (so indexed += never
                          # collides); in `_term_spec`, the anchor set's name
    pattern: tuple        # ((offset, coeff), ...) defining g relative to anchor
    weight: float


def _coupled_partition(kind: ModelKind, config: ChainConfig, partition):
    """The partition of a coupled kind, which is defined for R = 2 only."""
    if config.R != 2:
        raise ValueError(f"coupled models are defined for R=2 only, got R={config.R}")
    if partition is None:
        raise ValueError(f"{kind.value} requires a region partition")
    return partition


@functools.lru_cache(maxsize=None)
def _term_spec(kind: ModelKind, R: int) -> tuple:
    """Bond-term groups of an energy-based kind, anchored on every atom (None)
    or on a set of `_anchor_sets`, named."""
    G = _TermGroup
    if kind is ModelKind.ATOMISTIC:
        return tuple(G(r, None, ((0, 1.0), (-r, -1.0)), 1.0) for r in range(1, R + 1))
    if kind is ModelKind.CONTINUUM:
        return tuple(G(r, None, ((0, float(r)), (-1, -float(r))), 1.0) for r in range(1, R + 1))
    if kind is ModelKind.QCE:
        # Per-atom energies, half of each incident bond; continuum atoms use
        # nearest-neighbor strains (Cauchy-Born) for both shells.
        return tuple(g for r, fr in ((1, 1.0), (2, 2.0)) for g in (
            G(r, "A", ((0, 1.0), (-r, -1.0)), 0.5), G(r, "A", ((r, 1.0), (0, -1.0)), 0.5),
            G(r, "C", ((0, fr), (-1, -fr)), 0.5), G(r, "C", ((1, fr), (0, -fr)), 0.5),
        ))
    if kind is ModelKind.QNL:
        # First neighbors atomistic everywhere; the second-neighbor pair
        # (i-2, i) is an atomistic bond when either endpoint is in A, else it
        # is split into the two overlapping nearest-neighbor halves.
        return (G(1, None, ((0, 1.0), (-1, -1.0)), 1.0), G(2, "P", ((0, 1.0), (-2, -1.0)), 1.0),
                G(2, "L", ((-1, 2.0), (-2, -2.0)), 0.5), G(2, "L", ((0, 2.0), (-1, -2.0)), 0.5))
    raise ValueError(f"{kind.value} does not derive from an energy")


def _anchor_sets(kind: ModelKind, mask) -> dict:
    """Anchor indicators of QCE (regions A and C) or QNL (atoms i whose pair
    (i-2, i) is atomistic, P, an end in A, or local, L)."""
    if kind is ModelKind.QCE:
        return {"A": mask, "C": ~mask}
    pair = mask | np.roll(mask, 2)  # rolled: membership of atom i-2
    return {"P": pair, "L": ~pair}


def _term_groups(kind: ModelKind, config: ChainConfig, mask) -> list:
    """Bond-term groups of an energy-based kind; mask is the membership mask
    of a coupled kind's partition (unused by the pure kinds)."""
    everyone = np.arange(config.N)
    anchors = {None: everyone}
    if kind in COUPLED:
        anchors.update((name, everyone[ind]) for name, ind in _anchor_sets(kind, mask).items())
    return [_TermGroup(r, anchors[s], pattern, w) for r, s, pattern, w in _term_spec(kind, config.R)]


def _bond_arguments(kind, config: ChainConfig, potential, u: PeriodicField, partition):
    """Each bond-term group of an energy-based kind with its arguments rF + g.u/eps,
    read from u padded by R wrapped values: one window per pattern offset for
    a group anchored at every atom, a gather for any other. Raises ValueError
    for a field of another size, and naming the first singular bond argument."""
    kind = ModelKind(kind)
    if kind not in ENERGY_BASED:
        raise ValueError(f"{kind.value} does not derive from an energy")
    N, R = config.N, config.R
    if len(u.values) != N:
        raise ValueError(f"field has {len(u.values)} values but the chain has N={N} atoms")
    mask = None
    if kind in COUPLED:
        mask = membership_mask(_coupled_partition(kind, config, partition), config)
    vp = wrap_pad(u.values, R, R)
    for g in _term_groups(kind, config, mask):
        every = len(g.anchors) == N
        s = np.zeros(len(g.anchors))
        for off, c in g.pattern:
            s += c * (vp[R + off:R + off + N] if every else vp[g.anchors + (R + off)])
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
    N = config.N
    grad = np.zeros(N)
    for g, args in _bond_arguments(kind, config, potential, u, partition):
        dphi = np.asarray(evaluate(potential, args, 1))
        for off, c in g.pattern:
            term, w = g.weight * c * dphi, off % N
            if len(g.anchors) == N:  # grad[(i + off) mod N] += term[i], split at the wrap
                grad[w:] += term[:N - w]
                grad[:w] += term[N - w:]
            else:
                grad[(g.anchors + off) % N] += term
    return grad / config.epsilon


# ---------------------------------------------------------------------------
# operator assembly


@functools.lru_cache(maxsize=None)
def _energy_tables(kind: ModelKind, R: int):
    """Code bits and per-shell row tables of an energy kind, shared read-only.
    Bit j of row i's code, (name, o1) = bits[j], is set when atom i - o1 lies
    in that anchor set. bands[r-1, code] and gweights[r-1, code] are shell r's
    band row and gradient weight: sums of products of small integers and
    halves, exact in any order, so each row has the bits of a scatter."""
    spec = _term_spec(kind, R)
    bits = sorted({(g.anchors, o1) for g in spec if g.anchors for o1, _ in g.pattern})
    codes = np.arange(2 ** len(bits))
    bands, gweights = np.zeros((R, len(codes), 2 * R + 1)), np.zeros((R, len(codes)))
    for g in spec:
        for o1, c1 in g.pattern:
            at = 1 if g.anchors is None else (codes >> bits.index((g.anchors, o1))) & 1
            gweights[g.shell - 1] += at * (g.weight * c1)
            for o2, c2 in g.pattern:
                bands[g.shell - 1, :, R + o2 - o1] += at * (g.weight * c1 * c2)
    bands.flags.writeable = gweights.flags.writeable = False
    return bits, bands, gweights


def _row_codes(kind: ModelKind, bits, mask) -> np.ndarray:
    """Each row's `_energy_tables` code (at most 8 bits), read through one
    window per offset of each anchor indicator, padded with its wrapped ends."""
    N = len(mask)
    lo, hi = max(0, *(o for _, o in bits)), max(0, *(-o for _, o in bits))
    padded = {name: wrap_pad(ind, lo, hi).view(np.uint8)
              for name, ind in _anchor_sets(kind, mask).items()}
    code = np.zeros(N, np.uint8)
    for j, (name, o1) in enumerate(bits):
        code |= padded[name][lo - o1:lo - o1 + N] << j
    return code


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
    The moduli are combined on the kind's row table, then gathered by code.
    """
    kind = ModelKind(kind)
    N, R = config.N, config.R
    second = [float(x) for x in second_derivs]
    first = [0.0] * R if first_derivs is None else [float(x) for x in first_derivs]
    if len(second) != R or len(first) != R:
        raise ValueError(f"need one modulus per shell r=1..{R}")

    code = None
    if kind in COUPLED:
        regions = classify(_coupled_partition(kind, config, partition), config)
        code = regions.in_atomistic.view(np.uint8)
    if kind in ENERGY_BASED:
        bits, bands, gweights = _energy_tables(kind, R)
        code = _row_codes(kind, bits, regions.in_atomistic) if bits else None
        table, gtable = np.zeros(bands.shape[1:]), np.zeros(gweights.shape[1:])
        for r in range(R):
            table += second[r] * bands[r]
            gtable += first[r] * gweights[r]
        gtable /= config.epsilon
    else:
        # QCF and CUSTOM: L1 everywhere plus the native L2 row of each atom's
        # region (code 0 continuum, 1 atomistic); CUSTOM widens the band and
        # codes each block row beside a CA cut, then beside an AC cut.
        K = 2
        if kind is ModelKind.CUSTOM:
            if stencil is None:
                raise ValueError("custom model requires an InterfaceStencil")
            m = partition.interface_width_m
            if stencil.m != m:
                raise ValueError(f"stencil block is {stencil.m}x{stencil.m} but partition has m={m}")
            K = max(2, m + 1)
            if K > N:  # only without interfaces: classify fits every block in the ring
                raise ValueError(f"custom block of width m={m} needs a band of half-width {K}, "
                                 f"which wraps the ring of N={N} atoms more than once")
        l2 = [_stencil_row(CONT_L2, K), _stencil_row(ATOM_L2, K)]
        if kind is ModelKind.CUSTOM:
            # block row i reads continuum values at j < 1, the block at
            # 1 <= j <= m and atomistic values at j > m (j = -1 .. m+2)
            i, js = np.arange(1, m + 1)[:, None], np.arange(-1, m + 3)
            coeffs = np.where(js < 1, l2[0][K + js - i], l2[1][K + js - i])
            coeffs[:, 2:m + 2] = stencil.block
            rows = np.zeros((2, m, 2 * K + 1))
            for side, direction in enumerate((1, -1)):
                rows[side, i - 1, K + direction * (js - i)] += coeffs
            l2 += list(rows.reshape(2 * m, 2 * K + 1))
            if m == 1:  # codes 4 (CA) and 5 (AC): the continuum atom before the block
                # reads the atomistic atom after it as that one reads it back
                l2 += [l2[0] + _stencil_row({0: 1, 2: -1}, K)[::d] for d in (1, -1)]
            code = code.astype(np.min_scalar_type(len(l2) - 1))
            for b, cut in regions.boundaries:
                atoms = block_atoms((b, cut), m, N)
                if m == 1:
                    code[(atoms[0] - 2 if cut == "CA" else atoms[0]) % N] = 4 + (cut == "AC")
                code[atoms - 1] = np.arange(2, m + 2) + m * (cut == "AC")
        table = second[0] * _stencil_row(L1_ROW, K) + second[1] * np.array(l2)
        gtable = np.zeros(len(table))
    if code is None:
        band, ghost = np.broadcast_to(table[0], (N, table.shape[1])), np.full(N, gtable[0])
    else:
        band, ghost = np.take(np.ascontiguousarray(table.T), code, axis=1).T, gtable[code]
    return LinearChainOperator(config, kind, band, ghost)


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


def _moment_defect(moments: np.ndarray, band: np.ndarray):
    """(max |moment|, whether it vanishes) for per-row moments of the band,
    sum_k k^p b_k, or its transpose gaps, in eps^2 stencil units. They vanish when max |moment| <=
    ROW_SUM_RTOL * max |band entry|; a NaN or infinite entry never does."""
    defect = float(np.abs(moments).max())
    scale = max(float(band.max()), -float(band.min()))  # max |entry|, no temporary
    return defect, defect <= ROW_SUM_RTOL * scale < math.inf


def _constants_defect(op: LinearChainOperator):
    """(max |row sum|, whether the band annihilates constants), by
    `_moment_defect` of the row sums of the band's distinct rows."""
    band = _distinct_rows(op.band)
    return _moment_defect(_row_sums(band), band)


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
    """A[i, i+k] - A[i+k, i] in eps^2 units for k = 0..K, one array per k,
    computed as each is asked for: row i+k holds A[i+k, i] at offset -k, a
    window of the wrapped column; a broadcast band gives its one row's gaps.
    Every pair is visited once; k = 0 pairs the diagonal with itself, so a
    NaN anywhere in the band shows as a NaN gap."""
    band = _distinct_rows(band)
    N, K = band.shape[0], (band.shape[1] - 1) // 2
    return (band[:, K + k] - wrap_pad(band[:, K - k], 0, k % N)[k % N:] for k in range(K + 1))


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
