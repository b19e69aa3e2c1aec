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

An operator is assembled from a small table of the kind's distinct rows and
a per-atom code into it, and stores its runs: the atoms where the code
changes to another row, and each run's row; no (N, 2K+1) band is formed.
An energy kind's code has one bit per anchored bond-term group that can
reach the row; QCF codes each atom's region, and CUSTOM adds a code per
block row. A coupled band is O(m) runs (one for the translation-invariant
kinds), so every check of row facts (row sums, max |entry|, transpose gaps,
first moments, bound_C) costs O(runs), and one kernel, `_runs_apply`,
applies the operator (and sums its products' magnitudes on request) and its
strain form. It, the row codes and the bond arguments read neighbours as
windows of one `chain.wrap_pad` padding; an anchored bond-term group holds
its anchor set as a boolean mask, read through windows.
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
from .regions import RegionPartition, classify, membership_mask


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
        if not np.isfinite(blk).all():
            i, j = np.argwhere(~np.isfinite(blk))[0]
            raise ValueError(f"interface stencil block is not finite at row {i + 1}, "
                             f"column {j + 1}: {blk[i, j]}")
        if not np.array_equal(blk, blk.T):
            raise ValueError("interface stencil block must be exactly symmetric")
        blk.flags.writeable = False
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "block", blk)


class _Runs(NamedTuple):
    """An operator's runs of identical rows: run j covers the lengths[j]
    (0-based) atoms from starts[j] (starts[0] = 0), and each of its rows is
    rows[j] (read-only); they cover the N atoms of the ring."""

    starts: np.ndarray
    lengths: np.ndarray
    rows: np.ndarray
    N: int

    def of(self, atoms):  # the run of each 0-based atom, taken mod N
        return np.searchsorted(self.starts, atoms % self.N, "right") - 1


def _runs(starts: np.ndarray, rows: np.ndarray, N: int) -> _Runs:
    """The runs of candidate starts and their rows: a candidate whose row is
    bit for bit the one before (-0.0 is not 0.0; a NaN row is its copy)
    joins that run."""
    bits = rows.view(np.uint64)
    new = np.concatenate(([True], (bits[1:] != bits[:-1]).any(axis=1)))
    rows, starts = rows[new], starts[new]
    rows.flags.writeable = False
    return _Runs(starts, np.concatenate((starts[1:], [N])) - starts, rows, N)


def _band_runs(band: np.ndarray) -> _Runs:
    """The runs of an (N, 2K+1) band by one compare pass, a broadcast band
    being one run. Raises ValueError for K > N (the ring wrapped twice)."""
    band = np.asarray(band, dtype=float)
    N, width = band.shape
    if width > 2 * N + 1:
        raise ValueError(f"band of width {width} (offsets {-(width // 2)}..{width // 2}) "
                         f"wraps the ring of N={N} atoms more than once")
    starts = np.zeros(1, np.intp) if band.strides[0] == 0 else np.arange(N)
    return _runs(starts, band[:len(starts)], N)


def _band_of(op) -> np.ndarray:
    """op's (N, width) band, made from its runs: one broadcast row for one
    run, else column-major; read-only."""
    starts, lengths, rows, N = op.runs
    if len(starts) == 1:
        return np.broadcast_to(rows[0], (N, rows.shape[1]))
    band = np.repeat(rows.T, lengths, axis=1).T
    band.flags.writeable = False
    return band


@dataclass(frozen=True)
class LinearChainOperator:
    """Row-stencil operator (L u)_i = (1/eps^2) sum_k band[i, K+k] u_{i+k} + ghost_i.

    band rows are eps^2-scaled and indexed by offset k in -K..K; ghost is the
    affine term at u = 0 in force units. The operator holds its runs, which
    every kernel and check reads, and makes `band` from them on first use; a
    hand-built (N, 2K+1) band passed in place of the runs is converted once
    (`_band_runs`). Runs, band and ghost are read-only; assembly stores a
    ghost of one value (every kind but QCE with phi'(rF) != 0) broadcast.
    """

    config: ChainConfig
    kind: ModelKind
    runs: _Runs
    ghost: np.ndarray

    def __post_init__(self):
        if not isinstance(self.runs, _Runs):
            object.__setattr__(self, "runs", _band_runs(self.runs))
        self.ghost.flags.writeable = False

    band = functools.cached_property(_band_of)  # made on first use, then an attribute

    @property
    def half_width(self) -> int:
        return (self.runs.rows.shape[1] - 1) // 2

    def row(self, i: int):
        """Offsets and eps^2-unit coefficients of the stencil at atom i (1-based)."""
        K = self.half_width
        return np.arange(-K, K + 1), self.runs.rows[self.runs.of(i - 1)]

    def row_sums(self) -> np.ndarray:
        return np.repeat(_row_sums(self.runs.rows), self.runs.lengths)

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
    """Apply the affine operator: linear part plus ghost field; u is a
    PeriodicField or an array-like of N values."""
    v = u.values if isinstance(u, PeriodicField) else np.asarray(u, dtype=float)
    out = apply_linear(op, v) + op.ghost
    if isinstance(u, PeriodicField):
        return PeriodicField(u.config, out)
    return out


def apply_linear(op: LinearChainOperator, v: np.ndarray) -> np.ndarray:
    """Linear part only, on a raw value array."""
    out = _runs_apply(op.runs, -op.half_width, v)
    out /= op.config.epsilon**2
    return out


def _row_sums(band: np.ndarray) -> np.ndarray:
    # column by column, in less than half the time of band.sum(axis=1);
    # the bits agree up to width 7 (numpy regroups wider rows pairwise)
    out = band[:, 0].copy()
    for c in range(1, band.shape[1]):
        out += band[:, c]
    return out


@functools.lru_cache(maxsize=64)
def _run_pairs(K: int):  # atoms s - K..s + K; the pairs' places in them, K - j and
    # K - j + k for j <= k <= K, and columns K + k and K - k
    j, k = np.array([(j, k) for k in range(K + 1) for j in range(k + 1)]).T
    return np.arange(-K, K + 1), K - j, K - j + k, K + k, K - k


def _transpose_gap(runs: _Runs) -> float:
    """max |A[i, i+k] - A[i+k, i]| over k = 0..K (eps^2 units) by one gather
    of the pairs at i = s - j, j <= k, per run start s, each row looked up by
    its run: pairs inside a run share the gap at s, so every entry is
    paired, and a NaN gives a NaN."""
    window, at, partner, ahead, behind = _run_pairs((runs.rows.shape[1] - 1) // 2)
    run = runs.of(runs.starts[:, None] + window)
    return float(np.abs(runs.rows[run[:, at], ahead] - runs.rows[run[:, partner], behind]).max())


# Runs of _LONG_RUN atoms or more are applied one at a time in blocks of at
# most _BLOCK atoms, whose windows stay in a core's L2 cache across the
# columns; shorter runs (interface rows) share one gather.
_LONG_RUN, _BLOCK = 256, 2**15


def _runs_apply(runs: _Runs, first_offset: int, v, floor: bool = False):
    """Periodic band product of runs: out_i = sum_c row_i[c] v[(i + first_offset + c)
    mod N] with row_i the row of atom i's run; with floor, (out, mag) where
    mag_i = sum_c |row_i[c] v[...]| (eps^2 |A| |v| for an operator) is summed
    from the same products, since |x v| is |x| |v| bit for bit in IEEE
    arithmetic.

    v is padded once by `chain.wrap_pad`, so a block a..b-1 of a long run
    multiplies the window vp[a+c : b+c] by the run's coefficient c into one
    product buffer; the atoms of short runs are gathered once. Each sum
    starts from zeros and adds the columns in order: the bits of one np.roll
    per offset on the band, where a -0.0 coefficient adds as 0.0 does. At
    N = 2^18 (one Intel Xeon core, best of 40) a QNL or QCF operator takes
    1.1-1.2 ms, against 2.6-2.8 ms for the column-by-column product of its
    band that this kernel replaced.
    """
    starts, lengths, rows, N = runs
    if len(v) != N:
        raise ValueError("field length does not match operator size")
    width = rows.shape[1]
    vp = wrap_pad(v, -first_offset, first_offset + width - 1)
    out, mag = np.zeros(N), (np.zeros(N) if floor else None)
    long = lengths >= _LONG_RUN
    if long.any():
        prod = np.empty(min(_BLOCK, int(lengths.max())))
        for s, n, row in zip(starts[long].tolist(), lengths[long].tolist(), rows[long].tolist()):
            for a in range(s, s + n, _BLOCK):
                b = min(a + _BLOCK, s + n)
                o, p, m = out[a:b], prod[:b - a], mag[a:b] if floor else None
                for c, x in enumerate(row):
                    o += np.multiply(vp[a + c:b + c], x, out=p)
                    if floor:
                        m += np.abs(p, out=p)
    if not long.all():
        n = lengths[~long]
        atoms = np.repeat(starts[~long] - np.cumsum(n) + n, n) + np.arange(n.sum())
        prods = np.repeat(rows[~long].T, n, axis=1)
        prods *= vp[atoms + np.arange(width)[:, None]]
        for total in (out, mag)[:1 + floor]:
            acc = np.zeros(len(atoms))
            for c in range(width):
                acc += prods[c]
            total[atoms] = acc
            np.abs(prods, out=prods)
    return (out, mag) if floor else out


# ---------------------------------------------------------------------------
# bond-term tables for the energy-based kinds


class _TermGroup(NamedTuple):
    shell: int            # neighbor distance r; bond argument is r F + g.u/eps
    anchors: object       # None for every atom, else the name of an
                          # `_anchor_sets` mask, read through windows
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


def _bond_arguments(kind, config: ChainConfig, potential, u: PeriodicField, partition):
    """Each bond-term group of an energy-based kind with its anchor mask (None
    for every atom) and its anchors' arguments rF + g.u/eps. Every group reads
    one window per pattern offset of u padded by R wrapped values and keeps
    its anchors' arguments by the mask. Raises ValueError for a field of
    another size, and naming the first singular bond argument."""
    kind = ModelKind(kind)
    if kind not in ENERGY_BASED:
        raise ValueError(f"{kind.value} does not derive from an energy")
    N, R = config.N, config.R
    if len(u.values) != N:
        raise ValueError(f"field has {len(u.values)} values but the chain has N={N} atoms")
    sets = {}
    if kind in COUPLED:
        mask = membership_mask(_coupled_partition(kind, config, partition), config)
        sets = _anchor_sets(kind, mask)
    vp = wrap_pad(u.values, R, R)
    for g in _term_spec(kind, R):
        s = np.zeros(N)
        for off, c in g.pattern:
            s += c * vp[R + off:R + off + N]
        args = g.shell * config.F + s / config.epsilon
        at = sets.get(g.anchors)
        if at is not None:
            args = args[at]
        bad = np.flatnonzero(singular(potential, args))
        if bad.size:
            first = bad[0]
            atom = first if at is None else np.flatnonzero(at)[first]
            raise ValueError(
                f"{potential.kind} is singular at bond argument s = {float(args[first])!r}: "
                f"{kind.value} bond of shell r={g.shell} anchored at atom {atom + 1}"
            )
        yield g, at, args


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
    for g, _, args in _bond_arguments(kind, config, potential, u, partition):
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
    for g, at, args in _bond_arguments(kind, config, potential, u, partition):
        dphi = np.asarray(evaluate(potential, args, 1))
        if at is not None:  # the anchors' derivatives in a zero field
            dphi, anchored = np.zeros(N), dphi
            dphi[at] = anchored
        for off, c in g.pattern:  # grad[(i + off) mod N] += term[i], split at the wrap
            term, w = g.weight * c * dphi, off % N
            grad[w:] += term[:N - w]
            grad[:w] += term[N - w:]
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
    The moduli are combined on the kind's row table, and the operator's runs
    are read off the per-atom code: no band is formed. Raises ValueError
    naming the shell of a modulus that is not finite.
    """
    kind = ModelKind(kind)
    N, R = config.N, config.R
    second = [float(x) for x in second_derivs]
    first = [0.0] * R if first_derivs is None else [float(x) for x in first_derivs]
    if len(second) != R or len(first) != R:
        raise ValueError(f"need one modulus per shell r=1..{R}")
    for name, moduli in (("phi''(rF)", second), ("phi'(rF)", first)):
        for r, x in enumerate(moduli, 1):
            if not math.isfinite(x):
                raise ValueError(f"modulus {name} of shell r={r} is not finite: {x}")

    code = np.zeros(1, np.uint8)  # one row for every atom, unless the kind codes its atoms
    if kind in COUPLED:
        regions = classify(_coupled_partition(kind, config, partition), config)
        code = regions.in_atomistic.view(np.uint8)
    if kind in ENERGY_BASED:
        bits, bands, gweights = _energy_tables(kind, R)
        code = _row_codes(kind, bits, regions.in_atomistic) if bits else code
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
            ac = np.array([cut == "AC" for _, cut in regions.boundaries], dtype=bool)
            if m == 1:  # the continuum neighbour sits before a CA block, after an AC one
                code[(regions.blocks[:, 0] - 1 + np.where(ac, 1, -1)) % N] = 4 + ac
            code[regions.blocks - 1] = np.arange(2, m + 2) + m * ac[:, None]
        table = second[0] * _stencil_row(L1_ROW, K) + second[1] * np.array(l2)
        gtable = np.zeros(len(table))
    # a run can start only at atom 1 and where the code changes
    starts = np.concatenate(([0], (code[1:] != code[:-1]).nonzero()[0] + 1))
    gbits = gtable[code[starts]].view(np.uint64)  # one ghost value, bit for bit: broadcast
    ghost = np.broadcast_to(gtable[code[0]], (N,)) if (gbits == gbits[0]).all() else gtable[code]
    return LinearChainOperator(config, kind, _runs(starts, table[code[starts]], N), ghost)


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

    runs hold the rows of eps*Ltilde at strain offsets 1-K..K, on the
    operator's run starts, and `band` is made from them on first use, as
    the operator's is; bound_C is the maximal row l1 norm, giving
    ||L v||_inf <= (bound_C / eps) ||D v||_inf.
    """

    config: ChainConfig
    runs: _Runs
    bound_C: float

    band = functools.cached_property(_band_of)

    @property
    def offsets(self) -> np.ndarray:
        K = self.runs.rows.shape[1] // 2
        return np.arange(1 - K, K + 1)

    def apply_strain(self, du):
        v = du.values if isinstance(du, PeriodicField) else np.asarray(du, float)
        out = _runs_apply(self.runs, 1 - self.runs.rows.shape[1] // 2, v)
        out /= self.config.epsilon
        if isinstance(du, PeriodicField):
            return PeriodicField(du.config, out)
        return out


def _telescope(band: np.ndarray) -> np.ndarray:
    """Strain rows, column-major in offset order 1-K..K, of zero-row-sum band
    rows: the coefficient of (Du)_{i+k} collects the stencil weight that
    telescopes across the bond (i+k-1, i+k), minus the sum of offsets below
    k for k <= 0, the sum of offsets k..K for k >= 1."""
    n, K = band.shape[0], (band.shape[1] - 1) // 2
    strain = np.empty((n, 2 * K), order="F")
    below = above = 0.0  # running sums from the two ends of the stencil
    for c in range(K):
        below = np.subtract(below, band[:, c], out=strain[:, c])  # k = c+1-K
        above = np.add(above, band[:, 2 * K - c], out=strain[:, 2 * K - 1 - c])  # k = K-c
    return strain


def _bound_C(band: np.ndarray) -> float:
    """bound_C, the largest row l1 norm of the band's strain rows, summed
    column by column as in row_sums; the run rows give the band's."""
    strain = _telescope(band)
    row_l1, magnitude = np.abs(strain[:, 0]), np.empty(len(strain))
    for j in range(1, strain.shape[1]):
        row_l1 += np.abs(strain[:, j], out=magnitude)
    return float(row_l1.max())


def _moment_defect(moments, rows: np.ndarray):
    """(max |moment|, whether it vanishes) for per-row moments of a band,
    sum_k k^p b_k, or its transpose gap, in eps^2 stencil units, where rows
    are the operator's run rows (`_Runs`). They vanish when max |moment| <=
    ROW_SUM_RTOL * max |band entry|; a NaN or infinite entry never does."""
    defect = float(np.abs(moments).max())
    scale = max(float(rows.max()), -float(rows.min()))  # max |entry|, no temporary
    return defect, defect <= ROW_SUM_RTOL * scale < math.inf


def _constants_defect(op: LinearChainOperator):
    """(max |row sum|, whether the band annihilates constants), by
    `_moment_defect` of the row sums of the band's run rows."""
    rows = op.runs.rows
    return _moment_defect(_row_sums(rows), rows)


def to_strain_form(op: LinearChainOperator) -> StrainFormOperator:
    """Rewrite L in terms of backward differences via telescoping.

    Requires zero row sums (shift invariance, the solver's test) and a zero
    ghost field; a NaN ghost entry is refused too. The strain rows are
    telescoped from the operator's run rows, on its run starts.
    """
    if not _constants_defect(op)[1]:
        raise ValueError("operator has nonzero row sums; no strain form exists")
    if not np.abs(op.ghost).max() <= STRAIN_FORM_TOL:
        raise ValueError("operator has a ghost field; no strain form exists")
    strain = _telescope(op.runs.rows)
    strain.flags.writeable = False
    return StrainFormOperator(op.config, op.runs._replace(rows=strain), _bound_C(op.runs.rows))


def symmetry_defect(op: LinearChainOperator) -> float:
    """max |L_ij - L_ji| over the dense realization (computed from the
    operator's runs, `_transpose_gap`); NaN when the band holds a NaN."""
    return _transpose_gap(op.runs) / op.config.epsilon**2


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
