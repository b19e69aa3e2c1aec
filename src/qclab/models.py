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
force-based QCF and the parametric interface-stencil model carry no energy:
they read the pure rows off the atomistic and continuum tables (`_pure_rows`).

An operator is assembled from a small table of the kind's distinct rows and
a per-atom code into it, and stores its runs: the atoms where the code
changes to another row, and each run's row; no (N, 2K+1) band is formed.
An energy kind's code has one bit per offset at which an anchored bond-term
group reaches the row from the kind's anchor indicator; QCF codes each
atom's region, and CUSTOM adds a code per block row. A coupled band is O(m)
runs (one for the translation-invariant kinds), so every check of row facts
(row sums, max |entry|, transpose gaps, first moments, bound_C) costs
O(runs), and one kernel, `_runs_apply`, applies the operator (and sums its
products' magnitudes on request) and its strain form. It, the row codes and
the bond arguments read neighbours as windows of one `chain.wrap_pad` padding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .chain import ChainConfig, PeriodicField, _integer, wrap_pad
from .potentials import PairPotential, _finite_step, evaluate, singular
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

# Largest |ghost| (force units) for which an operator still has a strain form,
# and largest max |row sum| / max |entry| of a band that annihilates constants.
STRAIN_FORM_TOL = 1e-12
ROW_SUM_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class InterfaceStencil:
    """Symmetric m x m block of second-neighbor interface coefficients."""

    m: int
    block: np.ndarray

    def __init__(self, m: int, block):
        if (m := _integer("m", m)) < 1:
            raise ValueError(f"m must be positive, got {m}")
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
        object.__setattr__(self, "m", m)
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


@dataclass(frozen=True, eq=False)
class LinearChainOperator:
    """Row-stencil operator (L u)_i = (1/eps^2) sum_k band[i, K+k] u_{i+k} + ghost_i.

    band rows are eps^2-scaled and indexed by offset k in -K..K; ghost is the
    affine term at u = 0 in force units. The operator holds its runs, which
    every kernel and check reads, and makes `band` from them on first use; a
    hand-built (N, 2K+1) band passed in place of the runs is converted once
    (`_band_runs`). Runs, band and ghost are read-only; assembly stores a
    ghost of one value (every kind but QCE with phi'(rF) != 0) as a stride-0 view.
    """

    config: ChainConfig
    kind: ModelKind
    runs: _Runs
    ghost: np.ndarray

    def __post_init__(self):
        if not isinstance(self.runs, _Runs):
            object.__setattr__(self, "runs", _band_runs(self.runs))
        N, shape = self.config.N, (self.runs.N, self.runs.rows.shape[1])
        if shape[0] != N or shape[1] % 2 == 0:
            raise ValueError(f"band of shape {shape} does not fit the chain: expected ({N}, 2K+1)")
        if self.ghost.shape != (N,):
            raise ValueError(f"ghost of shape {self.ghost.shape} does not fit the chain: "
                             f"expected ({N},)")
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
        return np.repeat(_run_moments(self.runs.rows, 0)[0], self.runs.lengths)

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


def _field_values(config: ChainConfig, u) -> np.ndarray:
    """The values of u, a PeriodicField on config's chain or an array-like;
    raises ValueError for a field of another chain, naming both."""
    if not isinstance(u, PeriodicField):
        return np.asarray(u, dtype=float)
    if u.config != config:
        raise ValueError(f"operator and field live on different chains: {config} and {u.config}")
    return u.values


def apply(op: LinearChainOperator, u):
    """Apply the affine operator: linear part plus ghost field; u is a
    PeriodicField on op's chain or an array-like of N values."""
    out = apply_linear(op, _field_values(op.config, u)) + op.ghost
    if isinstance(u, PeriodicField):
        return PeriodicField(op.config, out)
    return out


def apply_linear(op: LinearChainOperator, v: np.ndarray) -> np.ndarray:
    """Linear part only, on a raw value array."""
    out = _runs_apply(op.runs, v)
    out /= op.config.epsilon**2
    return out


def _run_moments(rows: np.ndarray, q_max: int) -> np.ndarray:
    """(q_max + 1, n) offset moments M_q = sum_k rows[:, K+k] k^q of n band
    rows, float or exact (Fractions), added column by column: M_0 has the bits
    of rows.sum(axis=1) up to width 7 (numpy regroups wider rows pairwise)."""
    terms = rows.T[:, None]  # (2K+1, 1, n), offset by offset
    if q_max:
        K = (rows.shape[1] - 1) // 2
        terms = terms * (np.arange(-K, K + 1)[:, None] ** np.arange(q_max + 1))[:, :, None]
    return functools.reduce(np.add, terms)


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


# Runs of _LONG_RUN atoms or more are applied one at a time; shorter runs
# (interface rows) share one gather.
_LONG_RUN = 256


def _runs_apply(runs: _Runs, v, floor: bool = False):
    """Periodic band product of runs: out_i = sum_c row_i[c] v[(i - h + c) mod N],
    row_i the row of atom i's run and h = (width - 1) // 2: K for an operator's
    2K + 1 columns, K - 1 for a strain form's 2K. With floor, (out, mag) where
    mag_i = sum_c |row_i[c] v[...]| (eps^2 |A| |v| for an operator) is summed
    from the same products, since |x v| is |x| |v| bit for bit in IEEE
    arithmetic.

    v is padded once by `chain.wrap_pad`, so a long run s..s+n-1 multiplies
    the window vp[s+c : s+n+c] by the run's coefficient c into one product
    buffer; the atoms of short runs are gathered once. Each sum starts from
    zeros and adds the columns in order: the bits of one np.roll per offset
    on the band, where a -0.0 coefficient adds as 0.0 does.
    """
    starts, lengths, rows, N = runs
    if len(v) != N:
        raise ValueError("field length does not match operator size")
    width = rows.shape[1]
    h = (width - 1) // 2
    vp = wrap_pad(v, h, width - 1 - h)
    out, mag = np.zeros(N), (np.zeros(N) if floor else None)
    long = lengths >= _LONG_RUN
    if long.any():
        prod = np.empty(int(lengths.max()))
        for s, n, row in zip(starts[long].tolist(), lengths[long].tolist(), rows[long].tolist()):
            o, p, m = out[s:s + n], prod[:n], mag[s:s + n] if floor else None
            for c, x in enumerate(row):
                o += np.multiply(vp[s + c:s + n + c], x, out=p)
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
    anchors: object       # None for every atom, True for the atoms on the
                          # kind's `_indicator`, False for those off it
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
    """Bond-term groups of an energy-based kind (its callers refuse any
    other), anchored on every atom (None), or on the atoms on (True) or off
    (False) the kind's `_indicator`."""
    G = _TermGroup
    if kind is ModelKind.ATOMISTIC:
        return tuple(G(r, None, ((0, 1.0), (-r, -1.0)), 1.0) for r in range(1, R + 1))
    if kind is ModelKind.CONTINUUM:
        return tuple(G(r, None, ((0, float(r)), (-1, -float(r))), 1.0) for r in range(1, R + 1))
    if kind is ModelKind.QCE:
        # Per-atom energies, half of each incident bond; continuum atoms use
        # nearest-neighbor strains (Cauchy-Born) for both shells.
        return tuple(g for r, fr in ((1, 1.0), (2, 2.0)) for g in (
            G(r, True, ((0, 1.0), (-r, -1.0)), 0.5), G(r, True, ((r, 1.0), (0, -1.0)), 0.5),
            G(r, False, ((0, fr), (-1, -fr)), 0.5), G(r, False, ((1, fr), (0, -fr)), 0.5),
        ))
    # QNL: first neighbors atomistic everywhere; the second-neighbor pair
    # (i-2, i) is an atomistic bond when either endpoint is in A, else it is
    # split into the two overlapping nearest-neighbor halves.
    return (G(1, None, ((0, 1.0), (-1, -1.0)), 1.0), G(2, True, ((0, 1.0), (-2, -1.0)), 1.0),
            G(2, False, ((-1, 2.0), (-2, -2.0)), 0.5), G(2, False, ((0, 2.0), (-1, -2.0)), 0.5))


def _indicator(kind: ModelKind, mask) -> np.ndarray:
    """The anchor indicator of QCE (the atoms of region A) or QNL (the atoms
    i whose pair (i-2, i) is atomistic, an end in A) from the membership mask."""
    if kind is ModelKind.QCE:
        return mask
    return mask | wrap_pad(mask, 2, 0)[:len(mask)]  # membership of atom i-2


@functools.lru_cache(maxsize=None)
def _shared_terms(kind: ModelKind, R: int) -> tuple:
    """`_term_spec`'s distinct bond arguments (shell, pattern shifted to start
    at offset 0) and its groups as (g, index of g's argument, d): g's argument
    at atom i is that argument's at i + d, d being g's first offset."""
    spec = _term_spec(kind, R)
    shifted = [(g.shell, tuple((o - g.pattern[0][0], c) for o, c in g.pattern)) for g in spec]
    keys = tuple(dict.fromkeys(shifted))  # in order of first use
    return keys, tuple((g, keys.index(key), g.pattern[0][0]) for g, key in zip(spec, shifted))


def _bond_terms(kind, config: ChainConfig, potential, u: PeriodicField, partition, order):
    """Each bond-term group g of an energy-based kind as (g, d, phi, at): phi^(order) of its
    `_shared_terms` argument rF + g.u/eps at j = -R..N+R-1, wrapped (one `evaluate` per
    argument), and g's anchor mask (the kind's `_indicator`, its complement, or None for
    every atom) at atoms j - d; atom i reads entry R + d + i. Raises ValueError for a field
    of another size or not finite (at its first such atom), and naming the first group and
    anchor that read a singular argument; other errors pass, and no unread one is refused."""
    kind = ModelKind(kind)
    if kind not in ENERGY_BASED:
        raise ValueError(f"{kind.value} does not derive from an energy")
    N, R = config.N, config.R
    if len(u.values) != N:
        raise ValueError(f"field has {len(u.values)} values but the chain has N={N} atoms")
    if not math.isfinite(max(float(u.values.max()), -float(u.values.min()))):  # NaN or inf
        i = int(np.argmin(np.isfinite(u.values)))
        raise ValueError(f"field is not finite at atom {i + 1}: {u.values[i]}")
    keys, groups = _shared_terms(kind, R)
    if kind in COUPLED:
        ind = _indicator(kind, membership_mask(_coupled_partition(kind, config, partition), config))
        ind = wrap_pad(ind, 2 * R, 2 * R)
        masks = (~ind, ind)
    vp, phis = wrap_pad(u.values, 2 * R, 2 * R), []
    args = [shell * config.F + sum(c * vp[R + o:N + 3 * R + o] for o, c in pattern) / config.epsilon
            for shell, pattern in keys]  # each sum from 0 and in pattern order
    views = [(g, k, d, None if g.anchors is None else masks[g.anchors][R - d:N + 3 * R - d])
             for g, k, d in groups]
    for k, arg in enumerate(args):
        try:
            phis.append(evaluate(potential, arg, order))
        except ValueError:
            bad = [singular(potential, x) for x in args]
            if not bad[k].any():
                raise
            for g, kk, d, at in views:
                w = slice(R + d, R + d + N)
                if (reads := bad[kk][w] & (True if at is None else at[w])).any():
                    i = int(reads.argmax())
                    raise ValueError(f"{potential.kind} is singular at bond argument s = "
                                     f"{float(args[kk][w][i])!r}: {kind.value} bond of shell "
                                     f"r={g.shell} anchored at atom {i + 1}") from None
            phis.append(evaluate(potential, np.where(bad[k], 1.0, arg), order))  # read by no group
    return [(g, d, phis[k], at) for g, k, d, at in views]


def total_energy(kind: ModelKind, config: ChainConfig, potential: PairPotential,
                 u: PeriodicField, partition: RegionPartition | None = None) -> float:
    """Scaled total energy sum_terms w * eps * phi(rF + strain), by group in atom order."""
    N, R, eps = config.N, config.R, config.epsilon
    total = 0.0
    for g, d, phi, at in _bond_terms(kind, config, potential, u, partition, 0):
        w = slice(R + d, R + d + N)
        total += g.weight * eps * float((phi[w] if at is None else phi[w][at[w]]).sum())
    return total


def energy_gradient(kind: ModelKind, config: ChainConfig, potential: PairPotential,
                    u: PeriodicField, partition: RegionPartition | None = None) -> np.ndarray:
    """Scaled gradient (1/eps) dE/du as a raw array; at u = 0 this is the ghost field.
    A group's terms w c phi', zero off its anchors, add at each pattern offset as one
    window; every pattern is ((d, c), (o, -c)), so o subtracts them (the same bits)."""
    N, R = config.N, config.R
    grad = np.zeros(N)
    for g, d, dphi, at in _bond_terms(kind, config, potential, u, partition, 1):
        (_, c), (o, _) = g.pattern
        term = dphi * (g.weight * c) if at is None else \
            np.multiply(dphi, g.weight * c, out=np.zeros(N + 2 * R), where=at)
        grad += term[R:R + N]
        grad -= term[R + d - o:R + d - o + N]
    return grad / config.epsilon


# ---------------------------------------------------------------------------
# operator assembly


@functools.lru_cache(maxsize=None)
def _energy_tables(kind: ModelKind, R: int):
    """Code bits and per-shell row tables of an energy kind, shared read-only.
    Bit j of row i's code, o1 = bits[j], is set when atom i - o1 lies on the
    kind's `_indicator` (QCE: offsets -2..2, QNL: -2..0). bands[r-1, code]
    and gweights[r-1, code] are shell r's band row and gradient weight: sums
    of products of small integers and halves, exact in any order, so each
    row has the bits of a scatter. The pure rows are read off them (`_pure_rows`)."""
    spec = _term_spec(kind, R)
    bits = sorted({o1 for g in spec if g.anchors is not None for o1, _ in g.pattern})
    codes = np.arange(2 ** len(bits))
    bands, gweights = np.zeros((R, len(codes), 2 * R + 1)), np.zeros((R, len(codes)))
    for g in spec:
        for o1, c1 in g.pattern:
            at = 1 if g.anchors is None else (codes >> bits.index(o1)) & 1 == g.anchors
            gweights[g.shell - 1] += at * (g.weight * c1)
            for o2, c2 in g.pattern:
                bands[g.shell - 1, :, R + o2 - o1] += at * (g.weight * c1 * c2)
    bands.flags.writeable = gweights.flags.writeable = False
    return bits, bands, gweights


def _row_codes(kind: ModelKind, bits, mask) -> np.ndarray:
    """Each row's `_energy_tables` code (at most 5 bits), read through one
    window per offset of the kind's `_indicator`, padded with its wrapped ends."""
    N = len(mask)
    lo, hi = max(0, *bits), max(0, *(-o for o in bits))
    padded = wrap_pad(_indicator(kind, mask), lo, hi).view(np.uint8)
    code = np.zeros(N, np.uint8)
    for j, o1 in enumerate(bits):
        code |= padded[lo - o1:lo - o1 + N] << j
    return code


def _pure_rows(K: int) -> np.ndarray:
    """The first-neighbor row (L1 u)_j = -eps^2 D^2 u_j and the pure continuum and
    atomistic L2 rows as rows of a half-width-K >= 2 band: the shells of the R = 2
    atomistic and continuum `_energy_tables` at code 0, the rows the energies assemble."""
    rows, atom = np.zeros((3, 2 * K + 1)), _energy_tables(ModelKind.ATOMISTIC, 2)[1]
    rows[:, K - 2:K + 3] = atom[0, 0], _energy_tables(ModelKind.CONTINUUM, 2)[1][1, 0], atom[1, 0]
    return rows


def _block_frame(m: int):
    """An m-atom interface block's rows i = 1..m (a column), the columns j = -1..m+2
    its second-neighbor rows reach, and the continuum and atomistic entries of row i
    at column j, stacked (the L2 rows of `_pure_rows`)."""
    i, j = np.arange(1, m + 1)[:, None], np.arange(-1, m + 3)
    return i, j, _pure_rows(m + 1)[1:, m + 1 + j - i]


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
    naming the shell of a modulus that is not finite. Equal assemblies of the
    latest geometry are fresh operators on shared read-only runs (`_assembled`)."""
    kind = ModelKind(kind)
    R = config.R
    second = [float(x) for x in second_derivs]
    first = [0.0] * R if first_derivs is None else [float(x) for x in first_derivs]
    if len(second) != R or len(first) != R:
        raise ValueError(f"need one modulus per shell r=1..{R}")
    for name, moduli in (("phi''(rF)", second), ("phi'(rF)", first)):
        for r, x in enumerate(moduli, 1):
            if not math.isfinite(x):
                raise ValueError(f"modulus {name} of shell r={r} is not finite: {x}")
    moduli = np.array(second + first).tobytes()  # keyed by bits: -0.0 is not 0.0
    read = (partition if kind in COUPLED else None, stencil if kind is ModelKind.CUSTOM else None)
    return LinearChainOperator(config, kind, *_assembled(kind, config, *read, moduli))


@functools.lru_cache(maxsize=len(ModelKind))
def _assembled(kind: ModelKind, config: ChainConfig, partition, stencil, moduli: bytes):
    """`assemble_from_moduli`'s runs and ghost at moduli (the bytes of
    phi''(rF), then phi'(rF)), read-only, kept for the latest geometry."""
    N, R = config.N, config.R
    second, first = np.frombuffer(moduli).reshape(2, R).tolist()
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
        l1, *l2 = _pure_rows(K)
        if kind is ModelKind.CUSTOM:
            # block row i reads continuum values at j < 1, the block at
            # 1 <= j <= m and atomistic values at j > m (j = -1 .. m+2)
            i, js, (cont, atom) = _block_frame(m)
            coeffs = np.where(js < 1, cont, atom)
            coeffs[:, 2:m + 2] = stencil.block
            rows = np.zeros((2, m, 2 * K + 1))
            for side, direction in enumerate((1, -1)):
                rows[side, i - 1, K + direction * (js - i)] += coeffs
            l2 += list(rows.reshape(2 * m, 2 * K + 1))
            if m == 1:  # codes 4 (CA) and 5 (AC): the continuum atom before the block
                # reads the atomistic atom after it as that one reads it back (K = 2)
                l2 += [l2[0] + np.array([0.0, 0.0, 1.0, 0.0, -1.0])[::d] for d in (1, -1)]
            code = code.astype(np.min_scalar_type(len(l2) - 1))
            ac = np.array([cut == "AC" for _, cut in regions.boundaries], dtype=bool)
            if m == 1:  # the continuum neighbour sits before a CA block, after an AC one
                code[(regions.blocks[:, 0] - 1 + np.where(ac, 1, -1)) % N] = 4 + ac
            code[regions.blocks - 1] = np.arange(2, m + 2) + m * ac[:, None]
        table = second[0] * l1 + second[1] * np.array(l2)
        gtable = np.zeros(len(table))
    # a run can start only at atom 1 and where the code changes
    starts = np.concatenate(([0], (code[1:] != code[:-1]).nonzero()[0] + 1))
    runs, gbits = _runs(starts, table[code[starts]], N), gtable[code[starts]].view(np.uint64)
    one = (gbits == gbits[0]).all()  # one ghost value, bit for bit: a stride-0 view of it
    ghost = np.ndarray((N,), float, gtable, 8 * int(code[0]), (0,)) if one else gtable[code]
    ghost.flags.writeable = runs.starts.flags.writeable = runs.lengths.flags.writeable = False
    return runs, ghost


def assemble_operator(
    kind: ModelKind,
    config: ChainConfig,
    potential: PairPotential,
    partition: RegionPartition | None = None,
    stencil: InterfaceStencil | None = None,
) -> LinearChainOperator:
    """Linearize a model at u = 0: linear part (1/eps) Hessian of the energy,
    ghost field (1/eps) grad E(0). QCF/custom are assembled from their
    defining rows and have zero ghost. Raises ValueError naming the first shell
    whose bond length rF is singular for the potential."""
    kind = ModelKind(kind)
    rF = np.arange(1, config.R + 1) * config.F  # the shells' bond lengths at u = 0
    try:
        second, first = evaluate(potential, rF, 2), evaluate(potential, rF, 1)
    except ValueError:  # named only on refusal, so a good chain pays nothing for it
        if not (bad := singular(potential, rF)).any():
            raise
        r = int(bad.argmax()) + 1
        raise ValueError(f"{potential.kind} is singular at the bond length rF = "
                         f"{float(rF[r - 1])!r} of shell r={r} (F={config.F})") from None
    return assemble_from_moduli(kind, config, second, first, partition=partition, stencil=stencil)


# ---------------------------------------------------------------------------
# strain form and diagnostics


@dataclass(frozen=True, eq=False)
class StrainFormOperator:
    """Factorization L u = Ltilde D u for shift-invariant, ghost-free operators.

    runs hold the 2K-column rows of eps*Ltilde at strain offsets 1-K..K, on
    the operator's run starts (`_band_of` makes their band); bound_C is the
    maximal row l1 norm, giving ||L v||_inf <= (bound_C / eps) ||D v||_inf.
    """

    config: ChainConfig
    runs: _Runs
    bound_C: float

    def apply_strain(self, du):
        out = _runs_apply(self.runs, _field_values(self.config, du))
        out /= self.config.epsilon
        if isinstance(du, PeriodicField):
            return PeriodicField(self.config, out)
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


def _bound_C(strain: np.ndarray) -> float:
    """bound_C, the largest row l1 norm of strain rows (`_telescope`'s): M_0
    of their magnitudes by `_run_moments`, the column fold of row_sums; an
    operator's run rows give its band's."""
    return float(_run_moments(np.abs(strain), 0)[0].max())


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
    `_moment_defect` of M_0 of the band's run rows."""
    rows = op.runs.rows
    return _moment_defect(_run_moments(rows, 0)[0], rows)


def to_strain_form(op: LinearChainOperator) -> StrainFormOperator:
    """Rewrite L in terms of backward differences via telescoping.

    Requires zero row sums (shift invariance, the solver's test) and a zero
    ghost field; a NaN ghost entry is refused too. The strain rows are
    telescoped once, from the run rows on the run starts; bound_C reads them.
    """
    if not _constants_defect(op)[1]:
        raise ValueError("operator has nonzero row sums; no strain form exists")
    if not float(np.abs(op.ghost).max()) <= STRAIN_FORM_TOL:
        raise ValueError("operator has a ghost field; no strain form exists")
    strain = _telescope(op.runs.rows)
    strain.flags.writeable = False
    return StrainFormOperator(op.config, op.runs._replace(rows=strain), _bound_C(strain))


def symmetry_defect(op: LinearChainOperator) -> float:
    """max |L_ij - L_ji| over the dense realization (computed from the
    operator's runs, `_transpose_gap`); NaN when the band holds a NaN."""
    return _transpose_gap(op.runs) / op.config.epsilon**2


def hessian_consistency_check(kind: ModelKind, config: ChainConfig, potential: PairPotential,
                              partition: RegionPartition | None = None, step: float = 1e-5) -> float:
    """Worst deviation (in eps^2 stencil units) between the assembled linear
    part and central finite differences of the analytic scaled gradient,
    taken with a strain-sized step eps*step. Raises ValueError for a step
    that is zero or not finite, or whose eps*step is below the smallest
    normal float (a subnormal or zero h)."""
    kind = ModelKind(kind)
    if kind not in ENERGY_BASED:
        raise ValueError(f"{kind.value} does not derive from an energy")
    if config.N > 512:
        raise ValueError("hessian check is a dense diagnostic; use N <= 512")
    N, eps = config.N, config.epsilon
    if abs(h := eps * _finite_step(step)) < np.finfo(float).tiny:
        raise ValueError(f"step {step} at N={N} gives a strain step eps * step = {h} "
                         f"below the smallest normal float")
    op = assemble_operator(kind, config, potential, partition=partition)
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
