"""The solve and study paths write into buffers they already hold; these
tests keep the expressions those paths replaced, each of which made fresh
arrays, as oracles, and compare bytes. The same operations run in the same
order, so every output keeps its bits."""

import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclab import (
    ChainConfig,
    InterfaceStencil,
    LinearChainOperator,
    ModelKind,
    PeriodicField,
    RegionPartition,
    apply_linear,
    assemble_from_moduli,
    assemble_operator,
    classify,
    convergence_study,
    difference,
    harmonic,
    lennard_jones,
    lp_norm,
    sample_field,
    solve_equilibrium,
    symmetry_defect,
)
from qclab import convergence
from qclab.chain import wrap_pad
from qclab.convergence import (
    _LONG_LEVEL,
    ConvergenceChecks,
    ConvergenceRow,
    NumericalError,
    _close_ring,
    _cyclic_tridiagonal,
    _diagonals,
    _factor,
    _patch_diagonals,
    _stress_diagonals,
)
from qclab.models import (
    COUPLED,
    ENERGY_BASED,
    StrainFormOperator,
    _band_of,
    _band_runs,
    _bound_C,
    _runs_apply,
    _telescope,
)
from qclab.potentials import evaluate
from test_models import assembled_add_at, native_rows_reference

HALF_PART = RegionPartition([(0.0, 0.5)], interface_width_m=4, reach=2)
POTENTIALS = {"harmonic": (harmonic(1.0, 1.0), 1.2), "lennard_jones": (lennard_jones(), 1.1)}


def window_apply(band, first_offset, v):
    """The band product with a fresh array per column: np.zeros, then
    band[:, c] * vp[c:c + N] added in column order."""
    N, width = band.shape
    vp = wrap_pad(v, -first_offset, first_offset + width - 1)
    out = np.zeros(N)
    for c in range(width):
        out += band[:, c] * vp[c:c + N]
    return out


def floor_oracle(band, v):
    """eps^2 |A| |v| through np.abs of the band's distinct rows, broadcast
    back to the band's shape."""
    distinct = band[:1] if band.strides[0] == 0 else band
    K = (band.shape[1] - 1) // 2
    return window_apply(np.broadcast_to(np.abs(distinct), band.shape), -K, np.abs(v))


def row_sums_oracle(band):
    """The row sums with a fresh array per column, added in column order."""
    out = band[:, 0]
    for c in range(1, band.shape[1]):
        out = out + band[:, c]
    return out


def close_ring_oracle(s):
    u = np.cumsum(s)
    u -= u[-1] * (np.arange(1, len(u) + 1) / len(u))
    return u


def stress_diagonals_oracle(band):
    """C's diagonals by the inward recursion with np.roll copies."""
    N, K = band.shape[0], (band.shape[1] - 1) // 2
    Kc = max(K - 1, 1)
    low = [np.zeros(N)] * (Kc + 1)
    low[K - 1] = -band[:, 0]
    for j in range(K - 1, 0, -1):
        nxt = low[j] + np.roll(low[j], -1)
        if j + 1 < K:
            nxt -= np.roll(low[j + 1], -1)
        nxt -= band[:, K - j]
        low[j - 1] = nxt
    return low[::-1] + [np.roll(low[j], -j) for j in range(1, Kc + 1)]


def lp_norm_oracle(u, p):
    a = np.abs(u.values)
    if p == math.inf:
        return float(a.max())
    return float((u.config.epsilon * np.sum(a**p)) ** (1.0 / p))


def reduce_forward_oracle(d, dn, nrb, left, right, wrap, t):
    """The ring kernel's forward step on whole coefficient arrays."""
    o, k = len(nrb), len(dn) - 1
    de, t = d[0::2], np.multiply(nrb, d[1::2], out=t[:o])
    dn[o:] = de[o:]
    np.multiply(left, t, out=dn[:o])
    dn[:o] += de[:o]
    dn[1:] += np.multiply(right, t[:k], out=t[:k])
    if k < o:
        dn[0] += wrap * t[k]


def reduce_back_oracle(d, x, nrb, left, right, wrap, t):
    """The ring kernel's back step on whole coefficient arrays."""
    o, k = len(nrb), len(x) - 1
    xo = d[1::2]
    np.subtract(np.multiply(left, x[:o], out=t[:o]), xo, out=xo)
    xo[:k] += np.multiply(right, x[1:], out=t[:k])
    if k < o:
        xo[k] += wrap * x[0]
    xo *= nrb
    d[0::2] = x


def ring_kernel_oracle(lower, diag, upper, tol):
    """Cyclic reduction of the cyclic tridiagonal (lower, diag, upper) with
    every level held as whole arrays, as the ring kernel factored before it
    kept its long levels on runs: the reference its solves are held to bit
    for bit. Returns solve(b, transpose=False), or None for a pivot or final
    ring at or below tol."""
    N = len(diag)
    t1, t2 = np.empty(N // 2), np.empty(N // 2)
    a, b, c = lower, diag, upper
    levels = []
    while len(b) > 2:
        m, o = (len(b) + 1) // 2, len(b) // 2
        k = m - 1
        ae, be, ce, ao, bo, co = a[0::2], b[0::2], c[0::2], a[1::2], b[1::2], c[1::2]
        if not float(np.abs(bo, out=t1[:o]).min()) > tol:
            return None
        nrb = np.divide(-1.0, bo)
        ab, cb = np.multiply(ao, nrb, out=t1[:o]), np.multiply(co, nrb, out=t2[:o])
        a2, b2, c2 = np.empty(m), be.copy(), np.empty(m)
        np.multiply(ae[1:], ab[:k], out=a2[1:])
        np.multiply(ce[:o], cb, out=c2[:o])
        if k < o:
            a2[0] = ae[0] * ab[k]
            b2[0] += ae[0] * cb[k]
        else:
            a2[0], c2[k] = ae[0], ce[k]
        b2[:o] += np.multiply(ce[:o], ab, out=ab)
        b2[1:] += np.multiply(ae[1:], cb[:k], out=cb[:k])
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
            reduce_forward_oracle(d, dn, nrb, *rows[transpose], t1)
            chain.append(d)
            d = dn
        d[:] = (ring_inv.T if transpose else ring_inv) @ d
        for (nrb, rows, x), dl in zip(levels[::-1], chain[::-1]):
            reduce_back_oracle(dl, x, nrb, *rows[not transpose], t1)
        return rhs

    return solve


def factor_oracle(diags, transpose=False):
    """`_factor` of a tridiagonal matrix through `ring_kernel_oracle`: (solve,
    g), or None where `_factor` raises its NumericalError."""
    scale = max(max(float(d.max()), -float(d.min())) for d in diags)
    root_eps = math.sqrt(np.finfo(float).eps)
    solve = ring_kernel_oracle(*diags, root_eps * scale)
    g = solve and solve(np.ones(len(diags[1])), transpose)
    if solve is None or max(float(g.max()), -float(g.min())) * scale > 1.0 / root_eps:
        return None
    return solve, g


def solve_oracle(op, f):
    """solve_equilibrium's arithmetic for an R = 2 band, every step into a
    fresh array, and C or T factored by `factor_oracle` on whole diagonals."""
    N, eps2, band = op.config.N, op.config.epsilon**2, op.band
    if op.kind is ModelKind.QCF:
        diags = [band[:, 0], band[:, 3] + 2.0 * band[:, 4], band[:, 4]]
        T, w = factor_oracle(diags, True)
        ww = float(w @ w)

        def solve(r):
            rhs = w * -((w @ r) / ww)
            rhs += r
            rhs *= eps2
            y = T(rhs)
            s = np.empty(N)
            s[0] = 0.0
            np.cumsum(y[:-1], out=s[1:])
            s -= s.mean()
            return close_ring_oracle(s)
    else:
        C, g = factor_oracle(stress_diagonals_oracle(band))
        g_sum, w = float(g.sum()), np.ones(N)

        def solve(r):
            sigma = np.empty(N)
            sigma[0] = 0.0
            np.cumsum(r[:-1] - r.mean(), out=sigma[1:])
            t = C(sigma * -eps2)
            t -= (t.sum() / g_sum) * g
            return close_ring_oracle(t)
    fproj = f - (w @ f) / (w @ w) * w
    u = solve(fproj)
    u -= u.mean()
    return u


def study_oracle(kind, witness, N_list, p_list, pot, partition, F):
    """convergence_study's rows and checks, rung by rung, with fresh arrays."""
    rows, checks = [], []
    for N in N_list:
        config = ChainConfig(N=N, F=F, R=2)
        eps = config.epsilon
        u = sample_field(witness, config)
        op_k = assemble_operator(kind, config, pot, partition=partition if kind in COUPLED else None)
        op_a = assemble_operator(ModelKind.ATOMISTIC, config, pot)
        La_u = window_apply(op_a.band, -2, u.values) / eps**2
        e = PeriodicField(config, u.values - solve_oracle(op_k, La_u - op_k.ghost))
        de = difference(e, 1, 1)
        norms = {p: lp_norm_oracle(de, p) for p in dict.fromkeys([*p_list, math.inf])}
        rows += [ConvergenceRow(N=N, epsilon=eps, p=p, error_norm=norms[p]) for p in p_list]
        bound_C = _bound_C(_telescope(op_k.band))  # over every row of the full band
        le_inf = float(np.abs(window_apply(op_k.band, -2, e.values) / eps**2).max())
        de_inf = norms[math.inf]
        checks.append(ConvergenceChecks(
            N=N, de_inf=de_inf, le_inf=le_inf, bound_C=bound_C,
            chain_ok=le_inf <= bound_C / eps * de_inf * (1.0 + 1e-12),
            norm_equiv_ok=all(norms[p] >= eps ** (1.0 / p) * de_inf * (1.0 - 1e-12)
                              for p in p_list if p != math.inf),
        ))
    return rows, checks


def bits(record):
    """A dataclass's fields with every float as its hex form, so that -0.0
    and 0.0 differ."""
    return tuple(x.hex() if isinstance(x, float) else x for x in dataclasses.astuple(record))


def drawn_band(rng, N, K, broadcast):
    """Mixed-sign entries, a fifth of them -0.0 and a tenth +0.0, stored
    whole in Fortran order or as one broadcast row."""
    shape = (1 if broadcast else N, 2 * K + 1)
    band = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    zeros = rng.random(shape)
    band[zeros < 0.2] = -0.0
    band[(zeros >= 0.2) & (zeros < 0.3)] = 0.0
    return np.broadcast_to(band[0], (N, 2 * K + 1)) if broadcast else np.asfortranarray(band)


@settings(max_examples=200)
@given(
    N=st.integers(3, 80),
    K=st.integers(1, 9),
    broadcast=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_band_paths_match_their_oracles(N, K, broadcast, seed):
    # the product buffer of the run kernel and of the |A| |u| floor, the
    # in-place division of apply_linear, the run-wise stress recursion and
    # the ramp buffer of the ring closure, over broadcast and whole bands of
    # half-width 1..9 (K <= N: a band wraps the ring at most once)
    K = min(K, N)
    rng = np.random.default_rng(seed)
    band = drawn_band(rng, N, K, broadcast)
    v = rng.standard_normal(N)
    v[rng.random(N) < 0.2] = -0.0
    runs = _band_runs(band)
    assert _runs_apply(runs, v).tobytes() == window_apply(band, -K, v).tobytes()
    out, mag = _runs_apply(runs, v, floor=True)  # one pass, both sums
    assert out.tobytes() == window_apply(band, -K, v).tobytes()
    assert mag.tobytes() == floor_oracle(band, v).tobytes()
    config = ChainConfig(N=N, F=1.2, R=1)
    op = LinearChainOperator(config, ModelKind.CUSTOM, band, np.zeros(N))
    want = window_apply(band, -K, v) / config.epsilon**2
    assert apply_linear(op, v).tobytes() == want.tobytes()
    got = _diagonals(_stress_diagonals(op.runs))
    assert [d.tobytes() for d in got] == [d.tobytes() for d in stress_diagonals_oracle(band)]
    assert _close_ring(v.copy(), np.empty(N)).tobytes() == close_ring_oracle(v).tobytes()
    field = PeriodicField(config, v)
    for p in (1, 2, 1.0, 2.0, 3.0, 1.5, math.inf):
        assert lp_norm(field, p).hex() == lp_norm_oracle(field, p).hex()


def dense_oracle(band, eps):
    """The dense realization of a band, its columns added in order."""
    N, K = band.shape[0], (band.shape[1] - 1) // 2
    A, idx = np.zeros((N, N)), np.arange(N)
    for k in range(-K, K + 1):
        A[idx, (idx + k) % N] += band[:, K + k]
    return A / eps**2


def same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_runs_match_band_oracles(op, band):
    """Every path that reads op's runs against the arithmetic it replaced on
    the whole (N, 2K+1) band, bit for bit, NaN exactly where it is NaN: the
    operator and magnitude products against `window_apply` and
    `floor_oracle`, the strain product against `window_apply` of the band's
    strain columns, row sums, the transpose gap by a gather per offset, the
    dense realization (N <= 512), and the stress and patch diagonals."""
    N, K, eps = op.config.N, op.half_width, op.config.epsilon
    rng = np.random.default_rng(N + 100 * K)
    v = rng.standard_normal(N)
    v[rng.random(N) < 0.2] = -0.0
    assert same_bits(apply_linear(op, v), window_apply(band, -K, v) / eps**2)
    out, mag = _runs_apply(op.runs, v, floor=True)
    assert same_bits(out, window_apply(band, -K, v)) and same_bits(mag, floor_oracle(band, v))
    strain = StrainFormOperator(op.config, op.runs._replace(rows=_telescope(op.runs.rows)), 0.0)
    assert same_bits(_band_of(strain), _telescope(band))
    assert same_bits(strain.apply_strain(v), window_apply(_telescope(band), 1 - K, v) / eps)
    assert same_bits(op.row_sums(), row_sums_oracle(band))
    idx = np.arange(N)
    gaps = [np.abs(band[idx, K + k] - band[(idx + k) % N, K - k]).max() for k in range(-K, K + 1)]
    assert same_bits(symmetry_defect(op), float(np.max(gaps)) / eps**2)
    if N <= 512:
        assert same_bits(op.dense(), dense_oracle(band, eps))
    got = _diagonals(_stress_diagonals(op.runs))
    assert [d.tobytes() for d in got] == [d.tobytes() for d in stress_diagonals_oracle(band)]
    if K == 2:
        want = [band[:, 0], band[:, 3] + 2.0 * band[:, 4], band[:, 4]]
        assert all(same_bits(d, w) for d, w in zip(_diagonals(_patch_diagonals(op.runs)), want))


def admissible_partition(rng, config, n_intervals, m):
    """n_intervals random atomistic intervals that `classify` admits with
    blocks of m atoms, or (0, 0.5] where 100 draws find none."""
    for _ in range(100):
        ends = np.sort(rng.random(2 * n_intervals))
        partition = RegionPartition(list(zip(ends[::2], ends[1::2])), interface_width_m=m, reach=2)
        try:
            classify(partition, config)
            return partition
        except ValueError:
            continue
    return RegionPartition([(0.0, 0.5)], interface_width_m=m, reach=2)


@settings(max_examples=40)
@given(
    N=st.sampled_from([16, 23, 64, 100, 257, 1024, 4096]),
    n_intervals=st.integers(1, 3),
    m=st.integers(1, 8),
    potential=st.sampled_from(sorted(POTENTIALS)),
    dense_block=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_assembled_runs_match_the_band_oracles(N, n_intervals, m, potential, dense_block, seed):
    # every kind on random multi-interval geometries, CUSTOM with a diagonal
    # or a dense block: the runs read off the row codes serve every path
    # with the bits of the band that the scatter and row-by-row oracles
    # build, and the band made from them on first use is that band
    rng = np.random.default_rng(seed)
    pot, F = POTENTIALS[potential]
    config = ChainConfig(N=N, F=F, R=2)
    partition = admissible_partition(rng, config, n_intervals, m)
    block = rng.integers(-3, 4, (m, m)) * 0.5
    stencil = InterfaceStencil(m, block + block.T if dense_block else np.diag(np.diag(block)))
    second = [evaluate(pot, r * F, 2) for r in (1, 2)]
    first = [evaluate(pot, r * F, 1) for r in (1, 2)]
    for kind in ModelKind:
        part = partition if kind in COUPLED else None
        op = assemble_operator(kind, config, pot, partition=part, stencil=stencil)
        if kind in ENERGY_BASED:
            band = assembled_add_at(kind, config, second, first, part)[0]
        else:
            band = native_rows_reference(kind, config, second, part, stencil)
        assert "band" not in op.__dict__, kind  # runs only, until the band is asked for
        assert_runs_match_band_oracles(op, band)
        assert np.ascontiguousarray(op.band).tobytes() == band.tobytes(), kind


@settings(max_examples=40)
@given(
    N=st.sampled_from([16, 23, 64, 100, 257, 1024, 4096]),
    n_intervals=st.integers(1, 3),
    m=st.integers(1, 8),
    potential=st.sampled_from(sorted(POTENTIALS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_memoized_assembly_matches_the_uncached_oracles(N, n_intervals, m, potential, seed):
    # every kind on random 1-3 interval geometries, at the potential's moduli
    # and at moduli of -0.0, then +0.0, then -0.0 again: the first call of
    # each assembles, the second is served by the memo, and both give the
    # runs, lengths, rows and ghost of the run search over the oracle band,
    # byte for byte. A QCF or CUSTOM band of -0.0 moduli keeps -0.0 entries,
    # so a memo that took -0.0 for 0.0 would serve the wrong bits
    rng = np.random.default_rng(seed)
    pot, F = POTENTIALS[potential]
    config = ChainConfig(N=N, F=F, R=2)
    partition = admissible_partition(rng, config, n_intervals, m)
    block = rng.integers(-3, 4, (m, m)) * 0.5
    stencil = InterfaceStencil(m, block + block.T)
    moduli = [[[evaluate(pot, r * F, order) for r in (1, 2)] for order in (2, 1)]]
    moduli += [[[z, z], [z, z]] for z in (-0.0, 0.0, -0.0)]
    for kind in ModelKind:
        part = partition if kind in COUPLED else None
        oracles = []
        for second, first in moduli:
            if kind in ENERGY_BASED:
                band, ghost = assembled_add_at(kind, config, second, first, part)
            else:
                band = native_rows_reference(kind, config, second, part, stencil)
                ghost = np.zeros(N)
            want = _band_runs(np.ascontiguousarray(band))
            oracles.append(want.rows.tobytes())
            for _ in range(2):
                op = assemble_from_moduli(kind, config, second, first, partition=part,
                                          stencil=stencil)
                for got, expected in zip(op.runs[:3], want[:3]):
                    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
                assert op.runs.N == N and op.ghost.tobytes() == ghost.tobytes(), kind
        assert kind in ENERGY_BASED or oracles[1] != oracles[2], kind


@settings(max_examples=150)
@given(
    N=st.integers(3, 48),
    K=st.integers(1, 48),
    shape=st.sampled_from(["runs", "distinct", "broadcast"]),
    nan_rows=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_hand_built_runs_match_the_band_oracles(N, K, shape, nan_rows, seed):
    # hand-built bands of half-width 1..N (K = N: as wide as the ring) with
    # -0.0 entries, stored whole or as one broadcast row; runs of identical
    # rows among which one row differs from its neighbours only by the sign
    # of its zeros; and whole rows or single entries of NaN
    K = min(K, N)
    rng = np.random.default_rng(seed)
    band = drawn_band(rng, N, K, shape == "broadcast")
    if shape == "runs":
        band = np.repeat(band[rng.integers(0, N, 4)], rng.multinomial(N, [0.25] * 4), axis=0)
        i = int(rng.integers(0, N))
        zeros = band[i] == 0.0
        band[i, zeros] = -band[i, zeros]
    if shape != "broadcast":
        for _ in range(nan_rows):
            i = int(rng.integers(0, N))
            band[i, rng.integers(0, 2 * K + 1) if rng.random() < 0.5 else slice(None)] = np.nan
    op = LinearChainOperator(ChainConfig(N=N, F=1.2, R=1), ModelKind.CUSTOM, band, np.zeros(N))
    assert_runs_match_band_oracles(op, band)


@pytest.mark.parametrize("potential", sorted(POTENTIALS))
@pytest.mark.parametrize("kind", ["qnl", "qcf", "qce", "continuum", "atomistic"])
def test_solves_match_their_oracle(kind, potential, random_geometry):
    # stress and patch solves on the half partition and on random
    # multi-interval geometries, against a right-hand side with -0.0 entries
    pot, F = POTENTIALS[potential]
    kind = ModelKind(kind)
    rng = np.random.default_rng(43)
    for N in (64, 257, 4096, 2 * _LONG_LEVEL + 1):  # the last with 2 levels on runs
        geometries = [(ChainConfig(N=N, F=F, R=2), HALF_PART)]
        if kind in COUPLED:
            geometries += [random_geometry(rng, N, potential, n)[::2] for n in (1, 3)]
        for config, partition in geometries:
            partition = partition if kind in COUPLED else None
            op = assemble_operator(kind, config, pot, partition=partition)
            f = rng.standard_normal(N)
            f[rng.random(N) < 0.1] = -0.0
            assert solve_equilibrium(op, f).values.tobytes() == solve_oracle(op, f).tobytes()


def drawn_ring(rng, N, n_runs, single_ends, signs, dominant):
    """(lower, diag, upper) of a cyclic tridiagonal matrix on N rows in up
    to n_runs runs of random lengths, each run one row of random entries;
    with single_ends the first and the last row are runs of their own. The
    off-diagonal entries have both signs, the diagonal the drawn one; a
    dominant diagonal outweighs the row's off-diagonal entries."""
    starts = [0, *rng.choice(np.arange(1, N), min(n_runs, N) - 1, replace=False).tolist()]
    if single_ends:
        starts += [1, N - 1]
    starts = np.unique(np.clip(starts, 0, N - 1))
    r = len(starts)
    lower, upper = rng.uniform(-1.0, 1.0, r), rng.uniform(-1.0, 1.0, r)
    sign = {"positive": 1.0, "negative": -1.0, "mixed": rng.choice([-1.0, 1.0], r)}[signs]
    diag = sign * (np.abs(lower) + np.abs(upper) if dominant else 0.0) + sign * rng.uniform(0.05, 2.0, r)
    lengths = np.diff(starts, append=N)
    return [np.repeat(v, lengths) for v in (lower, diag, upper)]


@settings(max_examples=200)
@given(
    N=st.one_of(st.integers(1, 70), st.integers(_LONG_LEVEL - 3, 3 * _LONG_LEVEL)),
    n_runs=st.integers(1, 40),
    single_ends=st.booleans(),
    signs=st.sampled_from(["positive", "negative", "mixed"]),
    dominant=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_ring_kernel_on_runs_matches_its_oracle(N, n_runs, single_ends, signs, dominant, seed):
    # the ring kernel reduces levels of _LONG_LEVEL rows or more on runs and
    # the shorter ones whole; its factor, g, solve and transposed solve keep
    # the bits of the kernel that held every level whole, and both refuse the
    # same rings. A ring without a dominant diagonal may overflow in both
    rng = np.random.default_rng(seed)
    diags = drawn_ring(rng, N, n_runs, single_ends, signs, dominant)
    ring = _band_runs(np.stack(diags, axis=1))
    tol = math.sqrt(np.finfo(float).eps) * max(np.abs(d).max() for d in diags)
    b = rng.standard_normal(N)
    b[rng.random(N) < 0.1] = -0.0
    with contextlib.nullcontext() if dominant else np.errstate(all="ignore"):
        assert (_cyclic_tridiagonal(ring, tol) is None) == (ring_kernel_oracle(*diags, tol) is None)
        for transpose in (False, True):
            want = factor_oracle(diags, transpose)
            if want is None:
                with pytest.raises(NumericalError, match="ring matrix is"):
                    _factor(ring, "ring matrix", transpose)
                continue
            solve, g = _factor(ring, "ring matrix", transpose)
            assert g.tobytes() == want[1].tobytes()
            for t in (False, True):
                assert solve(b.copy(), t).tobytes() == want[0](b.copy(), t).tobytes()


@pytest.mark.parametrize("j, name, level", [(3, "stress matrix C", 0), (4, "patch matrix T", 2)])
def test_ring_kernel_refuses_a_pivot_on_runs_and_on_a_whole_level(j, name, level, monkeypatch):
    # row j at 1e-17 with no neighbours is kept as it is until it is
    # eliminated: odd j at the first level, which is long and reduced on
    # runs, j = 4 at the third, which is short and reduced whole. The kernel
    # refuses at that level, and `_factor` raises the error naming the matrix
    N = 2 * _LONG_LEVEL  # levels of N and N / 2 rows on runs, then whole ones
    lower, diag, upper = np.ones(N), np.full(N, 4.0), np.full(N, 2.0)
    lower[j], diag[j], upper[j] = 0.0, 1e-17, 0.0
    ring = _band_runs(np.stack([lower, diag, upper], axis=1))
    steps, eliminate = [], convergence._eliminate

    def traced(*args):
        out = eliminate(*args)
        steps.append(out is not None)
        return out

    monkeypatch.setattr(convergence, "_eliminate", traced)
    with pytest.raises(NumericalError, match=f"{name} is"):
        _factor(ring, name)
    assert steps == [True] * level + [False]
    assert ring_kernel_oracle(lower, diag, upper, 4.0 * math.sqrt(np.finfo(float).eps)) is None


@pytest.mark.parametrize("potential", sorted(POTENTIALS))
@pytest.mark.parametrize("kind", ["qnl", "qcf", "qce", "continuum"])
def test_study_rows_and_checks_match_their_oracle(kind, potential):
    # every row and every ConvergenceChecks field, bit for bit, at N <= 2^12;
    # sizes that are not powers of 2 make eps = 1/N round
    pot, F = POTENTIALS[potential]
    kind = ModelKind(kind)
    partition = HALF_PART if kind in COUPLED else None
    N_list, p_list = [64, 100, 257, 1000, 2048, 3001, 4096], (1.0, 2.0, math.inf, 3.0)
    for phase in (0.3, 1.1):
        def witness(x, phase=phase):
            return np.sin(2.0 * np.pi * np.asarray(x) + phase)

        table = convergence_study(kind, witness, N_list, p_list, pot, partition=partition, F=F)
        rows, checks = study_oracle(kind, witness, N_list, p_list, pot, partition, F)
        assert [bits(r) for r in table.rows] == [bits(r) for r in rows]
        assert [bits(c) for c in table.checks] == [bits(c) for c in checks]
