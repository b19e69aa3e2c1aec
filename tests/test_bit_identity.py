"""The solve and study paths write into buffers they already hold; these
tests keep the expressions those paths replaced, each of which made fresh
arrays, as oracles, and compare bytes. The same operations run in the same
order, so every output keeps its bits."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclab import (
    ChainConfig,
    LinearChainOperator,
    ModelKind,
    PeriodicField,
    RegionPartition,
    apply_linear,
    assemble_operator,
    convergence_study,
    difference,
    harmonic,
    lennard_jones,
    lp_norm,
    sample_field,
    solve_equilibrium,
)
from qclab.chain import wrap_pad
from qclab.convergence import (
    ConvergenceChecks,
    ConvergenceRow,
    _close_ring,
    _factor,
    _stress_diagonals,
)
from qclab.models import COUPLED, _band_apply, _bound_C

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


def solve_oracle(op, f):
    """solve_equilibrium's arithmetic for an R = 2 band, every step into a
    fresh array; the factorization, `_factor` and its ring kernel, is the
    module's own."""
    N, eps2, band = op.config.N, op.config.epsilon**2, op.band
    if op.kind is ModelKind.QCF:
        diags = [band[:, 0], band[:, 3] + 2.0 * band[:, 4], band[:, 4]]
        T, w = _factor(diags, "patch matrix T", True)
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
        C, g = _factor(stress_diagonals_oracle(band), "stress matrix C")
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
        bound_C = _bound_C(op_k.band)  # over every row of the full band
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
    # the product buffer of the band apply and of the |A| |u| floor, the
    # in-place division of apply_linear, the wrapped windows of the stress
    # recursion and the ramp buffer of the ring closure, over broadcast and
    # whole bands of half-width 1..9 (K <= N: a band wraps the ring at most once)
    K = min(K, N)
    rng = np.random.default_rng(seed)
    band = drawn_band(rng, N, K, broadcast)
    v = rng.standard_normal(N)
    v[rng.random(N) < 0.2] = -0.0
    assert _band_apply(band, -K, v).tobytes() == window_apply(band, -K, v).tobytes()
    assert _band_apply(band, -K, v, magnitudes=True).tobytes() == floor_oracle(band, v).tobytes()
    config = ChainConfig(N=N, F=1.2, R=1)
    op = LinearChainOperator(config, ModelKind.CUSTOM, band, np.zeros(N))
    want = window_apply(band, -K, v) / config.epsilon**2
    assert apply_linear(op, v).tobytes() == want.tobytes()
    got = _stress_diagonals(band)
    assert [d.tobytes() for d in got] == [d.tobytes() for d in stress_diagonals_oracle(band)]
    assert _close_ring(v.copy(), np.empty(N)).tobytes() == close_ring_oracle(v).tobytes()
    field = PeriodicField(config, v)
    for p in (1, 2, 1.0, 2.0, 3.0, 1.5, math.inf):
        assert lp_norm(field, p).hex() == lp_norm_oracle(field, p).hex()


@pytest.mark.parametrize("potential", sorted(POTENTIALS))
@pytest.mark.parametrize("kind", ["qnl", "qcf", "qce", "continuum", "atomistic"])
def test_solves_match_their_oracle(kind, potential, random_geometry):
    # stress and patch solves on the half partition and on random
    # multi-interval geometries, against a right-hand side with -0.0 entries
    pot, F = POTENTIALS[potential]
    kind = ModelKind(kind)
    rng = np.random.default_rng(43)
    for N in (64, 257, 4096):
        geometries = [(ChainConfig(N=N, F=F, R=2), HALF_PART)]
        if kind in COUPLED:
            geometries += [random_geometry(rng, N, potential, n)[::2] for n in (1, 3)]
        for config, partition in geometries:
            partition = partition if kind in COUPLED else None
            op = assemble_operator(kind, config, pot, partition=partition)
            f = rng.standard_normal(N)
            f[rng.random(N) < 0.1] = -0.0
            assert solve_equilibrium(op, f).values.tobytes() == solve_oracle(op, f).tobytes()


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
