"""Moment tests, ghost-force experiments, smooth-field consistency sweeps."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qclab import (
    ChainConfig,
    InterfaceStencil,
    LinearChainOperator,
    ModelKind,
    RegionPartition,
    assemble_operator,
    classify,
    consistency_sweep,
    default_witness,
    ghost_force,
    harmonic,
    lennard_jones,
    moment_residuals,
)
from qclab.consistency import _moment_sums
from qclab.models import COUPLED
from conftest import POTENTIALS
from test_models import drawn_run_band, exact_moment_rows, moment_sums_power_table

HALF_PART = RegionPartition([(0.0, 0.5)], interface_width_m=4, reach=2)
POT1 = harmonic(1.0, 1.0)


def ops(kind, N, partition=HALF_PART):
    config = ChainConfig(N=N, F=1.2, R=2)
    op = assemble_operator(
        kind, config, POT1,
        partition=None if kind in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM) else partition,
    )
    ref = assemble_operator(ModelKind.ATOMISTIC, config, POT1)
    return op, ref


def test_reference_against_itself_vanishes():
    op, ref = ops(ModelKind.ATOMISTIC, 32)
    report = moment_residuals(op, ref)
    assert np.all(report.residuals == 0.0)


def test_continuum_is_pointwise_consistent():
    op, ref = ops(ModelKind.CONTINUUM, 32)
    report = moment_residuals(op, ref)
    # the difference is a fourth-difference stencil: all three moments vanish
    assert np.all(report.residuals == 0.0)


def test_qcf_rows_are_individually_consistent():
    op, ref = ops(ModelKind.QCF, 64)
    report = moment_residuals(op, ref)
    assert np.all(report.residuals == 0.0)


def test_qnl_moment_structure():
    op, ref = ops(ModelKind.QNL, 64)
    report = moment_residuals(op, ref)
    # ghost-force-free and symmetric: constants and linears are annihilated
    assert report.max_abs(0) == 0.0
    assert report.max_abs(1) == 0.0
    # the quadratic test fails on exactly two rows per boundary, by +-2
    # (regression constant of the quasinonlocal construction, unit moduli)
    nonzero = report.nonzero_rows()
    assert set(nonzero) == {33, 34, 63, 64}
    j2 = {i: report.residuals[i - 1, 2] for i in nonzero}
    assert j2 == {33: 2.0, 34: -2.0, 63: -2.0, 64: 2.0}


def test_max_abs_refuses_a_power_outside_the_three_moments():
    # -1 used to read the j^2 column (2.0 here) and 3 raised a bare IndexError
    report = moment_residuals(*ops(ModelKind.QNL, 64))
    assert [report.max_abs(p) for p in (0, 1, 2)] == [0.0, 0.0, 2.0]
    for power in (-1, 3):
        with pytest.raises(ValueError, match=f"moment power must be 0, 1 or 2, got {power}"):
            report.max_abs(power)


def test_moment_rows_are_judged_relative_to_their_terms():
    # the power-p sums of row i add terms up to max_k |delta_ik| (i + K)^p, so
    # the rounding-level row sums of Lennard-Jones continuum against atomistic
    # at R = 4 reach 1e-10 in the j^2 moment at N = 1024; no row is listed,
    # while the interface rows of QCE and QNL still are
    pot = lennard_jones()
    config = ChainConfig(N=1024, F=1.1, R=4)
    op, ref = (assemble_operator(k, config, pot) for k in (ModelKind.CONTINUUM, ModelKind.ATOMISTIC))
    report = moment_residuals(op, ref)
    assert report.max_abs(2) > 1e-11
    assert list(report.nonzero_rows()) == []
    config = ChainConfig(N=1024, F=1.1, R=2)
    ref = assemble_operator(ModelKind.ATOMISTIC, config, pot)
    for kind, rows in ((ModelKind.QCE, [1, 2, 511, 512, 513, 514, 1023, 1024]),
                       (ModelKind.QNL, [513, 514, 1023, 1024])):
        op = assemble_operator(kind, config, pot, partition=HALF_PART)
        assert list(moment_residuals(op, ref).nonzero_rows()) == rows, kind


def test_qce_moment_structure():
    op, ref = ops(ModelKind.QCE, 64)
    report = moment_residuals(op, ref)
    assert report.max_abs(0) == 0.0        # rows are differences of strains
    assert len(report.nonzero_rows()) > 0  # but the interface is inconsistent
    # interior rows (both regions) annihilate constants and linears exactly
    from qclab import ChainConfig, classify
    from qclab.regions import INTERFACE

    labels = classify(HALF_PART, ChainConfig(N=64, F=1.2, R=2))
    interior = labels.labels != INTERFACE
    assert np.all(report.residuals[interior, :2] == 0.0)


def test_custom_blocks_always_inconsistent():
    rng = np.random.default_rng(8)
    config = ChainConfig(N=64, F=1.2, R=2)
    ref = assemble_operator(ModelKind.ATOMISTIC, config, POT1)
    for _ in range(5):
        b = rng.standard_normal((4, 4))
        stencil = InterfaceStencil(4, b + b.T)
        op = assemble_operator(
            ModelKind.CUSTOM, config, POT1, partition=HALF_PART, stencil=stencil
        )
        report = moment_residuals(op, ref)
        tail = np.abs(report.residuals[:, 1:]).max(axis=1)
        assert tail.max() > 1e-6  # some row fails the j or j^2 test


def test_moment_rejects_mismatched_sizes():
    op, _ = ops(ModelKind.ATOMISTIC, 32)
    _, ref = ops(ModelKind.ATOMISTIC, 64)
    with pytest.raises(ValueError):
        moment_residuals(op, ref)


@pytest.mark.parametrize("op_config, ref_config, what", [
    (ChainConfig(N=64, F=1.2, R=3), ChainConfig(N=64, F=1.2, R=2), "chains"),
    (ChainConfig(N=64, F=1.1, R=2), ChainConfig(N=64, F=1.2, R=2), "chains"),
    (ChainConfig(N=32, F=1.1, R=3), ChainConfig(N=64, F=1.2, R=2), "chain sizes"),
], ids=["R", "F", "N"])
def test_moment_rejects_a_reference_on_another_chain(op_config, ref_config, what):
    # the same N but another cutoff or stretch: the rows of two chains were
    # subtracted (max |j^2 moment| 18 on every row for R = 3 against R = 2)
    pot = harmonic(1.0, 1.0) if op_config.R == 3 else lennard_jones()
    op = assemble_operator(ModelKind.ATOMISTIC, op_config, pot)
    ref = assemble_operator(ModelKind.ATOMISTIC, ref_config, POT1)
    want = f"operators live on different {what}: {op_config} and {ref_config}"
    for exact in (False, True):
        with pytest.raises(ValueError, match=re.escape(want)):
            _moment_sums(op, ref, exact)
    with pytest.raises(ValueError, match=re.escape(want)):
        moment_residuals(op, ref)


def test_ghost_force_qnl_and_trivial():
    config = ChainConfig(N=64, F=1.2, R=2)
    _, sup = ghost_force(ModelKind.QNL, config, POT1, partition=HALF_PART)
    assert sup <= 1e-12
    _, sup = ghost_force(ModelKind.ATOMISTIC, config, POT1)
    assert sup == 0.0
    _, sup = ghost_force(
        ModelKind.QCE, config, POT1, partition=RegionPartition([(0.0, 1.0)])
    )
    assert sup == 0.0


def test_qce_ghost_doubles_with_refinement():
    sups = []
    for N in (64, 128, 256, 512):
        config = ChainConfig(N=N, F=1.2, R=2)
        _, sup = ghost_force(ModelKind.QCE, config, POT1, partition=HALF_PART)
        sups.append(sup)
    for a, b in zip(sups, sups[1:]):
        assert b / a == pytest.approx(2.0, rel=0.05)


def test_sweep_continuum_second_order():
    res = consistency_sweep(
        ModelKind.CONTINUUM, default_witness, [2**k for k in range(6, 11)], POT1
    )
    assert abs(res.exponent - 2.0) <= 0.1
    assert res.r_squared > 0.999


def test_sweep_qce_order_minus_one():
    res = consistency_sweep(
        ModelKind.QCE, default_witness, [2**k for k in range(6, 10)], POT1,
        partition=HALF_PART,
    )
    assert abs(res.exponent + 1.0) <= 0.15


def test_sweep_qnl_order_zero_bounded_below():
    res = consistency_sweep(
        ModelKind.QNL, default_witness, [2**k for k in range(6, 10)], POT1,
        partition=HALF_PART,
    )
    assert abs(res.exponent) <= 0.3
    assert min(r for _, r in res.points) > 10.0


def test_sweep_points_monotone_n():
    res = consistency_sweep(
        ModelKind.CONTINUUM, default_witness, [64, 128, 256], POT1
    )
    Ns = [N for N, _ in res.points]
    assert Ns == sorted(Ns)
    assert all(r >= 0 for _, r in res.points)


@pytest.mark.parametrize("kind", [ModelKind.QNL, ModelKind.QCE, ModelKind.QCF])
@pytest.mark.parametrize("N_list", [[64, 128], [64]])
def test_sweep_over_a_ladder_without_a_slope_reports_nan(kind, N_list):
    # without an interface every residual is exactly 0, and one rung has no
    # slope: both used to raise from the fit
    res = consistency_sweep(kind, default_witness, N_list, POT1,
                            partition=RegionPartition([(0.0, 1.0)]))
    assert res.points == tuple((N, 0.0) for N in N_list)
    assert np.isnan(res.exponent) and np.isnan(res.r_squared)


def test_sweep_names_the_first_non_finite_witness_sample():
    # the sweep used to return nan residuals and a nan exponent; an infinite
    # sample is refused too, on the rung where it first appears
    def nan_beyond(x):
        return np.where(x > 0.7, np.nan, default_witness(x))

    with pytest.raises(ValueError, match=r"^witness is not finite at atom 45 \(x = 0\.703125\): nan$"):
        consistency_sweep(ModelKind.QNL, nan_beyond, [64, 128], POT1, partition=HALF_PART)

    def inf_at_last_atom(x):
        return np.where(x == 1.0, -np.inf, default_witness(x)) if len(x) > 64 else default_witness(x)

    with pytest.raises(ValueError, match=r"^witness is not finite at atom 128 \(x = 1\.0\): -inf$"):
        consistency_sweep(ModelKind.CONTINUUM, inf_at_last_atom, [64, 128], POT1)


def test_sweep_names_an_N_list_that_does_not_increase():
    for N_list in ([64, 64], [128, 64]):
        with pytest.raises(ValueError, match=rf"strictly increasing, got \[{N_list[0]}, {N_list[1]}\]"):
            consistency_sweep(ModelKind.CONTINUUM, default_witness, N_list, POT1)


def exact_moments_by_row(op, ref):
    """Per-row, per-offset Fraction sums: the moment check the CLI used to
    carry, kept as an oracle for the exact path of the shared moment sums."""
    K = max(op.half_width, ref.half_width)

    def entry(o, i, off):
        k = o.half_width
        return Fraction(o.band[i, k + off]) if abs(off) <= k else Fraction(0)

    return [
        [
            sum(((entry(op, i, off) - entry(ref, i, off)) * (i + 1 + off) ** p
                 for off in range(-K, K + 1)), Fraction(0))
            for p in (0, 1, 2)
        ]
        for i in range(op.config.N)
    ]


@pytest.mark.parametrize("R", [1, 2, 3])
def test_moment_sums_on_the_smallest_admitted_chain(R):
    # N = 2(2K + 2) is the shortest chain the unwrapped moment test admits;
    # an operator one wider than the reference widens it
    rng = np.random.default_rng(R)
    for K in (R, R + 1):
        N = 2 * (2 * K + 2)
        config = ChainConfig(N=N, F=1.2, R=R)
        ref = assemble_operator(ModelKind.ATOMISTIC, config, POT1)
        band = rng.integers(-4, 5, (N, 2 * K + 1)).astype(float)
        op = LinearChainOperator(config, ModelKind.CUSTOM, band, np.zeros(N))
        exact = _moment_sums(op, ref, exact=True)
        assert exact.tolist() == exact_moments_by_row(op, ref)
        assert (moment_residuals(op, ref).residuals == exact.astype(float)).all()
        short = ChainConfig(N=N - 1, F=1.2, R=R)
        op_short = LinearChainOperator(short, ModelKind.CUSTOM, band[1:], np.zeros(N - 1))
        with pytest.raises(ValueError, match="chain too short"):
            moment_residuals(op_short, assemble_operator(ModelKind.ATOMISTIC, short, POT1))


@pytest.mark.parametrize("potential, F", [(POT1, 1.2), (lennard_jones(), 1.1)])
def test_exact_moment_sums_are_fractions_matching_the_float_sums(potential, F):
    config = ChainConfig(N=64, F=F, R=2)
    ref = assemble_operator(ModelKind.ATOMISTIC, config, potential)
    m = 4
    stencil = InterfaceStencil(m, np.eye(m))  # half-width m + 1 > 2: widens the reference
    for kind in (ModelKind.QNL, ModelKind.QCE, ModelKind.QCF, ModelKind.CUSTOM):
        op = assemble_operator(
            kind, config, potential, partition=HALF_PART,
            stencil=stencil if kind is ModelKind.CUSTOM else None,
        )
        exact = _moment_sums(op, ref, exact=True)
        assert exact.shape == (64, 3)
        assert all(type(x) is Fraction for x in exact.ravel())
        assert exact.tolist() == exact_moments_by_row(op, ref)
        floats = moment_residuals(op, ref).residuals
        scale = np.abs(op.band).max() * 64**2
        assert np.abs(exact.astype(float) - floats).max() <= 1e-13 * scale
        if potential is POT1:  # integer stencils: the float sums are exact
            assert (exact.astype(float) == floats).all()


def assert_moment_sums_match_exact_rows(op, ref, rng):
    """Float and exact `_moment_sums` of op against ref, on the run starts of
    either, the atoms before them and 32 drawn rows (96 of those at most):
    the exact sums are `exact_moment_rows`' and the float sums lie within its
    bound (2K+1) eps_mach max_k |delta_k j^p|; on a chain of 64 atoms or
    fewer every exact row is `exact_moments_by_row`'s."""
    N = op.config.N
    starts = np.union1d(op.runs.starts, ref.runs.starts)
    rows = np.unique(np.concatenate([starts, starts - 1, rng.integers(0, N, 32)]) % N)
    rows = rows[np.linspace(0, len(rows) - 1, min(len(rows), 96)).astype(int)]
    want, bounds = exact_moment_rows(op, ref, rows)
    got, exact = _moment_sums(op, ref, exact=False), _moment_sums(op, ref, exact=True)
    assert exact[rows].tolist() == want
    for row, sums, bound in zip(got[rows], want, bounds):
        assert all(abs(Fraction(x) - w) <= e for x, w, e in zip(row, sums, bound)), (row, sums)
    if N <= 64:
        assert exact.tolist() == exact_moments_by_row(op, ref)


@settings(max_examples=40)
@given(
    N=st.integers(40, 2048),
    ends=st.sampled_from([1, 2, 3]).flatmap(
        lambda n: st.lists(st.integers(0, 2**16), min_size=2 * n, max_size=2 * n, unique=True)),
    m=st.integers(1, 8),
    potential=st.sampled_from(["harmonic", "lennard_jones"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_moment_sums_of_coupled_kinds_match_the_exact_rows(N, ends, m, potential, seed):
    # every coupled kind on a drawn geometry, CUSTOM with a normal block (a
    # least-squares stencil is no dyadic rational either) up to m = 8
    pot, F = POTENTIALS[potential]
    config = ChainConfig(N=N, F=F, R=2)
    ends = sorted(e / 2**16 for e in ends)
    partition = RegionPartition(list(zip(ends[::2], ends[1::2])), interface_width_m=m, reach=2)
    try:
        classify(partition, config)
    except ValueError:
        assume(False)
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((m, m))
    ref = assemble_operator(ModelKind.ATOMISTIC, config, pot)
    for kind in sorted(COUPLED):
        stencil = InterfaceStencil(m, block + block.T) if kind is ModelKind.CUSTOM else None
        op = assemble_operator(kind, config, pot, partition=partition, stencil=stencil)
        assert_moment_sums_match_exact_rows(op, ref, rng)


@settings(max_examples=40)
@given(
    R=st.integers(1, 4),
    wider=st.booleans(),
    N=st.integers(8, 1024),
    runs_reference=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_moment_sums_of_hand_built_runs_match_the_exact_rows(R, wider, N, runs_reference, seed):
    # an operator of half-width R or R + 1 with runs of 1..K+2 atoms against
    # the atomistic reference (one run) or a reference with runs of its own:
    # the merged runs start where either operator's do. A NaN entry makes
    # the NaN rows of the power table
    K = R + wider
    assume(N >= 2 * (2 * K + 2))
    config = ChainConfig(N=N, F=1.1, R=R)
    rng = np.random.default_rng(seed)

    def hand_built(kind, half_width):
        band = drawn_run_band(rng, N, half_width, "runs") * rng.uniform(0.1, 10.0)
        return LinearChainOperator(config, kind, band, np.zeros(N))

    op = hand_built(ModelKind.CUSTOM, K)
    ref = (hand_built(ModelKind.ATOMISTIC, R) if runs_reference
           else assemble_operator(ModelKind.ATOMISTIC, config, lennard_jones()))
    assert_moment_sums_match_exact_rows(op, ref, rng)
    band = np.array(op.band)
    band[rng.integers(0, N), rng.integers(0, 2 * K + 1)] = np.nan
    op = LinearChainOperator(config, ModelKind.CUSTOM, band, np.zeros(N))
    got, old = _moment_sums(op, ref, exact=False), moment_sums_power_table(op, ref)
    assert (np.isnan(got) == np.isnan(old)).all() and np.isnan(got).any()
