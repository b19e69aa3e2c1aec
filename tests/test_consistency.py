"""Moment tests, ghost-force experiments, smooth-field consistency sweeps."""

from fractions import Fraction

import numpy as np
import pytest

from qclab import (
    ChainConfig,
    InterfaceStencil,
    ModelKind,
    RegionPartition,
    assemble_operator,
    consistency_sweep,
    default_witness,
    ghost_force,
    harmonic,
    lennard_jones,
    moment_residuals,
)
from qclab.consistency import _moment_sums

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
