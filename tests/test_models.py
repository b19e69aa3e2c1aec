"""Model energies, operator assembly, ghost fields, strain form, diagnostics."""

import math
import re
import tracemalloc
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
    PeriodicField,
    RegionPartition,
    apply,
    apply_linear,
    assemble_from_moduli,
    assemble_operator,
    build_constraint_system,
    classify,
    convergence_study,
    default_witness,
    difference,
    energy_gradient,
    ghost_force,
    harmonic,
    hessian_consistency_check,
    lennard_jones,
    lp_norm,
    min_residual,
    moment_residuals,
    sample_field,
    solve_equilibrium,
    symmetry_defect,
    to_strain_form,
    total_energy,
    zeros,
)
from qclab.consistency import _moment_sums
from conftest import POTENTIALS, _block_atoms_reference, draw_geometry
from qclab.models import (
    COUPLED,
    ENERGY_BASED,
    _TermGroup,
    _assembled,
    _band_of,
    _band_runs,
    _bound_C,
    _energy_tables,
    _indicator,
    _row_codes,
    _run_moments,
    _runs_apply,
    _telescope,
    _term_spec,
    _transpose_gap,
)
from qclab.potentials import PairPotential, evaluate
from qclab.regions import INTERIOR_ATOMISTIC, INTERIOR_CONTINUUM, membership_mask

HALF_PART = RegionPartition([(0.0, 0.5)], interface_width_m=4, reach=2)
POT1 = harmonic(1.0, 1.0)

ATOM_ROW = np.array([-1.0, -1.0, 4.0, -1.0, -1.0])
CONT_ROW = np.array([0.0, -5.0, 10.0, -5.0, 0.0])

# The pure rows, offset -> coefficient, written out independently of the
# bond-term tables that qclab reads them from.
L1_ROW = {-1: -1, 0: 2, 1: -1}
ATOM_L2 = {-2: -1, 0: 2, 2: -1}
CONT_L2 = {-1: -4, 0: 8, 1: -4}


def stencil_row(row_map, K):
    """The offset -> coefficient table as one row of a half-width-K band."""
    row = np.zeros(2 * K + 1)
    for off, c in row_map.items():
        row[K + off] = c
    return row


def brute_force_energy(kind, config, pot, u):
    """Direct double-loop sum of the pairwise energies, wrap by hand."""
    N, F, R = config.N, config.F, config.R
    eps = 1.0 / N
    total = 0.0
    for r in range(1, R + 1):
        for i in range(1, N + 1):
            ui = u[i]
            if kind == "atomistic":
                strain = (ui - u[i - r]) / eps
            else:
                strain = r * (ui - u[i - 1]) / eps
            total += eps * evaluate(pot, r * F + strain, 0)
    return total


def brute_force_gradient(kind, config, pot, u):
    """(1/eps) dE/du of `brute_force_energy`, bond by bond: a bond argument
    rF + c (u_a - u_b)/eps adds c phi'/eps at atom a and takes it from b."""
    N, F, R = config.N, config.F, config.R
    eps = 1.0 / N
    grad = np.zeros(N)
    for r in range(1, R + 1):
        for i in range(1, N + 1):
            b, c = (i - r, 1) if kind == "atomistic" else (i - 1, r)
            force = c * evaluate(pot, r * F + c * (u[i] - u[b]) / eps, 1) / eps
            grad[(i - 1) % N] += force
            grad[(b - 1) % N] -= force
    return grad


def term_groups_reference(kind, config, mask):
    """The bond-term groups of `_term_spec` with their anchors as distinct
    0-based index arrays (the atoms off and on the kind's `_indicator`), the
    form the modulo and add.at oracles read; mask is the membership mask of
    a coupled kind's partition (unused otherwise)."""
    everyone = np.arange(config.N)
    anchors = {None: everyone}
    if kind in COUPLED:
        ind = _indicator(kind, mask)
        anchors.update({False: everyone[~ind], True: everyone[ind]})
    return [_TermGroup(r, anchors[s], pattern, w) for r, s, pattern, w in _term_spec(kind, config.R)]


def shell_bands_add_at(groups, N, R, K):
    """np.add.at reference for the band and ghost-weight accumulation."""
    bands = [np.zeros((N, 2 * K + 1)) for _ in range(R)]
    gweights = [np.zeros(N) for _ in range(R)]
    for g in groups:
        for o1, c1 in g.pattern:
            rows = (g.anchors + o1) % N
            np.add.at(gweights[g.shell - 1], rows, g.weight * c1)
            for o2, c2 in g.pattern:
                np.add.at(bands[g.shell - 1], (rows, K + (o2 - o1)), g.weight * c1 * c2)
    return bands, gweights


def assembled_add_at(kind, config, second, first, partition):
    """Band and ghost of an energy-based kind from `shell_bands_add_at`,
    combined with the moduli in assembly's order: 0 + s1 B1 + s2 B2, and
    (0 + f1 G1 + f2 G2) / eps."""
    N, R = config.N, config.R
    mask = membership_mask(partition, config) if kind in COUPLED else None
    bands, gweights = shell_bands_add_at(term_groups_reference(kind, config, mask), N, R, R)
    band, ghost = np.zeros((N, 2 * R + 1)), np.zeros(N)
    for r in range(R):
        band += second[r] * bands[r]
        ghost += first[r] * gweights[r]
    return band, ghost / config.epsilon


def native_rows_reference(kind, config, second, partition, stencil=None):
    """QCF and CUSTOM bands built row by row, as qclab did before its row
    tables: the native L2 row of each atom's region, and for CUSTOM the block
    rows overwritten boundary by boundary. Beside a one-atom block the
    continuum row also reads the atomistic atom two away, with the atomistic
    coefficient -1 that this atom reads it with, and its diagonal grows by 1."""
    regions = classify(partition, config)
    m = partition.interface_width_m
    K = 2 if kind is ModelKind.QCF else max(2, m + 1)
    l2 = np.where(regions.in_atomistic[:, None], stencil_row(ATOM_L2, K), stencil_row(CONT_L2, K))
    if kind is ModelKind.CUSTOM:
        js = np.arange(-1, m + 3)
        for boundary in regions.boundaries:
            atoms = _block_atoms_reference(boundary, m, config.N)
            direction = 1 if boundary[1] == "CA" else -1
            for i in range(1, m + 1):
                coeffs = np.concatenate((
                    [CONT_L2.get(j - i, 0) for j in (-1, 0)],
                    stencil.block[i - 1],
                    [ATOM_L2.get(j - i, 0) for j in (m + 1, m + 2)],
                ))
                l2[atoms[i - 1] - 1, :] = 0.0
                l2[atoms[i - 1] - 1, K + direction * (js - i)] += coeffs
            if m == 1:
                neighbour = (atoms[0] - 1 - direction) % config.N
                l2[neighbour, K] += 1.0
                l2[neighbour, K + 2 * direction] -= 1.0
    return second[0] * stencil_row(L1_ROW, K) + second[1] * l2


def bond_arguments_modulo(kind, config, u, partition):
    """(group, rF + g.u/eps) of every bond-term group, u gathered through
    (anchors + offset) % N: the read qclab used before its padded windows."""
    v, N = u.values, config.N
    mask = membership_mask(partition, config) if kind in COUPLED else None
    out = []
    for g in term_groups_reference(kind, config, mask):
        s = np.zeros(len(g.anchors))
        for off, c in g.pattern:
            s += c * v[(g.anchors + off) % N]
        out.append((g, g.shell * config.F + s / config.epsilon))
    return out


def total_energy_modulo(kind, config, pot, u, partition):
    """Total energy from `bond_arguments_modulo`, summed as qclab sums it."""
    total = 0.0
    for g, args in bond_arguments_modulo(kind, config, u, partition):
        total += g.weight * config.epsilon * float(np.sum(evaluate(pot, args, 0)))
    return total


def energy_gradient_add_at(kind, config, pot, u, partition):
    """np.add.at reference for the scaled energy gradient."""
    grad = np.zeros(config.N)
    for g, args in bond_arguments_modulo(kind, config, u, partition):
        dphi = np.asarray(evaluate(pot, args, 1))
        for off, c in g.pattern:
            np.add.at(grad, (g.anchors + off) % config.N, g.weight * c * dphi)
    return grad / config.epsilon


def transpose_gaps_roll(band):
    """A[i, i+k] - A[i+k, i] for k = 0..K through one np.roll per offset, as
    qclab paired the transpose before its wrapped windows."""
    K = (band.shape[1] - 1) // 2
    return [band[:, K + k] - np.roll(band[:, K - k], -k) for k in range(K + 1)]


def same_float(got, want) -> bool:
    """The same float64 bits, or both NaN."""
    got, want = float(got), float(want)
    return math.isnan(got) and math.isnan(want) or got.hex() == want.hex()


def assert_runs_match_oracles(band, runs=None):
    """Runs of band, `_band_runs` unless given, against the per-row oracles:
    they start at atom 1 and wherever a row differs bit for bit from the one
    before, and the transpose gap looked up by run and the max |row sum|,
    max |entry| and bound_C of the run rows have the oracles' bits, NaN
    exactly where they are NaN."""
    runs = _band_runs(band) if runs is None else runs
    starts = [0] + [i for i in range(1, len(band)) if band[i].tobytes() != band[i - 1].tobytes()]
    assert runs.starts.tolist() == starts and runs.N == len(band)
    assert runs.lengths.tolist() == np.diff(starts + [len(band)]).tolist()
    assert runs.rows.tobytes() == band[starts].tobytes()
    got, gap = _transpose_gap(runs), np.max([np.abs(g).max() for g in transpose_gaps_roll(band)])
    assert same_float(got, gap), (got, gap)
    row_sum = [np.abs(_run_moments(rows, 0)[0]).max() for rows in (runs.rows, band)]
    assert same_float(*row_sum)
    assert same_float(np.abs(runs.rows).max(), np.abs(band).max())
    assert same_float(_bound_C(_telescope(runs.rows)), _bound_C(_telescope(band)))


def widened_delta(op, reference):
    """op's band minus the reference's, both zero-padded to the larger half-width."""
    K = max(op.half_width, reference.half_width)

    def widen(o):
        pad = K - o.half_width
        return o.band if pad == 0 else np.pad(o.band, ((0, 0), (pad, pad)))

    return widen(op) - widen(reference)


def moment_sums_power_table(op, reference):
    """The float moment sums through an (N, 2K+1) table of absolute indices
    and its integer powers, as qclab formed them before its per-offset loop."""
    delta = widened_delta(op, reference)
    K = (delta.shape[1] - 1) // 2
    j_abs = np.arange(1, op.config.N + 1)[:, None] + np.arange(-K, K + 1)[None, :]
    return np.stack([np.sum(delta * j_abs**p, axis=1) for p in (0, 1, 2)], axis=1)


def exact_moment_rows(op, reference, rows):
    """Exact moment sums of the given 0-based rows and the rounding bound
    (2K+1) eps_mach max_k |delta_k j^p| of each, as (rows, 3) lists of
    Fractions. A row's entries are read as integers over their common
    power-of-two denominator, so the sums are integer arithmetic."""
    K = max(op.half_width, reference.half_width)
    eps = Fraction(np.finfo(float).eps)

    def entry(o, i, off):  # (numerator, power-of-two denominator)
        if abs(off) > o.half_width:
            return 0, 1
        return float(o.band[i, o.half_width + off]).as_integer_ratio()

    sums, bounds = [], []
    for i in map(int, rows):
        pairs = [(entry(op, i, off), entry(reference, i, off), i + 1 + off)
                 for off in range(-K, K + 1)]
        D = max(max(a[1], b[1]) for a, b, _ in pairs)
        terms = [[(a[0] * (D // a[1]) - b[0] * (D // b[1])) * j**p for a, b, j in pairs]
                 for p in (0, 1, 2)]
        sums.append([Fraction(sum(t), D) for t in terms])
        bounds.append([(2 * K + 1) * eps * Fraction(max(map(abs, t)), D) for t in terms])
    return sums, bounds


# ---------------------------------------------------------------------------
# energies


def test_uniform_deformation_energies():
    config = ChainConfig(N=8, F=1.0, R=2)
    u = zeros(config)
    for kind in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM):
        assert total_energy(kind, config, POT1, u) == pytest.approx(0.5, abs=1e-14)
    e = total_energy(ModelKind.QNL, config, POT1, u, partition=HALF_PART)
    assert e == pytest.approx(0.5, abs=1e-14)
    e = total_energy(ModelKind.QCE, config, POT1, u, partition=HALF_PART)
    assert e == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("kind", [ModelKind.ATOMISTIC, ModelKind.CONTINUUM])
def test_energy_matches_brute_force(kind):
    rng = np.random.default_rng(5)
    config = ChainConfig(N=8, F=1.3, R=2)
    u = PeriodicField(config, 0.05 * rng.standard_normal(8))
    got = total_energy(kind, config, POT1, u)
    want = brute_force_energy(kind.value, config, POT1, u)
    assert got == pytest.approx(want, abs=1e-13)
    got_lj = total_energy(kind, ChainConfig(N=8, F=1.1, R=2), lennard_jones(), u)
    want_lj = brute_force_energy(kind.value, ChainConfig(N=8, F=1.1, R=2), lennard_jones(), u)
    assert got_lj == pytest.approx(want_lj, abs=1e-13)


@pytest.mark.parametrize("R", [1, 2, 3])
@pytest.mark.parametrize("kind", [ModelKind.ATOMISTIC, ModelKind.CONTINUUM])
def test_smallest_chain_energy_and_gradient_match_brute_force(kind, R):
    # N = 2R + 1: every window of the padded field wraps the whole ring
    config = ChainConfig(N=2 * R + 1, F=1.1, R=R)
    rng = np.random.default_rng(R)
    u = PeriodicField(config, 0.05 * rng.standard_normal(config.N) / config.N)
    for pot in (POT1, lennard_jones()):
        want = brute_force_gradient(kind.value, config, pot, u)
        got = energy_gradient(kind, config, pot, u)
        assert got.tobytes() == energy_gradient_add_at(kind, config, pot, u, None).tobytes()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        energy = total_energy(kind, config, pot, u)
        assert energy == total_energy_modulo(kind, config, pot, u, None)
        assert energy == pytest.approx(brute_force_energy(kind.value, config, pot, u), abs=1e-13)


def test_qce_with_all_atomistic_region_equals_atomistic():
    rng = np.random.default_rng(6)
    config = ChainConfig(N=16, F=1.2, R=2)
    u = PeriodicField(config, 0.02 * rng.standard_normal(16))
    part = RegionPartition([(0.0, 1.0)])
    a = total_energy(ModelKind.ATOMISTIC, config, POT1, u)
    b = total_energy(ModelKind.QCE, config, POT1, u, partition=part)
    assert b == pytest.approx(a, rel=1e-13)


def test_energy_rejects_force_based_kinds():
    config = ChainConfig(N=16, F=1.2, R=2)
    u = zeros(config)
    with pytest.raises(ValueError):
        total_energy(ModelKind.QCF, config, POT1, u, partition=HALF_PART)
    with pytest.raises(ValueError):
        total_energy(ModelKind.CUSTOM, config, POT1, u, partition=HALF_PART)


# ---------------------------------------------------------------------------
# assembly


def test_interior_rows_closed_form():
    config = ChainConfig(N=32, F=1.2, R=2)
    op_a = assemble_operator(ModelKind.ATOMISTIC, config, POT1)
    op_c = assemble_operator(ModelKind.CONTINUUM, config, POT1)
    for i in range(1, 33):
        np.testing.assert_array_equal(op_a.row(i)[1], ATOM_ROW)
        np.testing.assert_array_equal(op_c.row(i)[1], CONT_ROW)


def test_qcf_rows_are_native_rows():
    config = ChainConfig(N=32, F=1.2, R=2)
    op = assemble_operator(ModelKind.QCF, config, POT1, partition=HALF_PART)
    labels = classify(HALF_PART, config)
    for i in range(1, 33):
        want = ATOM_ROW if labels.in_atomistic[i - 1] else CONT_ROW
        np.testing.assert_array_equal(op.row(i)[1], want)


@pytest.mark.parametrize("kind", [ModelKind.QCE, ModelKind.QNL, ModelKind.QCF])
def test_deep_region_rows_match_pure_stencils(kind):
    config = ChainConfig(N=64, F=1.2, R=2)
    op = assemble_operator(kind, config, POT1, partition=HALF_PART)
    labels = classify(HALF_PART, config)
    K = op.half_width
    for i in labels.atoms(INTERIOR_ATOMISTIC):
        np.testing.assert_array_equal(op.row(i)[1][K - 2 : K + 3], ATOM_ROW)
    for i in labels.atoms(INTERIOR_CONTINUUM):
        np.testing.assert_array_equal(op.row(i)[1][K - 2 : K + 3], CONT_ROW)


@pytest.mark.parametrize("kind, offsets", [(ModelKind.QCE, [-2, -1, 0, 1, 2]),
                                           (ModelKind.QNL, [-2, -1, 0])])
def test_energy_tables_take_one_bit_per_offset_of_the_indicator(kind, offsets):
    # one code bit per offset of the kind's one anchor indicator: QCE 5 bits
    # and 32 rows, QNL 3 bits and 8 rows
    bits, bands, gweights = _energy_tables(kind, 2)
    assert bits == offsets
    assert bands.shape == (2, 2 ** len(offsets), 5) and gweights.shape == (2, 2 ** len(offsets))


@pytest.mark.parametrize("kind", [ModelKind.QCE, ModelKind.QNL])
def test_every_code_is_realized_and_matches_the_add_at_rows(kind):
    # every membership mask of a ring of 8 atoms: each code its indicator
    # gives a row reads the band row and ghost weight that np.add.at scatters
    # there, bit for bit, and every code of the table occurs on some ring
    N, R = 8, 2
    config = ChainConfig(N=N, F=1.2, R=R)
    bits, bands, gweights = _energy_tables(kind, R)
    seen = set()
    for pattern in range(2 ** N):
        mask = (pattern >> np.arange(N)) & 1 == 1
        codes = _row_codes(kind, bits, mask)
        want, want_g = shell_bands_add_at(term_groups_reference(kind, config, mask), N, R, R)
        for r in range(R):
            assert bands[r][codes].tobytes() == want[r].tobytes(), (pattern, r)
            assert gweights[r][codes].tobytes() == want_g[r].tobytes(), (pattern, r)
        seen.update(codes.tolist())
    assert seen == set(range(2 ** len(bits)))


def test_row_sums_vanish_for_shift_invariant_models():
    config = ChainConfig(N=64, F=1.2, R=2)
    for kind in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM):
        op = assemble_operator(kind, config, POT1)
        assert np.all(op.row_sums() == 0.0)
    for kind in (ModelKind.QCE, ModelKind.QNL, ModelKind.QCF):
        op = assemble_operator(kind, config, POT1, partition=HALF_PART)
        assert np.abs(op.row_sums()).max() == 0.0
    op_lj = assemble_operator(
        ModelKind.QNL, config, lennard_jones(), partition=HALF_PART
    )
    assert np.abs(op_lj.row_sums()).max() <= 1e-13


@pytest.mark.parametrize("potential", ["harmonic", "lennard_jones"])
def test_row_sums_match_axis_reduction(potential, random_geometry):
    # column-by-column adds group the terms as numpy's short-row reduction
    # does up to width 7; wider custom rows (m >= 3) may differ in the last bit
    rng = np.random.default_rng(71 + len(potential))
    for N, n_intervals in ((64, 1), (256, 2), (1024, 3)):
        config, pot, partition = random_geometry(rng, N, potential, n_intervals)
        m = partition.interface_width_m
        ops = [
            assemble_operator(kind, config, pot, partition=partition)
            for kind in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM, ModelKind.QCE,
                         ModelKind.QNL, ModelKind.QCF)
        ]
        ops.append(assemble_operator(
            ModelKind.CUSTOM, config, pot, partition=partition,
            stencil=zero_sum_custom_stencil(rng, m),
        ))
        for op in ops:
            want = op.band.sum(axis=1)  # the reduction row_sums replaced
            if op.band.shape[1] <= 7:
                assert op.row_sums().tobytes() == want.tobytes()
            else:
                assert np.abs(op.row_sums() - want).max() <= 4e-16 * np.abs(op.band).max()


def test_coupled_assembly_requires_partition_and_r2():
    config = ChainConfig(N=64, F=1.2, R=2)
    with pytest.raises(ValueError):
        assemble_operator(ModelKind.QNL, config, POT1)
    with pytest.raises(ValueError):
        assemble_operator(
            ModelKind.QNL, ChainConfig(N=64, F=1.2, R=3), POT1, partition=HALF_PART
        )


def test_moduli_decomposition_recombines():
    config = ChainConfig(N=64, F=1.1, R=2)
    pot = lennard_jones()
    a = evaluate(pot, config.F, 2)
    b = evaluate(pot, 2 * config.F, 2)
    for kind in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM, ModelKind.QNL, ModelKind.QCE,
                 ModelKind.QCF):
        part = None if kind in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM) else HALF_PART
        op1 = assemble_from_moduli(kind, config, (1.0, 0.0), partition=part)
        op2 = assemble_from_moduli(kind, config, (0.0, 1.0), partition=part)
        full = assemble_from_moduli(kind, config, (a, b), partition=part)
        np.testing.assert_allclose(
            a * op1.band + b * op2.band, full.band, atol=1e-13
        )


@pytest.mark.parametrize("kind", [ModelKind.ATOMISTIC, ModelKind.QNL, ModelKind.QCF, ModelKind.CUSTOM],
                         ids=lambda k: k.value)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_assembly_names_a_modulus_that_is_not_finite(kind, bad):
    # a non-finite phi'' or phi' would assemble a band of NaN (one run per
    # code, which a NaN row does not split), refused later as a band that
    # does not annihilate constants; it is refused here, by its shell
    config = ChainConfig(N=32, F=1.2, R=2)
    part = HALF_PART if kind in COUPLED else None
    stencil = InterfaceStencil(4, np.zeros((4, 4))) if kind is ModelKind.CUSTOM else None
    for second, first, name, r in (([bad, 1.0], None, "phi''(rF)", 1), ([1.0, bad], None, "phi''(rF)", 2),
                                   ([1.0, 1.0], [0.0, bad], "phi'(rF)", 2)):
        want = re.escape(f"modulus {name} of shell r={r} is not finite: {bad}")
        with pytest.raises(ValueError, match=want):
            assemble_from_moduli(kind, config, second, first, partition=part, stencil=stencil)


def test_assembly_refuses_a_modulus_count_other_than_the_shells():
    config = ChainConfig(N=32, F=1.2, R=2)
    for second, first in (([1.0], None), ([1.0, 1.0, 1.0], None), ([1.0, 1.0], [0.0])):
        with pytest.raises(ValueError, match=re.escape("need one modulus per shell r=1..2")):
            assemble_from_moduli(ModelKind.ATOMISTIC, config, second, first)


def test_dense_realization_refuses_a_long_chain():
    config = ChainConfig(N=4097, F=1.2, R=2)
    op = assemble_operator(ModelKind.ATOMISTIC, config, POT1)
    with pytest.raises(ValueError, match="dense realization refused for N=4097 > 4096"):
        op.dense()


# ---------------------------------------------------------------------------
# application


def test_apply_annihilates_constants():
    config = ChainConfig(N=32, F=1.2, R=2)
    c = PeriodicField(config, np.full(32, 3.3))
    for kind in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM):
        op = assemble_operator(kind, config, POT1)
        assert np.abs(apply(op, c).values).max() <= 1e-11
    op = assemble_operator(ModelKind.QNL, config, POT1, partition=HALF_PART)
    assert np.abs(apply(op, c).values).max() <= 1e-11


def test_apply_impulse_gives_matrix_column():
    config = ChainConfig(N=32, F=1.2, R=2)
    op = assemble_operator(ModelKind.ATOMISTIC, config, POT1)
    dense = op.dense()
    e7 = np.zeros(32)
    e7[6] = 1.0
    np.testing.assert_array_equal(apply_linear(op, e7), dense[:, 6])


@pytest.mark.parametrize("N", [32, 64, 256])
def test_apply_matches_dense_oracle(N):
    rng = np.random.default_rng(N)
    config = ChainConfig(N=N, F=1.2, R=2)
    part = RegionPartition([(0.0, 0.5)])
    u = rng.standard_normal(N)
    eps2 = config.epsilon**2
    for kind in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM, ModelKind.QNL, ModelKind.QCE):
        op = assemble_operator(
            kind, config, POT1,
            partition=None if kind in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM) else part,
        )
        got = apply(op, u)
        want = op.dense() @ u + op.ghost
        # compared in the eps^2-scaled dimensionless units of the stencils
        assert np.abs(eps2 * (got - want)).max() <= 1e-12


@pytest.mark.parametrize("length", [1, 65])
def test_apply_rejects_wrong_field_length(length):
    config = ChainConfig(N=64, F=1.2, R=2)
    op = assemble_operator(ModelKind.QNL, config, POT1, partition=HALF_PART)
    v = np.ones(length)
    with pytest.raises(ValueError, match="field length"):
        apply_linear(op, v)
    with pytest.raises(ValueError, match="field length"):
        to_strain_form(op).apply_strain(v)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_abs_band_apply_matches_dense_oracle(kind):
    # the |A| |u| term of the solver's residual floor
    rng = np.random.default_rng(17)
    config = ChainConfig(N=64, F=1.1, R=2)
    b = rng.standard_normal((4, 4))
    op = assemble_operator(
        kind, config, lennard_jones(),
        partition=None if kind in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM) else HALF_PART,
        stencil=InterfaceStencil(4, b + b.T) if kind is ModelKind.CUSTOM else None,
    )
    u = rng.standard_normal(64)
    out, mag = _runs_apply(op.runs, u, floor=True)
    assert (out / config.epsilon**2).tobytes() == apply_linear(op, u).tobytes()
    want = np.abs(op.dense()) @ np.abs(u)
    np.testing.assert_allclose(mag / config.epsilon**2, want, rtol=1e-14, atol=0.0)


def test_apply_wraps_field_type():
    config = ChainConfig(N=32, F=1.2, R=2)
    op = assemble_operator(ModelKind.ATOMISTIC, config, POT1)
    u = sample_field(lambda x: np.sin(2 * np.pi * x), config)
    out = apply(op, u)
    assert isinstance(out, PeriodicField)
    assert out.config is config


def test_apply_takes_an_array_like_field():
    # a list is read as the values it holds, as apply_strain reads one
    config = ChainConfig(N=16, F=1.2, R=2)
    op = assemble_operator(ModelKind.QNL, config, POT1, partition=HALF_PART)
    values = np.sin(2 * np.pi * config.positions())
    out = apply(op, values.tolist())
    assert isinstance(out, np.ndarray)
    assert out.tobytes() == apply(op, values).tobytes()
    assert apply(op, [0.0] * 16).tobytes() == apply(op, np.zeros(16)).tobytes()
    with pytest.raises(ValueError, match="field length does not match operator size"):
        apply(op, [0.0] * 15)


# ---------------------------------------------------------------------------
# ghost fields


def test_ghost_free_kinds():
    for N in (32, 64, 128):
        config = ChainConfig(N=N, F=1.2, R=2)
        for kind in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM):
            assert np.abs(assemble_operator(kind, config, POT1).ghost).max() == 0.0
        for kind in (ModelKind.QNL, ModelKind.QCF):
            op = assemble_operator(kind, config, POT1, partition=HALF_PART)
            assert np.abs(op.ghost).max() <= 1e-12
        op_lj = assemble_operator(
            ModelKind.QNL, config, lennard_jones(), partition=HALF_PART
        )
        assert np.abs(op_lj.ghost).max() <= 1e-12


# a range of uniform stretch per potential: harmonic chains at any F, and
# Lennard-Jones chains from compression to well past the inflection point
F_RANGES = {"harmonic": (0.5, 2.0), "lennard_jones": (0.9, 2.0)}


@settings(max_examples=80)
@given(
    N=st.integers(256, 4096),
    potential=st.sampled_from(sorted(POTENTIALS)),
    n_intervals=st.integers(1, 3),
    stretch=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_ghost_free_kinds_over_random_geometries(N, potential, n_intervals, stretch, seed):
    # criterion 3 over multi-interval geometries, both potentials and a range
    # of F: QNL and QCF keep a ghost sup <= 1e-12, and QNL, QCF, atomistic and
    # continuum have a strain form with a finite, positive bound_C
    _, pot, partition = draw_geometry(np.random.default_rng(seed), N, potential, n_intervals)
    lo, hi = F_RANGES[potential]
    config = ChainConfig(N=N, F=lo + stretch * (hi - lo), R=2)
    for kind in (ModelKind.QNL, ModelKind.QCF, ModelKind.ATOMISTIC, ModelKind.CONTINUUM):
        op = assemble_operator(kind, config, pot, partition=partition if kind in COUPLED else None)
        if kind in COUPLED:
            assert np.abs(op.ghost).max() <= 1e-12, kind
        bound_C = to_strain_form(op).bound_C
        assert math.isfinite(bound_C) and bound_C > 0.0, kind


def test_qce_ghost_magnitude():
    config = ChainConfig(N=64, F=1.2, R=2)
    op = assemble_operator(ModelKind.QCE, config, POT1, partition=HALF_PART)
    # per-atom splitting leaves half of phi'(2F) unbalanced at the boundary
    want = 0.5 * evaluate(POT1, 2 * config.F, 1) / config.epsilon
    assert np.abs(op.ghost).max() == pytest.approx(want, rel=1e-14)


def fd_gradient(kind, config, pot, partition, h):
    """Central differences of total_energy; independent of the bond tables'
    gradient path."""
    N = config.N
    g = np.zeros(N)
    base = np.zeros(N)
    for k in range(N):
        base[k] = h
        ep = total_energy(kind, config, pot, PeriodicField(config, base), partition)
        base[k] = -h
        em = total_energy(kind, config, pot, PeriodicField(config, base), partition)
        base[k] = 0.0
        g[k] = (ep - em) / (2 * h)
    return g / config.epsilon


def test_ghost_equals_scaled_energy_gradient():
    config = ChainConfig(N=32, F=1.2, R=2)
    for kind in (ModelKind.ATOMISTIC, ModelKind.QNL, ModelKind.QCE):
        part = None if kind is ModelKind.ATOMISTIC else HALF_PART
        op = assemble_operator(kind, config, POT1, partition=part)
        fd = fd_gradient(kind, config, POT1, part, h=1e-4)
        assert np.abs(op.ghost - fd).max() <= 1e-10
    op = assemble_operator(ModelKind.QCE, config, lennard_jones(), partition=HALF_PART)
    fd = fd_gradient(ModelKind.QCE, config, lennard_jones(), HALF_PART, h=1e-6)
    assert np.abs(op.ghost - fd).max() <= 1e-5


def test_analytic_gradient_matches_energy_fd_at_generic_state():
    rng = np.random.default_rng(17)
    config = ChainConfig(N=32, F=1.2, R=2)
    u = PeriodicField(config, 1e-3 * rng.standard_normal(32))
    for kind, pot in ((ModelKind.QNL, POT1), (ModelKind.QCE, lennard_jones())):
        grad = energy_gradient(kind, config, pot, u, partition=HALF_PART)
        h = 1e-4 if pot.kind == "harmonic" else 1e-6
        N = config.N
        fd = np.zeros(N)
        base = u.values.copy()
        for k in range(N):
            up = base.copy()
            up[k] += h
            dn = base.copy()
            dn[k] -= h
            fd[k] = (
                total_energy(kind, config, pot, PeriodicField(config, up), HALF_PART)
                - total_energy(kind, config, pot, PeriodicField(config, dn), HALF_PART)
            ) / (2 * h)
        fd /= config.epsilon
        tol = 1e-9 if pot.kind == "harmonic" else 1e-4
        assert np.abs(grad - fd).max() <= tol


# ---------------------------------------------------------------------------
# symmetry and hessian diagnostics


def test_symmetry_defects():
    config = ChainConfig(N=64, F=1.2, R=2)
    assert symmetry_defect(assemble_operator(ModelKind.ATOMISTIC, config, POT1)) == 0.0
    assert symmetry_defect(assemble_operator(ModelKind.CONTINUUM, config, POT1)) == 0.0
    for kind in (ModelKind.QNL, ModelKind.QCE):
        op = assemble_operator(kind, config, POT1, partition=HALF_PART)
        assert symmetry_defect(op) <= 1e-12
    op = assemble_operator(ModelKind.QCF, config, POT1, partition=HALF_PART)
    assert symmetry_defect(op) > 0.0


def test_hessian_consistency_harmonic():
    config = ChainConfig(N=32, F=1.2, R=2)
    for kind in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM):
        assert hessian_consistency_check(kind, config, POT1) <= 1e-6
    for kind in (ModelKind.QNL, ModelKind.QCE):
        assert hessian_consistency_check(kind, config, POT1, partition=HALF_PART) <= 1e-6


def test_hessian_consistency_lennard_jones():
    config = ChainConfig(N=32, F=1.1, R=2)
    pot = lennard_jones()
    assert hessian_consistency_check(ModelKind.ATOMISTIC, config, pot) <= 1e-5
    assert (
        hessian_consistency_check(ModelKind.QNL, config, pot, partition=HALF_PART) <= 1e-5
    )


def test_hessian_check_rejects_force_based():
    config = ChainConfig(N=32, F=1.2, R=2)
    with pytest.raises(ValueError):
        hessian_consistency_check(ModelKind.QCF, config, POT1, partition=HALF_PART)


@pytest.mark.parametrize("step", [0.0, math.nan, math.inf, 5e-324, -1e-307])
def test_hessian_check_names_a_degenerate_step(step):
    # step=0 and step=5e-324 (whose eps * step underflows to 0) returned NaN
    # behind a RuntimeWarning, and step=nan was refused as a field that is
    # not finite at atom 1
    config = ChainConfig(N=32, F=1.2, R=2)
    tiny = {5e-324: "0.0", -1e-307: "-3.125e-309"}  # eps * step at N = 32
    want = (f"step {step} at N=32 gives a strain step eps * step = {tiny[step]} below the "
            "smallest normal float" if step in tiny else f"step must be finite and nonzero, got {step}")
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        hessian_consistency_check(ModelKind.ATOMISTIC, config, POT1, step=step)


def test_hessian_check_refuses_a_long_chain():
    config = ChainConfig(N=513, F=1.2, R=2)
    with pytest.raises(ValueError, match="hessian check is a dense diagnostic; use N <= 512"):
        hessian_consistency_check(ModelKind.ATOMISTIC, config, POT1)


# ---------------------------------------------------------------------------
# strain form


def test_strain_form_continuum_row():
    config = ChainConfig(N=32, F=1.2, R=2)
    sf = to_strain_form(assemble_operator(ModelKind.CONTINUUM, config, POT1))
    row = _band_of(sf)[5]
    offsets = np.arange(-1, 3)  # strain offsets 1-K..K, K = 2
    want = {0: 5.0, 1: -5.0}
    for k, val in zip(offsets, row):
        assert val == want.get(k, 0.0)
    assert sf.bound_C == 10.0


def test_strain_form_atomistic_bound():
    config = ChainConfig(N=32, F=1.2, R=2)
    sf = to_strain_form(assemble_operator(ModelKind.ATOMISTIC, config, POT1))
    assert sf.bound_C == 6.0


def test_strain_form_matches_direct_application():
    rng = np.random.default_rng(99)
    config = ChainConfig(N=64, F=1.2, R=2)
    eps = config.epsilon
    for kind in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM, ModelKind.QNL):
        part = None if kind is not ModelKind.QNL else HALF_PART
        op = assemble_operator(kind, config, POT1, partition=part)
        sf = to_strain_form(op)
        for _ in range(100):
            u = PeriodicField(config, rng.standard_normal(64))
            du = difference(u, 1, 1)
            direct = apply(op, u).values
            via_strain = sf.apply_strain(du.values)
            assert np.abs(eps * (direct - via_strain)).max() <= 1e-12


def test_strain_form_bound_inequality():
    rng = np.random.default_rng(123)
    config = ChainConfig(N=64, F=1.2, R=2)
    op = assemble_operator(ModelKind.QNL, config, POT1, partition=HALF_PART)
    sf = to_strain_form(op)
    for _ in range(1000):
        v = PeriodicField(config, rng.standard_normal(64))
        lv = lp_norm(apply(op, v), math.inf)
        dv = lp_norm(difference(v, 1, 1), math.inf)
        assert lv <= sf.bound_C / config.epsilon * dv * (1 + 1e-12)


def test_strain_form_bound_independent_of_n():
    bounds = []
    for N in (64, 128, 256):
        config = ChainConfig(N=N, F=1.2, R=2)
        op = assemble_operator(ModelKind.QNL, config, POT1, partition=HALF_PART)
        bounds.append(to_strain_form(op).bound_C)
    assert bounds == [bounds[0]] * 3


def test_strain_form_rejections():
    config = ChainConfig(N=64, F=1.2, R=2)
    qce = assemble_operator(ModelKind.QCE, config, POT1, partition=HALF_PART)
    with pytest.raises(ValueError):
        to_strain_form(qce)  # nonzero ghost
    ident = InterfaceStencil(4, np.eye(4))
    op = assemble_operator(ModelKind.CUSTOM, config, POT1, partition=HALF_PART, stencil=ident)
    with pytest.raises(ValueError):
        to_strain_form(op)  # nonzero row sums


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_strain_form_refuses_a_nonfinite_ghost(bad):
    # a NaN ghost entry passed the old test max |ghost| > tol, which is
    # False for NaN, and got a strain form with bound_C 10.0
    config = ChainConfig(N=64, F=1.2, R=2)
    op = assemble_operator(ModelKind.QNL, config, POT1, partition=HALF_PART)
    ghost = np.zeros(64)
    ghost[17] = bad
    with pytest.raises(ValueError, match="operator has a ghost field"):
        to_strain_form(LinearChainOperator(config, op.kind, op.band, ghost))
    assert to_strain_form(op).bound_C == 10.0  # the same band with a zero ghost


def strain_band_loop(op):
    """Per-(offset, k) reference for the strain band of to_strain_form."""
    N, K = op.config.N, op.half_width
    sband = np.zeros((N, 2 * K))
    col = {k: idx for idx, k in enumerate(range(1 - K, K + 1))}
    for off in range(-K, K + 1):
        c = op.band[:, K + off]
        if off > 0:
            for k in range(1, off + 1):
                sband[:, col[k]] += c
        elif off < 0:
            for k in range(off + 1, 1):
                sband[:, col[k]] -= c
    return sband


def zero_sum_custom_stencil(rng, m):
    """Random symmetric block whose CUSTOM rows have zero row sums."""
    block = rng.standard_normal((m, m))
    block += block.T
    pinned = [
        sum(CONT_L2.get(j - i, 0) for j in (-1, 0))
        + sum(ATOM_L2.get(j - i, 0) for j in (m + 1, m + 2))
        for i in range(1, m + 1)
    ]
    block[np.diag_indices(m)] -= block.sum(axis=1) + pinned
    return InterfaceStencil(m, block)


@pytest.mark.parametrize("potential", ["harmonic", "lennard_jones"])
def test_strain_band_matches_loop_reference(potential, random_geometry):
    rng = np.random.default_rng(17 + len(potential))
    for N, n_intervals in ((64, 1), (256, 2), (1024, 3)):
        config, pot, partition = random_geometry(rng, N, potential, n_intervals)
        ops = [
            assemble_operator(kind, config, pot, partition=partition if kind in COUPLED else None)
            for kind in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM, ModelKind.QNL, ModelKind.QCF)
        ]
        # ghost-free QCE: second moduli only
        ops.append(
            assemble_from_moduli(ModelKind.QCE, config, rng.normal(size=2), partition=partition)
        )
        for op in ops:
            want = strain_band_loop(op)
            sf = to_strain_form(op)
            assert _band_of(sf).tobytes() == want.tobytes()
            assert sf.bound_C == float(np.abs(want).sum(axis=1).max())
        stencil = zero_sum_custom_stencil(rng, partition.interface_width_m)
        op = assemble_operator(ModelKind.CUSTOM, config, pot, partition=partition, stencil=stencil)
        want = strain_band_loop(op)
        sf = to_strain_form(op)
        assert _band_of(sf).shape == want.shape
        assert np.abs(_band_of(sf) - want).max() <= 1e-15 * np.abs(want).max()


# ---------------------------------------------------------------------------
# parametric interface stencils


def test_custom_requires_matching_block():
    config = ChainConfig(N=64, F=1.2, R=2)
    with pytest.raises(ValueError):
        assemble_operator(
            ModelKind.CUSTOM, config, POT1, partition=HALF_PART,
            stencil=InterfaceStencil(3, np.zeros((3, 3))),
        )
    with pytest.raises(ValueError):
        InterfaceStencil(2, np.array([[1.0, 2.0], [2.1, 1.0]]))  # not symmetric


@pytest.mark.parametrize("shape", [(3, 4), (4, 3), (2, 2), (16,)])
def test_interface_stencil_refuses_a_block_of_another_shape(shape):
    with pytest.raises(ValueError, match=re.escape(f"expected a 4x4 block, got {shape}")):
        InterfaceStencil(4, np.zeros(shape))


def test_custom_requires_a_stencil():
    config = ChainConfig(N=64, F=1.2, R=2)
    with pytest.raises(ValueError, match="custom model requires an InterfaceStencil"):
        assemble_operator(ModelKind.CUSTOM, config, POT1, partition=HALF_PART)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_interface_stencil_names_an_entry_that_is_not_finite(bad):
    # a NaN was refused as "not exactly symmetric"; an inf was accepted, and
    # only the solver refused the band it gave
    block = np.eye(3)
    block[2, 1] = block[1, 2] = bad
    with pytest.raises(ValueError, match=rf"not finite at row 2, column 3: {bad}$"):
        InterfaceStencil(3, block)


@pytest.mark.parametrize("m", [2.0, 0, -1])
def test_interface_stencil_refuses_an_m_that_is_not_a_positive_integer(m):
    # 2.0 went through int(), and 0 was accepted with an empty block
    want = "m must be an integer, got 2.0" if isinstance(m, float) else f"m must be positive, got {m}"
    with pytest.raises(ValueError, match=re.escape(want)):
        InterfaceStencil(m, np.zeros((2, 2)) if m == 2.0 else np.zeros((0, 0)))


def test_custom_operator_is_symmetric_with_zero_ghost():
    rng = np.random.default_rng(31)
    config = ChainConfig(N=64, F=1.2, R=2)
    b = rng.standard_normal((4, 4))
    stencil = InterfaceStencil(4, b + b.T)
    op = assemble_operator(
        ModelKind.CUSTOM, config, POT1, partition=HALF_PART, stencil=stencil
    )
    assert symmetry_defect(op) == 0.0
    assert np.all(op.ghost == 0.0)
    assert op.half_width <= HALF_PART.interface_width_m + 2


def test_custom_reduces_to_blend_outside_block():
    config = ChainConfig(N=64, F=1.2, R=2)
    stencil = InterfaceStencil(4, np.zeros((4, 4)))
    op = assemble_operator(
        ModelKind.CUSTOM, config, POT1, partition=HALF_PART, stencil=stencil
    )
    labels = classify(HALF_PART, config)
    K = op.half_width
    for i in labels.atoms(INTERIOR_ATOMISTIC):
        np.testing.assert_array_equal(op.row(i)[1][K - 2 : K + 3], ATOM_ROW)
    for i in labels.atoms(INTERIOR_CONTINUUM):
        np.testing.assert_array_equal(op.row(i)[1][K - 2 : K + 3], CONT_ROW)


def test_general_cutoff_pure_models():
    # R = 3: shells r contribute (-1, 2, -1) at offsets (-r, 0, r) per modulus
    config = ChainConfig(N=16, F=1.0, R=3)
    op = assemble_operator(ModelKind.ATOMISTIC, config, POT1)
    want = np.array([-1.0, -1.0, -1.0, 6.0, -1.0, -1.0, -1.0])
    np.testing.assert_array_equal(op.row(5)[1], want)
    rng = np.random.default_rng(55)
    u = PeriodicField(config, 0.03 * rng.standard_normal(16))
    got = total_energy(ModelKind.ATOMISTIC, config, POT1, u)
    want_e = brute_force_energy("atomistic", config, POT1, u)
    assert got == pytest.approx(want_e, abs=1e-13)
    dev = hessian_consistency_check(ModelKind.ATOMISTIC, config, POT1)
    assert dev <= 1e-6


# ---------------------------------------------------------------------------
# indexed accumulation


@pytest.mark.parametrize("potential", ["harmonic", "lennard_jones"])
def test_accumulation_matches_add_at_reference(potential, random_geometry):
    rng = np.random.default_rng(len(potential))
    for N, n_intervals in ((64, 1), (256, 2), (1024, 3)):
        config, pot, partition = random_geometry(rng, N, potential, n_intervals)
        u = PeriodicField(config, rng.uniform(-0.01, 0.01, N) / N)
        second = [evaluate(pot, r * config.F, 2) for r in (1, 2)]
        first = [evaluate(pot, r * config.F, 1) for r in (1, 2)]
        for kind in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM, ModelKind.QCE, ModelKind.QNL):
            op = assemble_operator(kind, config, pot, partition=partition)
            band, ghost = assembled_add_at(kind, config, second, first, partition)
            # an invariant kind's band is one broadcast row
            assert np.ascontiguousarray(op.band).tobytes() == band.tobytes()
            assert op.ghost.tobytes() == ghost.tobytes()
            assert np.array_equal(
                energy_gradient(kind, config, pot, u, partition),
                energy_gradient_add_at(kind, config, pot, u, partition),
            )


@settings(max_examples=150)
@given(
    N=st.integers(8, 4096),
    R=st.sampled_from([2, 2, 2, 3, 4]),
    ends=st.sampled_from([1, 2, 3, 0]).flatmap(
        lambda n: st.lists(st.integers(0, 2**16), min_size=2 * n, max_size=2 * n, unique=True)),
    m=st.integers(1, 8),
    F=st.floats(0.95, 1.5),
    potential=st.sampled_from(["harmonic", "lennard_jones"]),
    block_seed=st.integers(0, 2**32 - 1),
)
def test_assembly_matches_scatter_and_row_oracles(N, R, ends, m, F, potential, block_seed):
    # every kind's band and ghost, bit for bit: energy kinds against the
    # indexed scatter, QCF and CUSTOM against the row-by-row builder; a
    # coupled kind raises what classify raises. The windowed reads match
    # their modulo, np.roll and power-table oracles: energies, gradients and
    # the runs' facts bit for bit; up to width 7, the power-0 moment sums bit
    # for bit, and all three under harmonic; otherwise both within
    # (2K+1) eps_mach max_k |delta_k j^p| of the exact sums
    assume(N >= 2 * R + 1)  # the smallest chain of reach R
    ends = sorted(e / 2**16 for e in ends)
    partition = RegionPartition(list(zip(ends[::2], ends[1::2])), interface_width_m=m, reach=2)
    config = ChainConfig(N=N, F=F, R=R)
    pot = harmonic(1.0, 1.0) if potential == "harmonic" else lennard_jones()
    rng = np.random.default_rng(block_seed)
    b = rng.integers(-3, 4, (m, m)) * 0.5
    stencil = InterfaceStencil(m, b + b.T)
    u = PeriodicField(config, rng.uniform(-0.01, 0.01, N) / N)
    second = [evaluate(pot, r * F, 2) for r in range(1, R + 1)]
    first = [evaluate(pot, r * F, 1) for r in range(1, R + 1)]
    try:
        classify(partition, config)
        problem = None
    except ValueError as exc:
        problem = str(exc)
    ref = assemble_operator(ModelKind.ATOMISTIC, config, pot)
    for kind in ModelKind:
        coupled = kind in COUPLED
        if coupled and (R != 2 or problem):
            with pytest.raises(ValueError, match="R=2 only" if R != 2 else re.escape(problem)):
                assemble_operator(kind, config, pot, partition=partition, stencil=stencil)
            continue
        part = partition if coupled else None
        if kind is ModelKind.CUSTOM and max(2, m + 1) > N:
            with pytest.raises(ValueError, match="wraps the ring"):
                assemble_operator(kind, config, pot, partition=part, stencil=stencil)
            continue
        op = assemble_operator(kind, config, pot, partition=part, stencil=stencil)
        if kind in ENERGY_BASED:
            band, ghost = assembled_add_at(kind, config, second, first, part)
        else:
            band = native_rows_reference(kind, config, second, part, stencil)
            ghost = np.zeros(N)
        # the runs read off the row codes are the oracle band's runs, and the
        # band made from them on first use is the oracle band: one broadcast
        # row for one run (every invariant kind), else column-major
        assert_runs_match_oracles(band, op.runs)
        assert coupled or len(op.runs.starts) == 1, kind
        assert np.ascontiguousarray(op.band).tobytes() == band.tobytes(), kind
        assert op.ghost.tobytes() == ghost.tobytes(), kind
        one_run = len(op.runs.starts) == 1
        assert op.band.strides[0] == 0 if one_run else op.band.flags.f_contiguous
        assert not op.band.flags.writeable and not op.runs.rows.flags.writeable

        if kind in ENERGY_BASED:
            energy = total_energy(kind, config, pot, u, part)
            assert energy == total_energy_modulo(kind, config, pot, u, part), kind
            want = energy_gradient_add_at(kind, config, pot, u, part)
            assert energy_gradient(kind, config, pot, u, part).tobytes() == want.tobytes(), kind
        if kind in ENERGY_BASED or kind is ModelKind.CUSTOM:
            assert symmetry_defect(op) == 0.0, kind

        K = max(op.half_width, R)
        if N < 2 * (2 * K + 2):
            with pytest.raises(ValueError, match="chain too short"):
                _moment_sums(op, ref, exact=False)
            continue
        got, old = _moment_sums(op, ref, exact=False), moment_sums_power_table(op, ref)
        if 2 * K + 1 <= 7:
            # M_0 adds the columns in order, as numpy's short-row reduction
            # does; harmonic entries are dyadic, so every power sums exactly
            powers = 3 if potential == "harmonic" else 1
            assert got[:, :powers].tobytes() == old[:, :powers].tobytes(), kind
            if potential == "harmonic":
                continue
        # rows with a nonzero delta (at most 64 of them, spread evenly) against
        # exact Fractions; every other row sums zeros
        live = np.flatnonzero(widened_delta(op, ref).any(axis=1))
        assert not got[np.setdiff1d(np.arange(N), live)].any()
        rows = live[np.linspace(0, len(live) - 1, 64).astype(int)] if len(live) > 64 else live
        exact, bounds = exact_moment_rows(op, ref, rows)
        for sums in (got, old):
            for row, want, bound in zip(sums[rows], exact, bounds):
                assert all(abs(Fraction(x) - w) <= e for x, w, e in zip(row, want, bound)), kind


# ---------------------------------------------------------------------------
# translation-invariant kinds: one stencil row, broadcast


@pytest.mark.parametrize("kind", [ModelKind.ATOMISTIC, ModelKind.CONTINUUM])
def test_invariant_kinds_store_one_broadcast_row(kind):
    # one run, whose band is made on first use as the run's row broadcast
    op = assemble_operator(kind, ChainConfig(N=64, F=1.2, R=2), POT1)
    assert op.runs.starts.tolist() == [0] and op.runs.rows.shape == (1, 5)
    assert "band" not in op.__dict__
    assert op.band.shape == (64, 5)
    assert op.band.strides[0] == 0
    assert not op.band.flags.writeable and not op.runs.rows.flags.writeable
    assert op.band is op.band  # made once
    with pytest.raises(ValueError):
        op.band[3, 2] = 0.0


@pytest.mark.parametrize("kind", [ModelKind.QNL, ModelKind.QCF], ids=lambda k: k.value)
def test_coupled_assembly_peaks_below_three_columns(kind):
    # tracemalloc peak of assembly at N = 2^16, in band columns of 8N bytes:
    # 2.1 (the ghost, the membership mask and its positions). Assembly reads
    # the runs off the row codes, so no (N, 5) band is formed; gathering
    # one, as assembly did before, peaked at 6.4-6.5
    config = ChainConfig(N=2**16, F=1.2, R=2)
    # the caches start empty (tests/conftest.py), so classify's work is part of the peak
    tracemalloc.start()
    try:
        op = assemble_operator(kind, config, POT1, partition=HALF_PART)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * config.N
    assert "band" not in op.__dict__


def test_invariant_assembly_peak_memory():
    # a full (N, 5) band alone is 40 MiB at N = 2^20
    config = ChainConfig(N=2**20, F=1.2, R=2)
    tracemalloc.start()
    try:
        assemble_operator(ModelKind.ATOMISTIC, config, POT1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


@pytest.mark.parametrize("kind", [ModelKind.ATOMISTIC, ModelKind.QNL, ModelKind.QCF],
                         ids=lambda k: k.value)
def test_warm_solve_peaks_below_its_ceiling(kind):
    # tracemalloc peak of a warm solve at N = 2^16, in band columns of 8N
    # bytes: 9.5 for each, under half a column below each ceiling. No
    # temporary as large as a band is formed (the |A| |u| floor sums the
    # magnitudes of the residual's products), the factorization is freed
    # before the residual check, the ring's levels reuse their diagonals and
    # keep one half-length scratch array, one array serves both outer
    # diagonals of QCF's T and both off-diagonals of a tridiagonal C, and
    # the stress solve makes its scratch only after the ring kernel has run.
    # Solves that formed np.abs(band) and kept the factorization through the
    # check peaked at 15, 20 and 17; with a second scratch array, and T's
    # outer diagonals read from a stored band, at 11, 11 and 9; with C's
    # upper diagonal rolled into its own array, and the stress solve's
    # scratch alive through the kernel, at 10.5, 10.5 and 9.5.
    ceiling = {ModelKind.ATOMISTIC: 10, ModelKind.QNL: 10, ModelKind.QCF: 10}[kind]
    config = ChainConfig(N=2**16, F=1.2, R=2)
    op = assemble_operator(kind, config, POT1, partition=HALF_PART if kind in COUPLED else None)
    f = np.sin(2.0 * np.pi * config.positions())
    solve_equilibrium(op, f)  # warm: one-time allocations stay out of the peak
    tracemalloc.start()
    try:
        u = solve_equilibrium(op, f).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ceiling * 8 * config.N
    assert not u.flags.writeable  # the solved buffer is handed over read-only
    if kind is ModelKind.ATOMISTIC:  # the broadcast band and the band stored whole agree
        whole = LinearChainOperator(config, op.kind, np.asfortranarray(op.band), op.ghost)
        assert solve_equilibrium(whole, f).values.tobytes() == u.tobytes()


@pytest.mark.parametrize("kind", [ModelKind.QNL, ModelKind.QCF], ids=lambda k: k.value)
def test_warm_study_rung_peaks_below_its_ceiling(kind):
    # tracemalloc peak of one warm convergence_study rung at N = 2^16 (the
    # witness sampled, both operators assembled, L^a u, the solve and the
    # error norms), in columns of 8N bytes: 11.5 for both, half a column
    # below the ceiling; that is the solve's peak plus the witness and the
    # right-hand side. With a ghost of N zeros, the |A| |u| floor in a second
    # kernel pass, C's upper diagonal rolled into its own array and the
    # solve's scratch alive through the ring kernel, it peaked at 13.5 (QNL)
    # and 12.5 (QCF)
    N = 2**16
    args = (kind, default_witness, [N], [1.0, 2.0, math.inf], POT1, HALF_PART)
    convergence_study(*args)  # warm: one-time allocations stay out of the peak
    _assembled.cache_clear()  # but the rung assembles its operators again
    tracemalloc.start()
    try:
        convergence_study(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 8 * N


@pytest.mark.parametrize("potential", sorted(POTENTIALS))
def test_ghost_of_one_value_is_stored_as_one_broadcast_value(potential):
    # every kind but QCE assembles a ghost of +0.0 (phi'(rF) != 0 here) and
    # stores it as one read-only broadcast value; QCE stores its ghost whole,
    # and a QCE ghost of phi'(rF) = 0 is one value. Every reader of the ghost
    # gives the bits of an operator that holds a contiguous copy of it
    pot, F = POTENTIALS[potential]
    N = 256
    config = ChainConfig(N=N, F=F, R=2)
    rng = np.random.default_rng(11)
    u, f = rng.standard_normal(N), rng.standard_normal(N)
    second = [evaluate(pot, r * F, 2) for r in (1, 2)]
    qce_flat = assemble_from_moduli(ModelKind.QCE, config, second, partition=HALF_PART)
    assert qce_flat.ghost.strides == (0,) and qce_flat.ghost.tobytes() == bytes(8 * N)
    for kind in ModelKind:
        op = assemble_operator(
            kind, config, pot, partition=HALF_PART if kind in COUPLED else None,
            stencil=zero_sum_custom_stencil(rng, 4) if kind is ModelKind.CUSTOM else None,
        )
        assert not op.ghost.flags.writeable and op.ghost.shape == (N,), kind
        if kind is ModelKind.QCE:
            assert op.ghost.strides == (8,) and np.abs(op.ghost).max() > 0.0
        else:
            assert op.ghost.strides == (0,) and op.ghost.tobytes() == bytes(8 * N), kind
        whole = LinearChainOperator(config, kind, op.runs, np.ascontiguousarray(op.ghost))
        assert whole.ghost.strides == (8,)
        assert apply(op, u).tobytes() == apply(whole, u).tobytes(), kind
        got = solve_equilibrium(op, f - op.ghost).values
        assert got.tobytes() == solve_equilibrium(whole, f - whole.ghost).values.tobytes(), kind
        if kind is ModelKind.QCE:
            for o in (op, whole):
                with pytest.raises(ValueError, match="ghost field"):
                    to_strain_form(o)
        else:
            strain, copied = to_strain_form(op), to_strain_form(whole)
            assert strain.runs.rows.tobytes() == copied.runs.rows.tobytes(), kind
            assert strain.bound_C.hex() == copied.bound_C.hex(), kind
        if kind is not ModelKind.CUSTOM:  # ghost_force assembles without a stencil
            field, sup = ghost_force(kind, config, pot, partition=HALF_PART if kind in COUPLED else None)
            assert field.values.tobytes() == whole.ghost.tobytes(), kind
            assert sup.hex() == float(np.abs(whole.ghost).max()).hex(), kind


def test_broadcast_band_consumers_match_contiguous_copy():
    config = ChainConfig(N=64, F=1.1, R=2)
    pot = lennard_jones()
    op, ref = (assemble_operator(k, config, pot) for k in (ModelKind.CONTINUUM, ModelKind.ATOMISTIC))
    op_copy, ref_copy = (
        LinearChainOperator(config, o.kind, np.ascontiguousarray(o.band), o.ghost.copy())
        for o in (op, ref)
    )
    # the copy stored whole is found to be one run, as the broadcast row is
    assert op_copy.runs.starts.tolist() == [0] and op_copy.runs.rows.tobytes() == op.runs.rows.tobytes()

    def same(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    u = np.random.default_rng(3).standard_normal(64)
    assert same(op.dense(), op_copy.dense())
    assert same(apply_linear(op, u), apply_linear(op_copy, u))
    sf, sf_copy = to_strain_form(op), to_strain_form(op_copy)
    assert same(_band_of(sf), _band_of(sf_copy)) and sf.bound_C == sf_copy.bound_C
    assert symmetry_defect(op) == symmetry_defect(op_copy)
    assert same(moment_residuals(op, ref).residuals, moment_residuals(op_copy, ref_copy).residuals)
    assert (_moment_sums(op, ref, exact=True) == _moment_sums(op_copy, ref_copy, exact=True)).all()
    f = u - u.mean()
    assert same(solve_equilibrium(op, f).values, solve_equilibrium(op_copy, f).values)


# ---------------------------------------------------------------------------
# band layout and the run kernel


def roll_band_apply(band, first_offset, v):
    """One np.roll per offset: the band kernel qclab used before its padded
    window, kept as the bit-exact reference."""
    out = np.zeros(band.shape[0])
    for c in range(band.shape[1]):
        out += band[:, c] * np.roll(v, -(first_offset + c))
    return out


def smallest_admitted(kind, R, partition, stencil=None):
    """The operator of a kind on the shortest chain that assembles it."""
    for N in range(2 * R + 1, 256):
        try:
            return assemble_operator(
                kind, ChainConfig(N=N, F=1.1, R=R), lennard_jones(),
                partition=partition if kind in COUPLED else None, stencil=stencil,
            )
        except ValueError:
            continue
    raise AssertionError(f"no admissible chain for {kind.value}")


def test_band_kernel_matches_roll_reference_on_every_layout(monkeypatch):
    # the run kernel on the runs of every band layout, rows of -0.0 entries
    # and runs of identical rows among them, with its split between long
    # runs (one window per column) and short runs (one gather) as it is, and
    # moved to either end: every run long and every run short
    for long_run, sizes in ((256, (3, 4, 5, 8, 17, 64)), (1, (3, 5, 8, 17)),
                            (10**9, (3, 5, 8, 17))):
        monkeypatch.setattr("qclab.models._LONG_RUN", long_run)
        check_run_kernel_on_every_layout(sizes)


def check_run_kernel_on_every_layout(sizes):
    rng = np.random.default_rng(29)
    for N in sizes:
        v = rng.standard_normal(N)
        v[rng.random(N) < 0.2] = -0.0
        for K in range(1, N + 1):  # up to a band that wraps the ring exactly once
            for width, first in ((2 * K + 1, -K), (2 * K, 1 - K)):  # operator, strain
                band = rng.standard_normal((N, width))
                band[rng.random((N, width)) < 0.2] = -0.0
                row = rng.standard_normal(width)
                repeated = np.repeat(band[rng.integers(0, N, 4)], rng.multinomial(N, [0.25] * 4), axis=0)
                # zeros of both signs only: a sum of -0.0 products is +0.0 from zeros
                signed_zeros = np.where(rng.random((N, width)) < 0.7, -0.0, 0.0)
                layouts = (
                    np.ascontiguousarray(band),
                    np.asfortranarray(band),
                    np.broadcast_to(row, (N, width)),
                    repeated,
                    signed_zeros,
                )
                for b in layouts:
                    runs = _band_runs(b)
                    want = roll_band_apply(b, first, v)
                    assert _runs_apply(runs, v).tobytes() == want.tobytes()
                    out, mag = _runs_apply(runs, v, floor=True)
                    assert out.tobytes() == want.tobytes()
                    want = roll_band_apply(np.abs(b), first, np.abs(v))
                    assert mag.tobytes() == want.tobytes()


def test_band_kernel_matches_roll_reference_on_assembled_operators(random_geometry):
    rng = np.random.default_rng(37)
    ops = []
    for m in range(2, 7):  # CUSTOM widens the band to K = m + 1
        part = RegionPartition([(0.0, 0.5)], interface_width_m=m, reach=2)
        for kind in ModelKind:
            stencil = zero_sum_custom_stencil(rng, m) if kind is ModelKind.CUSTOM else None
            ops.append(smallest_admitted(kind, 2, part, stencil))
    for R in (1, 3):
        ops += [smallest_admitted(k, R, None) for k in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM)]
    for N, n_intervals in ((64, 1), (257, 3)):
        config, pot, partition = random_geometry(rng, N, "lennard_jones", n_intervals)
        for kind in ModelKind:
            stencil = (zero_sum_custom_stencil(rng, partition.interface_width_m)
                       if kind is ModelKind.CUSTOM else None)
            ops.append(assemble_operator(
                kind, config, pot, partition=partition if kind in COUPLED else None,
                stencil=stencil,
            ))
    assert {op.half_width for op in ops} >= {1, 2, 3, 4, 5, 6, 7}
    for op in ops:
        N, K = op.config.N, op.half_width
        v = rng.standard_normal(N)
        want = roll_band_apply(op.band, -K, v) / op.config.epsilon**2
        assert apply_linear(op, v).tobytes() == want.tobytes()
        if op.kind is not ModelKind.QCE:  # every other kind has a strain form
            sf = to_strain_form(op)
            want = roll_band_apply(_band_of(sf), 1 - K, v) / op.config.epsilon
            assert sf.apply_strain(v).tobytes() == want.tobytes()


def test_band_kernel_refuses_a_band_that_wraps_twice():
    # an operator whose band is wider than the ring is refused when it is
    # built, so no check answers for aliased offsets: the N = 3, K = 4 band
    # of the 1D Laplacian, and a zero band of K = 5 on 4 atoms
    laplacian = np.zeros((3, 9))
    laplacian[:, 3:6] = [-1.0, 2.0, -1.0]
    with pytest.raises(ValueError, match=r"width 9 \(offsets -4\.\.4\) wraps the ring of N=3 atoms more"):
        LinearChainOperator(ChainConfig(N=3, F=1.2, R=1), ModelKind.CUSTOM, laplacian, np.zeros(3))
    with pytest.raises(ValueError, match=r"width 11 \(offsets -5\.\.5\) wraps the ring of N=4"):
        LinearChainOperator(ChainConfig(N=4, F=1.2, R=1), ModelKind.CUSTOM, np.zeros((4, 11)), np.zeros(4))
    # as wide as the ring is admitted, and every check answers for it
    op = LinearChainOperator(ChainConfig(N=3, F=1.2, R=1), ModelKind.CUSTOM, laplacian[:, 1:8], np.zeros(3))
    assert symmetry_defect(op) == 0.0 and to_strain_form(op).bound_C == 2.0
    assert apply_linear(op, np.ones(3)).tobytes() == np.zeros(3).tobytes()
    # a custom block wider than a chain without interfaces is refused when
    # it is assembled, before any band exists to apply
    config = ChainConfig(N=5, F=1.2, R=2)
    with pytest.raises(ValueError, match=r"m=6 .* half-width 7, .* N=5 atoms"):
        assemble_operator(
            ModelKind.CUSTOM, config, POT1,
            partition=RegionPartition([(0.0, 1.0)], interface_width_m=6, reach=2),
            stencil=InterfaceStencil(6, np.zeros((6, 6))),
        )


def test_operator_bands_are_column_major_or_broadcast(random_geometry):
    rng = np.random.default_rng(43)
    config, pot, partition = random_geometry(rng, 256, "lennard_jones", 2)
    m = partition.interface_width_m
    ops = []
    for kind in ModelKind:
        part = partition if kind in COUPLED else None
        stencil = zero_sum_custom_stencil(rng, m) if kind is ModelKind.CUSTOM else None
        ops.append(assemble_operator(kind, config, pot, partition=part, stencil=stencil))
        ops.append(assemble_from_moduli(
            kind, config, rng.normal(size=2), rng.normal(size=2), partition=part, stencil=stencil,
        ))
    config3 = ChainConfig(N=64, F=1.1, R=3)
    for kind in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM):
        ops.append(assemble_operator(kind, config3, pot))
        ops.append(assemble_from_moduli(kind, config3, rng.normal(size=3), rng.normal(size=3)))
    # the band made from an operator's runs on first use, and its strain
    # form's: one broadcast row for one run (every invariant kind), else
    # column-major, and read-only
    for op in ops:
        one_run = len(op.runs.starts) == 1
        assert op.kind in COUPLED or one_run, op.kind
        assert op.band.strides[0] == 0 if one_run else op.band.flags.f_contiguous, op.kind
        assert not op.band.flags.writeable and not op.ghost.flags.writeable
        if op.kind is not ModelKind.QCE:
            sf = to_strain_form(op)
            assert np.array_equal(sf.runs.starts, op.runs.starts)
            assert _band_of(sf).strides[0] == 0 if one_run else _band_of(sf).flags.f_contiguous, op.kind
            assert not _band_of(sf).flags.writeable


def test_hand_built_band_is_stored_column_major():
    # a hand-built band, in any layout, is converted to runs once; the band
    # made from them on first use holds its bits, column-major or, for one
    # run, one broadcast row, and read-only; the caller's array is left as
    # it was
    config = ChainConfig(N=16, F=1.2, R=2)
    band = np.random.default_rng(47).standard_normal((16, 5))
    band[5:9] = band[4]  # one run of five identical rows
    band[9, 2] = -0.0
    band[10] = band[9]
    band[10, 2] = 0.0  # equal to row 9, but not bit for bit
    for given in (band, np.asfortranarray(band), band.tolist()):
        op = LinearChainOperator(config, ModelKind.CUSTOM, given, np.zeros(16))
        assert op.runs.starts.tolist() == [0, 1, 2, 3, 4, *range(9, 16)]
        assert op.runs.rows.tobytes() == band[op.runs.starts].tobytes()
        assert op.band.flags.f_contiguous and not op.band.flags.writeable
        assert op.band.tobytes() == band.tobytes()
    assert band.flags.writeable
    for one_run in (np.broadcast_to(band[0], (16, 5)), np.tile(band[0], (16, 1))):
        op = LinearChainOperator(config, ModelKind.CUSTOM, one_run, np.zeros(16))
        assert op.runs.starts.tolist() == [0] and op.band.strides[0] == 0
        assert op.band.tobytes() == np.ascontiguousarray(one_run).tobytes()
    # an integer band is read as floats
    laplacian = LinearChainOperator(config, ModelKind.CUSTOM, np.tile([0, -1, 2, -1, 0], (16, 1)), np.zeros(16))
    assert laplacian.runs.rows.dtype == float and symmetry_defect(laplacian) == 0.0


def test_operator_refuses_a_band_of_even_width():
    # width 4 has no centre column: row(1) gave 3 offsets for 4 coefficients,
    # and apply_linear and dense differed by 2976 at N = 16
    config = ChainConfig(N=16, F=1.2, R=2)
    band = np.random.default_rng(48).standard_normal((16, 4))
    want = re.escape("band of shape (16, 4) does not fit the chain: expected (16, 2K+1)")
    with pytest.raises(ValueError, match=want):
        LinearChainOperator(config, ModelKind.CUSTOM, band, np.zeros(16))
    runs = _band_runs(np.random.default_rng(48).standard_normal((16, 5)))
    with pytest.raises(ValueError, match=want):
        LinearChainOperator(config, ModelKind.CUSTOM, runs._replace(rows=runs.rows[:, 1:]), np.zeros(16))


def test_operator_refuses_a_band_of_another_chain_size():
    # a 15-row band on N = 16 gave runs of N = 15, which the moment tests'
    # merged runs would misread
    config = ChainConfig(N=16, F=1.2, R=2)
    band = np.random.default_rng(49).standard_normal((15, 5))
    want = re.escape("band of shape (15, 5) does not fit the chain: expected (16, 2K+1)")
    with pytest.raises(ValueError, match=want):
        LinearChainOperator(config, ModelKind.CUSTOM, band, np.zeros(16))
    with pytest.raises(ValueError, match=want):
        LinearChainOperator(config, ModelKind.CUSTOM, _band_runs(band), np.zeros(16))


def test_operator_refuses_a_ghost_of_another_shape():
    # a ghost of length 1 was broadcast by apply; length 3 failed later, in
    # numpy's broadcast; the stride-0 ghost of assembly has shape (N,)
    config = ChainConfig(N=16, F=1.2, R=2)
    band = assemble_operator(ModelKind.ATOMISTIC, config, POT1).band
    for ghost in (np.zeros(1), np.zeros(3), np.zeros((16, 1))):
        want = re.escape(f"ghost of shape {ghost.shape} does not fit the chain: expected (16,)")
        with pytest.raises(ValueError, match=want):
            LinearChainOperator(config, ModelKind.CUSTOM, band, ghost)
    op = assemble_operator(ModelKind.QNL, config, POT1, partition=HALF_PART)
    assert op.ghost.strides == (0,) and op.ghost.shape == (16,)


def test_symmetry_defect_matches_gather_reference(random_geometry):
    rng = np.random.default_rng(53)
    config, pot, partition = random_geometry(rng, 128, "lennard_jones", 2)
    N = config.N
    idx = np.arange(N)
    ops = [
        LinearChainOperator(config, ModelKind.CUSTOM, rng.standard_normal((N, 2 * K + 1)), np.zeros(N))
        for K in (1, 2, 5)
    ]
    ops += [assemble_operator(k, config, pot, partition=partition) for k in (ModelKind.QCF, ModelKind.QNL)]
    for op in ops:
        K = op.half_width
        want = max(
            float(np.abs(op.band[idx, K + k] - op.band[(idx + k) % N, K - k]).max())
            for k in range(-K, K + 1)
        )
        assert symmetry_defect(op) == want / config.epsilon**2


@pytest.mark.parametrize("kind", [ModelKind.ATOMISTIC, ModelKind.QNL, ModelKind.QCE])
def test_other_evaluate_errors_reach_the_energy_unchanged(kind):
    # only a singular bond argument is named by its group and atom; any other
    # refusal of evaluate (here an unknown potential kind) passes through as it is
    config = ChainConfig(N=32, F=1.1, R=2)
    field = sample_field(default_witness, config)
    part = None if kind is ModelKind.ATOMISTIC else HALF_PART
    pot = harmonic(1.0, 1.0)
    object.__setattr__(pot, "kind", "morse")  # past the constructor, which refuses it
    for fn in (total_energy, energy_gradient):
        with pytest.raises(ValueError, match=r"^unknown potential kind 'morse'$"):
            fn(kind, config, pot, field, partition=part)


@pytest.mark.parametrize("potential", sorted(POTENTIALS))
@pytest.mark.parametrize("kind", sorted(ENERGY_BASED, key=lambda k: k.value), ids=lambda k: k.value)
def test_energy_paths_name_the_first_non_finite_atom(kind, potential):
    # a NaN at atom 10 and an inf at atom 20 (then an inf alone) gave a nan
    # energy and a gradient with NaN entries, silently
    pot, F = POTENTIALS[potential]
    config = ChainConfig(N=32, F=F, R=2)
    part = HALF_PART if kind in COUPLED else None
    for bad in ({10: math.nan, 20: -math.inf}, {20: -math.inf}):
        u = np.zeros(32)
        u[np.array(list(bad)) - 1] = list(bad.values())
        first = min(bad)
        for fn in (total_energy, energy_gradient):
            with pytest.raises(ValueError, match=rf"^field is not finite at atom {first}: "
                                                 rf"{re.escape(str(bad[first]))}$"):
                fn(kind, config, pot, PeriodicField(config, u), partition=part)


@pytest.mark.parametrize("potential", sorted(POTENTIALS))
def test_equal_assemblies_are_fresh_operators_on_shared_read_only_runs(potential):
    # the second assembly of a geometry's kind reads the memo: a new operator
    # (its own identity and band) around the same read-only runs and ghost
    pot, F = POTENTIALS[potential]
    config = ChainConfig(N=64, F=F, R=2)
    stencil = InterfaceStencil(4, np.eye(4))
    for kind in ModelKind:
        part = HALF_PART if kind in COUPLED else None
        a, b = (assemble_operator(kind, config, pot, partition=part, stencil=stencil)
                for _ in range(2))
        assert a is not b and a.runs is b.runs and a.ghost is b.ghost, kind
        assert not any(x.flags.writeable for x in (*a.runs[:3], a.ghost)), kind
        assert a.band is a.band and "band" not in b.__dict__, kind
        with pytest.raises(ValueError, match="read-only"):
            a.runs.starts[0] = 1


def test_assembly_memo_holds_one_geometry():
    # two potentials and two sizes of every kind: the memo keeps the latest
    # geometry's kinds, len(ModelKind) entries at most
    assert _assembled.cache_info().maxsize == len(ModelKind)
    stencil = InterfaceStencil(4, np.eye(4))
    for N in (64, 128):
        for pot, F in POTENTIALS.values():
            config = ChainConfig(N=N, F=F, R=2)
            for kind in ModelKind:
                part = HALF_PART if kind in COUPLED else None
                assemble_operator(kind, config, pot, partition=part, stencil=stencil)
                assert _assembled.cache_info().currsize <= len(ModelKind)
    assert _assembled.cache_info().currsize == len(ModelKind)


@pytest.mark.parametrize("potential", sorted(POTENTIALS))
def test_ghost_force_reads_the_assembled_ghost(potential, random_geometry):
    # the field is the assembled ghost byte for byte, whether ghost_force
    # assembles first or reads the memo, and its sup has the bits of
    # np.abs(ghost).max()
    rng = np.random.default_rng(7)
    for n_intervals in (1, 2, 3):
        config, pot, partition = random_geometry(rng, 256, potential, n_intervals)
        for kind in (ModelKind.QCE, ModelKind.QNL, ModelKind.QCF, ModelKind.ATOMISTIC):
            part = partition if kind in COUPLED else None
            field, sup = ghost_force(kind, config, pot, partition=part)
            ghost = assemble_operator(kind, config, pot, partition=part).ghost
            assert field.values.tobytes() == ghost.tobytes(), kind
            assert sup.hex() == float(np.abs(ghost).max()).hex(), kind
            assert ghost_force(kind, config, pot, partition=part)[1].hex() == sup.hex(), kind


def test_value_types_holding_arrays_compare_by_identity():
    # == compared their array fields and raised "truth value of an array is
    # ambiguous", which list.index met too, and hash raised TypeError
    config = ChainConfig(N=64, F=1.2, R=2)
    op = assemble_operator(ModelKind.QNL, config, POT1, partition=HALF_PART)
    ref = assemble_operator(ModelKind.ATOMISTIC, config, POT1)
    system = build_constraint_system(3)
    build_constraint_system(4)  # the cache keeps one system: the next of m = 3 is new
    pairs = [
        (op, assemble_operator(ModelKind.QNL, config, POT1, partition=HALF_PART)),
        (to_strain_form(op), to_strain_form(op)),
        (InterfaceStencil(2, np.eye(2)), InterfaceStencil(2, np.eye(2))),
        (moment_residuals(op, ref), moment_residuals(op, ref)),
        (min_residual(2), min_residual(2)),
        (classify(HALF_PART, config), classify(RegionPartition([(0.0, 0.25)]), config)),
        (system, build_constraint_system(3)),
    ]
    for a, b in pairs:
        assert a is not b and a == a and a != b, type(a).__name__
        assert [a, b].index(b) == 1 and len({a, b}) == 2
    # a field keeps its value equality
    u = sample_field(default_witness, config)
    assert u == PeriodicField(config, u.values.copy())


@pytest.mark.parametrize("kind", [ModelKind.ATOMISTIC, ModelKind.QNL, ModelKind.QCE])
def test_singular_lennard_jones_bond_is_named(kind):
    """Atom 6 is atomistic and anchors an every-atom group of the atomistic
    kind and QNL. QCE's shell-1 groups anchor on region A or C only: atom 22
    is the sixth of C's anchors 17..32, so naming it tells the anchor's atom
    from its position among the anchors."""
    config = ChainConfig(N=32, F=1.1, R=2)
    atom = 22 if kind is ModelKind.QCE else 6
    u = np.zeros(32)
    u[atom - 1] = -1.2 * config.epsilon  # bond (atom - 1, atom) pushed through zero
    field = PeriodicField(config, u)
    s = config.F + u[atom - 1] / config.epsilon
    want = re.escape(
        f"singular at bond argument s = {float(s)!r}: {kind.value} bond of shell r=1 "
        f"anchored at atom {atom}"
    )
    part = None if kind is ModelKind.ATOMISTIC else HALF_PART
    for fn in (total_energy, energy_gradient):
        with pytest.raises(ValueError, match=want):
            fn(kind, config, lennard_jones(), field, partition=part)
    assert math.isfinite(total_energy(kind, config, POT1, field, partition=part))


@pytest.mark.parametrize("kind, atom, named", [
    (ModelKind.QCE, 17, 16), (ModelKind.QNL, 17, 17), (ModelKind.ATOMISTIC, 17, 17),
    (ModelKind.QCE, 1, 1), (ModelKind.QNL, 1, 1), (ModelKind.ATOMISTIC, 1, 1),
])
def test_singular_bond_is_named_at_a_cut_and_across_the_wrap(kind, atom, named):
    """Bond (16, 17) crosses the cut of (0, 0.5]: QCE first reads it from its
    second A-anchored group, whose window is shifted by one, at atom 16; the
    every-atom shell-1 group of QNL and the atomistic kind reads it at atom
    17. Bond (32, 1) crosses the wrap and is read at atom 1 by every kind."""
    config = ChainConfig(N=32, F=1.1, R=2)
    u = np.zeros(32)
    u[atom - 1] = -1.2 * config.epsilon
    s = config.F + u[atom - 1] / config.epsilon
    want = (f"lennard_jones is singular at bond argument s = {float(s)!r}: {kind.value} "
            f"bond of shell r=1 anchored at atom {named}")
    part = None if kind is ModelKind.ATOMISTIC else HALF_PART
    for fn in (total_energy, energy_gradient):
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            fn(kind, config, lennard_jones(), PeriodicField(config, u), partition=part)


def test_a_singular_argument_that_no_group_reads_is_not_refused(monkeypatch):
    """QCE's shell-2 atomistic argument at atom i, rF + (u_i - u_{i-2})/eps,
    is read where atom i or atom i - 2 lies in A. A stand-in potential is
    singular at exactly one of its values: at atom 25 (C, as is atom 23) it
    is read by no group, and the energy and gradient keep their bits; at
    atom 5 (A) it is named."""
    config = ChainConfig(N=32, F=1.1, R=2)
    u = PeriodicField(config, 0.01 * np.random.default_rng(3).standard_normal(32) / 32)
    pot, v = lennard_jones(), u.values
    want = [fn(ModelKind.QCE, config, pot, u, partition=HALF_PART)
            for fn in (total_energy, energy_gradient)]
    for atom, named in ((25, None), (5, 5)):
        target = 2 * config.F + (0 + 1.0 * v[atom - 1] + -1.0 * v[atom - 3]) / config.epsilon

        def singular(pot, s, target=target):
            return np.asarray(s) == target

        def evaluate_(pot, s, order, singular=singular):
            if singular(pot, s).any():
                raise ValueError("stand-in potential is singular")
            return evaluate(pot, s, order)

        monkeypatch.setattr("qclab.models.singular", singular)
        monkeypatch.setattr("qclab.models.evaluate", evaluate_)
        for fn, value in zip((total_energy, energy_gradient), want):
            if named is None:
                got = fn(ModelKind.QCE, config, pot, u, partition=HALF_PART)
                assert np.asarray(got).tobytes() == np.asarray(value).tobytes()
                continue
            with pytest.raises(ValueError, match=re.escape(
                    f"s = {float(target)!r}: qce bond of shell r=2 anchored at atom {named}")):
                fn(ModelKind.QCE, config, pot, u, partition=HALF_PART)


@pytest.mark.parametrize("kind, R, calls", [
    (ModelKind.QCE, 2, 3), (ModelKind.QNL, 2, 3),
    *((k, R, R) for k in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM) for R in (1, 2, 3)),
])
def test_each_distinct_bond_argument_is_evaluated_once(kind, R, calls, monkeypatch):
    # QCE's 8 bond-term groups and QNL's 4 read three arguments: phi(F + s1),
    # phi(2F + s2) and phi(2F + 2 s1); the pure kinds read one per shell
    config = ChainConfig(N=32, F=1.1, R=R)
    u = PeriodicField(config, 0.01 * np.random.default_rng(R).standard_normal(32) / 32)
    part = HALF_PART if kind in COUPLED else None
    seen = []
    monkeypatch.setattr("qclab.models.evaluate", lambda *a: seen.append(a) or evaluate(*a))
    for pot in (POT1, lennard_jones()):
        for fn in (total_energy, energy_gradient):
            seen.clear()
            fn(kind, config, pot, u, partition=part)
            assert len(seen) == calls, (fn.__name__, pot.kind)


@pytest.mark.parametrize(
    "intervals, problem",
    [
        ([(0.5, 0.2)], "empty or inverted interval (0.5, 0.2]"),
        ([(0.0, 1.5)], "interval (0.0, 1.5] not contained in (0, 1]"),
        ([(0.0, 0.5), (0.25, 0.75)], "intervals (0.0, 0.5] and (0.25, 0.75] overlap"),
    ],
    ids=["inverted", "out_of_range", "overlapping"],
)
def test_energy_path_rejects_invalid_partition(intervals, problem):
    config = ChainConfig(N=64, F=1.2, R=2)
    want = re.escape("invalid partition: " + problem)
    for kind in (ModelKind.QCE, ModelKind.QNL):
        for fn in (total_energy, energy_gradient):
            with pytest.raises(ValueError, match=want):
                fn(kind, config, POT1, zeros(config), partition=RegionPartition(intervals))


@pytest.mark.parametrize("field_N", [128, 32])
@pytest.mark.parametrize("kind", [ModelKind.ATOMISTIC, ModelKind.QCE])
def test_energy_path_rejects_a_field_of_another_chain(kind, field_N):
    config = ChainConfig(N=64, F=1.2, R=2)
    field = PeriodicField(ChainConfig(N=field_N, F=1.2, R=2), np.full(field_N, 1e-4))
    want = re.escape(f"field has {field_N} values but the chain has N=64 atoms")
    part = HALF_PART if kind in COUPLED else None
    for fn in (total_energy, energy_gradient):
        with pytest.raises(ValueError, match=want):
            fn(kind, config, POT1, field, partition=part)


def test_operator_entry_points_refuse_a_field_of_another_chain():
    # apply and apply_strain labelled their result with the field's chain,
    # and solve_equilibrium solved for it; a raw array keeps its checks
    config, other = ChainConfig(N=16, F=1.2), ChainConfig(N=16, F=2.0)
    op = assemble_operator(ModelKind.ATOMISTIC, config, POT1)
    field = sample_field(default_witness, other)
    want = re.escape(f"operator and field live on different chains: {config} and {other}")
    for fn in (lambda f: apply(op, f), to_strain_form(op).apply_strain,
               lambda f: solve_equilibrium(op, f)):
        with pytest.raises(ValueError, match=want):
            fn(field)
        fn(field.values)
        assert fn(sample_field(default_witness, config)).config == config


@pytest.mark.parametrize("F", [0.0, -1.1])
@pytest.mark.parametrize("kind", [ModelKind.ATOMISTIC, ModelKind.QCF])
def test_lennard_jones_assembly_names_a_singular_bond_length(kind, F):
    # evaluate's bare "lennard_jones is singular at s <= 0" named no bond
    config = ChainConfig(N=64, F=F, R=2)
    want = re.escape(f"lennard_jones is singular at the bond length rF = {F!r} of shell r=1 (F={F})")
    with pytest.raises(ValueError, match=want):
        assemble_operator(kind, config, lennard_jones(), partition=HALF_PART)


def test_assembly_passes_an_evaluate_error_that_is_no_singular_bond(monkeypatch):
    def refuse(potential, s, order=0):
        raise ValueError("a stand-in refusal")
    monkeypatch.setattr("qclab.models.evaluate", refuse)
    with pytest.raises(ValueError, match="^a stand-in refusal$"):
        assemble_operator(ModelKind.ATOMISTIC, ChainConfig(N=16, F=1.1), lennard_jones())


def test_symmetry_defect_of_a_band_holding_a_nan_is_nan():
    config = ChainConfig(N=32, F=1.2, R=2)
    base = assemble_operator(ModelKind.QNL, config, POT1, partition=HALF_PART).band
    for row in (0, 9, 31):
        for c in range(5):
            band = np.array(base)
            band[row, c] = np.nan
            op = LinearChainOperator(config, ModelKind.CUSTOM, band, np.zeros(32))
            assert math.isnan(symmetry_defect(op)), (row, c)


def drawn_run_band(rng, N, K, shape):
    """An (N, 2K+1) band of the given shape: 'runs' of lengths 1..K+2 from a
    pool of four rows (half-integers, so gaps tie and cancel), rolled so that
    a run mostly straddles atoms N and 1; 'single', one row stored N times;
    'broadcast', one row with row stride 0; 'distinct', normal draws."""
    W = 2 * K + 1
    if shape == "distinct":
        return rng.standard_normal((N, W))
    pool = rng.integers(-4, 5, (4, W)) * 0.5
    if shape != "runs":
        return np.broadcast_to(pool[0], (N, W)) if shape == "broadcast" else np.tile(pool[0], (N, 1))
    lengths = rng.integers(1, K + 3, N)
    picks = rng.integers(0, 4, N)
    picks[1:][picks[1:] == picks[:-1]] += 1  # neighbouring runs mostly differ
    band = np.repeat(pool[picks % 4], lengths, axis=0)[:N]
    return np.roll(band, int(rng.integers(0, N)), axis=0)


@pytest.mark.parametrize("K", range(1, 10))
def test_band_runs_match_per_row_oracles(K):
    rng = np.random.default_rng(700 + K)
    # N = K: a band as wide as the ring; N = 1 < K: one wider, refused
    for N in (1, K, 2 * K + 1, 2 * K + 2, 3 * K + 4, 40 + K):
        if K > N:
            with pytest.raises(ValueError, match=f"wraps the ring of N={N} atoms more than once"):
                _band_runs(drawn_run_band(rng, N, K, "distinct"))
            continue
        for shape in ("runs", "runs", "runs", "single", "broadcast", "distinct"):
            # -0.0 makes a row differ, bit for bit, from its equal neighbours
            for special in (None, np.nan, np.inf, -np.inf, -0.0):
                band = drawn_run_band(rng, N, K, shape)
                if special is not None:
                    band = np.array(band)
                    for _ in range(int(rng.integers(1, 3))):
                        band[rng.integers(0, N), rng.integers(0, 2 * K + 1)] = special
                with np.errstate(invalid="ignore"):  # inf - inf, as in the oracles
                    assert_runs_match_oracles(band)


def test_a_band_with_an_infinite_pair_is_refused_by_its_row_sums():
    # the pair A[4, 5] = A[5, 4] = inf has the gap inf - inf, which warns
    # (an error in tests): the solver and the strain form refuse the band by
    # its row sums first, and symmetry_defect gives NaN with the warning
    config = ChainConfig(N=16, F=1.2, R=2)
    band = np.array(assemble_operator(ModelKind.ATOMISTIC, config, POT1).band)
    band[3, 3] = band[4, 1] = np.inf
    op = LinearChainOperator(config, ModelKind.CUSTOM, band, np.zeros(16))
    with pytest.raises(ValueError, match="does not annihilate constants"):
        solve_equilibrium(op, np.zeros(16))
    with pytest.raises(ValueError, match="nonzero row sums"):
        to_strain_form(op)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        assert math.isnan(symmetry_defect(op))


@pytest.mark.parametrize("F", [0.6, 0.65, 0.7])
@pytest.mark.parametrize("kind", [ModelKind.QNL, ModelKind.QCF])
def test_strain_form_of_stiff_lennard_jones_chains(kind, F):
    # entries of 4e4..4e5 carry row sums of a few 1e-12, far below their scale
    config = ChainConfig(N=256, F=F, R=2)
    op = assemble_operator(kind, config, lennard_jones(), partition=HALF_PART)
    sf = to_strain_form(op)
    rng = np.random.default_rng(int(100 * F))
    for _ in range(10):
        u = PeriodicField(config, rng.standard_normal(256))
        want = apply(op, u).values
        got = sf.apply_strain(difference(u, 1, 1)).values
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
