"""Constraint system, exact Farkas certificate, quantified infeasibility."""

import math
import re
import sys
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import qclab.impossibility as imp
import qclab.models as models
from qclab import (
    ChainConfig,
    ModelKind,
    RegionPartition,
    assemble_operator,
    build_constraint_system,
    certificate,
    certificate_weights,
    harmonic,
    min_residual,
    moment_residuals,
    qcf_witness_block,
)
from qclab.cli import main
from qclab.models import InterfaceStencil
import test_models

ATOM_L2 = {-2: -1, -1: 0, 0: 2, 1: 0, 2: -1}
CONT_L2 = {-2: 0, -1: -4, 0: 8, 1: -4, 2: 0}


def exact_defect(block, m, i, power):
    """Independent oracle: moment defect of row i at a given block, exact."""
    total = Fraction(0)
    for j in range(-1, m + 3):
        off = j - i
        la = ATOM_L2.get(off, 0)
        if 1 <= j <= m:
            q = Fraction(block[i - 1][j - 1]).limit_denominator(10**12)
        elif j < 1:
            q = Fraction(CONT_L2.get(off, 0))
        else:
            q = Fraction(ATOM_L2.get(off, 0))
        total += (q - la) * j**power
    return total


def equations_loop(m, n_unknowns, column):
    """Row-by-row reference for the constraint equations (defect = rhs -
    matrix . x), one (i, p, j) step at a time."""
    matrix = np.zeros((3 * m, n_unknowns), dtype=np.int64)
    rhs = np.zeros(3 * m, dtype=np.int64)
    for i in range(1, m + 1):
        for ip, p in enumerate((0, 1, 2)):
            row = 3 * (i - 1) + ip
            for j in range(-1, m + 3):
                la = ATOM_L2.get(j - i, 0)
                if 1 <= j <= m:
                    matrix[row, column(i, j)] -= j**p
                    rhs[row] -= la * j**p
                elif j < 1:
                    rhs[row] += (CONT_L2.get(j - i, 0) - la) * j**p
    return matrix, rhs


def test_equations_match_loop_reference():
    for m in range(1, 41):
        assert imp.pair_index(m) == [(k, l) for k in range(1, m + 1) for l in range(k, m + 1)]
        col_of = {pair: idx for idx, pair in enumerate(imp.pair_index(m))}

        def free(i, j):
            return (i - 1) * m + (j - 1)

        s = build_constraint_system(m)
        want = equations_loop(m, len(col_of), lambda i, j: col_of[min(i, j), max(i, j)])
        assert s.matrix.dtype == s.rhs.dtype == np.int64
        assert np.array_equal(s.matrix, want[0]) and np.array_equal(s.rhs, want[1])
        got = imp._equations(m, m * m, np.arange(m * m).reshape(m, m))
        want = equations_loop(m, m * m, free)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def triu_positions(m):
    """The (m, m) map of block entry (k, l) to its unknown, built the way the
    symmetric system was first built: np.triu_indices, mirrored."""
    k, l = np.triu_indices(m)
    column = np.empty((m, m), dtype=np.int64)
    column[k, l] = column[l, k] = np.arange(len(k))
    return column


def equations_scatter(m, n_unknowns, column):
    """The first vectorised build of the system: one np.subtract.at per power
    over the broadcast block, with column(i, j) mapping arrays elementwise."""
    i, j, pure = models._block_frame(m)
    lc, la = pure.astype(np.int64)
    weight = np.where(j < 1, lc - la, np.where(j <= m, -la, 0))
    rhs = (weight @ (j ** np.array(imp.POWERS)[:, None]).T).reshape(-1)
    matrix = np.zeros((3 * m, n_unknowns), dtype=np.int64)
    bi, bj = np.broadcast_arrays(i, np.arange(1, m + 1))
    for ip, p in enumerate(imp.POWERS):
        np.subtract.at(matrix, (3 * (bi - 1) + ip, column(bi, bj)), bj**p)
    return matrix, rhs


def test_systems_match_the_scatter_oracle_byte_for_byte():
    """The single assignment of _equations and the position map give the
    bytes of the subtract.at / triu_indices construction, symmetric systems
    for m = 1..64 and free ones for m = 1..40; it relies on each row of both
    column maps being one-to-one in j, which is checked too."""
    for m in range(1, 65):
        column = triu_positions(m)
        assert imp._positions(m).tobytes() == column.tobytes() and not imp._positions(m).flags.writeable
        assert imp.pair_index(m) == [(k + 1, l + 1) for k, l in zip(*np.triu_indices(m))]
        s = build_constraint_system(m)
        matrix, rhs = equations_scatter(m, m * (m + 1) // 2, lambda i, j: column[i - 1, j - 1])
        assert s.matrix.tobytes() == matrix.tobytes() and s.rhs.tobytes() == rhs.tobytes(), m
        assert s.matrix.shape == matrix.shape and s.rhs.dtype == rhs.dtype == np.int64
        free = np.arange(m * m).reshape(m, m)
        for col in (column, free):
            assert all(len(set(row)) == m for row in col.tolist()), m
        if m <= 40:
            got = imp._equations(m, m * m, free)
            want = equations_scatter(m, m * m, lambda i, j: (i - 1) * m + (j - 1))
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes(), m


def test_block_unpacking_matches_the_triu_oracle_bit_for_bit():
    rng = np.random.default_rng(30)
    for m in range(1, 65):
        s = build_constraint_system(m)
        k, l = np.triu_indices(m)
        x = rng.standard_normal(len(k))
        x[rng.integers(len(k))] = -0.0
        want = np.zeros((m, m))
        want[k, l] = x
        want[l, k] = x
        blk = s.vector_to_block(x)
        assert blk.dtype == want.dtype and blk.tobytes() == want.tobytes(), m
        assert s.block_to_vector(blk).tobytes() == x.tobytes(), m
        b = rng.standard_normal((m, m))  # unsymmetric: the upper triangle is read
        assert s.block_to_vector(b).tobytes() == b[k, l].tobytes(), m


def test_system_shapes():
    s4 = build_constraint_system(4)
    assert s4.matrix.shape == (12, 10)
    assert s4.rhs.shape == (12,)
    s1 = build_constraint_system(1)
    assert s1.matrix.shape == (3, 1)
    assert np.issubdtype(s4.matrix.dtype, np.integer)
    assert np.issubdtype(s4.rhs.dtype, np.integer)
    with pytest.raises(ValueError):
        build_constraint_system(0)


@pytest.mark.parametrize("m", [2.5, 2.0, "2"])
def test_build_constraint_system_names_a_non_integer_m(m):
    build_constraint_system(2)  # cached: 2.0 == 2 must not hit it
    with pytest.raises(ValueError, match=re.escape(f"m must be an integer, got {m!r}")):
        build_constraint_system(m)
    s = build_constraint_system(np.int64(3))
    assert s.m == 3 and type(s.m) is int
    assert s.matrix.tobytes() == build_constraint_system(3).matrix.tobytes()


@pytest.mark.parametrize("m", [2.5, 2.0])
def test_certificate_names_a_non_integer_m(m):
    with pytest.raises(ValueError, match=re.escape(f"m must be an integer, got {m!r}")):
        certificate(m)
    cert = certificate(np.int64(3))
    assert cert == certificate(3) and type(cert.m) is int


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("m", [2.5, 2.0])
def test_min_residual_names_a_non_integer_m(m, symmetric):
    with pytest.raises(ValueError, match=re.escape(f"m must be an integer, got {m!r}")):
        min_residual(m, symmetric=symmetric)
    got, want = min_residual(np.int64(4), symmetric=symmetric), min_residual(4, symmetric=symmetric)
    assert got.m == 4 and type(got.m) is int and got.residual == want.residual


def test_m1_system_by_hand():
    # single unknown x: defects are (x-5, x-3, x-1) for p = 1, j, j^2
    s = build_constraint_system(1)
    for x, want in ((5.0, (0, 2, 4)), (3.0, (-2, 0, 2)), (1.0, (-4, -2, 0))):
        np.testing.assert_array_equal(s.defect(np.array([x])), want)


def test_defect_matches_exact_oracle():
    rng = np.random.default_rng(12)
    for m in (1, 2, 3, 5):
        s = build_constraint_system(m)
        b = rng.integers(-5, 5, size=(m, m))
        block = (b + b.T).astype(float)
        x = s.block_to_vector(block)
        got = s.defect(x)
        for row in range(3 * m):
            i, p = s.row_label(row)
            assert got[row] == float(exact_defect(block, m, i, p))


def test_certificate_value_minus_two():
    for m in range(1, 101):
        cert = certificate(m)
        assert cert.value == -2 and type(cert.value) is int
        assert all(type(w) is int for w in cert.weights)
        assert cert.weight_norm_sq == sum(i**4 + i**2 for i in range(1, m + 1))


def test_weighted_sum_cancels_every_unknown_symbolically():
    """Unknown x_kl (k < l) sits at (k, l) in row k and at (l, k) in row l,
    where the p=j and p=j^2 equations carry j and j^2 with weights i^2 and -i;
    its coefficient in the weighted sum vanishes for every k and l."""
    sympy = pytest.importorskip("sympy")
    k, l = sympy.symbols("k l", integer=True, positive=True)

    def coefficient(i, j):
        return i**2 * j - i * j**2

    assert sympy.expand(coefficient(k, l) + coefficient(l, k)) == 0
    assert sympy.expand(coefficient(k, k)) == 0  # diagonal unknown x_kk, one entry


def test_weighted_rhs_is_minus_two_for_every_m():
    """weights . rhs in closed form. Row i of the rhs is sum_j weight_ij j^p
    over j = i-2..i+2, where the weight is L^c - L^a at a column pinned to
    the continuum (j < 1), -L^a at a block column and 0 at a column pinned
    atomistic (j > m). Rows 3..m-2 see only block columns, so their weighted
    rhs is a polynomial in i; rows 1, 2 and m-1, m are given explicitly.
    With weights i^2 on p=j and -i on p=j^2 the sum is -2 for symbolic
    m >= 4; m = 1..3 are checked one by one."""
    sympy = pytest.importorskip("sympy")
    i, m = sympy.symbols("i m", integer=True, positive=True)

    def weighted_row(row, pinned):
        """i^2 rhs(p=j) - i rhs(p=j^2) of one row; pinned maps an offset to
        "C" (continuum column j < 1) or "A" (atomistic column j > m)."""
        rhs = []
        for p in (1, 2):
            total = 0
            for off in range(-2, 3):
                region = pinned.get(off, "B")
                la = ATOM_L2[off]
                weight = {"C": CONT_L2[off] - la, "B": -la, "A": 0}[region]
                total += weight * (row + off) ** p
            rhs.append(total)
        return row**2 * rhs[0] - row * rhs[1]

    boundary = {                      # row -> offsets of its pinned columns
        1: {-2: "C", -1: "C"},        # j = -1, 0
        2: {-2: "C"},                 # j = 0
        m - 1: {2: "A"},              # j = m + 1
        m: {1: "A", 2: "A"},          # j = m + 1, m + 2
    }
    interior = sympy.summation(weighted_row(i, {}), (i, 3, m - 2))
    total = interior + sum(weighted_row(row, pinned) for row, pinned in boundary.items())
    assert sympy.expand(total) == -2

    # the row cases agree with the assembled system row by row
    for mv in (4, 5, 9):
        system = build_constraint_system(mv)
        w = certificate_weights(mv)
        pins = {int(sympy.sympify(row).subs(m, mv)): pin for row, pin in boundary.items()}
        for row in range(1, mv + 1):
            want = sum(w[r] * int(system.rhs[r]) for r in (3 * row - 2, 3 * row - 1))
            assert sympy.sympify(weighted_row(row, pins.get(row, {}))).subs(m, mv) == want

    for mv in (1, 2, 3):
        rows = [
            weighted_row(row, {
                off: "C" if row + off < 1 else "A"
                for off in range(-2, 3) if not 1 <= row + off <= mv
            })
            for row in range(1, mv + 1)
        ]
        assert sum(rows) == -2


def test_certificate_runtime_under_one_second():
    start = time.perf_counter()
    for m in range(1, 13):
        certificate(m)
    assert time.perf_counter() - start < 1.0


def test_certificate_weights_cancel_unknowns_exactly():
    for m in (1, 4, 7, 12):
        s = build_constraint_system(m)
        w = certificate_weights(m)
        combo = [
            sum(w[r] * int(s.matrix[r, c]) for r in range(3 * m))
            for c in range(s.matrix.shape[1])
        ]
        assert all(v == 0 for v in combo)
        assert sum(w[r] * int(s.rhs[r]) for r in range(3 * m)) == Fraction(-2)


def test_certificate_detects_corrupted_assembly(monkeypatch):
    good = imp.build_constraint_system(3)
    bad_matrix = good.matrix.copy()
    bad_matrix[1, 0] += 1
    bad = imp.ConstraintSystem(m=3, matrix=bad_matrix, rhs=good.rhs)
    monkeypatch.setattr(imp, "build_constraint_system", lambda m: bad)
    with pytest.raises(imp.CertificateError):
        imp.certificate(3)


def test_weighted_sums_match_python_int_oracle():
    """The int64 products equal object-dtype (Python int) products, for the
    assembled systems and for corrupted ones whose columns do not cancel."""
    rng = np.random.default_rng(8)
    corrupted_columns = 0
    for m in range(1, 41):
        s = build_constraint_system(m)
        w = certificate_weights(m)
        wo = np.array(w, dtype=object)
        noise = rng.integers(-m * m, m * m + 1, size=s.matrix.shape)
        noise *= rng.random(s.matrix.shape) < 0.05
        for system in (s, imp.ConstraintSystem(m=m, matrix=s.matrix + noise, rhs=s.rhs)):
            sums, value = imp._weighted_sums(system, w)
            assert sums.dtype == np.int64 and type(value) is int
            assert sums.tolist() == (wo @ system.matrix.astype(object)).tolist()
            assert value == wo @ system.rhs.astype(object) == -2
        corrupted_columns += np.count_nonzero(sums)
    assert corrupted_columns > 1000


def test_certificate_refuses_sums_past_the_int64_bound(monkeypatch):
    # 2^62 on the p=j row of i=2 (weight 4) adds 2^64 to the column sum of
    # x_11, which int64 wraps to exactly 0: without the bound the corrupted
    # system would pass as cancelling
    good = imp.build_constraint_system(3)
    bad_matrix = good.matrix.copy()
    bad_matrix[4, 0] += 2**62
    w = np.array(certificate_weights(3), dtype=np.int64)
    with np.errstate(over="ignore"):
        assert (w @ bad_matrix)[0] == 0
    bad = imp.ConstraintSystem(m=3, matrix=bad_matrix, rhs=good.rhs)
    monkeypatch.setattr(imp, "build_constraint_system", lambda m: bad)
    with pytest.raises(imp.CertificateError, match=r"m=3: int64 .* overflow"):
        imp.certificate(3)


def test_cached_system_is_shared_and_read_only():
    s = build_constraint_system(6)
    assert build_constraint_system(6) is s
    with pytest.raises(ValueError, match="read-only"):
        s.matrix[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        s.rhs[0] = 1


def test_certify_builds_each_symmetric_system_once(tmp_path, monkeypatch, capsys):
    builds = Counter()
    equations = imp._equations

    def counted(m, n_unknowns, column):
        builds[m, "symmetric" if n_unknowns == m * (m + 1) // 2 else "free"] += 1
        return equations(m, n_unknowns, column)

    monkeypatch.setattr(imp, "_equations", counted)  # the system cache starts empty
    cfg = tmp_path / "certify.cfg"
    cfg.write_text("m_min=1\nm_max=8\n")
    want = Counter({(m, "symmetric"): 1 for m in range(1, 9)})
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 0
    assert builds == want    # the unsymmetric diagnostic is built only for the report
    builds.clear()
    imp.build_constraint_system.cache_clear()
    assert main(["certify", "--report", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 0
    want[4, "free"] = 1      # the unsymmetric min residual at m = 4
    assert builds == want
    assert "symmetry dropped at m=4" in capsys.readouterr().out


def test_min_residual_attains_certificate_bound():
    for m in range(1, 13):
        cert = certificate(m)
        result = min_residual(m)
        bound = 2.0 / math.sqrt(cert.weight_norm_sq)
        assert result.residual >= bound - 1e-10
        # the cons2 defect minimizer sits exactly on the Cauchy-Schwarz bound
        assert result.residual == pytest.approx(bound, abs=1e-8)


def rank_mod_prime(a, p=2**31 - 1):
    """Rank of an integer matrix over GF(p), by Gaussian elimination in int64:
    every entry is reduced below p < 2^31, so each product stays below 2^62."""
    a = np.asarray(a, dtype=np.int64) % p
    rank = 0
    for col in range(a.shape[1]):
        nonzero = np.flatnonzero(a[rank:, col])
        if nonzero.size == 0:
            continue
        pivot = rank + nonzero[0]
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), p - 2, p) % p
        a[rank + 1:] = (a[rank + 1:] - a[rank + 1:, col, None] * a[rank]) % p
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def test_consistency_rows_have_rank_2m_minus_1():
    """The certificate's w annihilates the 2m consistency rows, so their rank
    over Q is at most 2m - 1, and the rank mod p is at most the rank over Q.
    Rank 2m - 1 mod p therefore leaves span(w) as the whole left null space:
    the least-squares defect is b's component along w, of norm |w.b| / ||w||
    = 2/||w||, so min_residual attains the certificate bound for every m here."""
    for m in range(1, 33):
        system = build_constraint_system(m)
        rows = system.consistency_rows()
        w = np.array(certificate_weights(m), dtype=np.int64)[rows]
        assert not (w @ system.matrix[rows]).any()
        assert rank_mod_prime(system.matrix[rows]) == 2 * m - 1, m


def test_min_residual_m4_reference_value():
    assert min_residual(4).residual == pytest.approx(2.0 / math.sqrt(384.0), abs=1e-8)
    assert min_residual(2).residual == pytest.approx(2.0 / math.sqrt(22.0), abs=1e-8)


def test_min_residual_monotone_in_m():
    vals = [min_residual(m).residual for m in range(1, 13)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12


def test_unsymmetric_relaxation_is_feasible():
    result = min_residual(4, symmetric=False)
    assert result.residual <= 1e-10
    assert result.stencil.shape == (4, 4)


@pytest.mark.parametrize("m", [0, -1])
def test_unsymmetric_relaxation_refuses_a_block_without_atoms(m):
    with pytest.raises(ValueError, match=f"m must be positive, got {m}$"):
        min_residual(m, symmetric=False)


def test_qcf_witness_zeroes_all_equations_exactly():
    for m in (4, 5, 8):
        block = qcf_witness_block(m)
        for i in range(1, m + 1):
            for p in (0, 1, 2):
                assert exact_defect(block, m, i, p) == 0
    with pytest.raises(ValueError):
        qcf_witness_block(3)


@pytest.mark.parametrize("m", [4.0, "4"])
def test_qcf_witness_block_names_a_non_integer_m(m):
    with pytest.raises(ValueError, match=re.escape(f"m must be an integer, got {m!r}")):
        qcf_witness_block(m)
    assert qcf_witness_block(np.int64(4)).tobytes() == qcf_witness_block(4).tobytes()


def test_symmetric_argmin_defect_is_orthogonal_to_weights_span():
    # residual vector of the lstsq minimizer is parallel to the certificate
    # weights on the cons2 rows: that is why the bound is attained
    s = build_constraint_system(4)
    rows = s.consistency_rows()
    result = min_residual(4)
    x = s.block_to_vector(result.stencil.block)
    defect = s.defect(x)[rows]
    w = np.array([float(certificate_weights(4)[r]) for r in rows])
    cos = defect @ w / np.linalg.norm(defect) / np.linalg.norm(w)
    assert abs(abs(cos) - 1.0) <= 1e-10


def test_cross_module_agreement_with_operator_moments():
    """The argmin stencil, assembled as a full operator, reproduces the
    constraint-system defect through the operator-level moment report."""
    m = 4
    result = min_residual(m)
    s = build_constraint_system(m)
    x = s.block_to_vector(result.stencil.block)
    defect = s.defect(x)  # local-frame moments, rows (i, p)

    N = 64
    config = ChainConfig(N=N, F=1.2, R=2)
    part = RegionPartition([(0.5, 1.0)], interface_width_m=m, reach=2)
    pot = harmonic(1.0, 1.0)  # unit moduli: operator moments are in L2 units
    op = assemble_operator(ModelKind.CUSTOM, config, pot, partition=part, stencil=result.stencil)
    ref = assemble_operator(ModelKind.ATOMISTIC, config, pot)
    report = moment_residuals(op, ref)

    # ascending (continuum -> atomistic) boundary block sits at atoms 31..34
    block_atoms = [31, 32, 33, 34]
    for i, atom in enumerate(block_atoms, start=1):
        shift = atom - i
        loc = {p: defect[3 * (i - 1) + p] for p in (0, 1, 2)}
        want = (
            loc[0],
            loc[1] + shift * loc[0],
            loc[2] + 2 * shift * loc[1] + shift * shift * loc[0],
        )
        got = report.residuals[atom - 1]
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_argmin_stencil_roundtrip():
    result = min_residual(3)
    assert isinstance(result.stencil, InterfaceStencil)
    s = build_constraint_system(3)
    x = s.block_to_vector(result.stencil.block)
    np.testing.assert_allclose(s.vector_to_block(x), result.stencil.block)


def test_the_pure_rows_have_one_source(monkeypatch):
    """A patched atomistic shell-2 row of models._energy_tables moves QCF's
    atomistic rows, CUSTOM's pinned entries, the consistency equations and
    the force-based witness together, each against an oracle that reads the
    same patched row from its own literals; a half-integer row makes the
    equations refuse rather than truncate."""
    tables = models._energy_tables

    def patch(scale):
        def patched(kind, R):
            bits, bands, gweights = tables(kind, R)
            if kind is ModelKind.ATOMISTIC and R == 2:
                bands = bands * np.array([1.0, scale])[:, None, None]
            return bits, bands, gweights
        monkeypatch.setattr(models, "_energy_tables", patched)
        for cache in (models._assembled, imp.build_constraint_system):
            cache.cache_clear()

    scaled = {o: 2 * c for o, c in ATOM_L2.items()}
    for module in (test_models, sys.modules[__name__]):
        monkeypatch.setattr(module, "ATOM_L2", scaled)
    try:
        patch(2.0)
        config = ChainConfig(N=64, F=1.2, R=2)
        part = RegionPartition([(0.0, 0.5)], interface_width_m=4, reach=2)
        b = np.random.default_rng(29).standard_normal((4, 4))
        for kind, stencil in ((ModelKind.QCF, None), (ModelKind.CUSTOM, InterfaceStencil(4, b + b.T))):
            op = assemble_operator(kind, config, harmonic(1.0, 1.0), partition=part, stencil=stencil)
            want = test_models.native_rows_reference(kind, config, [1.0, 1.0], part, stencil)
            assert np.ascontiguousarray(op.band).tobytes() == want.tobytes(), kind
            if kind is ModelKind.QCF:  # L1 plus twice the atomistic L2 row, deep in A
                assert op.row(16)[1].tolist() == [-2.0, -1.0, 6.0, -1.0, -2.0]
        for m in range(1, 9):
            col_of = {pair: idx for idx, pair in enumerate(imp.pair_index(m))}
            s = build_constraint_system(m)
            want = equations_loop(m, len(col_of), lambda i, j: col_of[min(i, j), max(i, j)])
            assert np.array_equal(s.matrix, want[0]) and np.array_equal(s.rhs, want[1]), m
            if m >= 4:
                native = [CONT_L2 if i <= m // 2 else scaled for i in range(1, m + 1)]
                want = [[native[i - 1].get(j - i, 0) for j in range(1, m + 1)] for i in range(1, m + 1)]
                assert qcf_witness_block(m).tolist() == want, m
        patch(1.5)
        for m in (1, 4):
            with pytest.raises(imp.CertificateError, match=rf"m={m}: pure L2 entry -1.5 is not an integer"):
                build_constraint_system(m)
            with pytest.raises(imp.CertificateError, match="is not an integer"):
                min_residual(m, symmetric=False)
    finally:
        for cache in (models._assembled, imp.build_constraint_system):
            cache.cache_clear()
