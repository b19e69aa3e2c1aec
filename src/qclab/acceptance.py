"""Acceptance suite: the exit criteria of the laboratory, runnable headless.

Each criterion function returns a CriterionResult; the pytest module and the
CLI `selftest` command share these runners so that the gate is a single code
path. Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .chain import ChainConfig, PeriodicField, difference, lp_norm, sample_field
from .consistency import consistency_sweep, default_witness, ghost_force
from .convergence import convergence_study
from .impossibility import certificate, min_residual
from .models import (
    ModelKind,
    apply,
    apply_linear,
    assemble_from_moduli,
    assemble_operator,
    hessian_consistency_check,
    symmetry_defect,
    to_strain_form,
    total_energy,
)
from .potentials import evaluate, harmonic, lennard_jones
from .regions import RegionPartition

HALF_PART = RegionPartition([(0.0, 0.5)], interface_width_m=4, reach=2)
POT1 = harmonic(1.0, 1.0)

ATOM_ROW = (-1.0, -1.0, 4.0, -1.0, -1.0)
CONT_ROW = (0.0, -5.0, 10.0, -5.0, 0.0)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.number}: {self.title} [{self.detail}] ({self.seconds:.2f} s)"


def _result(number, title, start, passed, detail) -> CriterionResult:
    return CriterionResult(
        number=number,
        title=title,
        passed=bool(passed),
        detail=detail,
        seconds=time.perf_counter() - start,
    )


def criterion_1_certificate() -> CriterionResult:
    """Exact weighted-sum value -2 for every m in 1..12, under 1 second."""
    start = time.perf_counter()
    values = [certificate(m).value for m in range(1, 13)]
    elapsed = time.perf_counter() - start
    ok = all(v == -2 for v in values) and elapsed < 1.0
    detail = f"values {{{', '.join(str(v) for v in set(values))}}}, {elapsed:.3f} s"
    return _result(1, "exact certificate value -2 for m=1..12", start, ok, detail)


def criterion_2_min_residual() -> CriterionResult:
    """Least-squares defect >= 2/||w|| for all m; tight at m=4; the
    unsymmetric relaxation is exactly feasible (QCF witness)."""
    start = time.perf_counter()
    ok = True
    worst_gap = 0.0
    for m in range(1, 13):
        cert = certificate(m)
        res = min_residual(m).residual
        bound = 2.0 / math.sqrt(cert.weight_norm_sq)
        ok &= res >= bound - 1e-10
        worst_gap = max(worst_gap, abs(res - bound))
    m4 = min_residual(4).residual
    m4_ref = 2.0 / math.sqrt(384.0)
    ok &= abs(m4 - m4_ref) <= 1e-8
    unsym = min_residual(4, symmetric=False).residual
    ok &= unsym <= 1e-10
    detail = (
        f"m=4 residual {m4:.8f} vs 2/sqrt(384) {m4_ref:.8f}, "
        f"unsymmetric residual {unsym:.2e}, worst bound gap {worst_gap:.2e}"
    )
    return _result(2, "quantified infeasibility and symmetry pivot", start, ok, detail)


def criterion_3_ghost_scalings() -> CriterionResult:
    """QCE ghost sup doubles from N to 2N (O(1/eps)); QNL and QCF are
    ghost-free to 1e-12 at N = 128."""
    start = time.perf_counter()
    sups = {}
    for k in range(6, 12):
        N = 2**k
        config = ChainConfig(N=N, F=1.2, R=2)
        sups[N] = ghost_force(ModelKind.QCE, config, POT1, partition=HALF_PART)[1]
    ratios = [sups[2 * N] / sups[N] for N in (64, 128, 256, 512, 1024)]
    ok = all(abs(r - 2.0) <= 0.1 for r in ratios)
    config = ChainConfig(N=128, F=1.2, R=2)
    qnl_sup = ghost_force(ModelKind.QNL, config, POT1, partition=HALF_PART)[1]
    qcf_sup = ghost_force(ModelKind.QCF, config, POT1, partition=HALF_PART)[1]
    ok &= qnl_sup <= 1e-12 and qcf_sup <= 1e-12
    detail = (
        f"QCE ratios {['%.3f' % r for r in ratios]}, "
        f"QNL sup {qnl_sup:.1e}, QCF sup {qcf_sup:.1e}"
    )
    return _result(3, "ghost-force scalings O(1/eps) vs ghost-free", start, ok, detail)


def criterion_4_consistency_exponents() -> CriterionResult:
    """Sweep exponents: continuum +2, QNL 0 with residual bounded below,
    QCE -1; each within 0.15; under 30 s."""
    start = time.perf_counter()
    ladder = [2**k for k in range(6, 13)]
    cont = consistency_sweep(ModelKind.CONTINUUM, default_witness, ladder, POT1)
    qnl = consistency_sweep(ModelKind.QNL, default_witness, ladder, POT1, partition=HALF_PART)
    qce = consistency_sweep(ModelKind.QCE, default_witness, ladder, POT1, partition=HALF_PART)
    elapsed = time.perf_counter() - start
    qnl_floor = min(r for _, r in qnl.points)
    ok = (
        abs(cont.exponent - 2.0) <= 0.15
        and abs(qnl.exponent) <= 0.15
        and qnl_floor > 5.0
        and abs(qce.exponent + 1.0) <= 0.15
        and elapsed < 30.0
    )
    detail = (
        f"continuum {cont.exponent:+.3f}, qnl {qnl.exponent:+.3f} "
        f"(residual floor {qnl_floor:.2f}), qce {qce.exponent:+.3f}, {elapsed:.1f} s"
    )
    return _result(4, "consistency sweep exponents (+2, 0, -1)", start, ok, detail)


def criterion_5_convergence_rates() -> CriterionResult:
    """QNL w^{1,p} rates 1 + 1/p within 0.1 for p in {1, 2, inf}, with the
    exact norm-equivalence and strain-bound inequalities on every row."""
    start = time.perf_counter()
    table = convergence_study(
        ModelKind.QNL,
        default_witness,
        [2**k for k in range(6, 14)],
        [1, 2, math.inf],
        POT1,
        partition=HALF_PART,
    )
    elapsed = time.perf_counter() - start
    slopes = {p: table.fits[p][0] for p in (1, 2, math.inf)}
    ok = (
        abs(slopes[1] - 2.0) <= 0.1
        and abs(slopes[2] - 1.5) <= 0.1
        and abs(slopes[math.inf] - 1.0) <= 0.1
    )
    ok &= all(c.chain_ok and c.norm_equiv_ok for c in table.checks)
    ok &= all(row.error_norm > 0 for row in table.rows)
    ok &= elapsed < 120.0
    detail = (
        f"slopes p=1: {slopes[1]:.3f}, p=2: {slopes[2]:.3f}, "
        f"p=inf: {slopes[math.inf]:.3f}; inequalities hold on all "
        f"{len(table.checks)} rows; {elapsed:.1f} s"
    )
    return _result(5, "w^{1,p} convergence rates 1 + 1/p", start, ok, detail)


def criterion_6_structure() -> CriterionResult:
    """Symmetry, Hessian agreement, closed-form interior rows, and the
    first/second-neighbor recombination identity."""
    start = time.perf_counter()
    config = ChainConfig(N=32, F=1.2, R=2)
    config_lj = ChainConfig(N=32, F=1.1, R=2)
    pot_lj = lennard_jones()
    ok = True

    for kind in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM, ModelKind.QCE, ModelKind.QNL):
        part = None if kind in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM) else HALF_PART
        ok &= symmetry_defect(assemble_operator(kind, config, POT1, partition=part)) <= 1e-12
        ok &= symmetry_defect(assemble_operator(kind, config_lj, pot_lj, partition=part)) <= 1e-12

    dev_h = max(
        hessian_consistency_check(ModelKind.QNL, config, POT1, partition=HALF_PART),
        hessian_consistency_check(ModelKind.ATOMISTIC, config, POT1),
    )
    dev_lj = max(
        hessian_consistency_check(ModelKind.ATOMISTIC, config_lj, pot_lj),
        hessian_consistency_check(ModelKind.QNL, config_lj, pot_lj, partition=HALF_PART),
    )
    ok &= dev_h <= 1e-6 and dev_lj <= 1e-5

    op_a = assemble_operator(ModelKind.ATOMISTIC, config, POT1)
    op_c = assemble_operator(ModelKind.CONTINUUM, config, POT1)
    rows_ok = all(tuple(op_a.row(i)[1]) == ATOM_ROW for i in range(1, 33)) and all(
        tuple(op_c.row(i)[1]) == CONT_ROW for i in range(1, 33)
    )
    ok &= rows_ok

    a = evaluate(pot_lj, config_lj.F, 2)
    b = evaluate(pot_lj, 2 * config_lj.F, 2)
    recomb_err = 0.0
    for kind in (ModelKind.ATOMISTIC, ModelKind.QNL):
        part = None if kind is ModelKind.ATOMISTIC else HALF_PART
        op10 = assemble_from_moduli(kind, config_lj, (1.0, 0.0), partition=part)
        op01 = assemble_from_moduli(kind, config_lj, (0.0, 1.0), partition=part)
        full = assemble_from_moduli(kind, config_lj, (a, b), partition=part)
        recomb_err = max(
            recomb_err, float(np.abs(a * op10.band + b * op01.band - full.band).max())
        )
    ok &= recomb_err <= 1e-13

    detail = (
        f"hessian dev harmonic {dev_h:.1e} (<=1e-6), LJ {dev_lj:.1e} (<=1e-5), "
        f"interior rows exact: {rows_ok}, recombination err {recomb_err:.1e}"
    )
    return _result(6, "structural properties of the operators", start, ok, detail)


def criterion_7_oracle_equivalence() -> CriterionResult:
    """Banded application vs dense matrix-vector; energies vs brute-force
    double loops; strain-form application vs direct application."""
    start = time.perf_counter()
    rng = np.random.default_rng(2718)
    ok = True
    worst_apply = 0.0
    for N in (64, 256):
        config = ChainConfig(N=N, F=1.2, R=2)
        u = rng.standard_normal(N)
        for kind in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM, ModelKind.QNL, ModelKind.QCE):
            part = None if kind in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM) else HALF_PART
            op = assemble_operator(kind, config, POT1, partition=part)
            got = apply(op, u)
            want = op.dense() @ u + op.ghost
            worst_apply = max(worst_apply, float(np.abs(config.epsilon**2 * (got - want)).max()))
    ok &= worst_apply <= 1e-12

    config = ChainConfig(N=8, F=1.3, R=2)
    u8 = PeriodicField(config, 0.05 * rng.standard_normal(8))
    worst_energy = 0.0
    eps = config.epsilon
    for kind in (ModelKind.ATOMISTIC, ModelKind.CONTINUUM):
        got = total_energy(kind, config, POT1, u8)
        brute = 0.0
        for r in (1, 2):
            for i in range(1, 9):
                if kind is ModelKind.ATOMISTIC:
                    strain = (u8[i] - u8[i - r]) / eps
                else:
                    strain = r * (u8[i] - u8[i - 1]) / eps
                brute += eps * evaluate(POT1, r * config.F + strain, 0)
        worst_energy = max(worst_energy, abs(got - brute))
    ok &= worst_energy <= 1e-13

    config = ChainConfig(N=128, F=1.2, R=2)
    op = assemble_operator(ModelKind.QNL, config, POT1, partition=HALF_PART)
    sf = to_strain_form(op)
    worst_strain = 0.0
    for _ in range(50):
        u = PeriodicField(config, rng.standard_normal(128))
        direct = apply(op, u).values
        via = sf.apply_strain(difference(u, 1, 1).values)
        worst_strain = max(worst_strain, float(np.abs(config.epsilon * (direct - via)).max()))
    ok &= worst_strain <= 1e-12

    detail = (
        f"apply vs dense {worst_apply:.1e}, energy vs brute force {worst_energy:.1e}, "
        f"strain form vs direct {worst_strain:.1e}"
    )
    return _result(7, "oracle equivalence of the fast paths", start, ok, detail)


CRITERIA = (
    criterion_1_certificate,
    criterion_2_min_residual,
    criterion_3_ghost_scalings,
    criterion_4_consistency_exponents,
    criterion_5_convergence_rates,
    criterion_6_structure,
    criterion_7_oracle_equivalence,
)


def run_all(report=print) -> list:
    """Run every acceptance criterion, emitting one line per criterion."""
    results = []
    for fn in CRITERIA:
        res = fn()
        results.append(res)
        if report is not None:
            report(res.line())
    return results
