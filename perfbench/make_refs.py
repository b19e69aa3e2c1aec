"""Regenerate the seed reference outputs in perfbench/refs/.

    PYTHONPATH=src python3 perfbench/make_refs.py

Run from the root of a checkout of the commit whose outputs are the
reference. Writes:

  refs/certify.csv    `qclab certify` CSV for m = 1..M of certify_wide_m.
  refs/converge.json  for each witness phase of converge_large, model and N:
                      the error norms ||D e||_p and the tolerance `tol` that
                      any implementation meeting the solver contract must
                      stay within (see NOTES.md).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import qclab  # noqa: E402
import qclab.cli  # noqa: E402
from qclab.convergence import RESIDUAL_RTOL  # noqa: E402
from workloads import CertifyWideM, ConvergeLarge, converge_reference_key, p_key  # noqa: E402

MACHEPS = float(np.finfo(float).eps)


def abs_apply_sup(op, v: np.ndarray) -> float:
    """|| |A| |v| ||_inf of the banded linear part."""
    K = op.half_width
    out = np.zeros(op.config.N)
    for k in range(-K, K + 1):
        out += np.abs(op.band[:, K + k]) * np.roll(np.abs(v), -k)
    return float(out.max()) / op.config.epsilon**2


def rung_tolerance(kind, config, witness, potential, partition, c_min: float) -> float:
    """4 R / c_min, with R the solver's residual contract on this rung plus the
    rounding of the right-hand side (see NOTES.md)."""
    u = qclab.sample_field(witness, config)
    op_a = qclab.assemble_operator(qclab.ModelKind.ATOMISTIC, config, potential)
    op_k = qclab.assemble_operator(kind, config, potential, partition=partition)
    f = qclab.apply_linear(op_a, u.values) - op_k.ghost
    u_qc = qclab.solve_equilibrium(op_k, f).values
    contract = max(RESIDUAL_RTOL * float(np.abs(f).max()), 8.0 * MACHEPS * abs_apply_sup(op_k, u_qc))
    rhs_rounding = MACHEPS * abs_apply_sup(op_a, u.values)
    return 4.0 * (contract + rhs_rounding) / c_min


def converge_refs() -> dict:
    potential = qclab.harmonic(1.0, 1.0)
    partition = qclab.RegionPartition([(0.0, 0.5)], interface_width_m=4, reach=2)
    c_min = min(qclab.evaluate(potential, r * 1.2, 2) for r in (1, 2))
    phases = {}
    for phase in ConvergeLarge.PHASES:
        witness = lambda x, ph=phase: np.sin(2.0 * np.pi * np.asarray(x) + ph)  # noqa: E731
        per_kind = {}
        for kind in ConvergeLarge.KINDS:
            mk = qclab.ModelKind(kind)
            table = qclab.convergence_study(
                mk, witness, ConvergeLarge.N_LIST, ConvergeLarge.P_LIST, potential,
                partition=partition,
            )
            per_kind[kind] = {
                str(N): {
                    "norms": {p_key(r.p): r.error_norm for r in table.rows if r.N == N},
                    "tol": rung_tolerance(
                        mk, qclab.ChainConfig(N=N, F=1.2, R=2), witness, potential,
                        partition, c_min,
                    ),
                }
                for N in ConvergeLarge.N_LIST
            }
        phases[converge_reference_key(phase)] = per_kind
    return {"c_min": c_min, "phases": phases}


def certify_csv() -> str:
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        cfg = Path(tmp) / "certify.cfg"
        cfg.write_text(f"m_min=1\nm_max={CertifyWideM.M}\n")
        out = Path(tmp) / "certify.csv"
        code = qclab.cli.main(["certify", "--config", str(cfg), "--out", str(out)])
        if code != 0:
            raise SystemExit(f"certify exited with {code}")
        return out.read_text()


def main() -> int:
    refs = HERE / "refs"
    refs.mkdir(exist_ok=True)
    (refs / "certify.csv").write_text(certify_csv())
    (refs / "converge.json").write_text(json.dumps(converge_refs(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
