"""The benchmark's workloads: inputs from a seed, one warm-up, a study, checks.

A study is a list of segments (`segments`), run back to back; the harness
times the calibration kernel between them (see speed.py).

Every qclab function is looked up on its module at call time (``qclab.x``,
``qclab.cli.main``), so the tracer's rebinding sees the benchmark's calls.
An operation fails when it raises or when its result fails a check; checks
use the program's own contracts and the seed reference outputs in `refs/`.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

import qclab

REFS = Path(__file__).resolve().parent / "refs"


class Tally:
    """Operations attempted and failed, with the first few failure causes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.causes = []

    def record(self, ok: bool, cause: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.causes) < 5:
                self.causes.append(cause)


# ---------------------------------------------------------------------------
# converge_large


def converge_reference_key(phase: float) -> str:
    return f"{phase:.1f}"


def p_key(p: float) -> str:
    return "inf" if p == math.inf else str(int(p))


class ConvergeLarge:
    """`convergence_study` for QNL then QCF on N = 2^12..2^18, p in {1, 2, inf}.

    The seed picks the witness phase from PHASES; each phase has its own seed
    reference table of error norms with per-rung tolerances (refs/converge.json).
    One operation is one (model, N) rung of a ladder.
    """

    name = "converge_large"
    # Slowdown of this study relative to the calibration kernel's, as the
    # exponent of the speed factor (speed.py). Memory-bound array and sparse-LU
    # work suffers less from a busy neighbour than the kernel does: over ten
    # runs, log wall time against log kernel time had slope 0.67, and 0.6-0.7
    # gave the steadiest medians. The other workloads track the kernel (1.0).
    SPEED_EXPONENT = 0.65
    KINDS = ("qnl", "qcf")
    N_LIST = tuple(2**k for k in range(12, 19))
    P_LIST = (1.0, 2.0, math.inf)
    PHASES = (0.3, 0.7, 1.1, 1.5)

    def __init__(self, seed: int, workdir: Path):
        self.phase = self.PHASES[seed % len(self.PHASES)]
        ref = json.loads((REFS / "converge.json").read_text())
        self.ref = ref["phases"][converge_reference_key(self.phase)]
        self.potential = qclab.harmonic(1.0, 1.0)
        self.partition = qclab.RegionPartition([(0.0, 0.5)], interface_width_m=4, reach=2)
        phase = self.phase
        self.witness = lambda x: np.sin(2.0 * np.pi * np.asarray(x) + phase)
        self.slopes = {}

    def _ladder(self, kind, N_list):
        return qclab.convergence_study(
            qclab.ModelKind(kind), self.witness, N_list, self.P_LIST, self.potential,
            partition=self.partition,
        )

    def warmup(self):
        for kind in self.KINDS:
            self._ladder(kind, (64, 128))

    def segments(self, tally: Tally):
        return [lambda k=kind: self._study_ladder(k, tally) for kind in self.KINDS]

    def _study_ladder(self, kind, tally: Tally):
        try:
            table = self._ladder(kind, self.N_LIST)
        except Exception as exc:
            for N in self.N_LIST:
                tally.record(False, f"{kind} N={N}: {type(exc).__name__}: {exc}")
            return
        self.slopes[kind] = {p_key(p): fit[0] for p, fit in table.fits.items()}
        checks = {c.N: c for c in table.checks}
        norms = {(r.N, p_key(r.p)): r.error_norm for r in table.rows}
        for N in self.N_LIST:
            ref = self.ref[kind][str(N)]
            c = checks.get(N)
            cause = ""
            if c is None or not (c.chain_ok and c.norm_equiv_ok):
                cause = "inequality chain or norm equivalence check failed"
            for p in self.P_LIST:
                key = p_key(p)
                got, want = norms.get((N, key), math.nan), ref["norms"][key]
                if not abs(got - want) <= ref["tol"] + 1e-12 * want:
                    cause = f"p={key}: error norm {got!r} vs seed {want!r}"
            tally.record(not cause, f"{kind} N={N}: {cause}")

    def summary(self):
        return {"phase": self.phase, "slopes": self.slopes}


# ---------------------------------------------------------------------------
# certify_wide_m


class CertifyWideM:
    """In-process `qclab certify` over m = 1..M plus unsymmetric `min_residual`
    at a few seed-chosen m >= 4.

    One operation is the command itself (exit code and header lines), each CSV
    row, and each unsymmetric residual.
    """

    name = "certify_wide_m"
    SPEED_EXPONENT = 1.0
    # The study costs about M^4; M = 32 keeps it near 1.5 s, so a run holds
    # about 20 studies and the calibration kernel brackets each closely.
    M = 32
    UNSYM_COUNT = 3

    def __init__(self, seed: int, workdir: Path):
        self.config = workdir / "certify.cfg"
        self.config.write_text(f"m_min=1\nm_max={self.M}\n")
        self.out = workdir / "certify.csv"
        self.warm_config = workdir / "certify_warm.cfg"
        self.warm_config.write_text("m_min=1\nm_max=4\n")
        self.reference = (REFS / "certify.csv").read_text().splitlines()
        self.unsym_m = sorted(random.Random(seed).sample(range(4, self.M + 1), self.UNSYM_COUNT))

    def warmup(self):
        qclab.cli.main(["certify", "--config", str(self.warm_config), "--out", str(self.out)])
        qclab.min_residual(4, symmetric=False)

    def segments(self, tally: Tally):
        return [lambda: self._study(tally)]

    def _study(self, tally: Tally):
        code = qclab.cli.main(["certify", "--config", str(self.config), "--out", str(self.out)])
        lines = self.out.read_text().splitlines() if code == 0 else []
        head_ok = code == 0 and lines[:2] == self.reference[:2]
        tally.record(head_ok, f"certify exit code {code}, header {lines[:2]!r}")
        for m in range(1, self.M + 1):
            want = self.reference[m + 1]
            got = lines[m + 1] if len(lines) > m + 1 else ""
            tally.record(head_ok and got == want and self._row_ok(m, got),
                         f"m={m}: row {got!r}, seed {want!r}")
        for m in self.unsym_m:
            try:
                res = qclab.min_residual(m, symmetric=False).residual
            except Exception as exc:
                tally.record(False, f"unsymmetric m={m}: {type(exc).__name__}: {exc}")
                continue
            tally.record(res <= 1e-10, f"unsymmetric m={m}: residual {res!r} > 1e-10")

    @staticmethod
    def _row_ok(m: int, line: str) -> bool:
        """Value exactly -2 and min residual at or above 2/||w||, ||w||^2 =
        sum_i i^4 + i^2."""
        cells = line.split(",")
        if len(cells) != 4 or cells[0] != str(m):
            return False
        bound = 2.0 / math.sqrt(sum(i**4 + i**2 for i in range(1, m + 1)))
        return cells[1] == "-2" and float(cells[2]) >= bound - 1e-10

    def summary(self):
        return {"M": self.M, "unsymmetric_m": self.unsym_m}


# ---------------------------------------------------------------------------
# lab_mixed_small


class LabMixedSmall:
    """A seeded batch of random geometries, each assembled as QCE, QNL, QCF,
    CUSTOM and the atomistic reference, then probed by the diagnostics and the
    nonlinear energy path.

    The batch holds PER_STRATUM accepted geometries per (N, potential,
    interval count) stratum, so every seed does a similar amount of work, plus
    every draw that `classify` rejected on the way; those count as rejected
    input, not as failures. One operation is one library call and its checks.
    """

    name = "lab_mixed_small"
    SPEED_EXPONENT = 1.0
    N_CHOICES = (256, 1024, 4096)
    POTENTIALS = ("harmonic", "lennard_jones")
    INTERVALS = (1, 2, 3)
    PER_STRATUM = 3
    M_RANGE = (2, 8)
    AMPLITUDE = 0.01        # displacement bound in units of eps
    TOL = 1e-12             # row sums and symmetry in eps^2 stencil units; ghost sup

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        nprng = np.random.default_rng(seed)
        self.stencils = {
            m: qclab.min_residual(m).stencil for m in range(self.M_RANGE[0], self.M_RANGE[1] + 1)
        }
        strata = [
            (N, pot, n_int)
            for N in self.N_CHOICES for pot in self.POTENTIALS for n_int in self.INTERVALS
        ]
        self.repeats = []
        for _ in range(self.PER_STRATUM):
            repeat = []
            for N, pot, n_int in strata:
                while True:
                    geom = self._draw(rng, N, pot, n_int)
                    repeat.append(geom)
                    try:
                        qclab.classify(geom["partition"], geom["config"])
                    except ValueError:
                        geom["rejected"] = True
                        continue
                    u = nprng.uniform(-self.AMPLITUDE, self.AMPLITUDE, N) / N
                    geom["u"] = qclab.PeriodicField(geom["config"], u)
                    break
            self.repeats.append(repeat)

    def _draw(self, rng, N, pot, n_int):
        m = rng.randint(*self.M_RANGE)
        ends = sorted(rng.random() for _ in range(2 * n_int))
        potential = qclab.lennard_jones() if pot == "lennard_jones" else qclab.harmonic(1.0, 1.0)
        F = 1.1 if pot == "lennard_jones" else 1.2
        return {
            "config": qclab.ChainConfig(N=N, F=F, R=2),
            "potential": potential,
            "partition": qclab.RegionPartition(
                list(zip(ends[::2], ends[1::2])), interface_width_m=m, reach=2
            ),
            "m": m,
            "rejected": False,
        }

    def warmup(self):
        config = qclab.ChainConfig(N=256, F=1.2, R=2)
        geom = {
            "config": config,
            "potential": qclab.harmonic(1.0, 1.0),
            "partition": qclab.RegionPartition([(0.2, 0.6)], interface_width_m=4, reach=2),
            "m": 4,
            "rejected": False,
            "u": qclab.zeros(config),
        }
        self._geometry(geom, Tally())

    def segments(self, tally: Tally):
        """One segment per repeat of the strata."""
        return [
            lambda repeat=repeat: [self._geometry(g, tally) for g in repeat]
            for repeat in self.repeats
        ]

    def _geometry(self, geom, tally: Tally):
        MK = qclab.ModelKind
        config, pot, part = geom["config"], geom["potential"], geom["partition"]
        label = f"N={config.N} {pot.kind} m={geom['m']} {part.atomistic_intervals}"
        eps2 = config.epsilon**2
        if geom["rejected"]:
            try:
                qclab.assemble_operator(MK.QNL, config, pot, partition=part)
            except ValueError:
                return
            tally.record(False, f"{label}: rejected by classify at setup, accepted now")
            return
        ops = {}
        for kind in (MK.QNL, MK.QCE, MK.QCF, MK.CUSTOM, MK.ATOMISTIC):
            coupled = kind is not MK.ATOMISTIC
            try:
                ops[kind] = qclab.assemble_operator(
                    kind, config, pot,
                    partition=part if coupled else None,
                    stencil=self.stencils[geom["m"]] if kind is MK.CUSTOM else None,
                )
            except Exception as exc:
                tally.record(False, f"{label} assemble {kind.value}: {type(exc).__name__}: {exc}")
                continue
            op = ops[kind]
            ok = bool(np.isfinite(op.band).all() and np.isfinite(op.ghost).all())
            if kind is not MK.CUSTOM:
                ok &= float(np.abs(op.row_sums()).max()) <= self.TOL
            tally.record(ok, f"{label} assemble {kind.value}: nonfinite or nonzero row sums")

        ref = ops.get(MK.ATOMISTIC)
        for kind, op in ops.items():
            if kind is MK.ATOMISTIC or ref is None:
                continue
            self._call(tally, f"{label} moment_residuals {kind.value}",
                       lambda: qclab.moment_residuals(op, ref),
                       lambda r, k=kind: self._moments_ok(k, r))

        for kind in (MK.QCE, MK.QNL, MK.QCF):
            free = kind is not MK.QCE
            self._call(tally, f"{label} ghost_force {kind.value}",
                       lambda k=kind: qclab.ghost_force(k, config, pot, partition=part),
                       lambda r, f=free: math.isfinite(r[1]) and (r[1] <= self.TOL or not f))

        energy_based = (MK.ATOMISTIC, MK.QCE, MK.QNL)
        for kind, op in ops.items():
            self._call(tally, f"{label} symmetry_defect {kind.value}",
                       lambda o=op: qclab.symmetry_defect(o),
                       lambda d, k=kind: math.isfinite(d)
                       and (eps2 * d <= self.TOL or k not in energy_based))

        for kind in (MK.ATOMISTIC, MK.QNL, MK.QCF):
            if kind in ops:
                self._call(tally, f"{label} to_strain_form {kind.value}",
                           lambda o=ops[kind]: qclab.to_strain_form(o),
                           lambda s: math.isfinite(s.bound_C) and s.bound_C > 0)

        u = geom["u"]
        for kind in energy_based:
            p = part if kind is not MK.ATOMISTIC else None
            self._call(tally, f"{label} total_energy {kind.value}",
                       lambda k=kind, p=p: qclab.total_energy(k, config, pot, u, partition=p),
                       math.isfinite)
            self._call(tally, f"{label} energy_gradient {kind.value}",
                       lambda k=kind, p=p: qclab.energy_gradient(k, config, pot, u, partition=p),
                       lambda g: bool(np.isfinite(g).all()))

    def _moments_ok(self, kind, report) -> bool:
        """Finite; the power-0 column is a difference of two row sums, each
        within TOL when the model's row sums vanish (not CUSTOM)."""
        res = report.residuals
        if not np.isfinite(res).all():
            return False
        return kind is qclab.ModelKind.CUSTOM or float(np.abs(res[:, 0]).max()) <= 2 * self.TOL

    @staticmethod
    def _call(tally: Tally, label: str, fn, check):
        try:
            result = fn()
        except Exception as exc:
            tally.record(False, f"{label}: {type(exc).__name__}: {exc}")
            return
        tally.record(bool(check(result)), f"{label}: check failed")

    def summary(self):
        geoms = [g for repeat in self.repeats for g in repeat]
        rejected = sum(g["rejected"] for g in geoms)
        return {"geometries": len(geoms) - rejected, "rejected_inputs_per_study": rejected}


WORKLOADS = {w.name: w for w in (ConvergeLarge, CertifyWideM, LabMixedSmall)}
