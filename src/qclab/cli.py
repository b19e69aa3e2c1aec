"""Batch experiment runner: flat key=value configs in, CSV/gnuplot data out.

Commands: energy, stencil, moments, ghost, sweep, certify, converge,
selftest. Exit codes: 0 success, 1 standard output closed early (as when
piped into `head`; the run ends quietly), 2 config error (including an
unreadable --config, unwritable --out or an --out path ending in .dat), 3
numerical failure. Data files are deterministic: a single version header
line, no timestamps.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .chain import ChainConfig, PeriodicField, sample_field
from .consistency import (
    _ladder, _moment_sums, _slope_or_nan, consistency_sweep, default_witness, ghost_force,
    moment_residuals,
)
from .convergence import NumericalError, convergence_study
from .impossibility import CertificateError, certificate, min_residual
from .models import COUPLED, ENERGY_BASED, ModelKind, assemble_operator, total_energy
from .potentials import harmonic, lennard_jones
from .regions import RegionPartition
from . import acceptance


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


@dataclass
class RunConfig:
    model: str = "atomistic"
    potential: str = "harmonic"
    k: float = 1.0
    s0: float = 1.0
    F: float = 1.2
    R: int = 2
    partition: tuple = ((0.0, 0.5),)
    m: int = 4
    reach: int = 2
    N: int = 64
    N_list: tuple = ()
    p_list: tuple = (1.0, 2.0, math.inf)
    witness: str = "sin"
    phase: float = 0.3
    amplitude: float = 0.0
    m_min: int = 1
    m_max: int = 12
    out: str = ""
    exact: bool = False


_MODELS = {k.value for k in ModelKind if k is not ModelKind.CUSTOM}
_POTENTIALS = {"harmonic", "lennard_jones", "lj"}


def _parse_intervals(text: str):
    items = [s for chunk in text.split(";") for s in chunk.split() if s]
    out = []
    for item in items:
        a, sep, b = item.partition(":")
        if not sep:
            raise ValueError(f"interval {item!r} is not of the form a:b")
        out.append((float(a), float(b)))
    return tuple(out)


def _parse_p(text: str) -> float:
    p = math.inf if text.strip().lower() in ("inf", "infinity") else float(text)
    if not p >= 1.0:  # NaN fails too
        raise ValueError(f"p must lie in [1, inf], got {text.strip()!r}")
    return p


def parse_config(text: str) -> RunConfig:
    """Parse a key=value document (one per line, # comments) into a RunConfig.

    Unknown or repeated keys, malformed numbers and inadmissible values are
    hard errors, all reported together in input order.
    """
    cfg = RunConfig()
    known = {f.name for f in fields(RunConfig)}
    errors, seen = [], {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            errors.append(f"line {lineno}: expected key=value, got {raw.strip()!r}")
            continue
        if key not in known:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in seen:
            errors.append(f"line {lineno}: key {key!r} repeats line {seen[key]}")
            continue
        seen[key] = lineno
        try:
            if key in ("k", "s0", "F", "phase", "amplitude"):
                number = float(value)
                if not math.isfinite(number):
                    raise ValueError(f"must be finite, got {value!r}")
                setattr(cfg, key, number)
            elif key in ("N", "R", "m", "reach", "m_min", "m_max"):
                setattr(cfg, key, int(value))
            elif key == "N_list":
                cfg.N_list = tuple(int(s) for s in value.split(",") if s.strip())
            elif key == "p_list":
                ps = tuple(_parse_p(s) for s in value.split(",") if s.strip())
                if not ps:
                    raise ValueError("name at least one p")
                repeated = next((p for i, p in enumerate(ps) if p in ps[:i]), None)
                if repeated is not None:
                    raise ValueError(f"p = {repeated} is repeated")
                cfg.p_list = ps
            elif key == "partition":
                cfg.partition = _parse_intervals(value) if value else ()
            elif key == "exact":
                if value.lower() not in ("true", "false", "0", "1"):
                    raise ValueError(f"expected true/false, got {value!r}")
                cfg.exact = value.lower() in ("true", "1")
            else:
                setattr(cfg, key, value)
        except ValueError as exc:
            errors.append(f"line {lineno}: bad value for {key!r}: {exc}")
    if cfg.model not in _MODELS:
        errors.append(f"unknown model {cfg.model!r} (choose from {sorted(_MODELS)})")
    if cfg.potential not in _POTENTIALS:
        errors.append(f"unknown potential {cfg.potential!r}")
    if cfg.witness != "sin":
        errors.append(f"unknown witness {cfg.witness!r} (only 'sin' is built in)")
    if errors:
        raise ConfigError("; ".join(errors))
    return cfg


# ---------------------------------------------------------------------------
# config -> domain objects


def _potential(cfg: RunConfig):
    if cfg.potential in ("lennard_jones", "lj"):
        return lennard_jones()
    return harmonic(cfg.k, cfg.s0)


def _partition(cfg: RunConfig) -> RegionPartition | None:
    """The configured partition for a coupled model; None otherwise."""
    if _kind(cfg) not in COUPLED:
        return None
    return RegionPartition(cfg.partition, interface_width_m=cfg.m, reach=cfg.reach)


def _witness(cfg: RunConfig):
    return functools.partial(default_witness, phase=cfg.phase)


def _kind(cfg: RunConfig) -> ModelKind:
    return ModelKind(cfg.model)


def _assemble(cfg: RunConfig, N: int | None = None):
    kind = _kind(cfg)
    config = ChainConfig(N=N or cfg.N, F=cfg.F, R=cfg.R)
    return assemble_operator(kind, config, _potential(cfg), partition=_partition(cfg)), config


# ---------------------------------------------------------------------------
# output


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return repr(float(cell))  # a numpy scalar's repr is np.float64(x)
    return str(cell)


def _emit(path: str, header, rows, blocks=None):
    """Write CSV (and a gnuplot twin next to it); empty path prints to stdout.

    blocks, when given, partitions the rows into gnuplot data blocks
    (one series per block, separated by blank lines).
    """
    lines = [f"# qclab {__version__}", ",".join(header)]
    lines += [",".join(_fmt(c) for c in row) for row in rows]
    csv_text = "\n".join(lines) + "\n"
    if not path:
        sys.stdout.write(csv_text)
        return
    dat = ["# qclab " + __version__, "# " + " ".join(header)]
    groups = blocks if blocks is not None else [rows]
    for i, group in enumerate(groups):
        if i:
            dat.append("")
            dat.append("")
        dat += [" ".join(_fmt(c) for c in row) for row in group]
    target = Path(path)
    try:
        target.write_text(csv_text)
        target.with_suffix(".dat").write_text("\n".join(dat) + "\n")
    except OSError as exc:
        raise ConfigError(exc) from exc


def _report(args, text: str):
    if args.report:
        print(text)


# ---------------------------------------------------------------------------
# commands


def cmd_energy(cfg: RunConfig, args) -> int:
    kind = _kind(cfg)
    if kind not in ENERGY_BASED:
        raise ConfigError(f"model {kind.value!r} has no energy; pick an energy-based model")
    config = ChainConfig(N=cfg.N, F=cfg.F, R=cfg.R)
    u = sample_field(_witness(cfg), config)
    u = PeriodicField(config, cfg.amplitude * u.values)
    value = total_energy(kind, config, _potential(cfg), u, partition=_partition(cfg))
    _emit(cfg.out, ("model", "potential", "N", "F", "amplitude", "energy"),
          [(kind.value, cfg.potential, cfg.N, cfg.F, cfg.amplitude, value)])
    _report(args, f"total energy of {kind.value} at amplitude {cfg.amplitude}: {value!r}")
    return 0


def cmd_stencil(cfg: RunConfig, args) -> int:
    op, config = _assemble(cfg)
    rows = []
    for i in range(1, config.N + 1):
        offsets, coeffs = op.row(i)
        for off, c in zip(offsets, coeffs):
            if c != 0.0:
                rows.append((i, int(off), c, op.ghost[i - 1]))
    _emit(cfg.out, ("atom", "offset", "coeff", "ghost"), rows)
    _report(args, f"{cfg.model}: {len(rows)} nonzero stencil entries, "
                  f"ghost sup {float(np.abs(op.ghost).max())!r}")
    return 0


def cmd_moments(cfg: RunConfig, args) -> int:
    op, config = _assemble(cfg)
    ref = assemble_operator(ModelKind.ATOMISTIC, config, _potential(cfg))
    report = moment_residuals(op, ref)
    names = ("1", "j", "j2")
    rows = [
        (i, names[p], report.residuals[i - 1, p])
        for i in range(1, config.N + 1)
        for p in (0, 1, 2)
    ]
    _emit(cfg.out, ("atom", "p", "residual"), rows)
    if cfg.exact:
        exact = _moment_sums(op, ref, exact=True)
        deviation = np.abs(exact.astype(float) - report.residuals)
        worst = deviation.max()
        agree = bool((deviation <= 1e-9 * report.scale()).all())
        _report(args, f"exact rational recomputation agrees: {agree} "
                      f"(worst deviation {worst:.2e})")
        if not agree:
            raise NumericalError(
                f"floating moment residuals deviate from exact arithmetic by {worst:.2e}"
            )
    _report(args, f"nonzero-moment rows: {[int(i) for i in report.nonzero_rows()]}")
    return 0


def cmd_ghost(cfg: RunConfig, args) -> int:
    kind = _kind(cfg)
    N_list = _ladder(cfg.N_list or tuple(2**k for k in range(6, 12)))
    part = _partition(cfg)
    rows = []
    sups = []
    for N in N_list:
        config = ChainConfig(N=N, F=cfg.F, R=cfg.R)
        _, sup = ghost_force(kind, config, _potential(cfg), partition=part)
        rows.append((kind.value, N, config.epsilon, sup))
        sups.append(sup)
    _emit(cfg.out, ("model", "N", "epsilon", "ghost_sup"), rows)
    ratios = [b / a for a, b in zip(sups, sups[1:]) if a > 0]
    _report(args, f"{kind.value} ghost sup norms: {sups}; successive ratios: {ratios}")
    return 0


def cmd_sweep(cfg: RunConfig, args) -> int:
    kind = _kind(cfg)
    if kind is ModelKind.ATOMISTIC:
        raise ConfigError("sweep measures residuals against the atomistic reference; "
                          "pick continuum, qce, qnl or qcf")
    if cfg.R != 2:
        raise ConfigError(f"sweep runs at R=2 only, got R={cfg.R}")
    N_list = cfg.N_list or tuple(2**k for k in range(6, 13))
    result = consistency_sweep(
        kind, _witness(cfg), N_list, _potential(cfg), partition=_partition(cfg), F=cfg.F
    )
    rows = [(N, 1.0 / N, r, kind.value) for N, r in result.points]
    _emit(cfg.out, ("N", "epsilon", "residual", "model"), rows)
    _report(args, f"{kind.value} consistency exponent {result.exponent:.4f} "
                  f"(r^2 {result.r_squared:.6f})")
    return 0


def cmd_certify(cfg: RunConfig, args) -> int:
    if cfg.m_min < 1 or cfg.m_max < cfg.m_min:
        raise ConfigError(f"bad certify range m_min={cfg.m_min}, m_max={cfg.m_max}")
    rows = []
    lines = []
    for m in range(cfg.m_min, cfg.m_max + 1):
        cert = certificate(m)
        res = min_residual(m)
        bound = cert.residual_lower_bound
        rows.append((m, str(cert.value), res.residual, bound))
        if cfg.exact:
            lines.append(
                f"m={m}: weighted sum = {cert.value} (exact), ||w||^2 = "
                f"{cert.weight_norm_sq}, bound^2 = {Fraction(4, cert.weight_norm_sq)}"
            )
        else:
            lines.append(
                f"m={m}: weighted sum {cert.value}, min residual {res.residual:.8f}, "
                f"bound {bound:.8f}"
            )
    _emit(cfg.out, ("m", "value", "min_residual", "bound"), rows)
    if args.report and cfg.m_max >= 4:  # the unsymmetric diagnostic is read only here
        unsym = min_residual(4, symmetric=False).residual
        lines.append(
            f"symmetry dropped at m=4: residual {unsym:.2e} (force-based witness feasible)"
        )
    _report(args, "\n".join(lines))
    return 0


def cmd_converge(cfg: RunConfig, args) -> int:
    kind = _kind(cfg)
    if kind is ModelKind.ATOMISTIC:
        raise ConfigError("converge compares coupled or continuum models against atomistic")
    if cfg.R != 2:
        raise ConfigError(f"converge runs at R=2 only, got R={cfg.R}")
    N_list = cfg.N_list or tuple(2**k for k in range(6, 14))
    table = convergence_study(
        kind, _witness(cfg), N_list, list(cfg.p_list), _potential(cfg),
        partition=_partition(cfg), F=cfg.F,
    )
    rows = []
    blocks = []
    for p in cfg.p_list:
        series = table.norms(p)
        block = []
        for count in range(1, len(series) + 1):
            N, err = series[count - 1]
            pts = [(1.0 / n, e) for n, e in series[:count]]
            running = _slope_or_nan(pts)[0]
            row = (kind.value, N, 1.0 / N, "inf" if p == math.inf else p, err, running)
            rows.append(row)
            block.append(row)
        blocks.append(block)
    _emit(cfg.out, ("model", "N", "epsilon", "p", "error_norm", "slope_running"),
          rows, blocks=blocks)
    summary = ", ".join(
        f"p={'inf' if p == math.inf else p}: slope {table.fits[p][0]:.4f}"
        for p in cfg.p_list
    )
    _report(args, f"{kind.value} convergence: {summary}")
    return 0


def cmd_selftest(cfg: RunConfig, args) -> int:
    results = acceptance.run_all(report=print)
    return 0 if all(r.passed for r in results) else 3


COMMANDS = {
    "energy": cmd_energy,
    "stencil": cmd_stencil,
    "moments": cmd_moments,
    "ghost": cmd_ghost,
    "sweep": cmd_sweep,
    "certify": cmd_certify,
    "converge": cmd_converge,
    "selftest": cmd_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclab",
        description="1D atomistic/continuum coupling laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", type=str, default=None, help="key=value config file")
        p.add_argument("--out", type=str, default=None, help="output CSV path")
        p.add_argument("--exact", action="store_true",
                       help="force rational arithmetic where supported")
        p.add_argument("--report", action="store_true",
                       help="print a human-readable summary to stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            text = Path(args.config).read_text() if args.config else ""
        except OSError as exc:
            raise ConfigError(exc) from exc
        cfg = parse_config(text)
        if args.out is not None:
            cfg.out = args.out
        if Path(cfg.out).suffix == ".dat":  # the gnuplot twin would overwrite the CSV
            raise ConfigError(f"out path {cfg.out!r} ends in .dat, the suffix of its gnuplot twin")
        if args.exact:
            cfg.exact = True
        code = COMMANDS[args.command](cfg, args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to devnull, so
        # that the flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (NumericalError, CertificateError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
