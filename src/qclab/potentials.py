"""Pair interaction potentials with analytic first and second derivatives.

Two families: harmonic (k/2)(s - s0)^2 and Lennard-Jones normalized to unit
minimum position and depth, phi(s) = s^-12 - 2 s^-6. Only phi''(rF) enters
the linearized operators; phi'(rF) drives the affine ghost terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HARMONIC = "harmonic"
LENNARD_JONES = "lennard_jones"


@dataclass(frozen=True)
class PairPotential:
    kind: str
    k: float = 1.0
    s0: float = 1.0

    def __post_init__(self):
        if self.kind not in (HARMONIC, LENNARD_JONES):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        for name in ("k", "s0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


def harmonic(k: float = 1.0, s0: float = 1.0) -> PairPotential:
    return PairPotential(HARMONIC, k=k, s0=s0)


def lennard_jones() -> PairPotential:
    return PairPotential(LENNARD_JONES)


def singular(pot: PairPotential, s) -> np.ndarray:
    """Elementwise mask of the arguments where phi is singular: s <= 0 for
    Lennard-Jones, nowhere for the harmonic potential."""
    s = np.asarray(s, dtype=float)
    return s <= 0 if pot.kind == LENNARD_JONES else np.zeros(s.shape, dtype=bool)


def evaluate(pot: PairPotential, s, order: int = 0):
    """phi(s), phi'(s) or phi''(s), elementwise over s."""
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    s = np.asarray(s, dtype=float)
    if pot.kind == HARMONIC:
        d = s - pot.s0
        if order == 0:
            out = 0.5 * pot.k * d * d
        elif order == 1:
            out = pot.k * d
        else:
            out = np.full_like(s, pot.k)
    elif pot.kind == LENNARD_JONES:
        if np.any(singular(pot, s)):
            raise ValueError("lennard_jones is singular at s <= 0")
        if order == 0:
            out = s**-12 - 2.0 * s**-6
        elif order == 1:
            out = -12.0 * s**-13 + 12.0 * s**-7
        else:
            out = 156.0 * s**-14 - 84.0 * s**-8
    else:
        raise ValueError(f"unknown potential kind {pot.kind!r}")
    return out if out.ndim else float(out)


def _finite_step(step: float) -> float:
    """A finite-difference step, refused when it is zero or not finite."""
    if step == 0 or not math.isfinite(step):
        raise ValueError(f"step must be finite and nonzero, got {step}")
    return step


def derivative_check(pot: PairPotential, s_samples, step: float = 1e-6) -> float:
    """Worst relative error of the analytic derivatives against central
    finite differences of the next lower order; a NaN error gives NaN.
    Empty sample list gives 0. Raises ValueError for a step that is zero or
    not finite and for a sample that is not finite."""
    _finite_step(step)
    errors = [0.0]
    for s in s_samples:
        if not math.isfinite(s):
            raise ValueError(f"sample s = {s} is not finite")
        for order in (1, 2):
            lo = evaluate(pot, s - step, order - 1)
            hi = evaluate(pot, s + step, order - 1)
            fd = (hi - lo) / (2.0 * step)
            exact = evaluate(pot, s, order)
            errors.append(abs(fd - exact) / max(1.0, abs(exact)))
    return float(np.max(errors))
