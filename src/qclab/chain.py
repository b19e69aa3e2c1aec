"""Periodic 1D chain primitives: configuration, fields, difference calculus, norms.

Atoms sit at reference positions x_i = i/N for i = 1..N on the unit period,
with lattice spacing epsilon = 1/N. Displacement fields are N-periodic;
all index arithmetic wraps. Backward first differences and centered second
differences follow the strain convention D_r u_i = (u_i - u_{i-r}) / (r eps).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _integer(name: str, value) -> int:
    """value as an int; anything `operator.index` refuses (2.5, and 2.0 too)
    raises a ValueError naming the field, so a size is never truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class ChainConfig:
    """Parameters of one periodic chain.

    N       atoms per period (epsilon = 1/N is derived, never stored)
    F       macroscopic deformation gradient
    R       interaction cutoff in neighbor counts
    """

    N: int
    F: float = 1.2
    R: int = 2

    def __post_init__(self):
        for name in ("N", "R"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.N < 1:
            raise ValueError(f"N must be positive, got {self.N}")
        if self.R < 1:
            raise ValueError(f"R must be positive, got {self.R}")
        if not math.isfinite(self.F):
            raise ValueError(f"F must be finite, got {self.F}")
        # Widest stencil is 2R+1 atoms; it must not wrap onto itself.
        if self.N < 2 * self.R + 1:
            raise ValueError(f"N={self.N} too small for cutoff R={self.R}")

    @property
    def epsilon(self) -> float:
        return 1.0 / self.N

    def positions(self) -> np.ndarray:
        """Reference positions i/N for i = 1..N (in (0, 1])."""
        return np.arange(1, self.N + 1) / self.N


class PeriodicField:
    """Length-N real field with 1-based periodic index semantics.

    field[i] resolves to values[(i-1) mod N]; any integer index is a legal
    read. Values are immutable after construction.
    """

    __slots__ = ("config", "values")

    def __init__(self, config: ChainConfig, values):
        v = np.asarray(values, dtype=float).copy()
        if v.shape != (config.N,):
            raise ValueError(f"expected {config.N} values, got shape {v.shape}")
        v.flags.writeable = False
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "values", v)

    def __setattr__(self, name, value):
        raise AttributeError("PeriodicField is immutable")

    def __len__(self) -> int:
        return self.config.N

    def __getitem__(self, i):
        idx = (np.asarray(i) - 1) % self.config.N
        return self.values[idx]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PeriodicField)
            and self.config == other.config
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"PeriodicField(N={self.config.N}, values={self.values!r})"

    def mean(self) -> float:
        return float(self.values.mean())


def zeros(config: ChainConfig) -> PeriodicField:
    return PeriodicField(config, np.zeros(config.N))


def sample_field(f: Callable[[np.ndarray], np.ndarray], config: ChainConfig) -> PeriodicField:
    """Sample a 1-periodic function onto the chain: u_i = f(i/N), i = 1..N."""
    return PeriodicField(config, np.asarray(f(config.positions()), dtype=float))


def wrap_pad(v: np.ndarray, behind: int, ahead: int) -> np.ndarray:
    """v between its last `behind` and first `ahead` values (each <= len(v)), so
    that neighbour k of atoms 0..N-1 is the contiguous window from behind + k."""
    return np.concatenate((v[len(v) - behind:], v, v[:ahead]))


def difference(u: PeriodicField, r: int, order: int) -> PeriodicField:
    """Difference quotients of a periodic field.

    order 1: backward (D_r u)_i = (u_i - u_{i-r}) / (r eps)
    order 2: centered (D_r^2 u)_i = (u_{i+r} - 2 u_i + u_{i-r}) / (r eps)^2
    """
    N = u.config.N
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    if 2 * r > N:
        raise ValueError(f"r={r} exceeds N/2={N / 2}: stencil self-overlaps")
    eps = u.config.epsilon
    v, vp = u.values, wrap_pad(u.values, r, r)
    if order == 1:
        out = (v - vp[:N]) / (r * eps)
    elif order == 2:
        out = (vp[2 * r:] - 2.0 * v + vp[:N]) / (r * eps) ** 2
    else:
        raise ValueError(f"order must be 1 or 2, got {order}")
    return PeriodicField(u.config, out)


def lp_norm(u: PeriodicField, p: float) -> float:
    """Discrete l^p_eps norm: (eps sum |u_j|^p)^(1/p); max |u_j| for p = inf."""
    a = np.abs(u.values)
    return _magnitude_norm(a, p, u.config.epsilon, a)


def _magnitude_norm(a: np.ndarray, p: float, eps: float, out: np.ndarray) -> float:
    """`lp_norm` of a field whose magnitudes are a; the p-th powers go to out,
    a itself or an array of its length."""
    if not p >= 1:  # NaN fails too
        raise ValueError(f"p must lie in [1, inf], got {p}")
    if p == math.inf:
        return float(a.max()) if len(a) else 0.0
    return float((eps * np.sum(np.power(a, p, out=out))) ** (1.0 / p))
