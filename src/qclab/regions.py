"""Atomistic/continuum decomposition of the unit period and atom classification.

The atomistic region A is a finite union of half-open intervals (a, b] of
(0, 1]; its complement is the continuum region C. Atom i belongs to A iff
its reference position i/N lies in A. Interior atoms see only their own
region within `reach` neighbors; everything else is interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .chain import ChainConfig

INTERIOR_ATOMISTIC = 0
INTERIOR_CONTINUUM = 1
INTERFACE = 2

LABEL_NAMES = {
    INTERIOR_ATOMISTIC: "interior_atomistic",
    INTERIOR_CONTINUUM: "interior_continuum",
    INTERFACE: "interface",
}


@dataclass(frozen=True)
class RegionPartition:
    """Atomistic intervals of (0, 1] plus interface bookkeeping parameters.

    atomistic_intervals  disjoint (a, b] intervals whose union is A
    interface_width_m    atoms per interface block (the m of the coupling)
    reach                range of interfacial interactions (neighbor counts)
    """

    atomistic_intervals: tuple
    interface_width_m: int = 4
    reach: int = 2

    def __init__(self, atomistic_intervals: Iterable, interface_width_m: int = 4, reach: int = 2):
        ivs = tuple((float(a), float(b)) for a, b in atomistic_intervals)
        object.__setattr__(self, "atomistic_intervals", ivs)
        object.__setattr__(self, "interface_width_m", int(interface_width_m))
        object.__setattr__(self, "reach", int(reach))
        if self.interface_width_m < 1:
            raise ValueError("interface_width_m must be positive")
        if self.reach < 1:
            raise ValueError("reach must be positive")


def validate(partition: RegionPartition) -> list:
    """Structural checks on the interval list; violations are data, not faults."""
    out = []
    for a, b in partition.atomistic_intervals:
        if not (a < b):
            out.append(f"empty or inverted interval ({a}, {b}]")
        if a < 0.0 or b > 1.0:
            out.append(f"interval ({a}, {b}] not contained in (0, 1]")
    ivs = sorted(partition.atomistic_intervals)
    for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
        if a2 < b1:
            out.append(f"intervals ({a1}, {b1}] and ({a2}, {b2}] overlap")
    return out


@dataclass(frozen=True)
class AtomLabels:
    """Per-atom classification plus the underlying region membership mask."""

    config: ChainConfig
    labels: np.ndarray       # int8, one of the label constants
    in_atomistic: np.ndarray  # bool, position membership of A

    def atoms(self, label: int) -> np.ndarray:
        """1-based atom indices carrying `label`."""
        return np.nonzero(self.labels == label)[0] + 1

    def counts(self) -> dict:
        return {name: int(np.sum(self.labels == lab)) for lab, name in LABEL_NAMES.items()}


def membership_mask(partition: RegionPartition, config: ChainConfig) -> np.ndarray:
    """Boolean mask over atoms 1..N: True where i/N lies in A."""
    x = config.positions()
    mask = np.zeros(config.N, dtype=bool)
    for a, b in partition.atomistic_intervals:
        mask |= (x > a) & (x <= b)
    return mask


def region_boundaries(mask: np.ndarray) -> list:
    """Boundaries of the membership mask as (b, orientation) pairs.

    b is the 1-based atom directly left of the cut (between atoms b and b+1,
    periodically); orientation is "AC" when atom b is atomistic, else "CA".
    """
    cuts = np.flatnonzero(mask != np.roll(mask, -1))
    return [(int(b) + 1, "AC" if mask[b] else "CA") for b in cuts]


def block_atoms(boundary, m: int, N: int) -> np.ndarray:
    """1-based atoms of the m-wide interface block at a boundary, ordered by
    block index 1..m from the continuum end toward the atomistic end.

    ceil(m/2) atoms sit on the atomistic side of the cut.
    """
    b, orient = boundary
    n_atom = math.ceil(m / 2)
    n_cont = m - n_atom
    if orient == "AC":
        raw = np.arange(b + n_cont, b - n_atom, -1)
    else:
        raw = np.arange(b - n_cont + 1, b + n_atom + 1)
    return (raw - 1) % N + 1


def _boundary_window(boundary, m: int, reach: int, N: int) -> set:
    """Atoms owned by one boundary: the m block plus the reach collar."""
    b, _ = boundary
    collar = np.arange(b - reach + 1, b + reach + 1)
    window = set(((collar - 1) % N + 1).tolist())
    window.update(block_atoms(boundary, m, N).tolist())
    return window


def classify(partition: RegionPartition, config: ChainConfig) -> AtomLabels:
    """Label atoms interior-atomistic / interior-continuum / interface.

    Atom i is interior to a region iff every atom within `reach` of it lies
    in the same region. Rejects partitions whose per-boundary interface
    segments (block of m plus reach collar) are not pairwise disjoint.
    """
    problems = validate(partition)
    if problems:
        raise ValueError("invalid partition: " + "; ".join(problems))
    N, reach, m = config.N, partition.reach, partition.interface_width_m
    mask = membership_mask(partition, config)
    boundaries = region_boundaries(mask)
    if boundaries:
        n_intervals = max(len(boundaries) // 2, 1)
        need = n_intervals * (m + 4 * reach)
        if N < need:
            raise ValueError(
                f"N={N} too small for {n_intervals} interface segment(s): need N >= {need}"
            )
        windows = [_boundary_window(bd, m, reach, N) for bd in boundaries]
        for i in range(len(windows)):
            for j in range(i + 1, len(windows)):
                if windows[i] & windows[j]:
                    raise ValueError(
                        f"interface collars of boundaries {boundaries[i][0]} and "
                        f"{boundaries[j][0]} overlap"
                    )

    deep_a = mask.copy()
    deep_c = ~mask
    for off in range(1, reach + 1):
        deep_a &= np.roll(mask, off) & np.roll(mask, -off)
        deep_c &= np.roll(~mask, off) & np.roll(~mask, -off)
    labels = np.full(N, INTERFACE, dtype=np.int8)
    labels[deep_a] = INTERIOR_ATOMISTIC
    labels[deep_c] = INTERIOR_CONTINUUM
    return AtomLabels(config=config, labels=labels, in_atomistic=mask)
