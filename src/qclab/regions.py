"""Atomistic/continuum decomposition of the unit period and atom classification.

The atomistic region A is a finite union of half-open intervals (a, b] of
(0, 1]; its complement is the continuum region C. Atom i belongs to A iff
its reference position i/N lies in A. Interior atoms see only their own
region within `reach` neighbors; everything else is interface.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .chain import ChainConfig, _integer, wrap_pad

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
        for name, value in (("interface_width_m", interface_width_m), ("reach", reach)):
            object.__setattr__(self, name, _integer(name, value))
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


@dataclass(frozen=True, eq=False)
class AtomLabels:
    """Per-atom classification plus the region membership mask, the
    boundaries it was derived from and the m-block of each boundary: row j of
    blocks holds the 1-based atoms of boundary j's block by block index 1..m,
    from the continuum end toward the atomistic end (shape (0, m) without a
    boundary)."""

    config: ChainConfig
    labels: np.ndarray       # int8, one of the label constants
    in_atomistic: np.ndarray  # bool, position membership of A
    boundaries: tuple        # (b, orientation) pairs, as from region_boundaries
    blocks: np.ndarray       # int, (boundaries, m) block atoms, continuum end first

    def atoms(self, label: int) -> np.ndarray:
        """1-based atom indices carrying `label`."""
        return np.nonzero(self.labels == label)[0] + 1

    def counts(self) -> dict:
        return {name: int(np.sum(self.labels == lab)) for lab, name in LABEL_NAMES.items()}


def membership_mask(partition: RegionPartition, config: ChainConfig) -> np.ndarray:
    """Boolean mask over atoms 1..N: True where a < i/N <= b, the compares
    positions() makes, for an interval (a, b] of A. Raises ValueError("invalid
    partition: ...") listing every problem that `validate` reports."""
    problems = validate(partition)
    if problems:
        raise ValueError("invalid partition: " + "; ".join(problems))
    N = config.N
    mask = np.zeros(N, dtype=bool)
    for a, b in partition.atomistic_intervals:
        # the least i with i/N > x is k = int(x N), plus one for each of k, k + 1 with i/N <= x
        lo, hi = (k + (k / N <= x) + ((k + 1) / N <= x) for x in (a, b) for k in [int(x * N)])
        mask[lo - 1:hi - 1] = True
    return mask


def region_boundaries(mask: np.ndarray) -> list:
    """Boundaries of the membership mask as (b, orientation) pairs.

    b is the 1-based atom directly left of the cut (between atoms b and b+1,
    periodically); orientation is "AC" when atom b is atomistic, else "CA".
    """
    cuts = np.flatnonzero(mask != wrap_pad(mask, 0, 1)[1:])  # atom b against atom b + 1
    return [(int(b) + 1, "AC" if mask[b] else "CA") for b in cuts]


@functools.lru_cache(maxsize=1)
def classify(partition: RegionPartition, config: ChainConfig) -> AtomLabels:
    """Label atoms interior-atomistic / interior-continuum / interface.

    Each boundary owns one window of the ring: its m-block plus the collar
    of `reach` atoms on either side of the cut. Atom i is interface iff it
    lies in a collar, i.e. iff an atom within `reach` of it lies in the other
    region. Rejects invalid partitions (see `membership_mask`), chains too
    short for their interface segments and windows that overlap. The atoms
    of each boundary's m-block, ceil(m/2) of them on the atomistic side and
    block index 1 at the continuum end, are placed here once, as `blocks`.
    The latest result is kept, read-only, for the next kind assembled on the
    geometry."""
    N, reach, m = config.N, partition.reach, partition.interface_width_m
    mask = membership_mask(partition, config)
    boundaries = tuple(region_boundaries(mask))
    labels = np.where(mask, np.int8(INTERIOR_ATOMISTIC), np.int8(INTERIOR_CONTINUUM))
    B = len(boundaries)
    need = B // 2 * (m + 4 * reach)
    if N < need:
        raise ValueError(f"N={N} too small for {B // 2} interface segment(s): need N >= {need}")
    cuts = np.array([b for b, _ in boundaries], dtype=int) - 1  # 0-based atom left of each cut
    ac = mask[cuts]
    left = np.where(ac, math.ceil(m / 2), m // 2)  # block atoms left of the cut
    lo, hi = cuts + 1 - np.maximum(reach, left), cuts + np.maximum(reach, m - left)

    def meets(i, j):  # windows are shorter than N, so j > i meets i above or across the wrap
        return (lo[j] <= hi[i]) | (lo[i] + N <= hi[j])

    # when two windows meet, so do two ring neighbours (a cut between the
    # two lies in one of them), so the pairwise search runs only then
    if B and (meets(np.arange(B - 1), np.arange(1, B)).any() or meets(0, B - 1)):
        i = next(i for i in range(B) if meets(i, np.arange(i + 1, B)).any())
        j = i + 1 + int(np.argmax(meets(i, np.arange(i + 1, B))))
        raise ValueError(
            f"interface collars of boundaries {boundaries[i][0]} and "
            f"{boundaries[j][0]} overlap"
        )
    labels[(cuts[:, None] + np.arange(1 - reach, reach + 1)) % N] = INTERFACE
    raw = cuts[:, None] + 1 - left[:, None] + np.arange(m)  # an AC block runs backwards
    blocks = np.where(ac[:, None], raw[:, ::-1], raw) % N + 1
    labels.flags.writeable = mask.flags.writeable = blocks.flags.writeable = False
    return AtomLabels(config, labels, mask, boundaries, blocks)
