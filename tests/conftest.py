"""Shared fixtures: seeded random multi-interval geometries, and the
environment of a subprocess that imports qclab from this checkout."""

import os
from pathlib import Path

import numpy as np
import pytest

from qclab import ChainConfig, RegionPartition, classify, harmonic, lennard_jones

# potential name -> (potential, admissible uniform stretch F)
POTENTIALS = {
    "harmonic": (harmonic(1.0, 1.0), 1.2),
    "lennard_jones": (lennard_jones(), 1.1),
}


def draw_geometry(rng, N: int, potential: str, n_intervals: int):
    """(config, potential, partition) with n_intervals random atomistic
    intervals and m in 2..6; draws that `classify` rejects are redrawn."""
    pot, F = POTENTIALS[potential]
    config = ChainConfig(N=N, F=F, R=2)
    for _ in range(1000):
        ends = np.sort(rng.random(2 * n_intervals))
        partition = RegionPartition(
            list(zip(ends[::2], ends[1::2])),
            interface_width_m=int(rng.integers(2, 7)),
            reach=2,
        )
        try:
            classify(partition, config)
        except ValueError:
            continue
        return config, pot, partition
    raise RuntimeError(f"no admissible geometry with {n_intervals} intervals at N={N}")


@pytest.fixture
def random_geometry():
    return draw_geometry


@pytest.fixture
def src_env():
    """os.environ with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env
