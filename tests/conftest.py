"""Shared fixtures: seeded random multi-interval geometries, the block-atom
oracle and the environment of a subprocess that imports qclab from this
checkout. Every test starts with qclab's caches empty. Every property test
runs under one hypothesis profile: derandomized, with no example database
and no deadline, so each run draws the same examples. The caches hypothesis
keeps besides go to a temporary directory that is removed at exit, so a run
writes no .hypothesis/ directory."""

import atexit
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from qclab import ChainConfig, RegionPartition, classify, harmonic, lennard_jones

settings.register_profile("qclab", derandomize=True, database=None, deadline=None)
settings.load_profile("qclab")
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="qclab-hypothesis-")
atexit.register(shutil.rmtree, _HYPOTHESIS_HOME, ignore_errors=True)
set_hypothesis_home_dir(_HYPOTHESIS_HOME)

# potential name -> (potential, admissible uniform stretch F)
POTENTIALS = {
    "harmonic": (harmonic(1.0, 1.0), 1.2),
    "lennard_jones": (lennard_jones(), 1.1),
}


def _block_atoms_reference(boundary, m, N):
    """1-based atoms of the m-block at a (b, orientation) boundary, by block
    index 1..m from the continuum end, ceil(m/2) of them on the atomistic
    side of the cut: the placement `classify(...).blocks` is checked against."""
    b, orient = boundary
    n_atom = math.ceil(m / 2)
    n_cont = m - n_atom
    if orient == "AC":
        raw = np.arange(b + n_cont, b - n_atom, -1)
    else:
        raw = np.arange(b - n_cont + 1, b + n_atom + 1)
    return (raw - 1) % N + 1


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


@pytest.fixture(autouse=True)
def empty_qclab_caches():
    """Clear every cache of every loaded qclab module (classify, the assembly
    memo, build_constraint_system and the static tables) before each test,
    so that no test passes or fails by what an earlier one left cached."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "qclab" or name.startswith("qclab.")):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


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
