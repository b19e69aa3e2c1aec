"""Region partitioning and atom classification."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qclab import (
    INTERFACE,
    INTERIOR_ATOMISTIC,
    INTERIOR_CONTINUUM,
    ChainConfig,
    RegionPartition,
    classify,
    membership_mask,
    validate,
)
from conftest import _block_atoms_reference
from qclab.regions import region_boundaries


def test_classify_reference_example():
    labels = classify(RegionPartition([(0.0, 0.5)]), ChainConfig(N=16, F=1.0))
    assert set(labels.atoms(INTERIOR_ATOMISTIC)) == {3, 4, 5, 6}
    assert set(labels.atoms(INTERIOR_CONTINUUM)) == {11, 12, 13, 14}
    assert set(labels.atoms(INTERFACE)) == {7, 8, 9, 10, 15, 16, 1, 2}


def test_whole_period_atomistic():
    labels = classify(RegionPartition([(0.0, 1.0)]), ChainConfig(N=16, F=1.0))
    assert len(labels.atoms(INTERIOR_ATOMISTIC)) == 16


def test_empty_partition_is_pure_continuum():
    labels = classify(RegionPartition([]), ChainConfig(N=16, F=1.0))
    assert len(labels.atoms(INTERIOR_CONTINUUM)) == 16


def test_classify_rejects_overlapping_collars():
    with pytest.raises(ValueError):
        classify(RegionPartition([(0.0, 0.5)]), ChainConfig(N=8, F=1.0))


def test_validate_reports_overlap():
    bad = RegionPartition([(0.0, 0.5), (0.25, 0.75)])
    problems = validate(bad)
    assert any("overlap" in msg for msg in problems)
    with pytest.raises(ValueError):
        classify(bad, ChainConfig(N=64, F=1.0))


def test_validate_reports_containment_and_emptiness():
    assert any("contained" in msg for msg in validate(RegionPartition([(0.0, 1.5)])))
    assert any("empty" in msg for msg in validate(RegionPartition([(0.5, 0.5)])))
    assert validate(RegionPartition([(0.0, 0.5)])) == []
    assert validate(RegionPartition([])) == []


def test_labels_partition_all_atoms():
    for ivs in ([(0.0, 0.5)], [(0.25, 0.5), (0.75, 1.0)], [(0.1, 0.4)]):
        labels = classify(RegionPartition(ivs), ChainConfig(N=128, F=1.0))
        counts = labels.counts()
        assert sum(counts.values()) == 128


def test_classify_deterministic():
    # the latest result is kept for an equal geometry and shared, read-only
    part = RegionPartition([(0.0, 0.5)])
    c = ChainConfig(N=64, F=1.0)
    a = classify(part, c)
    assert classify(RegionPartition([(0.0, 0.5)]), ChainConfig(N=64, F=1.0)) is a
    assert not a.labels.flags.writeable and not a.in_atomistic.flags.writeable
    other = classify(part, ChainConfig(N=128, F=1.0))
    assert len(other.labels) == 128
    b = classify(part, c)
    np.testing.assert_array_equal(a.labels, b.labels)
    # no caller can change what the next one is handed
    with pytest.raises(AttributeError):
        b.boundaries.append((3, "AC"))
    assert classify(part, c).boundaries == ((32, "AC"), (64, "CA"))


def test_interface_size_constant_across_refinement():
    part = RegionPartition([(0.0, 0.5)])
    sizes = []
    for N in (32, 64, 128, 256):
        labels = classify(part, ChainConfig(N=N, F=1.0))
        sizes.append(len(labels.atoms(INTERFACE)))
    assert sizes == [sizes[0]] * 4


def test_membership_uses_half_open_intervals():
    mask = membership_mask(RegionPartition([(0.0, 0.5)]), ChainConfig(N=16, F=1.0))
    # atom 8 sits at x = 0.5, inside (0, 0.5]; atom 16 at x = 1.0 is outside
    assert mask[7] and not mask[8] and not mask[15]


def test_membership_mask_is_fresh_and_writeable():
    # classify keeps a read-only mask per geometry; the public mask is a
    # new writeable array on every call
    part, config = RegionPartition([(0.0, 0.5)]), ChainConfig(N=16, F=1.0)
    shared = classify(part, config).in_atomistic
    a, b = membership_mask(part, config), membership_mask(part, config)
    assert a is not b and a is not shared and a.flags.writeable and not shared.flags.writeable
    a[:] = ~a
    assert np.array_equal(b, shared) and classify(part, config).in_atomistic is shared


def test_block_atoms_orientations():
    # (0, 0.5] at N = 16 cuts AC between atoms 8|9 and CA between 16|1:
    # ceil(m/2) atoms on the atomistic side, block index 1 at the continuum end
    config = ChainConfig(N=16, F=1.0)
    blocks = classify(RegionPartition([(0.0, 0.5)], interface_width_m=4), config).blocks
    np.testing.assert_array_equal(blocks, [[10, 9, 8, 7], [15, 16, 1, 2]])  # the CA cut wraps
    # odd m: 2 atomistic, 1 continuum
    blocks = classify(RegionPartition([(0.0, 0.5)], interface_width_m=3), config).blocks
    np.testing.assert_array_equal(blocks, [[9, 8, 7], [16, 1, 2]])


def test_region_boundaries_orientation():
    mask = membership_mask(RegionPartition([(0.0, 0.5)]), ChainConfig(N=16, F=1.0))
    assert region_boundaries(mask) == [(8, "AC"), (16, "CA")]


def test_partition_parameter_validation():
    with pytest.raises(ValueError):
        RegionPartition([(0.0, 0.5)], interface_width_m=0)
    with pytest.raises(ValueError):
        RegionPartition([(0.0, 0.5)], reach=0)
    # a size that is not an integer is refused by name, never truncated
    for field, value in (("interface_width_m", 2.5), ("reach", 2.7), ("reach", 2.0),
                         ("interface_width_m", "4")):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            RegionPartition([(0.0, 0.5)], **{field: value})
    part = RegionPartition([(0.0, 0.5)], interface_width_m=np.int64(3), reach=np.int32(1))
    assert (part.interface_width_m, part.reach) == (3, 1)
    assert type(part.interface_width_m) is int and type(part.reach) is int


def _region_boundaries_loop(mask):
    """Per-atom reference for region_boundaries."""
    N = len(mask)
    out = []
    for b0 in range(N):
        if mask[b0] != mask[(b0 + 1) % N]:
            out.append((b0 + 1, "AC" if mask[b0] else "CA"))
    return out


def test_region_boundaries_match_loop_reference():
    rng = np.random.default_rng(8)
    masks = [rng.random(n) < p for n in (1, 2, 7, 64, 1000) for p in (0.1, 0.5, 0.9)]
    masks += [
        np.ones(16, dtype=bool),
        np.zeros(16, dtype=bool),
        np.arange(16) % 2 == 0,                   # alternating: every bond is a cut
        np.arange(16) < 5,                        # cut between atoms 16 and 1
        (np.arange(16) < 3) | (np.arange(16) > 12),  # A region across the wrap
    ]
    for mask in masks:
        got = region_boundaries(mask)
        assert got == _region_boundaries_loop(mask)
        assert all(type(b) is int for b, _ in got)


def _mask_reference(partition, config):
    """Membership by comparing every position i/N against every interval."""
    x = config.positions()
    mask = np.zeros(config.N, dtype=bool)
    for a, b in partition.atomistic_intervals:
        mask |= (x > a) & (x <= b)
    return mask


@settings(max_examples=400)
@given(st.data())
def test_membership_mask_matches_the_compare_oracle(data):
    """One slice per interval sets the atoms the compare oracle sets: N =
    16..4096 and 2^18, 1-3 intervals, ends drawn anywhere, at 0, at 1.0, on
    an atom position i/N or one float step either side of it."""
    N = data.draw(st.one_of(st.integers(16, 4096), st.just(2**18)))

    def end():
        at = data.draw(st.integers(0, N)) / N
        near = [0.0, 1.0, at, min(1.0, np.nextafter(at, 2.0)), max(0.0, np.nextafter(at, -1.0))]
        return data.draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(near)))

    ends = sorted({end() for _ in range(2 * data.draw(st.integers(1, 3)))})
    intervals = list(zip(ends[::2], ends[1::2]))
    assume(intervals)
    partition, config = RegionPartition(intervals), ChainConfig(N=N, F=1.0)
    got = membership_mask(partition, config)
    assert got.dtype == bool and np.array_equal(got, _mask_reference(partition, config))


def _classify_reference(partition, config):
    """Set-window and roll-loop reference for classify: returns (labels,
    mask, boundaries) or raises the same ValueError."""
    problems = validate(partition)
    if problems:
        raise ValueError("invalid partition: " + "; ".join(problems))
    N, reach, m = config.N, partition.reach, partition.interface_width_m
    mask = _mask_reference(partition, config)
    boundaries = _region_boundaries_loop(mask)
    if boundaries:
        n_intervals = max(len(boundaries) // 2, 1)
        need = n_intervals * (m + 4 * reach)
        if N < need:
            raise ValueError(
                f"N={N} too small for {n_intervals} interface segment(s): need N >= {need}"
            )
        windows = []
        for bd in boundaries:
            collar = np.arange(bd[0] - reach + 1, bd[0] + reach + 1)
            window = set(((collar - 1) % N + 1).tolist())
            window.update(_block_atoms_reference(bd, m, N).tolist())
            windows.append(window)
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
    return labels, mask, boundaries


def _random_intervals(rng, n):
    if rng.random() < 0.85:  # sorted ends: disjoint intervals inside (0, 1]
        ends = np.sort(rng.random(2 * n))
        if rng.random() < 0.2:
            ends = np.round(ends * 16) / 16  # shared ends and whole-period cuts
        return list(zip(ends[::2], ends[1::2]))
    return [tuple(rng.uniform(-0.1, 1.1, 2)) for _ in range(n)]  # often invalid


def test_classify_matches_set_window_reference():
    rng = np.random.default_rng(2024)
    outcomes = {"accepted": 0, "invalid": 0, "too small": 0, "overlap": 0}
    for _ in range(2400):
        N = int(rng.integers(12, 1025)) if rng.random() < 0.5 else int(rng.integers(12, 129))
        partition = RegionPartition(
            _random_intervals(rng, int(rng.integers(0, 5))),
            interface_width_m=int(rng.integers(1, 9)),
            reach=int(rng.integers(1, 4)),
        )
        config = ChainConfig(N=N, F=1.0)
        try:
            want = _classify_reference(partition, config)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                classify(partition, config)
            assert str(got.value) == str(exc)
            key = next(k for k in ("invalid", "too small", "overlap") if k in str(exc))
            outcomes[key] += 1
            continue
        got = classify(partition, config)
        assert got.labels.dtype == np.int8 and np.array_equal(got.labels, want[0])
        assert np.array_equal(got.in_atomistic, want[1])
        assert got.boundaries == tuple(want[2])
        m = partition.interface_width_m
        want_blocks = [_block_atoms_reference(bd, m, N) for bd in want[2]]
        assert got.blocks.dtype.kind == "i" and not got.blocks.flags.writeable
        assert np.array_equal(got.blocks, np.reshape(want_blocks, (-1, m)))
        outcomes["accepted"] += 1
    assert min(outcomes.values()) >= 50, outcomes
