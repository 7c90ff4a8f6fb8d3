"""The batch-invariance invariant: fused execution is a no-op, bitwise.

The executor may group units however it likes — by (kind, phone,
options) signature across scenes, any batch size, split at the group
cap, any submission order, serial or pooled, cold or warm cache — and
the payloads must still be byte-for-byte what
``[execute_unit(u) for u in units]`` produces, and what N groups of one
produce: a batch of N equals N batches of 1. ``execute_unit`` is the
independent per-unit reference (it parses every encoded file back), and
``tests/runner/test_golden_captures.py`` pins both to golden hashes. The
hypothesis suite drives random unit mixes through every combination; the
pickled-group tests pin that a pooled group carries each distinct
radiance once.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import capture_fleet
from repro.runner import (
    CaptureCache,
    CaptureUnit,
    FleetExecutor,
    execute_unit,
    group_signature,
    unit_entropy,
)
from repro.runner import executor as executor_module
from repro.runner.executor import MAX_GROUP_UNITS, _group_pending
from repro.runner.units import execute_unit_group


@pytest.fixture(scope="module")
def scenes(small_radiance):
    """Two distinct smooth radiance fields."""
    second = np.ascontiguousarray(small_radiance[::-1, :, :])
    return [small_radiance, second]


@pytest.fixture(scope="module")
def unit_pool(scenes):
    """A fixed pool of photograph units: 2 phones x 2 scenes x 8 repeats.

    Profile 0 saves JPEG (the fully fused codec path); the iPhone XR
    saves HEIF (fused sensor+ISP, per-item codec) — so every mix drawn
    from the pool exercises both fused variants.
    """
    profiles = [capture_fleet()[0], capture_fleet()[4]]
    pool = []
    for profile in profiles:
        for scene_id, radiance in enumerate(scenes):
            for repeat in range(8):
                pool.append(
                    CaptureUnit(
                        kind="photograph",
                        profile=profile,
                        radiance=radiance,
                        entropy=unit_entropy(0, profile.name, scene_id, repeat),
                    )
                )
    return pool


@pytest.fixture(scope="module")
def reference(unit_pool):
    """Per-unit reference payloads, the oracle every fused run must match."""
    return [execute_unit(unit) for unit in unit_pool]


def _assert_payloads_equal(actual, expected):
    assert actual.keys() == expected.keys()
    for key in expected:
        a, e = np.asarray(actual[key]), np.asarray(expected[key])
        assert a.dtype == e.dtype and a.shape == e.shape, key
        assert a.tobytes() == e.tobytes(), key


class TestBatchInvariance:
    @settings(max_examples=10, deadline=None)
    @given(
        batch_size=st.sampled_from([1, 3, 8]),
        shuffle_seed=st.integers(min_value=0, max_value=2**31 - 1),
        data=st.data(),
    )
    def test_random_mixes_serial(
        self, unit_pool, reference, batch_size, shuffle_seed, data
    ):
        """Any submitted mix, any order: fused == per-capture, bitwise."""
        indices = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(unit_pool) - 1),
                min_size=1,
                max_size=3 * batch_size,
            )
        )
        rng = np.random.default_rng(shuffle_seed)
        rng.shuffle(indices)
        executor = FleetExecutor(workers=0)
        payloads = executor.run([unit_pool[i] for i in indices])
        for i, payload in zip(indices, payloads):
            _assert_payloads_equal(payload, reference[i])

    @pytest.mark.parametrize("workers", [0, 2])
    def test_worker_counts_and_order(self, unit_pool, reference, workers):
        """Batch sizes {1, 3, 8} x workers x shuffled submission order."""
        rng = np.random.default_rng(7)
        for batch_size in (1, 3, 8):
            indices = list(rng.integers(0, len(unit_pool), size=batch_size))
            rng.shuffle(indices)
            executor = FleetExecutor(workers=workers)
            payloads = executor.run([unit_pool[int(i)] for i in indices])
            for i, payload in zip(indices, payloads):
                _assert_payloads_equal(payload, reference[int(i)])

    @pytest.mark.parametrize("workers", [0, 2])
    def test_warm_and_cold_cache(self, unit_pool, reference, workers, tmp_path):
        """Cold misses and warm hits both reproduce the per-unit oracle."""
        indices = [0, 8, 16, 1, 9, 0]  # duplicates: same-key units coexist
        units = [unit_pool[i] for i in indices]
        executor = FleetExecutor(workers=workers, cache=CaptureCache(tmp_path / "c"))
        cold = executor.run(units)
        warm = executor.run(units)
        for i, cold_p, warm_p in zip(indices, cold, warm):
            _assert_payloads_equal(cold_p, reference[i])
            _assert_payloads_equal(warm_p, reference[i])

    def test_mixed_kinds_share_a_run(self, unit_pool, scenes, reference):
        """Every unit kind runs through the fused pass inside one run."""
        profile = capture_fleet()[0]

        def capture(kind, repeat, **options):
            return CaptureUnit(
                kind=kind,
                profile=profile,
                radiance=scenes[0],
                entropy=unit_entropy(0, profile.name, kind, repeat),
                options=options,
            )

        raw_units = [capture("raw", r) for r in range(3)]
        rvj_units = [capture("raw_vs_jpeg", r, quality=70) for r in range(2)]
        develop = CaptureUnit(
            kind="develop",
            raw=execute_unit(raw_units[0]),
            options={"isp": "adobe", "codec": "jpeg"},
        )
        units = [unit_pool[0], raw_units[0], rvj_units[0], develop, raw_units[1],
                 unit_pool[1], rvj_units[1], raw_units[2]]
        expected = [
            reference[0] if u is unit_pool[0]
            else reference[1] if u is unit_pool[1]
            else execute_unit(u)
            for u in units
        ]
        # photograph x2, raw x3 and raw_vs_jpeg x2 fuse; develop is alone.
        assert sorted(len(g) for g in _group_pending(units)) == [1, 2, 2, 3]
        for workers in (0, 2):
            payloads = FleetExecutor(workers=workers).run(units)
            for payload, exp in zip(payloads, expected):
                _assert_payloads_equal(payload, exp)

    def test_every_capture_profile_in_groups_of_four(self, scenes):
        """Every capture_fleet() phone x 2 scenes x 2 repeats: fused == per-unit.

        The unit pool above covers phones 0 and 4 only, and the golden
        captures run in groups of one; this pins the fused pass for every
        capture profile in one group of four per phone that mixes two
        scenes with their repeats.
        """
        units = [
            CaptureUnit(
                kind="photograph",
                profile=profile,
                radiance=radiance,
                entropy=unit_entropy(0, profile.name, "fleet", scene_id, repeat),
            )
            for profile in capture_fleet()
            for scene_id, radiance in enumerate(scenes)
            for repeat in range(2)
        ]
        assert sorted(len(g) for g in _group_pending(units)) == [4] * 5
        expected = [execute_unit(unit) for unit in units]
        payloads = FleetExecutor(workers=0).run(units)
        assert len(payloads) == len(expected)
        for payload, exp in zip(payloads, expected):
            _assert_payloads_equal(payload, exp)

    def test_groups_of_one_match_batches(self, unit_pool, reference):
        """N groups of one == one group of N == the per-unit reference."""
        group = unit_pool[:16]  # phone 0: both scenes, all repeats
        fused = execute_unit_group(group)
        for unit, payload, exp in zip(group, fused, reference[:16]):
            (single,) = execute_unit_group([unit])
            _assert_payloads_equal(single, payload)
            _assert_payloads_equal(payload, exp)


class TestGrouping:
    def test_signature_partitions_repeats(self, unit_pool):
        sigs = [group_signature(u) for u in unit_pool]
        assert all(s is not None for s in sigs)
        # 2 phones -> 2 groups of 2 scenes x 8 repeats each.
        assert len(set(sigs)) == 2
        for sig in set(sigs):
            assert sigs.count(sig) == 16
        assert sorted(len(g) for g in _group_pending(unit_pool)) == [16, 16]

    def test_signature_ignores_entropy(self, unit_pool):
        a, b = unit_pool[0], unit_pool[1]
        assert a.entropy != b.entropy
        assert group_signature(a) == group_signature(b)

    def test_signature_ignores_radiance_but_not_options(self, unit_pool):
        a, b = unit_pool[0], unit_pool[8]  # phone 0, scenes 0 and 1
        assert a.radiance is not b.radiance
        assert group_signature(a) == group_signature(b)
        c = CaptureUnit(
            kind=a.kind,
            profile=a.profile,
            radiance=a.radiance,
            entropy=a.entropy,
            options={"quality": 70},
        )
        d = CaptureUnit(
            kind=a.kind,
            profile=a.profile,
            radiance=a.radiance,
            entropy=a.entropy,
            options={"quality": 70.0},
        )
        assert group_signature(c) != group_signature(a)
        assert group_signature(c) != group_signature(d)

    def test_non_photograph_has_no_signature(self, scenes):
        """Capture kinds fuse; only ``develop`` runs as a group of one."""
        profile = capture_fleet()[0]
        raw_unit = CaptureUnit(
            kind="raw",
            profile=profile,
            radiance=scenes[0],
            entropy=unit_entropy(0, profile.name, 0),
        )
        assert group_signature(raw_unit) is not None
        photo_unit = CaptureUnit(
            kind="photograph",
            profile=profile,
            radiance=scenes[0],
            entropy=unit_entropy(0, profile.name, 0),
        )
        assert group_signature(photo_unit) != group_signature(raw_unit)
        develop_unit = CaptureUnit(
            kind="develop", raw=execute_unit(raw_unit), options={"isp": "adobe"}
        )
        assert group_signature(develop_unit) is None

    def test_cap_chunks_are_consecutive_and_balanced(self, unit_pool):
        """Plan only: a group over the cap splits into near-equal chunks."""
        first = unit_pool[0]
        for count, sizes in (
            (MAX_GROUP_UNITS, [MAX_GROUP_UNITS]),
            (MAX_GROUP_UNITS + 1, [MAX_GROUP_UNITS // 2 + 1, MAX_GROUP_UNITS // 2]),
            (200, [50, 50, 50, 50]),
        ):
            units = [
                CaptureUnit(
                    kind="photograph",
                    profile=first.profile,
                    radiance=first.radiance,
                    entropy=(0, i),
                )
                for i in range(count)
            ]
            groups = _group_pending(units)
            assert [len(g) for g in groups] == sizes
            assert [i for g in groups for i in g] == list(range(count))

    @pytest.mark.parametrize("workers", [0, 2])
    def test_group_over_the_cap_splits_with_same_bits(
        self, unit_pool, reference, workers, monkeypatch
    ):
        """With the cap at 5, each phone's 16 units run as 4 chunks of 4."""
        monkeypatch.setattr(executor_module, "MAX_GROUP_UNITS", 5)
        assert sorted(len(g) for g in _group_pending(unit_pool)) == [4] * 8
        payloads = FleetExecutor(workers=workers).run(unit_pool)
        for payload, exp in zip(payloads, reference):
            _assert_payloads_equal(payload, exp)

    def test_group_execute_matches_per_unit(self, unit_pool, reference):
        group = unit_pool[:8]  # all repeats of (phone 0, scene 0)
        payloads = execute_unit_group(group)
        for payload, exp in zip(payloads, reference[:8]):
            _assert_payloads_equal(payload, exp)


class TestPickledGroups:
    """A pooled group ships as one pickled unit list (one ``submit``)."""

    @staticmethod
    def _roundtrip(group, scenes):
        blob = pickle.dumps(list(group))
        # Pickle's memo writes a radiance once, however many units name
        # it: the scenes' pixels plus well under one radiance of overhead.
        assert len(blob) < (len(scenes) + 1) * scenes[0].nbytes
        return pickle.loads(blob)

    def test_repeats_pickle_one_radiance(self, unit_pool, scenes):
        group = unit_pool[:8]  # phone 0: 8 repeats of scene 0
        loaded = self._roundtrip(group, scenes[:1])
        assert len({id(u.radiance) for u in loaded}) == 1
        assert loaded[0].radiance.tobytes() == scenes[0].tobytes()

    def test_scenes_pickle_one_radiance_each(self, unit_pool, scenes):
        group = unit_pool[:16]  # phone 0: 2 scenes x 8 repeats
        loaded = self._roundtrip(group, scenes)
        for k, radiance in enumerate(scenes):
            members = loaded[8 * k : 8 * (k + 1)]
            assert len({id(u.radiance) for u in members}) == 1
            assert members[0].radiance.tobytes() == radiance.tobytes()
        assert loaded[0].radiance is not loaded[8].radiance

    def test_pooled_run_returns_fresh_buffers(self, unit_pool, reference):
        """Scattered payloads are the caller's own, shared with nothing."""
        executor = FleetExecutor(workers=2)
        payloads = executor.run(unit_pool[:8])
        for payload, exp in zip(payloads, reference[:8]):
            _assert_payloads_equal(payload, exp)
            payload["pixels"][...] = -1.0  # must not affect anything shared
        again = executor.run(unit_pool[:8])
        for payload, exp in zip(again, reference[:8]):
            _assert_payloads_equal(payload, exp)
