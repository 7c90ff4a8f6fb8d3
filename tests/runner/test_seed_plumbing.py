"""Seed derivation unit tests plus a runtime global-RNG guard.

The guard half pins the project's RNG discipline at runtime: no capture
payload may depend on numpy's or the stdlib's *global* random state
(``np.random.seed`` / ``np.random.rand`` / ``RandomState`` /
``random.random`` / ``os.urandom``). Every stream must come from the
runner's per-unit entropy derivation, the property the parallel
executor's bit-identity guarantee rests on. Reseeding the global
generators between two runs of every unit kind, serial and pooled,
must leave every payload digest unchanged.
"""

import random

import numpy as np
import pytest

from repro.devices import capture_fleet
from repro.isp.profiles import available_isps
from repro.runner import (
    CaptureUnit,
    FleetExecutor,
    derive_rng,
    execute_unit,
    unit_entropy,
)
from repro.runner.seeds import seed_component

from .test_golden_captures import payload_digest


# ----------------------------------------------------------------------
# seed derivation
# ----------------------------------------------------------------------
class TestSeedDerivation:
    def test_components_are_stable_32bit(self):
        assert seed_component(0) == 0
        assert seed_component(2**40 + 5) == ((2**40 + 5) & 0xFFFFFFFF)
        assert seed_component(-1) == 0xFFFFFFFF
        assert seed_component("galaxy_s10") == seed_component("galaxy_s10")
        assert 0 <= seed_component("galaxy_s10") <= 0xFFFFFFFF
        assert seed_component(True) == 1
        assert seed_component(1.5) == seed_component(1.5)

    def test_component_type_errors(self):
        with pytest.raises(TypeError):
            seed_component(None)
        with pytest.raises(TypeError):
            seed_component([1, 2])

    def test_entropy_tuple_identifies_unit(self):
        base = unit_entropy(0, "phone", 3, 1)
        assert base == unit_entropy(0, "phone", 3, 1)
        assert base != unit_entropy(1, "phone", 3, 1)
        assert base != unit_entropy(0, "other", 3, 1)
        assert base != unit_entropy(0, "phone", 4, 1)
        assert base != unit_entropy(0, "phone", 3, 2)

    def test_derive_rng_reproducible(self):
        a = derive_rng(7, "phone", 0).random(16)
        b = derive_rng(7, "phone", 0).random(16)
        assert np.array_equal(a, b)

    def test_derive_rng_streams_independent(self):
        a = derive_rng(7, "phone", 0).random(16)
        b = derive_rng(7, "phone", 1).random(16)
        assert not np.array_equal(a, b)

    def test_derive_rng_matches_entropy_tuple(self):
        via_helper = derive_rng(3, "x", 2).random(8)
        via_tuple = np.random.default_rng(unit_entropy(3, "x", 2)).random(8)
        assert np.array_equal(via_helper, via_tuple)


# ----------------------------------------------------------------------
# runtime guard: global RNG state never reaches a payload
# ----------------------------------------------------------------------
CAPTURE_KINDS = ("photograph", "raw", "raw_vs_jpeg")


@pytest.fixture
def restore_global_rngs():
    """Put numpy's and the stdlib's global RNG state back afterwards."""
    np_state, py_state = np.random.get_state(), random.getstate()
    yield
    np.random.set_state(np_state)
    random.setstate(py_state)


def _guard_units(radiance):
    """One fused group (two repeats) of every capture kind per
    ``capture_fleet()`` phone, plus a ``develop`` unit."""
    units = [
        CaptureUnit(
            kind=kind,
            profile=profile,
            radiance=radiance,
            entropy=unit_entropy(0, "rng-guard", kind, profile.name, repeat),
        )
        for profile in capture_fleet()
        for kind in CAPTURE_KINDS
        for repeat in range(2)
    ]
    raw = execute_unit(next(u for u in units if u.kind == "raw"))
    units.append(
        CaptureUnit(
            kind="develop",
            raw=raw,
            options={"isp": available_isps()[0], "codec": "jpeg"},
        )
    )
    return units


def test_global_rng_state_never_reaches_payloads(
    small_radiance, restore_global_rngs
):
    runs = {}
    for seed in (1, 2):
        for workers in (0, 2):
            np.random.seed(seed)
            random.seed(seed)
            payloads = FleetExecutor(workers=workers).run(
                _guard_units(small_radiance)
            )
            runs[(seed, workers)] = [payload_digest(p) for p in payloads]
    reference = runs[(1, 0)]
    assert len(reference) == 3 * 2 * len(capture_fleet()) + 1
    for key, digests in sorted(runs.items()):
        drifted = [i for i, (a, b) in enumerate(zip(digests, reference)) if a != b]
        assert not drifted, (
            f"payloads {drifted} changed with global RNG seed/workers {key}"
        )
