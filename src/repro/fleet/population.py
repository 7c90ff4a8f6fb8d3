"""Seeded synthetic device populations sampled from vendor distributions.

The paper measures five handsets; a production deployment faces millions
of heterogeneous devices. This module scales the device axis: a
:class:`VendorSpec` describes one vendor's parameter *distributions*
(sensor noise coefficients, optics, ISP stage profile, codec defaults,
OS decoder variant, upgrade behaviour), and :func:`generate_fleet` draws
a population of :class:`~repro.devices.profiles.DeviceProfile`\\ s from a
weighted vendor catalog. Every sampled spec goes through the same
:func:`~repro.devices.profiles.build_profile` factory as the paper's
fixed fleets, so generated devices run unchanged through
:class:`~repro.runner.executor.FleetExecutor` and share its
content-addressed capture cache.

Determinism contract
--------------------
Device ``i`` of a fleet is a pure function of ``(spec, seed, i)``: its
vendor draw and parameter draws come from RNGs derived via
:func:`repro.runner.seeds.unit_entropy` from those coordinates alone.
Consequences, both locked in by ``tests/fleet/test_population.py``:

* the same :class:`FleetSpec` and seed reproduce a bit-identical fleet
  (equal dataclasses, equal cache fingerprints), and
* a fleet of size ``N`` is a strict prefix of a fleet of size ``M > N``
  — growing a study never re-rolls existing devices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .. import obs
from ..devices.os_sim import DECODER_FAMILIES
from ..devices.profiles import DeviceProfile, DeviceSpec, build_profile
from ..isp.profiles import available_isps
from ..runner.seeds import derive_rng

__all__ = [
    "ParamRange",
    "Weighted",
    "VendorSpec",
    "FleetSpec",
    "SyntheticDevice",
    "DEFAULT_VENDORS",
    "default_fleet_spec",
    "sample_device",
    "generate_fleet",
    "generate_devices",
    "fixed_devices",
]


@dataclass(frozen=True)
class ParamRange:
    """A closed uniform interval one scalar parameter is drawn from."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.low <= self.high:
            raise ValueError(f"empty range [{self.low}, {self.high}]")

    def sample(self, rng: np.random.Generator) -> float:
        """One draw; degenerate ranges return the constant exactly."""
        if self.low == self.high:
            return self.low
        return float(rng.uniform(self.low, self.high))

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


@dataclass(frozen=True)
class Weighted:
    """A weighted categorical choice over strings (ISPs, formats, ...)."""

    choices: Tuple[str, ...]
    weights: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.choices) != len(self.weights) or not self.choices:
            raise ValueError("choices and weights must be non-empty and aligned")
        if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
            raise ValueError("weights must be non-negative with a positive sum")

    def sample(self, rng: np.random.Generator) -> str:
        total = float(sum(self.weights))
        probabilities = [w / total for w in self.weights]
        return str(rng.choice(list(self.choices), p=probabilities))


@dataclass(frozen=True)
class VendorSpec:
    """One vendor's parameter distributions.

    The axes mirror :class:`~repro.devices.profiles.DeviceSpec`: sensor
    noise coefficients, optics, spectral response and exposure tuning,
    the vendor's ISP stage profile, codec defaults, the OS decoder
    build its devices ship with, and how eagerly the vendor rolls out
    OS upgrades (the churn axis of the drift study).
    """

    name: str
    #: Relative share of the population (need not be normalized).
    market_share: float
    full_well: ParamRange
    read_noise: ParamRange
    dark_current: ParamRange
    prnu: ParamRange
    vignetting: ParamRange
    blur: ParamRange
    chroma_ab: ParamRange
    #: Red/blue spectral sensitivity relative to green.
    red_sensitivity: ParamRange
    blue_sensitivity: ParamRange
    exposure: ParamRange
    #: The vendor's ISP tuning(s); names from :mod:`repro.isp.profiles`.
    isp: Weighted
    save_format: Weighted
    save_quality: ParamRange
    #: Probability a device exposes raw capture.
    raw_probability: float
    #: OS decoder family the vendor ships initially.
    decoder_family: Weighted
    #: Family devices move to when they take the simulated OS upgrade.
    upgrade_decoder_family: str = "mainline"
    #: Per-time-step probability an un-upgraded device upgrades.
    upgrade_rate: float = 0.25

    def __post_init__(self) -> None:
        if self.market_share <= 0:
            raise ValueError("market_share must be positive")
        if not 0.0 <= self.raw_probability <= 1.0:
            raise ValueError("raw_probability must be in [0, 1]")
        if not 0.0 <= self.upgrade_rate <= 1.0:
            raise ValueError("upgrade_rate must be in [0, 1]")
        known_isps = set(available_isps())
        unknown = [name for name in self.isp.choices if name not in known_isps]
        if unknown:
            raise ValueError(f"vendor {self.name!r} references unknown ISPs {unknown}")
        for family in tuple(self.decoder_family.choices) + (
            self.upgrade_decoder_family,
        ):
            if family not in DECODER_FAMILIES:
                raise ValueError(
                    f"vendor {self.name!r} references unknown decoder {family!r}"
                )


@dataclass(frozen=True)
class FleetSpec:
    """A population design: which vendors, in what proportions."""

    vendors: Tuple[VendorSpec, ...]

    def __post_init__(self) -> None:
        if not self.vendors:
            raise ValueError("a fleet needs at least one vendor")
        names = [v.name for v in self.vendors]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate vendor names in {names}")

    def shares(self) -> Tuple[float, ...]:
        total = sum(v.market_share for v in self.vendors)
        return tuple(v.market_share / total for v in self.vendors)


@dataclass(frozen=True)
class SyntheticDevice:
    """One generated population member.

    Carries the executable profile plus the population-level metadata
    (vendor identity, upgrade schedule) the fleet studies need and a
    plain :class:`~repro.devices.profiles.DeviceProfile` cannot hold.
    """

    index: int
    vendor: str
    spec: DeviceSpec
    profile: DeviceProfile
    #: Time step at which the device takes the OS upgrade (a device
    #: whose step exceeds the study horizon never upgrades in-window).
    upgrade_step: int
    upgrade_decoder_family: str


def _tiered_vendor(
    name: str,
    market_share: float,
    tier: float,
    isp: Weighted,
    save_format: Weighted,
    decoder_family: Weighted,
    raw_probability: float,
    upgrade_rate: float,
) -> VendorSpec:
    """Build a vendor whose ranges interpolate between tiers.

    ``tier`` runs 0 (budget: small photosites, strong vignetting, soft
    optics, low JPEG quality) to 1 (flagship: clean sensor, good glass,
    high quality). Each parameter range is centred on the tier point
    with vendor-characteristic width, keeping every draw inside the
    physically sensible envelope the paper's ten phones span.
    """

    def lerp(low: float, high: float) -> float:
        return low + (high - low) * tier

    return VendorSpec(
        name=name,
        market_share=market_share,
        full_well=ParamRange(lerp(12000, 26000), lerp(20000, 34000)),
        read_noise=ParamRange(lerp(0.0016, 0.0011), lerp(0.0024, 0.0017)),
        dark_current=ParamRange(lerp(0.0006, 0.0003), lerp(0.0016, 0.0011)),
        prnu=ParamRange(lerp(0.003, 0.002), lerp(0.008, 0.006)),
        vignetting=ParamRange(lerp(0.07, 0.04), lerp(0.12, 0.07)),
        blur=ParamRange(lerp(0.58, 0.48), lerp(0.78, 0.62)),
        chroma_ab=ParamRange(lerp(0.0012, 0.0005), lerp(0.0026, 0.0013)),
        red_sensitivity=ParamRange(lerp(0.555, 0.565), lerp(0.575, 0.585)),
        blue_sensitivity=ParamRange(lerp(0.615, 0.625), lerp(0.635, 0.645)),
        exposure=ParamRange(lerp(0.838, 0.848), lerp(0.858, 0.868)),
        isp=isp,
        save_format=save_format,
        save_quality=ParamRange(lerp(80, 86), lerp(90, 95)),
        raw_probability=raw_probability,
        decoder_family=decoder_family,
        upgrade_decoder_family="mainline",
        upgrade_rate=upgrade_rate,
    )


_MAINLINE = Weighted(choices=("mainline",), weights=(1.0,))
_MOSTLY_VENDOR = Weighted(choices=("vendor_neon", "mainline"), weights=(0.8, 0.2))
_JPEG_ONLY = Weighted(choices=("jpeg",), weights=(1.0,))


#: A plausible smartphone market: two flagship vendors (one of them the
#: HEIF/mainline Apple analogue), two mid-tier Android vendors, and two
#: budget vendors shipping the divergent vendor decoder build — the mix
#: that reproduces the paper's two-camp §7 structure at population scale.
DEFAULT_VENDORS: Tuple[VendorSpec, ...] = (
    _tiered_vendor(
        "aurora",  # flagship Android (Galaxy S10 analogue)
        market_share=0.24,
        tier=0.9,
        isp=Weighted(choices=("samsung_s10", "htc_desire10"), weights=(0.85, 0.15)),
        save_format=_JPEG_ONLY,
        decoder_family=_MAINLINE,
        raw_probability=0.7,
        upgrade_rate=0.35,
    ),
    _tiered_vendor(
        "pommier",  # flagship iOS analogue (iPhone XR)
        market_share=0.22,
        tier=1.0,
        isp=Weighted(choices=("iphone_xr",), weights=(1.0,)),
        save_format=Weighted(choices=("heif", "jpeg"), weights=(0.8, 0.2)),
        decoder_family=_MAINLINE,
        raw_probability=0.8,
        upgrade_rate=0.55,
    ),
    _tiered_vendor(
        "meridian",  # mid-tier (Moto G5 analogue)
        market_share=0.18,
        tier=0.5,
        isp=Weighted(choices=("moto_g5", "imagemagick"), weights=(0.9, 0.1)),
        save_format=_JPEG_ONLY,
        decoder_family=_MAINLINE,
        raw_probability=0.2,
        upgrade_rate=0.25,
    ),
    _tiered_vendor(
        "kestrel",  # mid-tier (HTC Desire analogue)
        market_share=0.12,
        tier=0.45,
        isp=Weighted(choices=("htc_desire10",), weights=(1.0,)),
        save_format=_JPEG_ONLY,
        decoder_family=Weighted(
            choices=("mainline", "vendor_neon"), weights=(0.7, 0.3)
        ),
        raw_probability=0.1,
        upgrade_rate=0.2,
    ),
    _tiered_vendor(
        "lyrebird",  # budget, divergent decoder camp (Huawei analogue)
        market_share=0.14,
        tier=0.2,
        isp=Weighted(choices=("lg_k10", "adobe"), weights=(0.9, 0.1)),
        save_format=_JPEG_ONLY,
        decoder_family=_MOSTLY_VENDOR,
        raw_probability=0.0,
        upgrade_rate=0.12,
    ),
    _tiered_vendor(
        "tundra",  # budget, divergent decoder camp (Xiaomi analogue)
        market_share=0.10,
        tier=0.1,
        isp=Weighted(choices=("lg_k10",), weights=(1.0,)),
        save_format=_JPEG_ONLY,
        decoder_family=_MOSTLY_VENDOR,
        raw_probability=0.0,
        upgrade_rate=0.1,
    ),
)


def default_fleet_spec() -> FleetSpec:
    """The default population design over :data:`DEFAULT_VENDORS`."""
    return FleetSpec(vendors=DEFAULT_VENDORS)


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------
def _sample_upgrade_step(rng: np.random.Generator, rate: float) -> int:
    """First time step (1-based) at which the device upgrades.

    Geometric in the vendor's per-step upgrade rate; a zero rate means
    the device never upgrades (represented as a far-future step).
    """
    if rate <= 0.0:
        return np.iinfo(np.int32).max
    return int(rng.geometric(rate))


def sample_device(spec: FleetSpec, seed: int, index: int) -> SyntheticDevice:
    """Draw population member ``index`` — independent of fleet size.

    Two RNG streams keep the prefix property exact: the vendor draw uses
    ``(seed, "fleet.vendor", index)`` and the parameter draws use
    ``(seed, "fleet.device", vendor, index)``, so no draw for device
    ``i`` ever consumes entropy belonging to device ``j``.
    """
    vendor_rng = derive_rng(seed, "fleet.vendor", index)
    vendors = list(spec.vendors)
    vendor = vendors[
        int(vendor_rng.choice(len(vendors), p=list(spec.shares())))
    ]

    rng = derive_rng(seed, "fleet.device", vendor.name, index)
    device_spec = DeviceSpec(
        name=f"{vendor.name}-{index:06d}",
        model_code=f"{vendor.name.upper()}-{index:06d}",
        sensitivity=(
            round(vendor.red_sensitivity.sample(rng), 6),
            1.0,
            round(vendor.blue_sensitivity.sample(rng), 6),
        ),
        exposure=round(vendor.exposure.sample(rng), 6),
        full_well=round(vendor.full_well.sample(rng), 1),
        read_noise=round(vendor.read_noise.sample(rng), 7),
        vignetting=round(vendor.vignetting.sample(rng), 6),
        blur=round(vendor.blur.sample(rng), 6),
        chroma_ab=round(vendor.chroma_ab.sample(rng), 7),
        noise_seed=int(rng.integers(0, 2**31 - 1)),
        dark_current=round(vendor.dark_current.sample(rng), 7),
        prnu=round(vendor.prnu.sample(rng), 6),
        isp=vendor.isp.sample(rng),
        save_format=vendor.save_format.sample(rng),
        save_quality=int(round(vendor.save_quality.sample(rng))),
        supports_raw=bool(rng.random() < vendor.raw_probability),
        decoder_family=vendor.decoder_family.sample(rng),
        soc=f"SIM-{vendor.name.upper()}",
    )
    return SyntheticDevice(
        index=index,
        vendor=vendor.name,
        spec=device_spec,
        profile=build_profile(device_spec),
        upgrade_step=_sample_upgrade_step(rng, vendor.upgrade_rate),
        upgrade_decoder_family=vendor.upgrade_decoder_family,
    )


def generate_devices(size: int, seed: int = 0) -> List[SyntheticDevice]:
    """Sample a population of ``size`` synthetic devices.

    Parameters
    ----------
    size:
        Number of devices. Device ``i`` depends only on ``(seed, i)``, so
        a size-100 fleet is a prefix of the size-1000 fleet for the same
        seed.
    seed:
        Master seed for the population.

    Returns
    -------
    ``size`` :class:`SyntheticDevice` entries in index order, sampled
    from :func:`default_fleet_spec`.
    """
    if size < 1:
        raise ValueError("fleet size must be >= 1")
    spec = default_fleet_spec()
    with obs.span("fleet.generate", size=size, vendors=len(spec.vendors)):
        devices = [sample_device(spec, seed, i) for i in range(size)]
    obs.count("fleet.devices_generated", size)
    return devices


def generate_fleet(size: int, seed: int = 0) -> List[DeviceProfile]:
    """Sample a population and return just the executable profiles.

    The profiles slot directly into every existing experiment
    (``EndToEndExperiment(phones=generate_fleet(1000))``) and into
    :class:`~repro.runner.executor.FleetExecutor` capture units.
    """
    return [device.profile for device in generate_devices(size, seed)]


def fixed_devices(specs) -> List[SyntheticDevice]:
    """Wrap fixed :class:`DeviceSpec` records as a degenerate population.

    The paper's five capture phones are exactly
    ``fixed_devices(CAPTURE_SPECS)`` — same factory, no sampling — which
    lets every population study also run on the paper's fleet.
    """
    return [
        SyntheticDevice(
            index=i,
            vendor=spec.name,
            spec=spec,
            profile=build_profile(spec),
            upgrade_step=np.iinfo(np.int32).max,
            upgrade_decoder_family=spec.decoder_family,
        )
        for i, spec in enumerate(specs)
    ]
