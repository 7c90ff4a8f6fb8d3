"""Synthetic device populations: generate, execute, aggregate at scale.

The paper characterizes instability across five physical handsets; this
package asks the population-level question those five can't answer —
what does the instability *distribution* look like across a thousand
devices, and which devices are outliers? It has four parts:

* :mod:`~repro.fleet.population` — seeded per-vendor parameter
  distributions that sample :class:`~repro.devices.profiles.DeviceSpec`
  records and feed them through the same :func:`build_profile` factory
  as the paper's fixed fleets.
* :mod:`~repro.fleet.columnar` — an in-memory struct-array record
  store, so capture records never become Python objects.
* :mod:`~repro.fleet.stats` — one-pass integer counts over a study's
  record table: consensus labels, per-device divergence, percentiles,
  robust (MAD) outlier detection. Its ``population_instability`` counts
  split votes (any two devices disagree), not the paper's §2.2 metric
  (:func:`repro.core.instability.instability`); the two differ when
  every device is wrong, in different ways.
* :mod:`~repro.fleet.studies` — the studies themselves: population
  capture instability and OS-upgrade drift over simulated time, exposed
  on the CLI as ``python -m repro fleet``.
"""

from .columnar import ColumnarStore
from .population import (
    DEFAULT_VENDORS,
    FleetSpec,
    ParamRange,
    SyntheticDevice,
    VendorSpec,
    Weighted,
    default_fleet_spec,
    fixed_devices,
    generate_devices,
    generate_fleet,
    sample_device,
)
from .stats import (
    CONF_SCALE,
    RECORD_DTYPE,
    SUMMARY_PERCENTILES,
    PopulationCounts,
    TableDims,
    aggregate_tables,
    population_summary,
    robust_outliers,
)
from .studies import (
    FLEET_PRETRAIN,
    DriftStudyOutcome,
    PopulationStudyOutcome,
    fleet_model,
    run_drift_study,
    run_population_study,
)

__all__ = [
    "CONF_SCALE",
    "ColumnarStore",
    "DEFAULT_VENDORS",
    "DriftStudyOutcome",
    "FLEET_PRETRAIN",
    "FleetSpec",
    "ParamRange",
    "PopulationCounts",
    "PopulationStudyOutcome",
    "RECORD_DTYPE",
    "SUMMARY_PERCENTILES",
    "SyntheticDevice",
    "TableDims",
    "VendorSpec",
    "Weighted",
    "aggregate_tables",
    "default_fleet_spec",
    "fixed_devices",
    "fleet_model",
    "generate_devices",
    "generate_fleet",
    "population_summary",
    "robust_outliers",
    "run_drift_study",
    "run_population_study",
    "sample_device",
]
