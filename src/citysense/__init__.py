"""citysense: deterministic simulation and analytics for urban air-quality
monitoring with mixed fixed/mobile sensor networks."""

import logging

from .analytics import (
    Association,
    ComparisonReport,
    ComparisonRow,
    Pmf,
    associate_mobile_to_fixed,
    compare_populations,
    estimate_pmf,
    mobile_fixed_populations,
    relative_error,
    write_comparison_report,
)
from .domain import (
    Flag,
    GeoPoint,
    Measurement,
    NodeDescriptor,
    NodeKind,
    Quantity,
    Radio,
    ReportBatch,
    UNITS,
    ValidationError,
    co_ppm_to_mg_m3,
    haversine_distance,
)
from .field import FieldModel, GaussianPlume, Path, path_position
from .indexes import (
    IndexColor,
    IndexComputer,
    IndexKind,
    IndexValue,
    TrafficAccessConfig,
    apparent_temperature_model,
    aqi_o3,
    aqi_pm,
    compute_indexes,
    tci,
    traffic_index,
)
from .netsim import (
    DeliveryOutcome,
    LinkModel,
    choose_link,
    coordinator_uplink,
    run,
)
from .nodes import NodeState, SensorChain, SensorSpec, default_sensor_spec, lag_factor, quantize
from .scenario import ScenarioConfig, load_scenario, with_seed
from .store import MeasurementStore

__version__ = "0.1.0"

# The package logs (an empty uplink batch is a warning) but configures no
# output: without a handler of its own, Python's last-resort handler would
# print its records bare to stderr.
logging.getLogger(__name__).addHandler(logging.NullHandler())
