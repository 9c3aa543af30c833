"""Transfer-operator sensor placement for indoor contaminant monitoring
under uncertain flow conditions."""

from .config import ConfigError, RunConfig, parse_config
from .flowfield import (
    FieldFormatError,
    FlowScenario,
    VelocityField,
    load_field,
    save_field,
    save_scalar_field,
    synth_recirculating,
    zero_field,
)
from .grid import StructuredGrid, box_mask
from .markov import (
    BoundarySpec,
    ConcentrationField,
    MarkovMatrix,
    StabilityError,
    admissible_dt,
    build_markov,
    propagate,
    save_markov,
)
from .pde import PdeConfig, PdeStabilityError, compare_transport, solve_pde, stable_step
from .placement import (
    PlacedSensor,
    SensorPlan,
    expected_coverage,
    occupied_fraction,
    place_sensors,
)
from .tracking import detection_matrix
from .uncertainty import (
    Distribution,
    DistributionFitError,
    Gaussian,
    GaussianKde,
    QuadratureRule,
    basis_weights,
    cdf_points_for,
    expectation,
    fit_kde,
    icdf_samples,
    quadrature_rule,
)

__version__ = "0.1.0"
