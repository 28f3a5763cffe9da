"""stratopt: singular parameter spaces as polynomial zero sets, their smooth
deformations, and gradient-descent learning dynamics on chart coordinates."""

from .poly import (DimensionMismatchError, Polynomial, PolynomialParseError,
                   axis_pair, cusp_curve, double_cone, parse_polynomial)
from .stratify import (SINGULAR, OffVarietyError, Region, SimplexStrata,
                       Stratification, find_singular_points, simplex_strata,
                       stratify, tangent_dimension)
from .resolve import (ComponentReport, Deformation, NoSamplesError,
                      ProjectionError, ResolutionError, choose_resolution,
                      count_components, default_region, deform,
                      project_to_level, projected_gradient_field,
                      proximity_check, smoothness_check)
from .model import Chart, ChartPoint, GaussianLocationModel
from .optim import (METHODS, MODES, OptimizerConfig, SingularFIMError,
                    StallReport, Termination, Trajectory, TrajectoryRecord,
                    detect_stall, gd_step, ngd_step, run)
from .verify import finite_diff_grad, monte_carlo_fim
from .config import (ConfigError, ExperimentSpec, InitDistribution,
                     format_config, load_config)
from .presets import PRESET_NAMES, preset
from .runner import ExperimentResult, run_experiment
from .svgplot import PlotDataError, SchemaError, plot

__version__ = "0.1.0"
