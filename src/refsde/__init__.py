"""Simulation and nonparametric drift estimation for reflected diffusions."""

from .density import (InvariantDensity, ModelNotErgodicError,
                      UndefinedVarianceError, f_eval, invariant_density,
                      pi_eval, sigma_eval)
from .estimate import (EstimateResult, bandwidth, delta_of_n, nw_continuous,
                       nw_discrete, write_estimate_csv)
from .experiment import (CellFailure, ExperimentPlan, McSummary, NoDataError,
                         NormalityReport, ReplicationError, estimation_grid,
                         normality_check, rase, replication_seed, run_cell,
                         run_table, write_normality_csv, write_summary_csv)
from .model import (BarrierConfig, DriftSpec, KernelSpec, SamplePath,
                    builtin_drift, epanechnikov)
from .simulate import (SimConfig, SimulationDivergedError, read_path_csv,
                       simulate_fine, simulate_path, write_path_csv)

__version__ = "0.1.0"
