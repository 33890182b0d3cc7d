"""Simulation and nonparametric drift estimation for reflected diffusions.

The public names are loaded lazily (PEP 562): `import refsde` loads no
submodule and so not numpy, and a name is imported from its defining module
the first time it is read.  That lets `refsde.cli` set BLAS threading before
numpy loads, whichever way the CLI is started.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "density": ("InvariantDensity", "ModelNotErgodicError",
                "UndefinedVarianceError", "f_eval", "invariant_density",
                "pi_eval", "sigma_eval"),
    "estimate": ("EstimateResult", "bandwidth", "delta_of_n", "nw_continuous",
                 "nw_discrete", "write_estimate_csv"),
    "experiment": ("CellFailure", "ExperimentPlan", "McSummary", "NoDataError",
                   "NormalityReport", "ReplicationError", "estimation_grid",
                   "normality_check", "rase", "replication_seed", "run_cell",
                   "run_table", "write_normality_csv", "write_summary_csv"),
    "model": ("BarrierConfig", "DriftSpec", "KernelSpec", "SamplePath",
              "builtin_drift", "epanechnikov"),
    "simulate": ("SimConfig", "SimulationDivergedError", "read_path_csv",
                 "simulate_fine", "simulate_path", "write_path_csv"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    # any other name raises AttributeError, so `from refsde import cli`
    # falls through to importing the submodule
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
