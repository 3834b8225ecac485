"""Stationary points of gridded scalar fields via piecewise RBF interpolation."""

from .bindings import Binding, BindingKind, cluster, delta_max, summarize
from .grid import (GridField, TestFunction, diag_step, load_csv, neighbor_lists, sample,
                   save_csv)
from .kernels import Kernel, KernelKind, OMEGA, shape_parameter
from .oracle import GroundTruth, ParametricCurve, ground_truth
from .patch import FactorizationError, PatchInterpolant, PatchMatrix
from .stationary import Classification, StationaryPoint, reduce_points, sweep_full

__all__ = [
    "Binding", "BindingKind", "cluster", "delta_max", "summarize",
    "GridField", "TestFunction", "diag_step", "load_csv", "neighbor_lists", "sample",
    "save_csv",
    "Kernel", "KernelKind", "OMEGA", "shape_parameter",
    "GroundTruth", "ParametricCurve", "ground_truth",
    "FactorizationError", "PatchInterpolant", "PatchMatrix",
    "Classification", "StationaryPoint",
    "reduce_points", "sweep_full", "run_pipeline",
]

__version__ = "0.1.0"


def __getattr__(name):
    # run_pipeline lives in the CLI module; importing it lazily keeps
    # `python -m gridstat.cli` from finding the module already imported
    if name == "run_pipeline":
        from .cli import run_pipeline
        return run_pipeline
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
