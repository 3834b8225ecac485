"""Stationary points of gridded scalar fields via piecewise RBF interpolation."""

from .bindings import Binding, BindingKind, NeighborIndex, cluster, delta_max, summarize
from .grid import GridField, TestFunction, diag_step, load_csv, sample, save_csv
from .kernels import Kernel, KernelKind, OMEGA, kernel_for_grid, shape_parameter
from .oracle import GroundTruth, ParametricCurve, ground_truth
from .patch import (FactorizationError, PatchInterpolant, PatchMatrix,
                    interpolate_patch, patch_offsets)
from .stationary import (Classification, RawStationaryPoint, SearchDomain,
                         SolverConfig, StationaryPoint, find_patch_stationary,
                         patch_domain, reduce_points, sweep_full)
from .cli import run_pipeline

__all__ = [
    "Binding", "BindingKind", "NeighborIndex", "cluster", "delta_max", "summarize",
    "GridField", "TestFunction", "diag_step", "load_csv", "sample", "save_csv",
    "Kernel", "KernelKind", "OMEGA", "kernel_for_grid", "shape_parameter",
    "GroundTruth", "ParametricCurve", "ground_truth",
    "FactorizationError", "PatchInterpolant", "PatchMatrix",
    "interpolate_patch", "patch_offsets",
    "Classification", "RawStationaryPoint", "SearchDomain", "SolverConfig",
    "StationaryPoint", "find_patch_stationary", "patch_domain", "reduce_points",
    "sweep_full", "run_pipeline",
]

__version__ = "0.1.0"
