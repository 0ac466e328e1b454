"""Conical Radon transforms with a fixed half-opening angle and vertical axis:
forward projectors and exact inversion in 2D (V-line) and 3D (circular cone)."""

from .cone3d import KernelParams, cone_forward, cone_invert, kernel_eval
from .grids import (
    AxisSpec,
    ConeGeometry,
    NonFiniteGridError,
    RealGrid2D,
    RealGrid3D,
)
from .gridio import GridFormatError, export_heatmap, read_grid, write_grid, write_grid_csv
from .phantoms import (
    BumpSpec,
    max_abs_error,
    parse_scene,
    relative_l2,
    render_bumps_2d,
    render_bumps_3d,
)
from .vline2d import (
    VLineProjection,
    fourier_relation_check,
    vline_forward,
    vline_invert,
    vline_spectral_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "AxisSpec",
    "BumpSpec",
    "ConeGeometry",
    "GridFormatError",
    "KernelParams",
    "NonFiniteGridError",
    "RealGrid2D",
    "RealGrid3D",
    "VLineProjection",
    "cone_forward",
    "cone_invert",
    "export_heatmap",
    "fourier_relation_check",
    "kernel_eval",
    "max_abs_error",
    "parse_scene",
    "read_grid",
    "relative_l2",
    "render_bumps_2d",
    "render_bumps_3d",
    "vline_forward",
    "vline_invert",
    "vline_spectral_oracle",
    "write_grid",
    "write_grid_csv",
]
