"""Conical Radon transforms with a fixed half-opening angle and vertical axis:
forward projectors and exact inversion in 2D (V-line) and 3D (circular cone)."""

from .cone3d import (
    KernelParams,
    SpectralStack,
    cone_forward,
    cone_invert,
    dft2_slices,
    invert_frequency_profile,
    kernel_eval,
)
from .grids import (
    AxisSpec,
    ConeGeometry,
    NonFiniteGridError,
    RealGrid2D,
    RealGrid3D,
    cumint_from_top,
    diff2_x_central,
    diff_y_forward,
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
from .specfun import FrequencyAxis, bessel_j0, bessel_j1, frequency_axis
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
    "FrequencyAxis",
    "GridFormatError",
    "KernelParams",
    "NonFiniteGridError",
    "RealGrid2D",
    "RealGrid3D",
    "SpectralStack",
    "VLineProjection",
    "bessel_j0",
    "bessel_j1",
    "cone_forward",
    "cone_invert",
    "cumint_from_top",
    "dft2_slices",
    "diff2_x_central",
    "diff_y_forward",
    "export_heatmap",
    "fourier_relation_check",
    "frequency_axis",
    "invert_frequency_profile",
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
