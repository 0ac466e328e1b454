"""Smooth bump phantoms, scene-file parsing and reconstruction-quality metrics.

A bump of radius r centered at c contributes
``intensity * exp(-r^2 / (r^2 - rho^2))`` for rho < r and 0 outside, where rho
is the distance to c.  The bump is infinitely smooth and compactly supported,
which is exactly the class the inversion formulas assume.
"""

import math
from dataclasses import dataclass

import numpy as np

from .grids import AxisSpec, RealGrid2D, RealGrid3D

__all__ = [
    "BumpSpec",
    "max_abs_error",
    "parse_scene",
    "relative_l2",
    "render_bumps_2d",
    "render_bumps_3d",
]


@dataclass(frozen=True)
class BumpSpec:
    """One smooth bump: center (2 or 3 coordinates), radius > 0 and intensity,
    all finite."""

    center: tuple[float, ...]
    radius: float
    intensity: float = 1.0

    def __post_init__(self):
        if len(self.center) not in (2, 3):
            raise ValueError("bump center must have 2 or 3 coordinates")
        if not all(map(math.isfinite, (*self.center, self.radius, self.intensity))):
            raise ValueError(f"bump values must be finite, got {self}")
        if not self.radius > 0:
            raise ValueError(f"bump radius must be positive, got {self.radius}")


def _check_support(spec: BumpSpec, axes: tuple[AxisSpec, ...]):
    for c, axis in zip(spec.center, axes):
        if not (axis.min < c - spec.radius and c + spec.radius < axis.max):
            raise ValueError(
                f"bump at {spec.center} with radius {spec.radius} is not strictly "
                f"inside the grid domain"
            )


def _accumulate(values: np.ndarray, rho2: np.ndarray, spec: BumpSpec):
    r2 = spec.radius * spec.radius
    mask = rho2 < r2
    values[mask] += spec.intensity * np.exp(-r2 / (r2 - rho2[mask]))


def _render_bumps(specs, axes: tuple[AxisSpec, ...]):
    dim = len(axes)
    coords = np.meshgrid(*(axis.coordinates() for axis in axes), indexing="ij", sparse=True)
    values = np.zeros(tuple(axis.n_samples for axis in axes))
    for spec in specs:
        if len(spec.center) != dim:
            raise ValueError(f"{dim}D rendering needs {dim}D bump centers")
        _check_support(spec, axes)
        with np.errstate(over="ignore"):  # an infinite distance lies outside every bump
            rho2 = sum((g - c) ** 2 for g, c in zip(coords, spec.center))
        _accumulate(values, rho2, spec)
    return (RealGrid2D if dim == 2 else RealGrid3D)(*axes, values)


def render_bumps_2d(specs, x_axis: AxisSpec, y_axis: AxisSpec) -> RealGrid2D:
    """Sum of smooth bumps sampled on the given 2D grid.

    Every bump must be supported strictly inside the rectangle.
    """
    return _render_bumps(specs, (x_axis, y_axis))


def render_bumps_3d(specs, x_axis: AxisSpec, y_axis: AxisSpec, z_axis: AxisSpec) -> RealGrid3D:
    """3D analog of :func:`render_bumps_2d` with Euclidean distance in the ball."""
    return _render_bumps(specs, (x_axis, y_axis, z_axis))


def _matched_values(a, b):
    if a.axes() != b.axes():
        raise ValueError("grids must share axes")
    return a.values, b.values


def _l2_norm(values) -> float:
    # Euclidean norm of real values without BLAS: np.linalg.norm of a whole
    # grid calls BLAS ddot, which wakes OpenBLAS's worker threads; on 2 cores
    # that took from 0.5 to 13 ms per 48^3 relative L2, with the other core's
    # load.  einsum's own sum-of-products loop reads the values once and makes
    # no temporary.
    flat = np.ravel(np.asarray(values, dtype=float))
    return math.sqrt(float(np.einsum("i,i->", flat, flat)))


def relative_l2(a, b) -> float:
    """||a - b||_2 / ||b||_2 over matching grids; plain ||a||_2 when b is zero."""
    va, vb = _matched_values(a, b)
    norm_b = _l2_norm(vb)
    diff = _l2_norm(va - vb)
    if norm_b == 0.0:
        return _l2_norm(va)
    return diff / norm_b


def max_abs_error(a, b) -> float:
    """Maximum absolute difference over matching grids."""
    va, vb = _matched_values(a, b)
    return float(np.max(np.abs(va - vb)))


def parse_scene(text: str, axes, default_radius: float = 0.25) -> list[BumpSpec]:
    """Parse a phantom scene description into bump specs on the grid ``axes``.

    One bump per line: ``cx cy [cz] r intensity``; ``#`` starts a comment.
    Lines that omit the radius (``cx cy [cz] intensity``) fall back to
    ``default_radius``.  The rank ``len(axes)`` (2 or 3) fixes how many center
    coordinates a line carries, and each bump must lie strictly inside
    ``axes``.  Lines are checked in order, and every error names its line.
    """
    dim = len(axes)
    if dim not in (2, 3):
        raise ValueError("scene dimension must be 2 or 3")
    specs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            tokens = [float(tok) for tok in line.split()]
            if len(tokens) not in (dim + 1, dim + 2):
                raise ValueError(f"expected {dim + 2} (or {dim + 1}) numbers, got {len(tokens)}")
            radius = tokens[dim] if len(tokens) == dim + 2 else default_radius
            specs.append(BumpSpec(tuple(tokens[:dim]), radius, tokens[-1]))
            _check_support(specs[-1], axes)
        except ValueError as exc:
            raise ValueError(f"scene line {lineno}: {exc}") from exc
    return specs
