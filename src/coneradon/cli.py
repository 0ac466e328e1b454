"""Command-line driver for the transforms and phantom experiments.

One command per process; every run writes the requested grids plus a
``report.json`` with parameters, metrics, output paths and per-stage timings
(keys sorted, so identical configurations reproduce byte-identical reports up
to the timing values).  Exit codes: 0 success, 1 bad arguments, 2 I/O or parse
failure, 3 numerical failure (non-finite values, or a float overflow).

One handler serves the seven grid commands as a run of steps, and a step
saves and reports the same things in every command that runs it.  Every saved
grid is written as ``<name>.crtg``, ``<name>.csv`` with ``--csv``, and the
``<name>.pgm`` heatmap (a volume's central z slice), whose bounds the report
holds as ``<name>_heatmap_min`` and ``<name>_heatmap_max``.
- render (every run without ``--input``): saves ``phantom`` and reports
  ``phantom_max`` and ``phantom_l2``; the ``phantom`` command is this step alone;
- forward (forward runs and round trips): reports ``support_fraction``, saves
  ``projection`` and reports ``projection_max``; a 3D projection, read or
  made, also gets the truncation alarm;
- invert (invert runs and round trips): the 3D inversion diagnostics, then
  saves ``reconstruction``; a round trip scores it against the phantom.

Each option is declared once, as a ``RunConfig`` field made by ``_option``:
flags, argparse type or action, help, the runs that read it and the value a
reading run gets when it is not given.  A run is a command, or a forward
command "with --input", which reads its grid instead of rendering a phantom;
only runs that render one read ``--n``, ``--domain``, ``--scene`` and
``--radius``.  An option the run does not read exits 1 naming its first flag,
and ``report.json`` records it as null.

``--vertex-ymin`` extends the 2D vertex grid down by whole rows, but no deeper
than y_min - dy - (x_max - x_min + dx) / tan(beta): vertex rows below that see
no data, and a deeper value exits 1 naming the limit; a value above y_min
exits 1 naming y_min.
"""

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass

import numpy as np

from .cone3d import (
    KernelParams,
    _inversion_levels,
    _taper_band_fraction,
    cone_forward,
    cone_invert,
    kernel_eval,
)
from .grids import AxisSpec, ConeGeometry, NonFiniteGridError, RealGrid2D, _padded_sizes
from .gridio import GridFormatError, export_heatmap, read_grid, write_grid, write_grid_csv
from .phantoms import (
    BumpSpec,
    _l2_norm,
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

__all__ = ["RunConfig", "main", "run"]


class InputDataError(Exception):
    """Input file exists but its contents cannot be used (exit code 2)."""


def _parse_angle(text: str) -> float:
    # Radians, or m pi / k as "<m>pi/<k>" ("pi/<k>" for m = 1).
    s = text.strip().lower().replace(" ", "")
    try:
        return float(s)
    except ValueError:
        pass
    m, _, k = s.partition("pi/")
    try:
        return float(m or 1.0) * math.pi / float(k)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"cannot parse angle {text!r}: use radians or [m]pi/<k>"
        ) from None


def _parse_domain(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse domain {text!r}") from exc


_COMMANDS = ("phantom", "forward2d", "invert2d", "roundtrip2d",
             "forward3d", "invert3d", "roundtrip3d", "oracle-check")
# A forward command given --input reads its grid from the file instead of
# rendering a phantom, so it reads options as a run of its own.
_FROM_INPUT = ("forward2d with --input", "forward3d with --input")
_RUNS = _COMMANDS + _FROM_INPUT
_RENDERS = ("phantom", "forward2d", "roundtrip2d", "forward3d", "roundtrip3d", "oracle-check")


def _option(*flags, readers=_RUNS, default=None, **argparse_kwargs):
    """One CLI option as a ``RunConfig`` field, None when not given: its flags
    and argparse keywords, the runs that read it (every other run refuses it),
    and the ``default`` a reading run gets when it is not given."""
    meta = {"flags": flags, "readers": readers, "default": default, "argparse": argparse_kwargs}
    return dataclasses.field(default=None, metadata=meta)


@dataclass
class RunConfig:
    """Everything one CLI invocation needs; validated before any work starts.
    ``run`` fills in the default of every option the run reads."""

    command: str
    beta: float | None = _option(  # every run that projects or inverts
        "--beta", type=_parse_angle, readers=tuple(r for r in _RUNS if r != "phantom"),
        default=math.pi / 8, help="half-opening angle in radians, or [m]pi/<k> (default pi/8)")
    n: int | None = _option("--n", type=int, readers=_RENDERS, default=120,
                            help="samples per axis (default 120)")
    domain: tuple[float, ...] | None = _option(
        "--domain", type=_parse_domain, readers=_RENDERS, default=(-1.0, 1.0),
        help="axis bounds: 'lo,hi' for all axes or per-axis pairs (default -1,1)")
    input: str | None = _option("--input", readers=_FROM_INPUT + ("invert2d", "invert3d"),
                                help="input grid file (.crtg)")
    output_dir: str | None = _option("--outdir", default=".", help="directory for output files")
    scene: str | None = _option("--scene", "--phantom", readers=_RENDERS,
                                help="phantom scene description file")
    seed: int | None = _option("--seed", type=int, readers=("oracle-check",), default=0,
                               help="seed for oracle-check's randomized checks (default 0)")
    default_radius: float | None = _option(
        "--radius", type=float, readers=_RENDERS, default=0.25,
        help="radius for scene lines that omit it (default 0.25)")
    vertex_ymin: float | None = _option(
        "--vertex-ymin", type=float, readers=("forward2d", "forward2d with --input", "roundtrip2d"),
        help="extend the vertex grid of forward2d/roundtrip2d down to this y")
    masked_metrics: bool | None = _option(
        "--masked-metrics", action="store_true", readers=("roundtrip2d", "roundtrip3d"),
        default=False, help="round trips: also report errors restricted to the phantom support")
    write_csv: bool | None = _option(  # every run that saves a grid
        "--csv", action="store_true", readers=tuple(r for r in _RUNS if r != "oracle-check"),
        default=False, help="additionally export every saved grid as CSV")
    dim: int | None = _option(  # run() sets the other commands' grid rank
        "--dim", type=int, choices=(2, 3), readers=("phantom",), default=2,
        help="dimension for the phantom command (default 2)")

    def reader(self) -> str:
        """The run that reads this configuration's options."""
        from_input = self.input is not None and self.command.startswith("forward")
        return f"{self.command} with --input" if from_input else self.command

    def validate(self) -> None:
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        reader = self.reader()
        for field in _OPTIONS:
            if getattr(self, field.name) is not None and reader not in field.metadata["readers"]:
                raise ValueError(f"{field.metadata['flags'][0]} does not apply to {reader}")
        # An option not given is None here, and its default is valid.  Each
        # message starts with the option's flag.
        if self.beta is not None and not (0.0 < self.beta < math.pi / 2):
            raise ValueError(f"{_FLAG['beta']} must lie in (0, pi/2), got {self.beta}")
        if self.n is not None and self.n < 8:
            raise ValueError(f"{_FLAG['n']} must be >= 8, got {self.n}")
        if self.domain is not None:
            if len(self.domain) not in (2, 4, 6):
                raise ValueError(f"{_FLAG['domain']} needs 2, 4 or 6 comma-separated numbers")
            for lo, hi in self.domain_bounds():
                if not hi > lo:
                    raise ValueError(
                        f"{_FLAG['domain']} bounds must satisfy max > min, got [{lo}, {hi}]")
        if self.default_radius is not None and not 0.0 < self.default_radius < math.inf:
            raise ValueError(
                f"{_FLAG['default_radius']} must be finite and > 0, got {self.default_radius}")
        if self.vertex_ymin is not None and not math.isfinite(self.vertex_ymin):
            raise ValueError(f"{_FLAG['vertex_ymin']} must be finite, got {self.vertex_ymin}")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"{_FLAG['seed']} must be >= 0, got {self.seed}")
        if self.dim is not None and self.dim not in (2, 3):
            raise ValueError(f"{_FLAG['dim']} must be 2 or 3, got {self.dim}")

    def domain_bounds(self, dim: int | None = None) -> list[tuple[float, float]]:
        pairs = [tuple(self.domain[i : i + 2]) for i in range(0, len(self.domain), 2)]
        if dim is None:
            return pairs
        if len(pairs) == 1:
            return pairs * dim
        if len(pairs) != dim:
            raise ValueError(
                f"{_FLAG['domain']} specifies {len(pairs)} axes but command needs {dim}")
        return pairs

    def axes(self, dim: int) -> list[AxisSpec]:
        return [AxisSpec(self.n, lo, hi) for lo, hi in self.domain_bounds(dim)]

    def geometry(self) -> ConeGeometry:
        return ConeGeometry(self.beta)


_OPTIONS = tuple(field for field in dataclasses.fields(RunConfig) if field.metadata)
# Each option's first flag, which its error messages start with.
_FLAG = {field.name: field.metadata["flags"][0] for field in _OPTIONS}


def _render_phantom(config: RunConfig):
    """The phantom: the --scene file's bumps, or the default bump.  Any error
    in them is an InputDataError (exit 2) led by the scene file's name."""
    axes = config.axes(config.dim)
    try:
        if config.scene is None:
            specs = [BumpSpec((0.2, 0.1, 0.0)[: config.dim], config.default_radius)]
        else:
            with open(config.scene, "r", encoding="utf-8") as fh:
                specs = parse_scene(fh.read(), axes, config.default_radius)
            if not specs:
                raise ValueError("scene file defines no bumps")
        return (render_bumps_2d if config.dim == 2 else render_bumps_3d)(specs, *axes)
    except ValueError as exc:  # includes UnicodeDecodeError from a non-UTF-8 file
        where = "" if config.scene is None else f"{config.scene}: "
        raise InputDataError(f"{where}{exc}") from exc


def _vertex_axes(config: RunConfig, f: RealGrid2D):
    if config.vertex_ymin is None:
        return None
    x, y = f.x_axis, f.y_axis
    if config.vertex_ymin > y.min:
        raise ValueError(
            f"{_FLAG['vertex_ymin']} {config.vertex_ymin} lies above y_min {y.min}: "
            "it can only extend the vertex grid down"
        )
    # Below this depth both rays leave the zero-extended f sideways before they
    # reach its lowest nonzero row, so a vertex row there sees no data at all.
    deepest = y.min - y.spacing - (x.max - x.min + x.spacing) / config.geometry().tan_beta
    if config.vertex_ymin < deepest:
        raise ValueError(
            f"{_FLAG['vertex_ymin']} {config.vertex_ymin} is below {deepest!r}, the deepest value "
            f"whose vertex rows can see this grid at beta {config.beta}"
        )
    extra = math.ceil((y.min - config.vertex_ymin) / y.spacing - 1e-9)
    extended = AxisSpec(y.n_samples + extra, y.min - extra * y.spacing, y.max)
    return (x, extended)


def _log(stage: str) -> None:
    print(f"[coneradon] {stage}", file=sys.stderr)


@contextlib.contextmanager
def _stage(timings: dict, name: str):
    _log(name)
    t0 = time.perf_counter()
    yield
    timings[name] = round(time.perf_counter() - t0, 6)


def _out(config: RunConfig, name: str) -> str:
    return os.path.join(config.output_dir, name)


def _save_grid(config: RunConfig, name: str, grid, outputs: dict, metrics: dict) -> None:
    outputs[name] = _out(config, f"{name}.crtg")
    write_grid(outputs[name], grid)
    if config.write_csv:
        outputs[f"{name}_csv"] = _out(config, f"{name}.csv")
        write_grid_csv(outputs[f"{name}_csv"], grid)
    values = grid.values
    if values.ndim == 3:  # central z slice of a volume
        values = values[:, :, values.shape[2] // 2]
    outputs[f"{name}_heatmap"] = _out(config, f"{name}.pgm")
    bounds = export_heatmap(values, outputs[f"{name}_heatmap"])
    metrics[f"{name}_heatmap_min"], metrics[f"{name}_heatmap_max"] = bounds


def _projection_edge_fraction(g) -> float:
    """Truncation alarm: max |g| on the lateral faces (both ends of every axis
    but the last, the vertex height) over max |g|, and 0 for g == 0."""
    g_abs = np.abs(g.values)
    peak = g_abs.max()
    if not peak:
        return 0.0
    faces = max(np.take(g_abs, [0, -1], axis=a).max() for a in range(g_abs.ndim - 1))
    return float(faces / peak)


# Above this projection_edge_fraction the 3D commands warn of truncated data.
# Measured at N = 24, 32, 48, beta pi/12 to pi/4, one and two bumps: up to 0.262
# (one bump at (0.45, 0.1, 0), pi/8) the round trip's rel L2 stays within 1.3x
# the centred bump's; from 0.369 (two bumps reaching the faces, pi/12) it is
# worse than returning zero at N = 48.
_TRUNCATION_EDGE_FRACTION = 0.3


def _truncation_alarm(g, metrics: dict) -> None:
    """Record ``projection_edge_fraction`` of a 3D projection and whether it
    is above the truncation threshold; warn on stderr if it is."""
    edge = _projection_edge_fraction(g)
    metrics["projection_edge_fraction"] = edge
    metrics["truncation_warning"] = edge > _TRUNCATION_EDGE_FRACTION
    if metrics["truncation_warning"]:
        print(
            f"warning: projection_edge_fraction {edge:.3f} is above "
            f"{_TRUNCATION_EDGE_FRACTION}: the projection is truncated at the lateral "
            "faces, so its 3D inversion is unreliable",
            file=sys.stderr,
        )


def _support_fraction(f) -> float:
    """Share of f's levels along the last axis (y rows in 2D, z levels in 3D)
    holding a nonzero sample: the part of the grid the forward sweeps."""
    held = np.any(f.values, axis=tuple(range(f.values.ndim - 1)))
    return float(held.mean())


def _metrics_against(config: RunConfig, recon, phantom, metrics: dict) -> None:
    metrics["relative_l2"] = relative_l2(recon, phantom)
    metrics["max_abs_error"] = max_abs_error(recon, phantom)
    if config.masked_metrics:
        mask = phantom.values > 0
        if mask.any():
            diff = recon.values[mask] - phantom.values[mask]
            metrics["relative_l2_masked"] = _l2_norm(diff) / _l2_norm(phantom.values[mask])


# The transform steps run without numpy's floating-point warnings: data of
# huge magnitude can overflow them, and their result grid's finiteness check
# then reports the failure as the exit-3 message alone.
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


def _cmd_transform(config: RunConfig, stage, outputs: dict, metrics: dict) -> None:
    """phantom, forward2d/3d, invert2d/3d and roundtrip2d/3d as the render,
    forward and invert steps; a round trip inverts the projection in memory."""
    projects = config.command.startswith(("forward", "roundtrip"))
    inverts = config.command.startswith(("invert", "roundtrip"))
    # The input grid: f for a forward run or a round trip, g for an invert run.
    if config.command.startswith("invert") and not config.input:
        raise ValueError(f"{config.command} needs --input with projection data")
    if config.input is not None:
        f = g = read_grid(config.input)
        if len(f.axes()) != config.dim:
            raise InputDataError(
                f"{config.input}: expected a {config.dim}D grid, found {len(f.axes())}D")
    else:
        with stage("render phantom"):
            f = _render_phantom(config)
        _save_grid(config, "phantom", f, outputs, metrics)
        metrics["phantom_max"] = float(f.values.max())
        metrics["phantom_l2"] = _l2_norm(f.values)
    if config.command == "phantom":
        return
    geom = config.geometry()
    if projects:
        metrics["support_fraction"] = _support_fraction(f)
        with stage("forward transform"), np.errstate(**_QUIET):
            g = (vline_forward(f, geom, _vertex_axes(config, f)).grid if config.dim == 2
                 else cone_forward(f, geom))
        _save_grid(config, "projection", g, outputs, metrics)
        metrics["projection_max"] = float(g.values.max())
    if config.dim == 3:
        _truncation_alarm(g, metrics)
    if not inverts:
        return
    if config.dim == 3:  # what the inversion of g will compute
        metrics["taper_band_fraction"] = _taper_band_fraction(g, geom)
        metrics["inversion_level_fraction"] = _inversion_levels(g) / g.z_axis.n_samples
        metrics["inversion_padded_size"] = _padded_sizes(g, geom)
    with stage("inversion"), np.errstate(**_QUIET):
        recon = vline_invert(VLineProjection(g, geom)) if config.dim == 2 else cone_invert(g, geom)
    if projects:  # a round trip scores recon against f, on f's rows
        if recon.axes() != f.axes():  # extended vertex grid
            n_extra = recon.y_axis.n_samples - f.y_axis.n_samples
            recon = RealGrid2D(f.x_axis, f.y_axis, recon.values[:, n_extra:])
        _metrics_against(config, recon, f, metrics)
    _save_grid(config, "reconstruction", recon, outputs, metrics)


def _cmd_oracle_check(config: RunConfig, stage, outputs: dict, metrics: dict) -> None:
    """Self-consistency diagnostics: direct vs spectral forward route, the
    per-frequency identity residual, and the closed-form cone kernel against
    direct angular quadrature at seeded random parameters."""
    geom = config.geometry()
    with stage("render phantom"):
        f = _render_phantom(config)
    with stage("forward transform"):
        g = vline_forward(f, geom)
    with stage("spectral forward route"):
        g_spec = vline_spectral_oracle(f, geom)
    denom = _l2_norm(g.grid.values)
    diff = _l2_norm(g.grid.values - g_spec.grid.values)
    metrics["forward_vs_spectral_rel_l2"] = diff / denom if denom else diff
    with stage("frequency-identity residual"):
        metrics["fourier_relation_residual"] = fourier_relation_check(f, g)
    # Truncation alarm: the identity needs g to fit inside the x domain.
    metrics["projection_edge_fraction"] = _projection_edge_fraction(g.grid)

    with stage("kernel quadrature check"):
        rng = np.random.default_rng(config.seed)
        theta = 2.0 * np.pi * np.arange(4096) / 4096
        worst = 0.0
        for _ in range(50):
            lam, mu = rng.uniform(-20.0, 20.0, size=2)
            gap = rng.uniform(0.0, 2.0)
            u = geom.tan_beta * math.hypot(lam, mu)
            closed = kernel_eval(KernelParams(u, geom), gap, 0.0)
            phase = gap * geom.tan_beta * (lam * np.cos(theta) + mu * np.sin(theta))
            quad = (geom.tan_beta / geom.cos_beta) * gap * 2.0 * np.pi * float(
                np.mean(np.cos(phase))
            )
            worst = max(worst, abs(closed - quad))
        metrics["kernel_max_abs_error"] = worst


# command -> (handler, grid rank); phantom takes its rank from --dim.
_DISPATCH = {
    "phantom": (_cmd_transform, None),
    "oracle-check": (_cmd_oracle_check, 2),
    **{f"{verb}{rank}d": (_cmd_transform, rank)
       for verb in ("forward", "invert", "roundtrip") for rank in (2, 3)},
}


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    try:
        config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # The report records the grid rank that ran, and an option's value only
    # where the run reads it: the declared default where it was not given.
    handler, rank = _DISPATCH[config.command]
    reader = config.reader()
    config = dataclasses.replace(config, **{
        field.name: field.metadata["default"] for field in _OPTIONS
        if getattr(config, field.name) is None and reader in field.metadata["readers"]
    })
    config = dataclasses.replace(config, dim=rank or config.dim)

    timings: dict[str, float] = {}
    outputs: dict[str, str] = {}
    metrics: dict[str, float] = {}
    try:
        os.makedirs(config.output_dir, exist_ok=True)
        handler(config, functools.partial(_stage, timings), outputs, metrics)
        bad = [k for k, v in metrics.items() if isinstance(v, float) and not math.isfinite(v)]
        if bad:
            raise NonFiniteGridError(f"non-finite metrics: {', '.join(sorted(bad))}")
    except (NonFiniteGridError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (GridFormatError, InputDataError, OSError) as exc:
        print(f"input/output failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: not enough memory for this configuration: {exc}", file=sys.stderr)
        return 1

    report = {
        "command": config.command,
        "metrics": metrics,
        "outputs": outputs,
        "parameters": {k: v for k, v in dataclasses.asdict(config).items()
                       if k not in ("output_dir", "write_csv")},
        "timings": timings,
    }
    report_path = _out(config, "report.json")
    try:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        print(f"input/output failure: {exc}", file=sys.stderr)
        return 2
    _log(f"report written to {report_path}")
    return 0


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # No flag looks like a number, so a token that starts like a negative
        # number is a value, as in "--domain -1,1" or "--vertex-ymin -2e0".
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse exits with status 2 on bad flags by default; the CLI contract
    # reserves 2 for I/O failures and uses 1 for argument errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="coneradon",
        description=(
            "Forward and exact-inversion solvers for conical Radon transforms "
            "(V-line in 2D, circular cone in 3D) with a fixed half-opening angle."
        ),
    )
    parser.add_argument("command", choices=_COMMANDS, help="what to run")
    for field in _OPTIONS:
        meta = field.metadata
        parser.add_argument(*meta["flags"], dest=field.name, default=None, **meta["argparse"])
    return parser


def main(argv=None) -> int:
    # Every argparse dest is a RunConfig field name.
    return run(RunConfig(**vars(_build_parser().parse_args(argv))))


if __name__ == "__main__":
    sys.exit(main())
