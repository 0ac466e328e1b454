"""Command-line driver for the transforms and phantom experiments.

One command per process; every run writes the requested grids plus a
``report.json`` with parameters, metrics, output paths and per-stage timings
(keys sorted, so identical configurations reproduce byte-identical reports up
to the timing values).  Exit codes: 0 success, 1 bad arguments, 2 I/O or parse
failure, 3 numerical failure (non-finite values).

``--vertex-ymin`` extends the 2D vertex grid down by whole rows, but no deeper
than y_min - dy - (x_max - x_min + dx) / tan(beta): vertex rows below that see
no data, and a deeper value exits 1 naming the limit.  An option the command
does not read (``_OPTION_READERS``) exits 1.
"""

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .cone3d import KernelParams, cone_forward, cone_invert, kernel_eval
from .grids import AxisSpec, ConeGeometry, NonFiniteGridError, RealGrid2D
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

__all__ = ["RunConfig", "main", "run"]

class InputDataError(Exception):
    """Input file exists but its contents cannot be used (exit code 2)."""


@dataclass
class RunConfig:
    """Everything one CLI invocation needs; validated before any work starts."""

    command: str
    beta: float = math.pi / 8
    n: int = 120
    domain: tuple[float, ...] = (-1.0, 1.0)
    pad_factor: int | None = None  # not given: 2 for the commands that read it
    input_path: str | None = None
    output_dir: str = "."
    scene_path: str | None = None
    seed: int = 0
    default_radius: float = 0.25
    vertex_ymin: float | None = None
    masked_metrics: bool = False
    write_csv: bool = False
    dim: int | None = None  # phantom only; not given: 2

    def validate(self) -> None:
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        for name, readers in _OPTION_READERS.items():
            if getattr(self, name) is not None and self.command not in readers:
                raise ValueError(f"--{name.replace('_', '-')} does not apply to {self.command}")
        if not (0.0 < self.beta < math.pi / 2):
            raise ValueError(f"beta must lie in (0, pi/2), got {self.beta}")
        if self.n < 8:
            raise ValueError(f"n must be >= 8, got {self.n}")
        if self.pad_factor is not None and not (1 <= self.pad_factor <= 4):
            raise ValueError(f"pad_factor must be in [1, 4], got {self.pad_factor}")
        if len(self.domain) not in (2, 4, 6):
            raise ValueError("domain needs 2, 4 or 6 comma-separated numbers")
        bounds = self.domain_bounds(3 if len(self.domain) == 6 else None)
        for lo, hi in bounds:
            if not hi > lo:
                raise ValueError(f"domain bounds must satisfy max > min, got [{lo}, {hi}]")
        if self.vertex_ymin is not None and not math.isfinite(self.vertex_ymin):
            raise ValueError(f"vertex_ymin must be finite, got {self.vertex_ymin}")

    def domain_bounds(self, dim: int | None = None) -> list[tuple[float, float]]:
        pairs = [tuple(self.domain[i : i + 2]) for i in range(0, len(self.domain), 2)]
        if dim is None:
            return pairs
        if len(pairs) == 1:
            return pairs * dim
        if len(pairs) != dim:
            raise ValueError(f"domain specifies {len(pairs)} axes but command needs {dim}")
        return pairs

    def axes(self, dim: int) -> list[AxisSpec]:
        return [AxisSpec(self.n, lo, hi) for lo, hi in self.domain_bounds(dim)]

    def geometry(self) -> ConeGeometry:
        return ConeGeometry(self.beta)


def _parse_angle(text: str) -> float:
    s = text.strip().lower().replace(" ", "")
    try:
        return float(s)
    except ValueError:
        pass
    if s.startswith("pi/"):
        try:
            k = float(s[3:])
        except ValueError:
            k = 0.0
        if k != 0.0:
            return math.pi / k
    raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}: use radians or pi/<k>")


def _parse_domain(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse domain {text!r}") from exc
    if len(values) not in (2, 4, 6):
        raise argparse.ArgumentTypeError("domain needs 2, 4 or 6 comma-separated numbers")
    return values


def _load_scene(config: RunConfig) -> list[BumpSpec]:
    if config.scene_path is None:
        center = (0.2, 0.1, 0.0)[: config.dim]
        return [BumpSpec(center=center, radius=config.default_radius, intensity=1.0)]
    try:
        with open(config.scene_path, "r", encoding="utf-8") as fh:
            specs = parse_scene(fh.read(), config.dim, default_radius=config.default_radius)
    except ValueError as exc:  # includes UnicodeDecodeError from a non-UTF-8 file
        raise InputDataError(f"{config.scene_path}: {exc}") from exc
    if not specs:
        raise InputDataError(f"{config.scene_path}: scene file defines no bumps")
    return specs


def _render_phantom(config: RunConfig):
    specs = _load_scene(config)
    axes = config.axes(config.dim)
    render = render_bumps_2d if config.dim == 2 else render_bumps_3d
    try:
        return render(specs, *axes)
    except ValueError as exc:
        raise InputDataError(str(exc)) from exc


def _read_grid_checked(path: str, rank: int):
    grid = read_grid(path)
    got = len(grid.axes())
    if got != rank:
        raise InputDataError(f"{path}: expected a {rank}D grid, found {got}D")
    return grid


def _vertex_axes(config: RunConfig, f: RealGrid2D):
    if config.vertex_ymin is None:
        return None
    x, y = f.x_axis, f.y_axis
    if config.vertex_ymin >= y.min:
        return None
    # Below this depth both rays leave the zero-extended f sideways before they
    # reach its lowest nonzero row, so a vertex row there sees no data at all.
    deepest = y.min - y.spacing - (x.max - x.min + x.spacing) / config.geometry().tan_beta
    if config.vertex_ymin < deepest:
        raise ValueError(
            f"vertex_ymin {config.vertex_ymin} is below {deepest!r}, the deepest value "
            f"whose vertex rows can see this grid at beta {config.beta}"
        )
    extra = math.ceil((y.min - config.vertex_ymin) / y.spacing - 1e-9)
    extended = AxisSpec(y.n_samples + extra, y.min - extra * y.spacing, y.max)
    return (x, extended)


def _forward(config: RunConfig, f):
    """V-line transform of a 2D grid, cone transform of a 3D one."""
    if len(f.axes()) == 2:
        return vline_forward(f, config.geometry(), _vertex_axes(config, f)).grid
    return cone_forward(f, config.geometry())


def _invert(config: RunConfig, g):
    """Exact inversion of a 2D V-line or 3D cone projection grid."""
    if len(g.axes()) == 2:
        return vline_invert(VLineProjection(g, config.geometry()))
    return cone_invert(g, config.geometry(), pad_factor=config.pad_factor)


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


def _save_grid(config: RunConfig, name: str, grid, outputs: dict) -> None:
    path = _out(config, f"{name}.crtg")
    write_grid(path, grid)
    outputs[name] = path
    if config.write_csv:
        csv_path = _out(config, f"{name}.csv")
        write_grid_csv(csv_path, grid)
        outputs[f"{name}_csv"] = csv_path


def _save_heatmap(config: RunConfig, name: str, grid, outputs: dict, metrics: dict) -> None:
    values = grid.values
    if values.ndim == 3:  # central z slice of a volume
        values = values[:, :, values.shape[2] // 2]
    path = _out(config, f"{name}.pgm")
    vmin, vmax = export_heatmap(values, path)
    outputs[name + "_heatmap"] = path
    metrics[f"{name}_heatmap_min"] = vmin
    metrics[f"{name}_heatmap_max"] = vmax


def _metrics_against(config: RunConfig, recon, phantom, metrics: dict) -> None:
    metrics["relative_l2"] = relative_l2(recon, phantom)
    metrics["max_abs_error"] = max_abs_error(recon, phantom)
    if config.masked_metrics:
        mask = phantom.values > 0
        if mask.any():
            diff = recon.values[mask] - phantom.values[mask]
            metrics["relative_l2_masked"] = float(
                np.linalg.norm(diff) / np.linalg.norm(phantom.values[mask])
            )


def _cmd_phantom(config: RunConfig, stage, outputs: dict, metrics: dict) -> None:
    with stage("render phantom"):
        f = _render_phantom(config)
    _save_grid(config, "phantom", f, outputs)
    _save_heatmap(config, "phantom", f, outputs, metrics)
    metrics["phantom_max"] = float(f.values.max())
    metrics["phantom_l2"] = float(np.linalg.norm(f.values))


def _cmd_forward(config: RunConfig, stage, outputs: dict, metrics: dict) -> None:
    if config.input_path:
        f = _read_grid_checked(config.input_path, config.dim)
    else:
        with stage("render phantom"):
            f = _render_phantom(config)
        _save_grid(config, "phantom", f, outputs)
    with stage("forward transform"):
        g = _forward(config, f)
    _save_grid(config, "projection", g, outputs)
    metrics["projection_max"] = float(g.values.max())


def _cmd_invert(config: RunConfig, stage, outputs: dict, metrics: dict) -> None:
    if not config.input_path:
        raise ValueError(f"{config.command} needs --input with projection data")
    g = _read_grid_checked(config.input_path, config.dim)
    with stage("inversion"):
        recon = _invert(config, g)
    _save_grid(config, "reconstruction", recon, outputs)
    _save_heatmap(config, "reconstruction", recon, outputs, metrics)


def _cmd_roundtrip(config: RunConfig, stage, outputs: dict, metrics: dict) -> None:
    with stage("render phantom"):
        f = _render_phantom(config)
    with stage("forward transform"):
        g = _forward(config, f)
    with stage("inversion"):
        recon = _invert(config, g)
    if recon.axes() != f.axes():  # extended vertex grid: compare on f's rows
        n_extra = recon.y_axis.n_samples - f.y_axis.n_samples
        recon = RealGrid2D(f.x_axis, f.y_axis, recon.values[:, n_extra:])
    _save_grid(config, "phantom", f, outputs)
    _save_grid(config, "projection", g, outputs)
    _save_grid(config, "reconstruction", recon, outputs)
    _save_heatmap(config, "phantom", f, outputs, metrics)
    _save_heatmap(config, "reconstruction", recon, outputs, metrics)
    _metrics_against(config, recon, f, metrics)


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
        g_spec = vline_spectral_oracle(f, geom, pad_factor=max(config.pad_factor, 2))
    denom = float(np.linalg.norm(g.grid.values))
    diff = float(np.linalg.norm(g.grid.values - g_spec.grid.values))
    metrics["forward_vs_spectral_rel_l2"] = diff / denom if denom else diff
    with stage("frequency-identity residual"):
        metrics["fourier_relation_residual"] = fourier_relation_check(f, g)
    # Truncation alarm: the identity needs g to fit inside the x domain.
    g_abs = np.abs(g.grid.values)
    edge_fraction = g_abs[[0, -1]].max() / g_abs.max() if denom else 0.0
    metrics["projection_edge_fraction"] = float(edge_fraction)

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
    "phantom": (_cmd_phantom, None),
    "forward2d": (_cmd_forward, 2),
    "invert2d": (_cmd_invert, 2),
    "roundtrip2d": (_cmd_roundtrip, 2),
    "forward3d": (_cmd_forward, 3),
    "invert3d": (_cmd_invert, 3),
    "roundtrip3d": (_cmd_roundtrip, 3),
    "oracle-check": (_cmd_oracle_check, 2),
}
_COMMANDS = tuple(_DISPATCH)

# Options only some commands read; any other command refuses them.
_OPTION_READERS = {
    "vertex_ymin": ("forward2d", "roundtrip2d"),
    "dim": ("phantom",),
    "pad_factor": ("invert3d", "roundtrip3d", "oracle-check"),
}


def _config_dict(config: RunConfig) -> dict:
    params = dataclasses.asdict(config)
    params["input"] = params.pop("input_path")
    params["scene"] = params.pop("scene_path")
    del params["output_dir"], params["write_csv"]
    return params


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    try:
        config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # The report records the grid rank that ran, and a pad factor only where one is read.
    handler, rank = _DISPATCH[config.command]
    config = dataclasses.replace(config, dim=rank or config.dim or 2)
    if config.pad_factor is None and config.command in _OPTION_READERS["pad_factor"]:
        config.pad_factor = 2

    timings: dict[str, float] = {}
    outputs: dict[str, str] = {}
    metrics: dict[str, float] = {}
    try:
        os.makedirs(config.output_dir, exist_ok=True)
        handler(config, functools.partial(_stage, timings), outputs, metrics)
        bad = [k for k, v in metrics.items() if isinstance(v, float) and not math.isfinite(v)]
        if bad:
            raise NonFiniteGridError(f"non-finite metrics: {', '.join(sorted(bad))}")
    except NonFiniteGridError as exc:
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
        "parameters": _config_dict(config),
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
    parser.add_argument(
        "--beta", type=_parse_angle, default=math.pi / 8,
        help="half-opening angle in radians, or pi/<k> (default pi/8)",
    )
    parser.add_argument("--n", type=int, default=120, help="samples per axis (default 120)")
    parser.add_argument(
        "--domain", type=_parse_domain, default=(-1.0, 1.0),
        help="axis bounds: 'lo,hi' for all axes or per-axis pairs (default -1,1)",
    )
    parser.add_argument(
        "--pad-factor", type=int, default=None, dest="pad_factor",
        help="zero-padding factor for invert3d, roundtrip3d and oracle-check, 1..4 (default 2)",
    )
    parser.add_argument("--input", dest="input_path", help="input grid file (.crtg)")
    parser.add_argument(
        "--outdir", dest="output_dir", default=".", help="directory for output files"
    )
    parser.add_argument(
        "--scene", "--phantom", dest="scene_path", help="phantom scene description file"
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    parser.add_argument(
        "--radius", type=float, default=0.25, dest="default_radius",
        help="radius for scene lines that omit it (default 0.25)",
    )
    parser.add_argument(
        "--vertex-ymin", type=float, default=None, dest="vertex_ymin",
        help="extend the vertex grid of forward2d/roundtrip2d down to this y",
    )
    parser.add_argument(
        "--masked-metrics", action="store_true",
        help="also report errors restricted to the phantom support",
    )
    parser.add_argument("--csv", action="store_true", dest="write_csv",
                        help="additionally export grids as CSV")
    parser.add_argument("--dim", type=int, choices=(2, 3), default=None,
                        help="dimension for the phantom command (default 2)")
    return parser


def main(argv=None) -> int:
    # Every argparse dest is a RunConfig field name.
    return run(RunConfig(**vars(_build_parser().parse_args(argv))))


if __name__ == "__main__":
    sys.exit(main())
