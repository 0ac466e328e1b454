"""Workload definitions: seeded scenes, fixed job lists, set-up and job bodies.

Each job mirrors one CLI command sequence (``roundtrip2d``, ``roundtrip3d``,
``invert2d --csv``, ``invert3d --csv``) by calling the library's public
functions directly, with a span around every call into a layer.  Every job
checks its own output; a failed check raises ``JobCheckError``.
"""

import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Benchmark the checkout's source tree, never an installed copy of the package.
sys.path.insert(0, str(SRC))
import coneradon as cr  # noqa: E402

if Path(cr.__file__).resolve().parent != SRC / "coneradon":
    raise ImportError(f"coneradon imported from {cr.__file__}, expected {SRC / 'coneradon'}")

PI = math.pi

# Full sizes are the benchmark; toy sizes exist for the benchmark's self-test.
SIZES = {"full": {"n2d": 240, "n3d": 48}, "toy": {"n2d": 24, "n3d": 12}}

# Bump k of a scene sits at anchor k: the CLI's default bump near the centre,
# then a high side position and a low side position, each strictly inside
# [-1, 1]^d.  Scenes with 2 or 3 bumps therefore always reach towards the
# lateral faces, where the 3D inversion loses data (its known truncation
# defect), whatever the seed.  The seed moves each bump by up to _JITTER per
# axis and scales its radius and intensity slightly.  It does not place bumps
# anywhere: the 3D relative L2 of one bump changes by more than an order of
# magnitude between the centre and the faces, and even a 0.05 shift moves it
# by ~20%, which would swamp any seed-to-seed comparison of the accuracy
# metrics.
_ANCHORS = {
    2: (((0.2, 0.1), 0.25), ((-0.45, 0.4), 0.3), ((0.5, -0.45), 0.22)),
    3: (((0.2, 0.1, 0.0), 0.25), ((-0.4, 0.35, 0.3), 0.3), ((0.45, -0.4, -0.35), 0.22)),
}
_JITTER = 0.005
_RADIUS_JITTER = 0.01
_INTENSITY_JITTER = 0.05


class JobCheckError(Exception):
    """A job's output failed one of the benchmark's checks."""


@dataclass(frozen=True)
class Job:
    """One reconstruction: everything needed to replay it."""

    id: str
    kind: str  # rt2d, rt3d, inv2d or inv3d
    n: int
    beta: float
    scene: tuple
    pad: int | None = None
    vertex_ymin: float | None = None

    def replay(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "n": self.n,
            "beta": self.beta,
            "pad": self.pad,
            "vertex_ymin": self.vertex_ymin,
            "scene": [
                {"center": list(b.center), "radius": b.radius, "intensity": b.intensity}
                for b in self.scene
            ],
        }


def make_scene(rng: np.random.Generator, dim: int, n_bumps: int) -> tuple:
    specs = []
    for center, radius in _ANCHORS[dim][:n_bumps]:
        c = np.asarray(center) + rng.uniform(-_JITTER, _JITTER, size=dim)
        specs.append(
            cr.BumpSpec(
                center=tuple(float(v) for v in c),
                radius=float(radius * rng.uniform(1 - _RADIUS_JITTER, 1 + _RADIUS_JITTER)),
                intensity=float(rng.uniform(1 - _INTENSITY_JITTER, 1 + _INTENSITY_JITTER)),
            )
        )
    return tuple(specs)


def build_jobs(workload: str, seed: int, size: str = "full") -> list[Job]:
    """The workload's fixed job list for ``seed``; one pass runs it in order."""
    rng = np.random.default_rng(seed)
    n2d, n3d = SIZES[size]["n2d"], SIZES[size]["n3d"]
    if workload == "vline2d-rt":
        # n_sub = 1; n_sub = 2; vertex grid extended below the domain by a
        # quarter of its height (the CLI's --vertex-ymin).
        return [
            Job("rt2d-b8", "rt2d", n2d, PI / 8, make_scene(rng, 2, 1)),
            Job("rt2d-b4", "rt2d", n2d, PI / 4, make_scene(rng, 2, 2)),
            Job("rt2d-b8-ext", "rt2d", n2d, PI / 8, make_scene(rng, 2, 3), vertex_ymin=-1.5),
        ]
    if workload == "cone3d-rt":
        # beta = pi/4 on the single bump is the ROADMAP's known failure case.
        return [
            Job(f"rt3d-b{k}", "rt3d", n3d, PI / k, make_scene(rng, 3, n_bumps), pad=2)
            for k, n_bumps in ((8, 2), (6, 3), (4, 1))
        ]
    if workload == "invert-io":
        # Each stored projection is inverted once per pass (3D: with pad 2 and
        # pad 3 on the same file).
        jobs = []
        for k, n_bumps in ((8, 1), (6, 3)):
            scene = make_scene(rng, 3, n_bumps)
            jobs += [Job(f"inv3d-b{k}-pad{p}", "inv3d", n3d, PI / k, scene, pad=p) for p in (2, 3)]
        for k, n_bumps in ((8, 2), (4, 3)):
            jobs.append(Job(f"inv2d-b{k}", "inv2d", n2d, PI / k, make_scene(rng, 2, n_bumps)))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("vline2d-rt", "cone3d-rt", "invert-io")


@dataclass
class Context:
    """What job bodies share: the span recorder, the output directory and the
    stored inputs made during set-up (invert jobs only)."""

    tr: object
    outdir: Path
    inputs: dict = field(default_factory=dict)  # source key -> (phantom, projection path)


@dataclass
class Outcome:
    rel_l2: float
    max_abs_error: float
    cone_invert_args: tuple | None = None  # (g, geometry, pad), for the 1-thread baseline


def _axes(job: Job):
    ax = cr.AxisSpec(job.n, -1.0, 1.0)
    return (ax,) * (3 if job.kind in ("rt3d", "inv3d") else 2)


def _render(ctx: Context, job: Job):
    axes = _axes(job)
    with ctx.tr.span("phantoms.render_bumps"):
        if len(axes) == 2:
            return cr.render_bumps_2d(job.scene, *axes)
        return cr.render_bumps_3d(job.scene, *axes)


def _vertex_y_axis(y, vertex_ymin: float | None):
    # Same extension as the CLI's --vertex-ymin.
    if vertex_ymin is None:
        return y
    extra = math.ceil((y.min - vertex_ymin) / y.spacing - 1e-9)
    return cr.AxisSpec(y.n_samples + extra, y.min - extra * y.spacing, y.max)


def _read(ctx: Context, path: Path):
    with ctx.tr.span("gridio.read_grid") as rec:
        grid = cr.read_grid(path)
    rec["bytes"] = os.path.getsize(path)
    return grid


def _write(ctx: Context, name: str, path: Path, write):
    with ctx.tr.span(name) as rec:
        write()
    rec["bytes"] = os.path.getsize(path)


def _save(ctx: Context, job: Job, name: str, grid) -> None:
    """write_grid, then check that the file reads back bit-identically."""
    path = ctx.outdir / f"{job.id}.{name}.crtg"
    _write(ctx, "gridio.write_grid", path, lambda: cr.write_grid(path, grid))
    back = _read(ctx, path)
    if back.axes() != grid.axes() or back.values.tobytes() != grid.values.tobytes():
        raise JobCheckError(f"{path.name} does not read back bit-identically")


def _save_csv(ctx: Context, job: Job, name: str, grid) -> None:
    path = ctx.outdir / f"{job.id}.{name}.csv"
    _write(ctx, "gridio.write_grid_csv", path, lambda: cr.write_grid_csv(path, grid))


def _heatmap(ctx: Context, job: Job, name: str, grid) -> None:
    values = grid.values
    if values.ndim == 3:  # central z slice, as the CLI draws volumes
        values = values[:, :, values.shape[2] // 2]
    path = ctx.outdir / f"{job.id}.{name}.pgm"
    _write(ctx, "gridio.export_heatmap", path, lambda: cr.export_heatmap(values, path))


def _score(ctx: Context, recon, phantom) -> Outcome:
    if recon.axes() != phantom.axes():
        raise JobCheckError(f"reconstruction axes {recon.axes()} differ from the phantom's")
    if not np.all(np.isfinite(recon.values)):
        raise JobCheckError("reconstruction has non-finite values")
    with ctx.tr.span("phantoms.metrics"):
        rel = cr.relative_l2(recon, phantom)
        worst = cr.max_abs_error(recon, phantom)
    return Outcome(rel, worst)


def _roundtrip2d(ctx: Context, job: Job) -> Outcome:
    geom = cr.ConeGeometry(job.beta)
    f = _render(ctx, job)
    vertex_axes = None
    if job.vertex_ymin is not None:
        vertex_axes = (f.x_axis, _vertex_y_axis(f.y_axis, job.vertex_ymin))
    with ctx.tr.span("vline2d.vline_forward"):
        g = cr.vline_forward(f, geom, vertex_axes)
    with ctx.tr.span("vline2d.vline_invert"):
        recon = cr.vline_invert(g)
    if vertex_axes is not None:  # compare on f's rows, as the CLI does
        extra = recon.y_axis.n_samples - f.y_axis.n_samples
        recon = cr.RealGrid2D(f.x_axis, f.y_axis, recon.values[:, extra:])
    _save(ctx, job, "phantom", f)
    _save(ctx, job, "projection", g.grid)
    _save(ctx, job, "reconstruction", recon)
    _heatmap(ctx, job, "phantom", f)
    _heatmap(ctx, job, "reconstruction", recon)
    return _score(ctx, recon, f)


def _roundtrip3d(ctx: Context, job: Job) -> Outcome:
    geom = cr.ConeGeometry(job.beta)
    f = _render(ctx, job)
    with ctx.tr.span("cone3d.cone_forward"):
        g = cr.cone_forward(f, geom)
    with ctx.tr.span("cone3d.cone_invert"):
        recon = cr.cone_invert(g, geom, pad_factor=job.pad)
    _save(ctx, job, "phantom", f)
    _save(ctx, job, "projection", g)
    _save(ctx, job, "reconstruction", recon)
    _heatmap(ctx, job, "phantom", f)
    _heatmap(ctx, job, "reconstruction", recon)
    outcome = _score(ctx, recon, f)
    outcome.cone_invert_args = (g, geom, job.pad)
    return outcome


def source_key(job: Job) -> tuple:
    """Invert jobs that share a key read the same stored projection."""
    return (job.kind, job.beta, job.scene)


def prepare(ctx: Context, jobs: list[Job]) -> None:
    """Set-up for invert jobs: render each phantom, project it and store the
    projection as .crtg, as ``forward2d`` / ``forward3d`` would."""
    for job in jobs:
        key = source_key(job)
        if job.kind not in ("inv2d", "inv3d") or key in ctx.inputs:
            continue
        geom = cr.ConeGeometry(job.beta)
        f = _render(ctx, job)
        if job.kind == "inv2d":
            with ctx.tr.span("vline2d.vline_forward"):
                g = cr.vline_forward(f, geom).grid
        else:
            with ctx.tr.span("cone3d.cone_forward"):
                g = cr.cone_forward(f, geom)
        path = ctx.outdir / f"source-{len(ctx.inputs)}.projection.crtg"
        _write(ctx, "gridio.write_grid", path, lambda: cr.write_grid(path, g))
        ctx.inputs[key] = (f, path)


def _invert(ctx: Context, job: Job) -> Outcome:
    phantom, path = ctx.inputs[source_key(job)]
    geom = cr.ConeGeometry(job.beta)
    g = _read(ctx, path)
    if len(g.axes()) != len(phantom.axes()):
        raise JobCheckError(f"{path.name} holds a {len(g.axes())}D grid")
    args = None
    if job.kind == "inv3d":
        with ctx.tr.span("cone3d.cone_invert"):
            recon = cr.cone_invert(g, geom, pad_factor=job.pad)
        args = (g, geom, job.pad)
    else:
        with ctx.tr.span("vline2d.vline_invert"):
            recon = cr.vline_invert(cr.VLineProjection(g, geom))
    _save(ctx, job, "reconstruction", recon)
    _save_csv(ctx, job, "reconstruction", recon)
    _heatmap(ctx, job, "reconstruction", recon)
    outcome = _score(ctx, recon, phantom)
    outcome.cone_invert_args = args
    return outcome


_BODIES = {"rt2d": _roundtrip2d, "rt3d": _roundtrip3d, "inv2d": _invert, "inv3d": _invert}


def run_job(ctx: Context, job: Job) -> Outcome:
    return _BODIES[job.kind](ctx, job)


def work_counts(jobs: list[Job]) -> dict[str, int]:
    """Work per pass computed from the job list (not measured):

    * ``vline2d.vertex_levels``: (vertex, quadrature level) pairs summed over
      the pass's ``vline_forward`` calls, with the library's n_sub rule;
    * ``cone3d.vertex_levels``: (vertex, z level above it) pairs over the
      ``cone_forward`` calls;
    * ``cone3d.spectral_profiles``: padded nx * ny over the ``cone_invert`` calls.
    """
    counts = {"vline2d.vertex_levels": 0, "cone3d.vertex_levels": 0, "cone3d.spectral_profiles": 0}
    for job in jobs:
        n = job.n
        if job.kind == "rt2d":
            ax = _axes(job)[0]
            vy = _vertex_y_axis(ax, job.vertex_ymin)
            n_rows = vy.n_samples
            n_sub = max(1, math.ceil(2.0 * math.tan(job.beta) * vy.spacing / ax.spacing))
            # vertex row m levels below the top integrates over n_sub * m + 1 nodes
            counts["vline2d.vertex_levels"] += n * (n_sub * n_rows * (n_rows - 1) // 2 + n_rows - 1)
        if job.kind == "rt3d":
            counts["cone3d.vertex_levels"] += n * n * n * (n - 1) // 2
        if job.kind in ("rt3d", "inv3d"):
            counts["cone3d.spectral_profiles"] += (job.pad * n) ** 2
    return counts
