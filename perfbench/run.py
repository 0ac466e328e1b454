"""coneradon benchmark: one workload per call, each in fresh processes.

    python3 perfbench/run.py --workload vline2d-rt --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and BENCHMARK.json for why each exists):
``vline2d-rt`` and ``cone3d-rt`` are the CLI's round trips; ``invert-io``
inverts stored projections and writes .crtg, CSV and PGM outputs.

With ``--trace 0`` the benchmark starts the workload process three times; the
first two stop after set-up, and the set-up time reported is the median of the
three.  The third runs the workload's fixed job list, one job after another
(a closed loop with one client), pass after pass until ``--seconds`` have
passed, with tracing off.  With ``--trace 1`` one process alternates traced
and untraced passes and reports per-layer metrics instead.
``CRT_THREADS`` is removed from the workload processes' environment, so the 3D
inversion uses its default worker count.

The last stdout line is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}``.
A human-readable table goes to stderr, and the full record (metrics, per-job
replay data, environment, spans) to ``perfbench/results/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from spans import duration, monotonic, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS_DIR = HERE / "results"
TIME_BUDGET_S = 170.0
SETUP_SAMPLES = 3

END_TO_END = {
    "wall_s": "s",
    "job_p50_s": "s",
    "rel_l2_p50": "1",
    "rel_l2_max": "1",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# Every per-layer time is self time per pass of the job list, averaged over
# the traced passes; counts are per pass.
PER_LAYER = {
    "vline2d.vline_forward_s": "s",
    "vline2d.vline_forward.calls": "count",
    "vline2d.vertex_levels": "count",
    "vline2d.vertex_levels_per_s": "1/s",
    "vline2d.vline_invert_s": "s",
    "vline2d.vline_invert.calls": "count",
    "cone3d.cone_forward_s": "s",
    "cone3d.cone_forward.calls": "count",
    "cone3d.vertex_levels": "count",
    "cone3d.vertex_levels_per_s": "1/s",
    "cone3d.cone_invert_s": "s",
    "cone3d.cone_invert.calls": "count",
    "cone3d.cone_invert_1t_s": "s",
    "cone3d.spectral_profiles": "count",
    "cone3d.spectral_profiles_per_s": "1/s",
    "gridio.read_grid_s": "s",
    "gridio.write_grid_s": "s",
    "gridio.write_grid_csv_s": "s",
    "gridio.export_heatmap_s": "s",
    "gridio.bytes_read": "B",
    "gridio.bytes_written": "B",
    "gridio.write_MBps": "MB/s",
    "phantoms.render_bumps_s": "s",
    "phantoms.metrics_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

_LAYER_CALLS = (
    "vline2d.vline_forward",
    "vline2d.vline_invert",
    "cone3d.cone_forward",
    "cone3d.cone_invert",
    "gridio.read_grid",
    "gridio.write_grid",
    "gridio.write_grid_csv",
    "gridio.export_heatmap",
    "phantoms.render_bumps",
    "phantoms.metrics",
)
_WRITES = ("gridio.write_grid", "gridio.write_grid_csv", "gridio.export_heatmap")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _spawn(workload: str, seed: int, seconds: float, trace: int, size: str,
           setup_only: bool, deadline: float) -> dict:
    env = dict(os.environ)
    env.pop("CRT_THREADS", None)
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    spawned_at = monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--size", size, "--spawned-at", repr(spawned_at),
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded the {TIME_BUDGET_S:.0f} s budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with status {proc.returncode}")
    return json.loads(lines[-1])


def _job_records(raw: dict, traced: bool) -> list[dict]:
    return [j for p in raw["passes"] if p["traced"] == traced for j in p["jobs"]]


def _pass_seconds(p: dict) -> float:
    return sum(j["seconds"] for j in p["jobs"])


def end_to_end(raw: dict, setup_samples: list[float]) -> dict:
    """``wall_s`` is the fastest pass over the job list: other tenants of the
    host slow it by up to 2x for 30-60 s at a time, which only ever adds time,
    and over ten runs the fastest pass spread less than the median pass.
    ``job_p50_s`` is the median over every successful job of the run."""
    ok_jobs = [j["seconds"] for j in _job_records(raw, False) if j["error"] is None]
    rel = [a["rel_l2"] for a in raw["accuracy"].values()]
    if not ok_jobs or not rel:
        raise BenchError("every job failed")
    return {
        "wall_s": min(_pass_seconds(p) for p in raw["passes"]),
        "job_p50_s": statistics.median(ok_jobs),
        "rel_l2_p50": statistics.median(rel),
        "rel_l2_max": max(rel),
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": statistics.median(setup_samples),
    }


def per_layer(raw: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the traced passes, plus the accounting check."""
    spans = raw["spans"]
    traced = {p["index"] for p in raw["passes"] if p["traced"]}
    untraced = [_pass_seconds(p) for p in raw["passes"] if not p["traced"]]
    if not traced or not untraced:
        raise BenchError("a traced run needs traced and untraced passes")
    own = self_times(spans)
    layer_s = dict.fromkeys(_LAYER_CALLS, 0.0)
    calls = dict.fromkeys(_LAYER_CALLS, 0)
    bench_s = wall = bytes_read = bytes_written = 0.0
    for rec in spans:
        if rec["pass"] not in traced:
            continue
        name = rec["name"]
        if name.startswith("bench."):
            bench_s += own[rec["id"]]
            if name == "bench.job":
                wall += duration(rec)
            continue
        layer_s[name] += own[rec["id"]]
        calls[name] += 1
        if name == "gridio.read_grid":
            bytes_read += rec["bytes"]
        elif name in _WRITES:
            bytes_written += rec["bytes"]
    k = len(traced)
    m = {f"{name}_s": layer_s[name] / k for name in _LAYER_CALLS}
    for name in ("vline2d.vline_forward", "vline2d.vline_invert", "cone3d.cone_forward", "cone3d.cone_invert"):
        m[f"{name}.calls"] = calls[name] // k
    m["cone3d.cone_invert_1t_s"] = sum(duration(r) for r in spans if r["name"] == "cone3d.cone_invert_1t")
    work = raw["work_per_pass"]
    m["vline2d.vertex_levels"] = work["vline2d.vertex_levels"]
    m["cone3d.vertex_levels"] = work["cone3d.vertex_levels"]
    m["cone3d.spectral_profiles"] = work["cone3d.spectral_profiles"]
    m["vline2d.vertex_levels_per_s"] = _rate(work["vline2d.vertex_levels"], m["vline2d.vline_forward_s"])
    m["cone3d.vertex_levels_per_s"] = _rate(work["cone3d.vertex_levels"], m["cone3d.cone_forward_s"])
    m["cone3d.spectral_profiles_per_s"] = _rate(work["cone3d.spectral_profiles"], m["cone3d.cone_invert_s"])
    m["gridio.bytes_read"] = int(bytes_read) // k
    m["gridio.bytes_written"] = int(bytes_written) // k
    write_s = sum(m[f"{name}_s"] for name in _WRITES)
    m["gridio.write_MBps"] = _rate(m["gridio.bytes_written"], write_s) / 1e6
    m["bench.self_s"] = bench_s / k
    m["trace.wall_s"] = wall / k
    m["trace.overhead_s"] = m["trace.wall_s"] - statistics.mean(untraced)
    accounted = sum(layer_s.values()) / k + m["bench.self_s"]
    setup = {}
    for rec in spans:
        if rec["name"].startswith("setup."):
            setup[rec["name"]] = setup.get(rec["name"], 0.0) + own[rec["id"]]
    check = {
        "traced_passes": k,
        "untraced_passes": len(untraced),
        "layer_self_plus_bench_self_s": accounted,
        "accounted_frac": accounted / m["trace.wall_s"],
        "setup_self_s": setup,
    }
    return m, check


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _failures(raw: dict) -> list[dict]:
    return [
        {"pass": p["index"], "job": j["job"], "error": j["error"]}
        for p in raw["passes"]
        for j in p["jobs"]
        if j["error"] is not None
    ]


def measure(workload: str, seed: int, seconds: float, trace: int, size: str = "full") -> dict:
    """Run one workload in fresh processes and return the full record."""
    deadline = monotonic() + TIME_BUDGET_S
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_spawn(workload, seed, seconds, trace, size, True, deadline)["setup_s"])
    raw = _spawn(workload, seed, seconds, trace, size, False, deadline)
    return summarize(raw, setups + [raw["setup_s"]], seconds, trace, size)


def summarize(raw: dict, setups: list[float], seconds: float, trace: int, size: str) -> dict:
    """Turn a workload process's raw measurements into the run record."""
    attempted = sum(len(p["jobs"]) for p in raw["passes"])
    failures = _failures(raw)
    record = {
        "workload": raw["workload"],
        "seed": raw["seed"],
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "attempted": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "failures": failures,
        "setup_samples_s": setups,
        "pass_seconds": [_pass_seconds(p) for p in raw["passes"]],
        "passes": raw["passes"],
        "job_samples": len(_job_records(raw, False)),
        "environment": raw["environment"],
        "jobs": raw["jobs"],
        "accuracy": raw["accuracy"],
    }
    if trace:
        values, record["accounting"] = per_layer(raw)
        units = PER_LAYER
        record["spans"] = raw["spans"]
    else:
        values = end_to_end(raw, setups)
        units = END_TO_END
    record["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return record


def _summary(record: dict) -> str:
    lines = [f"{record['workload']} seed={record['seed']} trace={record['trace']} "
             f"size={record['size']} env={json.dumps(record['environment'])}"]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    lines.append(f"  {'fail_frac':34s} {record['fail_frac']:>16.6g} 1"
                 f"  ({record['failed']} of {record['attempted']} jobs)")
    lines.append(f"  job samples {record['job_samples']}, passes {len(record['pass_seconds'])}, "
                 f"set-up samples {len(record['setup_samples_s'])}")
    if "accounting" in record:
        acc = record["accounting"]
        lines.append(f"  layer self + bench self = {acc['accounted_frac']:.6f} of traced wall")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="coneradon benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy sizes are for the benchmark's self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "coneradon" / "__init__.py").is_file():
        print(f"perfbench: no coneradon source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, args.trace, args.size)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(_summary(record), file=sys.stderr)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
