"""One workload process: set-up, then timed passes over the fixed job list.

Started by ``run.py`` as a fresh process.  It prints one JSON object on its
last stdout line with raw measurements; ``run.py`` turns them into metrics.
Set-up time is measured from the moment the parent started this process
(``--spawned-at``, a ``CLOCK_MONOTONIC`` reading) to the first timed job, so it
includes interpreter start-up and imports.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads as wl
from spans import NullRecorder, Recorder, monotonic

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def _run_pass(ctx, jobs, index: int, tr, first: dict, last: dict) -> dict:
    """Run the job list once; returns the pass record.  ``first`` keeps each
    job's first outcome (accuracy), ``last`` its latest (1-thread baseline)."""
    ctx.tr = tr
    tr.pass_index = index
    records = []
    for job in jobs:
        tr.job = job.id
        error = None
        t0 = time.perf_counter()
        try:
            with tr.span("bench.job"):
                outcome = wl.run_job(ctx, job)
        except Exception as exc:  # a failed job is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
            print(f"[perfbench] job {job.id} failed: {error}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        else:
            first.setdefault(job.id, outcome)
            last[job.id] = outcome
        records.append({"job": job.id, "seconds": time.perf_counter() - t0, "error": error})
        tr.job = None
    return {"index": index, "traced": tr.enabled, "jobs": records}


def _single_thread_baseline(last: dict, tr: Recorder) -> None:
    """Time each cone_invert call of one pass again with CRT_THREADS=1."""
    calls = [o.cone_invert_args for o in last.values() if o.cone_invert_args is not None]
    if not calls:
        return
    saved = os.environ.get("CRT_THREADS")
    os.environ["CRT_THREADS"] = "1"
    try:
        tr.pass_index = None
        with tr.span("bench.baseline_1t"):
            for g, geom, pad in calls:
                with tr.span("cone3d.cone_invert_1t"):
                    wl.cr.cone_invert(g, geom, pad_factor=pad)
    finally:
        if saved is None:
            del os.environ["CRT_THREADS"]
        else:
            os.environ["CRT_THREADS"] = saved


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "CRT_THREADS": os.environ.get("CRT_THREADS"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        setup_only: bool = False, spawned_at: float | None = None, workdir: Path | None = None) -> dict:
    """Set up and run one workload; returns the raw measurements.

    Untraced runs time passes with tracing off.  A traced run alternates
    traced and untraced passes, so the tracing overhead is measured in the
    same process, then times every cone_invert call once more single-threaded.
    """
    own_dir = workdir is None
    if own_dir:
        workdir = RESULTS_DIR / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tr = Recorder() if trace else NullRecorder()
        jobs = wl.build_jobs(workload, seed, size)
        ctx = wl.Context(tr, workdir)
        tr.prefix = "setup."
        with tr.span("bench"):
            wl.prepare(ctx, jobs)
        tr.prefix = ""
        setup_s = None if spawned_at is None else monotonic() - spawned_at
        result = {"workload": workload, "seed": seed, "setup_s": setup_s}
        if setup_only:
            return result

        null = NullRecorder()
        passes, first, last = [], {}, {}
        deadline = time.perf_counter() + seconds
        # A traced run needs at least one traced and one untraced pass.
        while len(passes) < (2 if trace else 1) or time.perf_counter() < deadline:
            traced = trace and len(passes) % 2 == 0
            passes.append(_run_pass(ctx, jobs, len(passes), tr if traced else null, first, last))
        if trace:
            _single_thread_baseline(last, tr)

        result.update(
            {
                "passes": passes,
                "jobs": [j.replay() for j in jobs],
                "accuracy": {
                    job_id: {"rel_l2": o.rel_l2, "max_abs_error": o.max_abs_error}
                    for job_id, o in first.items()
                },
                "work_per_pass": wl.work_counts(jobs),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "environment": environment(),
                "spans": tr.spans if trace else [],
            }
        )
        return result
    finally:
        if own_dir:
            shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(wl.SIZES), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size,
                 args.setup_only, args.spawned_at)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
