"""Self-test of the benchmark at toy sizes (2D N = 24, 3D N = 12).

    python3 -m pytest perfbench -q
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    assert DECLARED["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in DECLARED["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace, capsys):
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "0.1",
                     "--trace", str(trace), "--size", "toy"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float)) and math.isfinite(emitted["value"])


def test_accuracy_repeats_for_a_fixed_seed(tmp_path):
    first = worker.run("cone3d-rt", 11, 0.0, False, "toy", workdir=tmp_path)
    second = worker.run("cone3d-rt", 11, 0.0, False, "toy", workdir=tmp_path)
    assert first["accuracy"] == second["accuracy"]
    assert first["jobs"] == second["jobs"]


def _shrink_x(grid):
    values = grid.values[:-1]
    axis = wl.cr.AxisSpec(grid.x_axis.n_samples - 1, grid.x_axis.min, grid.x_axis.max)
    return wl.cr.RealGrid2D(axis, grid.y_axis, values)


def _flip_last_byte(path):
    data = bytearray(Path(path).read_bytes())
    data[-1] ^= 1
    Path(path).write_bytes(bytes(data))


@pytest.mark.parametrize("corruption", ["axes", "nan", "readback", "exception"])
def test_corrupted_job_is_counted_in_fail_frac(corruption, tmp_path, monkeypatch):
    """Only the first vline_invert call of the run is corrupted."""
    calls = {"n": 0}
    real_invert, real_write = wl.cr.vline_invert, wl.cr.write_grid

    def invert(projection):
        calls["n"] += 1
        recon = real_invert(projection)
        if calls["n"] != 1:
            return recon
        if corruption == "axes":
            return _shrink_x(recon)
        if corruption == "nan":
            recon.values[0, 0] = float("nan")
            return recon
        if corruption == "exception":
            raise FloatingPointError("injected")
        calls["corrupt_next_write"] = True
        return recon

    def write_grid(path, grid):
        real_write(path, grid)
        if "reconstruction" in str(path) and calls.pop("corrupt_next_write", False):
            _flip_last_byte(path)

    monkeypatch.setattr(wl.cr, "vline_invert", invert)
    monkeypatch.setattr(wl.cr, "write_grid", write_grid)
    raw = worker.run("vline2d-rt", 5, 0.0, False, "toy", workdir=tmp_path)
    record = run.summarize(raw, [raw["setup_s"] or 0.1], 0.0, 0, "toy")
    assert record["attempted"] == len(raw["jobs"])
    assert record["failed"] == 1
    assert record["fail_frac"] == pytest.approx(1 / record["attempted"])
    assert record["failures"][0]["job"] == "rt2d-b8"
    assert set(record["metrics"]) == set(run.END_TO_END)


def test_self_times_account_for_the_traced_wall(tmp_path):
    raw = worker.run("invert-io", 3, 0.0, True, "toy", workdir=tmp_path)
    record = run.summarize(raw, [], 0.0, 1, "toy")
    acc = record["accounting"]
    assert acc["accounted_frac"] == pytest.approx(1.0, abs=1e-9)
    assert record["metrics"]["cone3d.cone_invert.calls"]["value"] == 4
    assert record["metrics"]["cone3d.cone_invert_1t_s"]["value"] > 0
    assert any(name.startswith("setup.cone3d.cone_forward") for name in acc["setup_self_s"])
