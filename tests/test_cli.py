import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coneradon
from coneradon import grids
from coneradon.cli import _COMMANDS, RunConfig, main, run
from coneradon.gridio import read_grid, write_grid
from coneradon.grids import AxisSpec, RealGrid2D, RealGrid3D


def run_cli(*args):
    return main(list(args))


def load_report(outdir):
    with open(outdir / "report.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def deepest_vertex_ymin(n=16, beta=math.pi / 8):
    # y_min - dy - (x extent + dx) / tan(beta) on the default [-1, 1] domain
    d = 2.0 / (n - 1)
    return -1.0 - d - (2.0 + d) / math.tan(beta)


def wrapped_dims_grid(tmp_path):
    # 2^22 * 2^22 * 2^20 samples wrap to 0 in int64 arithmetic.
    path = tmp_path / "wrap.crtg"
    header = b"CRTG" + struct.pack("<HH", 1, 3) + struct.pack("<3I", 2**22, 2**22, 2**20)
    path.write_bytes(header + struct.pack("<6d", 0, 1, 0, 1, 0, 1))
    return ["invert3d", "--input", str(path)]


def infinite_extent_grid(tmp_path):
    path = tmp_path / "inf.crtg"
    header = b"CRTG" + struct.pack("<HH", 1, 2) + struct.pack("<II", 8, 8)
    path.write_bytes(header + struct.pack("<4d", -1e308, 1e308, 0, 1) + b"\x00" * (8 * 64))
    return ["invert2d", "--input", str(path)]


def short_z_grid(tmp_path):
    # 8 x 8 x 5 samples: one z level short of the inversion's order-3 stencil.
    path = tmp_path / "short_z.crtg"
    ax = AxisSpec(8, -1.0, 1.0)
    write_grid(path, RealGrid3D(ax, ax, AxisSpec(5, -1.0, 1.0), np.zeros((8, 8, 5))))
    return ["invert3d", "--input", str(path)]


def wide_axes_grid(tmp_path, rank, bound):
    # Valid axes whose spacing overflows a power in the inversion's stencils.
    path = tmp_path / f"wide{rank}d.crtg"
    ax = AxisSpec(8, -bound, bound)
    values = np.random.default_rng(0).standard_normal((8,) * rank)
    write_grid(path, (RealGrid2D if rank == 2 else RealGrid3D)(*[ax] * rank, values))
    return [f"invert{rank}d", "--input", str(path)]


def radius_from_option(radius, tmp_path=None):
    # With tmp_path, the radius reaches the phantom through a scene line that omits it.
    args = ["phantom", "--n", "16", f"--radius={radius}"]
    if tmp_path is not None:
        scene = tmp_path / "scene.txt"
        scene.write_text("0.2 0.1 1\n")
        args += ["--scene", str(scene)]
    return args


def non_utf8_scene(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_bytes("0.2 0.1 0.25 1  # caf\xe9\n".encode("latin-1"))
    return ["phantom", "--scene", str(path)]


def comments_only_scene(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text("# cx cy r intensity\n\n   # no bump\n")
    return ["phantom", "--scene", str(path)]


def report_path_is_a_directory(tmp_path):
    (tmp_path / "out" / "report.json").mkdir(parents=True)
    return ["phantom", "--n", "16"]


class TestRoundtrip2D:
    def test_basic_run(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("roundtrip2d", "--beta", "pi/8", "--n", "48", "--outdir", str(out))
        assert code == 0
        report = load_report(out)
        assert report["parameters"]["beta"] == pytest.approx(math.pi / 8)
        assert 0 < report["metrics"]["relative_l2"] < 1
        for name in ("phantom", "projection", "reconstruction"):
            assert (out / f"{name}.crtg").exists()
        assert (out / "phantom.pgm").exists()
        assert (out / "reconstruction.pgm").exists()

    def test_scene_file_with_default_radius(self, tmp_path):
        scene = tmp_path / "scene.txt"
        scene.write_text("# two circles, radius from --radius\n0.5 0.3 3\n-0.2 -0.2 4\n")
        out = tmp_path / "run"
        # n = 41 puts grid nodes exactly on both centers
        code = run_cli(
            "roundtrip2d", "--n", "41", "--scene", str(scene),
            "--radius", "0.25", "--outdir", str(out), "--masked-metrics",
        )
        assert code == 0
        report = load_report(out)
        assert "relative_l2_masked" in report["metrics"]
        phantom = read_grid(out / "phantom.crtg")
        assert phantom.values.max() == pytest.approx(4 * math.exp(-1), rel=1e-9)

    def test_determinism(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("roundtrip2d", "--n", "32", "--outdir", str(out)) == 0
            outs.append(out)
        for fname in ("phantom.crtg", "projection.crtg", "reconstruction.crtg",
                      "phantom.pgm", "reconstruction.pgm"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
        reports = [load_report(o) for o in outs]
        for rep in reports:
            rep.pop("timings")
            rep["outputs"] = {k: v.split("/")[-1] for k, v in rep["outputs"].items()}
            rep["parameters"].pop("domain")  # identical lists compare fine, keep anyway
        assert reports[0]["metrics"] == reports[1]["metrics"]

    def test_csv_mirrors_every_saved_grid(self, tmp_path):
        assert run_cli("roundtrip2d", "--n", "16", "--csv", "--outdir", str(tmp_path)) == 0
        outputs = load_report(tmp_path)["outputs"]
        for name in ("phantom", "projection", "reconstruction"):
            grid = read_grid(outputs[name])
            with open(outputs[f"{name}_csv"], encoding="ascii") as fh:
                lines = fh.read().splitlines()
            tokens = [tok for ln in lines if not ln.startswith("#") for tok in ln.split(",")]
            assert tokens == [format(v, ".17g") for v in grid.values.ravel(order="F").tolist()]

    def test_vertex_extension(self, tmp_path):
        out = tmp_path / "ext"
        code = run_cli("roundtrip2d", "--n", "40", "--vertex-ymin", "-1.5",
                       "--outdir", str(out))
        assert code == 0
        projection = read_grid(out / "projection.crtg")
        assert projection.y_axis.min < -1.4
        recon = read_grid(out / "reconstruction.crtg")
        assert recon.y_axis.n_samples == 40  # cropped back to the phantom grid

    def test_vertex_extension_rounds_to_whole_rows(self, tmp_path):
        out = tmp_path / "ext"
        code = run_cli("roundtrip2d", "--n", "40", "--vertex-ymin", "-1.37",
                       "--outdir", str(out))
        assert code == 0
        projection = read_grid(out / "projection.crtg")
        extra = projection.y_axis.n_samples - 40
        assert projection.y_axis.min == pytest.approx(-1.0 - extra * 2.0 / 39, abs=1e-12)
        assert projection.y_axis.min <= -1.37

    @pytest.mark.parametrize("with_input", [False, True], ids=["roundtrip2d", "forward2d+input"])
    def test_vertex_ymin_at_y_min_is_the_default_grid(self, tmp_path, with_input):
        args = ["roundtrip2d", "--n", "16"]
        if with_input:
            assert run_cli("phantom", "--n", "16", "--outdir", str(tmp_path)) == 0
            args = ["forward2d", "--input", str(tmp_path / "phantom.crtg")]
        projections = []
        for name, extra in (("default", []), ("at-y-min", ["--vertex-ymin=-1.0"])):
            assert run_cli(*args, *extra, "--outdir", str(tmp_path / name)) == 0
            projections.append((tmp_path / name / "projection.crtg").read_bytes())
        assert projections[0] == projections[1]


class TestNegativeValueAfterASpace:
    """A value that starts like a negative number may follow its flag after a
    space, as after "=", on the running interpreter's argparse."""

    @pytest.mark.parametrize("flag, value", [
        ("--domain", "-1,1"), ("--domain", "-2,2,-1,1"), ("--vertex-ymin", "-2e0"),
    ])
    def test_same_report_as_the_equals_form(self, tmp_path, flag, value):
        reports = []
        for name, spelling in (("space", [flag, value]), ("equals", [f"{flag}={value}"])):
            out = tmp_path / name
            assert run_cli("roundtrip2d", "--n", "16", *spelling, "--outdir", str(out)) == 0
            report = load_report(out)
            report.pop("timings")
            report["outputs"] = {k: Path(v).name for k, v in report["outputs"].items()}
            reports.append(report)
        assert reports[0] == reports[1]

    def test_a_flag_is_still_not_a_value(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["roundtrip2d", "--domain", "--n", "8"])
        assert info.value.code == 1
        assert "expected one argument" in capsys.readouterr().err


class TestFileChain:
    def test_phantom_forward_invert(self, tmp_path):
        pout = tmp_path / "p"
        assert run_cli("phantom", "--n", "40", "--outdir", str(pout)) == 0
        fout = tmp_path / "f"
        assert run_cli("forward2d", "--input", str(pout / "phantom.crtg"),
                       "--outdir", str(fout)) == 0
        iout = tmp_path / "i"
        assert run_cli("invert2d", "--input", str(fout / "projection.crtg"),
                       "--outdir", str(iout)) == 0
        recon = read_grid(iout / "reconstruction.crtg")
        phantom = read_grid(pout / "phantom.crtg")
        rel = np.linalg.norm(recon.values - phantom.values) / np.linalg.norm(phantom.values)
        assert rel < 0.5

    def test_phantom_3d(self, tmp_path):
        out = tmp_path / "p3"
        scene = tmp_path / "s3.txt"
        scene.write_text("0.2 0.1 0.0 0.25 1.0\n")
        assert run_cli("phantom", "--dim", "3", "--n", "16", "--scene", str(scene),
                       "--outdir", str(out)) == 0
        grid = read_grid(out / "phantom.crtg")
        assert len(grid.axes()) == 3

    def test_forward3d_invert3d(self, tmp_path):
        fout = tmp_path / "f3"
        assert run_cli("forward3d", "--n", "12", "--outdir", str(fout)) == 0
        assert (fout / "phantom.crtg").exists()
        assert load_report(fout)["metrics"]["projection_max"] > 0
        assert load_report(fout)["parameters"]["dim"] == 3
        projection = read_grid(fout / "projection.crtg")
        assert len(projection.axes()) == 3
        iout = tmp_path / "i3"
        assert run_cli("invert3d", "--input", str(fout / "projection.crtg"),
                       "--outdir", str(iout)) == 0
        recon = read_grid(iout / "reconstruction.crtg")
        assert recon.axes() == projection.axes()
        assert (iout / "reconstruction.pgm").exists()
        report = load_report(iout)
        assert {"reconstruction_heatmap_min", "reconstruction_heatmap_max"} <= set(report["metrics"])

    def test_roundtrip3d_small(self, tmp_path):
        out = tmp_path / "r3"
        code = run_cli("roundtrip3d", "--n", "16", "--outdir", str(out))
        assert code == 0
        report = load_report(out)
        assert math.isfinite(report["metrics"]["relative_l2"])


def readme_block(heading):
    # The body of the README's first fenced block after the line ``heading``.
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    start = text.index("```\n", text.index(heading)) + len("```\n")
    return text[start : text.index("```", start)]


class TestReadmeCommands:
    def test_command_block_runs_as_written(self, tmp_path, monkeypatch):
        # Each line of the "Command line" block, run in a directory holding
        # the README's scene example under the name the block uses.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "table_two_circles.txt").write_text(readme_block("Scene files describe"))
        lines = readme_block("## Command line").splitlines()
        assert lines
        for line in lines:
            program, *args = line.split()
            assert program == "coneradon"
            assert main(args) == 0, line
            assert (tmp_path / args[args.index("--outdir") + 1] / "report.json").is_file()


class TestTruncationAlarm3D:
    """``projection_edge_fraction``: max |g| on the four lateral faces over max |g|."""

    def test_centred_bump_reads_near_zero(self, tmp_path):
        # Measured at N = 24: 0.0025.  invert3d reads the same g from the file.
        fout = tmp_path / "f"
        assert run_cli("forward3d", "--n", "24", "--beta", "pi/8", "--outdir", str(fout)) == 0
        edge = load_report(fout)["metrics"]["projection_edge_fraction"]
        assert edge < 0.01
        iout = tmp_path / "i"
        assert run_cli("invert3d", "--input", str(fout / "projection.crtg"),
                       "--outdir", str(iout)) == 0
        assert load_report(iout)["metrics"]["projection_edge_fraction"] == edge

    def test_off_centre_bumps_read_high(self, tmp_path):
        # Bumps reaching the lateral faces: the round trip is worse than
        # returning zero here.  Measured at N = 24: 0.665.
        scene = tmp_path / "two.txt"
        scene.write_text("0.6 0.6 0.3 0.35 1\n-0.6 0 -0.4 0.3 2\n")
        out = tmp_path / "r"
        assert run_cli("roundtrip3d", "--n", "24", "--beta", "pi/4", "--scene", str(scene),
                       "--outdir", str(out)) == 0
        assert load_report(out)["metrics"]["projection_edge_fraction"] > 0.5

    # Each side of the 0.3 warning threshold, measured once at N = 24: one bump
    # at x = 0.45 and beta = pi/8 reads 0.264 and inverts as well as the
    # centred bump; two bumps reaching the faces at beta = pi/12 read 0.391.
    @pytest.mark.parametrize("scene_text, beta, warned", [
        ("0.45 0 0 0.25 1\n", "pi/8", False),
        ("0.6 0.6 0.3 0.35 1\n-0.6 0 -0.4 0.3 2\n", "pi/12", True),
    ], ids=["below", "above"])
    def test_warns_above_threshold(self, tmp_path, capsys, scene_text, beta, warned):
        scene = tmp_path / "scene.txt"
        scene.write_text(scene_text)
        out = tmp_path / "f"
        capsys.readouterr()
        assert run_cli("forward3d", "--n", "24", "--beta", beta, "--scene", str(scene),
                       "--outdir", str(out)) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        metrics = load_report(out)["metrics"]
        assert (metrics["projection_edge_fraction"] > 0.3) is warned
        assert metrics["truncation_warning"] is warned
        assert len(warnings) == int(warned)
        if warned:
            assert "projection_edge_fraction" in warnings[0]

    def test_zero_projection_reads_zero(self, tmp_path):
        ax = AxisSpec(8, -1.0, 1.0)
        write_grid(tmp_path / "zero.crtg", RealGrid3D(ax, ax, ax, np.zeros((8, 8, 8))))
        out = tmp_path / "i"
        assert run_cli("invert3d", "--input", str(tmp_path / "zero.crtg"),
                       "--outdir", str(out)) == 0
        assert load_report(out)["metrics"]["projection_edge_fraction"] == 0.0


class TestReportFractions:
    """``support_fraction`` (forward and round-trip commands),
    ``taper_band_fraction``, ``inversion_level_fraction`` and
    ``inversion_padded_size`` (3D inversions) in report.json."""

    @pytest.mark.parametrize("command", ["forward2d", "roundtrip2d"])
    def test_support_fraction_2d(self, tmp_path, command):
        # The default bump covers 6 of the 24 y rows (measured once).
        assert run_cli(command, "--n", "24", "--outdir", str(tmp_path)) == 0
        metrics = load_report(tmp_path)["metrics"]
        assert metrics["support_fraction"] == 0.25
        assert "taper_band_fraction" not in metrics

    def test_forward3d_then_invert3d(self, tmp_path):
        # The default bump covers 6 of the 24 z levels.  At nz = N the taper
        # keeps 0.25 / tan(pi/8) = 0.604 of the transverse band.
        fout, iout = tmp_path / "f", tmp_path / "i"
        assert run_cli("forward3d", "--n", "24", "--outdir", str(fout)) == 0
        assert load_report(fout)["metrics"]["support_fraction"] == 0.25
        assert run_cli("invert3d", "--input", str(fout / "projection.crtg"),
                       "--outdir", str(iout)) == 0
        metrics = load_report(iout)["metrics"]
        assert metrics["taper_band_fraction"] == pytest.approx(0.604, abs=5e-4)
        assert "support_fraction" not in metrics

    def test_roundtrip3d_at_quarter_pi(self, tmp_path):
        assert run_cli("roundtrip3d", "--n", "24", "--beta", "pi/4",
                       "--outdir", str(tmp_path)) == 0
        metrics = load_report(tmp_path)["metrics"]
        assert metrics["taper_band_fraction"] == pytest.approx(0.25, rel=1e-12)
        assert metrics["support_fraction"] == 0.25

    @pytest.mark.parametrize("top, levels", [(None, 0), (0, 7), (9, 16), (17, 24), (23, 24)])
    def test_inversion_level_fraction(self, tmp_path, top, levels):
        # g nonzero up to level ``top`` of 24: the inversion computes the
        # lowest min(24, top + 7) levels, none for g == 0.
        ax, z_axis = AxisSpec(8, -1.0, 1.0), AxisSpec(24, -1.0, 1.0)
        values = np.zeros((8, 8, 24))
        if top is not None:
            values[:, :, : top + 1] = np.random.default_rng(top).normal(size=(8, 8, top + 1))
        write_grid(tmp_path / "g.crtg", RealGrid3D(ax, ax, z_axis, values))
        out = tmp_path / "i"
        assert run_cli("invert3d", "--input", str(tmp_path / "g.crtg"), "--outdir", str(out)) == 0
        assert load_report(out)["metrics"]["inversion_level_fraction"] == levels / 24

    def test_inversion_level_fraction_roundtrip3d(self, tmp_path):
        # The default bump's top level is 14 of 24 (measured once), and the
        # forward leaves g at exactly 0 above it.
        assert run_cli("roundtrip3d", "--n", "24", "--outdir", str(tmp_path)) == 0
        assert load_report(tmp_path)["metrics"]["inversion_level_fraction"] == 21 / 24

    @pytest.mark.parametrize("beta, size", [("pi/8", 36), ("pi/4", 48)])
    def test_inversion_padded_size(self, tmp_path, beta, size):
        # The default bump at N = 24: over the whole z axis the cones reach
        # tan(beta) * 23 dz, 9.5 or 23 cells, so each axis pads to the
        # 5-smooth size >= 24 + 1 + 10 or 24 + 1 + 23, although the inversion
        # computes only the lowest 21 levels.  invert3d reports the same size
        # for the stored projection.
        fout, iout = tmp_path / "f", tmp_path / "i"
        assert run_cli("roundtrip3d", "--n", "24", "--beta", beta, "--outdir", str(fout)) == 0
        assert load_report(fout)["metrics"]["inversion_padded_size"] == [size, size]
        assert run_cli("invert3d", "--input", str(fout / "projection.crtg"), "--beta", beta,
                       "--outdir", str(iout)) == 0
        assert load_report(iout)["metrics"]["inversion_padded_size"] == [size, size]

    def test_taper_band_fraction_saturates(self, tmp_path):
        # dz ten times finer than dx: the taper stops past the Nyquist circle.
        ax = AxisSpec(8, -1.0, 1.0)
        z_axis = AxisSpec(8, -0.1, 0.1)
        write_grid(tmp_path / "g.crtg", RealGrid3D(ax, ax, z_axis, np.zeros((8, 8, 8))))
        out = tmp_path / "i"
        assert run_cli("invert3d", "--input", str(tmp_path / "g.crtg"), "--outdir", str(out)) == 0
        assert load_report(out)["metrics"]["taper_band_fraction"] == 1.0


class TestOracleCheck:
    def test_runs_and_reports(self, tmp_path):
        out = tmp_path / "oc"
        code = run_cli("oracle-check", "--n", "120", "--seed", "3", "--outdir", str(out))
        assert code == 0
        metrics = load_report(out)["metrics"]
        assert metrics["forward_vs_spectral_rel_l2"] < 0.05
        assert metrics["kernel_max_abs_error"] < 1e-8
        assert metrics["fourier_relation_residual"] < 0.2
        assert metrics["projection_edge_fraction"] < 0.01

    def test_negative_seed_refused_before_any_work(self, tmp_path, capsys):
        assert run_cli("oracle-check", "--n", "16", "--seed", "-1",
                       "--outdir", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert "--seed" in err and "render phantom" not in err

    def test_seed_defaults_to_0(self, tmp_path):
        assert run_cli("oracle-check", "--n", "16", "--outdir", str(tmp_path / "a")) == 0
        assert run_cli("oracle-check", "--n", "16", "--seed", "0",
                       "--outdir", str(tmp_path / "b")) == 0
        reports = [load_report(tmp_path / name) for name in ("a", "b")]
        assert reports[0]["parameters"]["seed"] == 0
        assert reports[0]["metrics"] == reports[1]["metrics"]

    def test_reports_truncated_projection(self, tmp_path):
        # At beta = pi/4 g leaves the x domain, which explains the large
        # identity residual.
        out = tmp_path / "oc"
        code = run_cli("oracle-check", "--n", "60", "--beta", "pi/4", "--outdir", str(out))
        assert code == 0
        assert load_report(out)["metrics"]["projection_edge_fraction"] > 0.5

    def test_sizes_spectral_padding_from_beta(self, tmp_path):
        # The spectral route needs a zero margin of y_extent * tan(beta) = 2
        # here; a fixed pad factor of 2 leaves 1.563.
        out = tmp_path / "oc"
        code = run_cli("oracle-check", "--n", "120", "--beta", "pi/4", "--outdir", str(out))
        assert code == 0
        assert load_report(out)["metrics"]["forward_vs_spectral_rel_l2"] < 0.05


class TestExitCodes:
    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["roundtrip2d", "--bogus"])
        assert info.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_pad_factor_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["roundtrip3d", "--pad-factor", "2"])
        assert info.value.code == 1
        assert "unrecognized arguments: --pad-factor 2" in capsys.readouterr().err

    def test_bad_angle_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["roundtrip2d", "--beta", "half"])
        assert info.value.code == 1

    def test_invalid_parameters_exit_1(self, tmp_path, capsys):
        assert run_cli("roundtrip2d", "--n", "4", "--outdir", str(tmp_path)) == 1
        assert run_cli("roundtrip2d", "--beta", "2.0", "--outdir", str(tmp_path)) == 1
        # -1e12 is finite but needs an 873 TiB vertex grid.
        for ymin in ("-inf", "-1e12", "nan"):
            code = run_cli("roundtrip2d", "--n", "16", f"--vertex-ymin={ymin}",
                           "--outdir", str(tmp_path))
            assert code == 1
            assert "Traceback" not in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path):
        assert run_cli("invert2d", "--input", str(tmp_path / "nope.crtg"),
                       "--outdir", str(tmp_path)) == 2

    def test_malformed_grid_exits_2(self, tmp_path):
        bad = tmp_path / "bad.crtg"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert run_cli("invert2d", "--input", str(bad), "--outdir", str(tmp_path)) == 2

    def test_oversized_grid_header_exits_2(self, tmp_path):
        huge = tmp_path / "huge.crtg"
        header = b"CRTG" + struct.pack("<HH", 1, 3) + struct.pack("<3I", 65535, 65535, 65535)
        data = header + struct.pack("<6d", 0, 1, 0, 1, 0, 1)
        huge.write_bytes(data + b"\x00" * (100 - len(data)))
        assert run_cli("invert3d", "--input", str(huge), "--outdir", str(tmp_path)) == 2

    @pytest.mark.parametrize("make_args,code,message", [
        pytest.param(wrapped_dims_grid, 2, "truncated", id="wrapped-dims-crtg"),
        pytest.param(infinite_extent_grid, 2, "invalid axis 0", id="infinite-extent-crtg"),
        pytest.param(lambda tmp: ["roundtrip2d", "--n", "16", "--domain=-1e308,1e308"], 1,
                     "overflows", id="infinite-extent-domain"),
        pytest.param(non_utf8_scene, 2, "utf-8", id="non-utf8-scene"),
        pytest.param(short_z_grid, 1, "at least 6 samples along z", id="short-z-crtg"),
        # The padded sizes near a right angle (~1.4e12 per axis) are refused
        # by arithmetic, before the inversion sees the short z axis.
        pytest.param(lambda tmp: short_z_grid(tmp) + ["--beta", "1.57079632679"], 1,
                     "physical memory", id="short-z-crtg-near-right-angle"),
        pytest.param(lambda tmp: ["roundtrip2d", "--n", "16", "--beta", "pi/8",
                                  f"--vertex-ymin={deepest_vertex_ymin() - 2.0 / 15!r}"], 1,
                     f"--vertex-ymin {deepest_vertex_ymin() - 2.0 / 15!r} is below "
                     f"{deepest_vertex_ymin()!r}", id="vertex-ymin-one-row-too-deep"),
        pytest.param(lambda tmp: ["roundtrip2d", "--n", "16", "--vertex-ymin", "nan"], 1,
                     "--vertex-ymin must be finite, got nan", id="nan-vertex-ymin"),
        pytest.param(lambda tmp: ["roundtrip2d", "--n", "16", "--beta", "2.0"], 1,
                     "--beta must lie in (0, pi/2), got 2.0", id="beta-above-right-angle"),
        pytest.param(lambda tmp: ["roundtrip2d", "--n", "4"], 1, "--n must be >= 8, got 4",
                     id="n-below-8"),
        pytest.param(lambda tmp: ["roundtrip2d", "--n", "16", "--domain", "-1,0,1"], 1,
                     "--domain needs 2, 4 or 6 comma-separated numbers", id="domain-odd-count"),
        pytest.param(lambda tmp: ["roundtrip2d", "--n", "16", "--domain", "1,-1"], 1,
                     "--domain bounds must satisfy max > min, got [1.0, -1.0]",
                     id="domain-reversed"),
        pytest.param(lambda tmp: ["roundtrip2d", "--n", "16", "--domain", "-1,1,-1,1,-1,1"], 1,
                     "--domain specifies 3 axes but command needs 2", id="domain-3d-for-2d"),
        pytest.param(lambda tmp: ["roundtrip2d", "--n", "16", "--vertex-ymin", "0.5"], 1,
                     "--vertex-ymin 0.5 lies above y_min -1.0", id="vertex-ymin-above-y-min"),
        pytest.param(lambda tmp: ["forward2d", "--input", str(matrix_input_grid(tmp, 2)),
                                  "--vertex-ymin", "-0.5"], 1,
                     "--vertex-ymin -0.5 lies above y_min -1.0",
                     id="vertex-ymin-above-y-min-with-input"),
        pytest.param(lambda tmp: ["oracle-check", "--n", "16", "--seed", "-1"], 1,
                     "--seed must be >= 0, got -1", id="negative-seed"),
        pytest.param(lambda tmp: ["forward3d", "--n", "12", "--vertex-ymin", "-1.5"], 1,
                     "--vertex-ymin does not apply", id="vertex-ymin-on-3d"),
        pytest.param(lambda tmp: ["roundtrip2d", "--n", "16", "--dim", "3"], 1,
                     "--dim does not apply", id="dim-on-roundtrip2d"),
        pytest.param(lambda tmp: ["roundtrip2d", "--n", "16", "--seed", "7"], 1,
                     "--seed does not apply to roundtrip2d", id="seed-on-roundtrip2d"),
        pytest.param(lambda tmp: ["phantom", "--n", "16", "--seed", "0"], 1,
                     "--seed does not apply to phantom", id="seed-on-phantom"),
        pytest.param(lambda tmp: ["forward3d", "--n", "12", "--masked-metrics"], 1,
                     "--masked-metrics does not apply to forward3d",
                     id="masked-metrics-on-forward3d"),
        pytest.param(lambda tmp: ["oracle-check", "--n", "16", "--masked-metrics"], 1,
                     "--masked-metrics does not apply to oracle-check",
                     id="masked-metrics-on-oracle-check"),
        pytest.param(lambda tmp: ["oracle-check", "--n", "16", "--csv"], 1,
                     "--csv does not apply to oracle-check", id="csv-on-oracle-check"),
        pytest.param(lambda tmp: ["roundtrip2d", "--n", "16", "--input", str(tmp / "f.crtg")], 1,
                     "--input does not apply to roundtrip2d", id="input-on-roundtrip2d"),
        pytest.param(lambda tmp: ["invert2d", "--scene", str(tmp / "scene.txt")], 1,
                     "--scene does not apply to invert2d", id="scene-on-invert2d"),
        pytest.param(lambda tmp: ["forward2d", "--input", str(tmp / "f.crtg"),
                                  "--scene", str(tmp / "scene.txt")], 1,
                     "--scene does not apply to forward2d with --input", id="scene-with-input"),
        # A bad --radius exits 1 whether or not a scene line reads it.
        pytest.param(lambda tmp: radius_from_option(-1), 1, "--radius must be finite and > 0",
                     id="negative-radius"),
        pytest.param(lambda tmp: radius_from_option(-1, tmp), 1, "--radius must be finite and > 0",
                     id="negative-radius-in-scene"),
        pytest.param(lambda tmp: radius_from_option(0), 1, "--radius must be finite and > 0",
                     id="zero-radius"),
        pytest.param(lambda tmp: radius_from_option("inf"), 1, "--radius must be finite and > 0",
                     id="infinite-radius"),
        pytest.param(lambda tmp: radius_from_option("nan"), 1, "--radius must be finite and > 0",
                     id="nan-radius"),
        pytest.param(lambda tmp: ["invert2d"], 1, "needs --input", id="invert2d-without-input"),
        pytest.param(lambda tmp: ["invert3d", "--input", str(matrix_input_grid(tmp, 2))], 2,
                     "expected a 3D grid, found 2D", id="invert3d-of-2d-grid"),
        pytest.param(comments_only_scene, 2, "scene file defines no bumps",
                     id="comments-only-scene"),
        # argparse refuses the value itself, exiting before run().
        pytest.param(lambda tmp: ["phantom", "--domain", "1,x"], 1, "cannot parse domain",
                     id="domain-not-a-number"),
        pytest.param(report_path_is_a_directory, 2, "report.json",
                     id="report-path-is-a-directory"),
    ])
    def test_malformed_input_exit_code(self, tmp_path, capsys, make_args, code, message):
        args = make_args(tmp_path) + ["--outdir", str(tmp_path / "out")]
        try:
            exit_code = run_cli(*args)
        except SystemExit as exc:  # the parser's own refusals
            exit_code = exc.code
        assert exit_code == code
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["forward3d", "invert3d", "roundtrip3d", "oracle-check"])
    def test_padded_spectrum_above_physical_memory_exits_1(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # Every spectral route sizes its padding by grids._padded_sizes,
        # which refuses a spectrum larger than the physical memory.
        args = [command, "--n", "12", "--outdir", str(tmp_path / "out")]
        if command == "invert3d":
            args = short_z_grid(tmp_path) + args[3:]
        monkeypatch.setattr(grids, "_physical_memory", lambda: 1024)
        assert run_cli(*args) == 1
        err = capsys.readouterr().err
        assert "physical memory" in err and "Traceback" not in err

    def test_deepest_vertex_ymin_exits_0(self, tmp_path):
        ymin = deepest_vertex_ymin()
        assert run_cli("roundtrip2d", "--n", "16", "--beta", "pi/8", f"--vertex-ymin={ymin!r}",
                       "--outdir", str(tmp_path)) == 0
        projection = read_grid(tmp_path / "projection.crtg")
        assert projection.y_axis.min <= ymin

    def test_bad_scene_exits_2(self, tmp_path):
        scene = tmp_path / "scene.txt"
        scene.write_text("not a number line\n")
        assert run_cli("phantom", "--scene", str(scene), "--outdir", str(tmp_path)) == 2

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["center", "radius", "intensity"])
    def test_non_finite_scene_value_exits_2_naming_its_line(
        self, tmp_path, capsys, field, value, n
    ):
        # At n = 8 the default bump covers no sample, so only the scene's own
        # check can catch the value.
        line = {"center": f"{value} 0 0.2 1", "radius": f"0 0 {value} 1",
                "intensity": f"0 0 0.2 {value}"}[field]
        scene = tmp_path / "scene.txt"
        scene.write_text(line + "\n")
        assert run_cli("roundtrip2d", "--n", str(n), "--scene", str(scene),
                       "--outdir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert "scene line 1: bump values must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, inside, outside", [
        ("phantom", "0 0 0.2 1", "0.9 0 0.2 1"),
        ("roundtrip2d", "0 0 0.2 1", "0.9 0 0.2 1"),
        ("roundtrip3d", "0 0 0 0.2 1", "0.9 0 0 0.2 1"),
    ])
    def test_bump_outside_the_grid_names_its_line(
        self, tmp_path, capsys, command, inside, outside
    ):
        scene = tmp_path / "scene.txt"
        scene.write_text(f"# two bumps\n{inside}\n{outside}\n")
        assert run_cli(command, "--n", "16", "--scene", str(scene),
                       "--outdir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert f"{scene}: scene line 3: bump at (0.9, 0.0" in err
        assert "Traceback" not in err

    def test_default_bump_outside_the_grid(self, tmp_path, capsys):
        assert run_cli("phantom", "--n", "16", "--domain", "0.5,1",
                       "--outdir", str(tmp_path)) == 2
        assert capsys.readouterr().err.endswith(
            "input/output failure: bump at (0.2, 0.1) with radius 0.25 is not strictly "
            "inside the grid domain\n")

    @pytest.mark.parametrize("make_args", [
        pytest.param(lambda tmp: wide_axes_grid(tmp, 3, 1e150), id="invert3d"),
        pytest.param(lambda tmp: wide_axes_grid(tmp, 2, 1e160), id="invert2d"),
        pytest.param(lambda tmp: ["roundtrip2d", "--n", "8", "--domain=-1e160,1e160"],
                     id="roundtrip2d"),
    ])
    def test_overflow_exits_3(self, tmp_path, capsys, make_args):
        code = main(make_args(tmp_path) + ["--outdir", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("numerical failure: ")
        assert "Traceback" not in err
        assert "RuntimeWarning" not in err

    def test_wide_domain_overflow_prints_no_warning(self, tmp_path, capsys):
        # The bump's squared distances overflow to inf, outside every bump,
        # without a numpy warning; the inversion then overflows.
        assert run_cli("roundtrip2d", "--n", "8", "--domain=-1e160,1e160",
                       "--outdir", str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err
        assert err.splitlines()[-1].startswith("numerical failure: ")

    @pytest.mark.parametrize("dim", [0, 1, 4])
    def test_run_refuses_dim_other_than_2_or_3(self, tmp_path, capsys, dim):
        # argparse's choices never reach run(), which checks the value itself.
        assert run(RunConfig(command="phantom", dim=dim, output_dir=str(tmp_path))) == 1
        assert capsys.readouterr().err == f"error: --dim must be 2 or 3, got {dim}\n"
        assert not (tmp_path / "report.json").exists()

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # A projection of huge magnitude overflows the difference quotients;
        # the failure is reported by the exit-3 message alone.
        ax = AxisSpec(16, -1.0, 1.0)
        values = np.zeros((16, 16))
        values[5, :] = 1e308
        write_grid(tmp_path / "huge.crtg", RealGrid2D(ax, ax, values))
        code = run_cli("invert2d", "--input", str(tmp_path / "huge.crtg"),
                       "--outdir", str(tmp_path))
        assert code == 3
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "numerical failure: grid values must all be finite"
        assert "RuntimeWarning" not in err

    def test_numerical_failure_exits_3_in_3d(self, tmp_path, capsys):
        # One level of huge magnitude overflows the 3D inversion's transforms.
        ax = AxisSpec(16, -1.0, 1.0)
        values = np.zeros((16, 16, 16))
        values[:, :, 5] = 1e308
        write_grid(tmp_path / "huge.crtg", RealGrid3D(ax, ax, ax, values))
        code = run_cli("invert3d", "--input", str(tmp_path / "huge.crtg"),
                       "--outdir", str(tmp_path))
        assert code == 3
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "numerical failure: grid values must all be finite"
        assert "RuntimeWarning" not in err


# Which options each run reads, written out by hand: "+" accepts the option,
# "-" refuses it (exit 1, naming the flag) and report.json records it as null.
# A forward command given --input is the run "<command> with --input"; "/"
# marks --input in the row without it.
MATRIX_FLAGS = ("--beta", "--n", "--domain", "--input", "--outdir", "--scene", "--seed",
                "--radius", "--vertex-ymin", "--masked-metrics", "--csv", "--dim")
OPTION_MATRIX = {
    #                        beta n domain input outdir scene seed radius vymin masked csv dim
    "phantom":                "-  +  +      -     +      +     -    +      -     -      +   +",
    "forward2d":              "+  +  +      /     +      +     -    +      +     -      +   -",
    "forward2d with --input": "+  -  -      +     +      -     -    -      +     -      +   -",
    "invert2d":               "+  -  -      +     +      -     -    -      -     -      +   -",
    "roundtrip2d":            "+  +  +      -     +      +     -    +      +     +      +   -",
    "forward3d":              "+  +  +      /     +      +     -    +      -     -      +   -",
    "forward3d with --input": "+  -  -      +     +      -     -    -      -     -      +   -",
    "invert3d":               "+  -  -      +     +      -     -    -      -     -      +   -",
    "roundtrip3d":            "+  +  +      -     +      +     -    +      -     +      +   -",
    "oracle-check":           "+  +  +      -     +      +     +    +      -     -      -   -",
}
# report.json's parameter key for each flag; --outdir and --csv are not recorded.
REPORT_KEYS = {"--beta": "beta", "--n": "n", "--domain": "domain", "--input": "input",
               "--scene": "scene", "--seed": "seed", "--radius": "default_radius",
               "--vertex-ymin": "vertex_ymin", "--masked-metrics": "masked_metrics", "--dim": "dim"}
MATRIX_CELLS = [(row, flag, mark) for row, marks in OPTION_MATRIX.items()
                for flag, mark in zip(MATRIX_FLAGS, marks.split()) if mark != "/"]


def matrix_rank(row):
    return 3 if "3d" in row else 2


def matrix_base_args(row, tmp_path):
    """The row's run with nothing optional given; 8 samples where it renders."""
    command = row.split()[0]
    args = [command, "--outdir", str(tmp_path / "out")]
    if "with --input" in row or command.startswith("invert"):
        args += ["--input", str(matrix_input_grid(tmp_path, matrix_rank(row)))]
    if OPTION_MATRIX[row].split()[MATRIX_FLAGS.index("--n")] == "+":
        args += ["--n", "8"]
    return args


def matrix_input_grid(tmp_path, rank):
    path = tmp_path / f"grid{rank}d.crtg"
    ax = AxisSpec(8, -1.0, 1.0)
    grid_type = RealGrid2D if rank == 2 else RealGrid3D
    write_grid(path, grid_type(*[ax] * rank, np.zeros((8,) * rank)))
    return path


def matrix_option_args(flag, row, tmp_path):
    if flag in ("--masked-metrics", "--csv"):
        return [flag]
    if flag == "--input":
        return [flag, str(matrix_input_grid(tmp_path, matrix_rank(row)))]
    if flag == "--scene":
        scene = tmp_path / "scene.txt"
        scene.write_text("0.2 0.1 0.25 1\n" if matrix_rank(row) == 2 else "0.2 0.1 0 0.25 1\n")
        return [flag, str(scene)]
    values = {"--beta": "pi/6", "--n": "9", "--domain": "-2,2", "--outdir": str(tmp_path / "out"),
              "--seed": "3", "--radius": "0.3", "--vertex-ymin": "-1.2", "--dim": "2"}
    return [f"{flag}={values[flag]}"]


class TestOptionMatrix:
    """Every option x run: accepted where the run reads it, refused elsewhere,
    and recorded as null in report.json where the run does not read it."""

    @pytest.mark.parametrize("row", list(OPTION_MATRIX))
    def test_report_records_null_for_unread_options(self, tmp_path, row):
        assert run_cli(*matrix_base_args(row, tmp_path)) == 0
        params = load_report(tmp_path / "out")["parameters"]
        for flag, mark in zip(MATRIX_FLAGS, OPTION_MATRIX[row].split()):
            if mark == "-" and flag in REPORT_KEYS and flag != "--dim":
                assert params[REPORT_KEYS[flag]] is None, flag
        assert params["dim"] == matrix_rank(row)  # the grid rank that ran

    @pytest.mark.parametrize("row, flag, mark", MATRIX_CELLS,
                             ids=[f"{row.replace(' with --input', '+input')}:{flag[2:]}"
                                  for row, flag, _ in MATRIX_CELLS])
    def test_accepted_or_refused(self, tmp_path, capsys, row, flag, mark):
        args = matrix_base_args(row, tmp_path) + matrix_option_args(flag, row, tmp_path)
        code = run_cli(*args)
        err = capsys.readouterr().err
        if mark == "+":
            assert code == 0, err
            if flag in REPORT_KEYS:
                assert load_report(tmp_path / "out")["parameters"][REPORT_KEYS[flag]] is not None
        else:
            assert code == 1
            assert f"error: {flag} does not apply to {row}\n" in err


# The exact metrics and outputs keys of each run, written out by hand: run
# arguments ("input2d"/"input3d" stand for a zero grid of that rank), then its
# metrics keys and its outputs keys.  A run's keys are the union of its steps':
# render, forward (with the truncation alarm in 3D), invert, round-trip score.
REPORT_SCHEMA = {
    "phantom": (
        "phantom --n 16",
        "phantom_heatmap_max phantom_heatmap_min phantom_l2 phantom_max",
        "phantom phantom_heatmap"),
    "phantom-3d": (
        "phantom --dim 3 --n 12",
        "phantom_heatmap_max phantom_heatmap_min phantom_l2 phantom_max",
        "phantom phantom_heatmap"),
    "forward2d": (
        "forward2d --n 16",
        "phantom_heatmap_max phantom_heatmap_min phantom_l2 phantom_max "
        "projection_heatmap_max projection_heatmap_min projection_max support_fraction",
        "phantom phantom_heatmap projection projection_heatmap"),
    "forward2d-input": (
        "forward2d --input input2d",
        "projection_heatmap_max projection_heatmap_min projection_max support_fraction",
        "projection projection_heatmap"),
    "forward2d-vertex-ymin": (
        "forward2d --n 16 --vertex-ymin -1.5",
        "phantom_heatmap_max phantom_heatmap_min phantom_l2 phantom_max "
        "projection_heatmap_max projection_heatmap_min projection_max support_fraction",
        "phantom phantom_heatmap projection projection_heatmap"),
    "invert2d": (
        "invert2d --input input2d",
        "reconstruction_heatmap_max reconstruction_heatmap_min",
        "reconstruction reconstruction_heatmap"),
    "roundtrip2d": (
        "roundtrip2d --n 16",
        "max_abs_error phantom_heatmap_max phantom_heatmap_min phantom_l2 phantom_max "
        "projection_heatmap_max projection_heatmap_min projection_max "
        "reconstruction_heatmap_max reconstruction_heatmap_min relative_l2 support_fraction",
        "phantom phantom_heatmap projection projection_heatmap reconstruction "
        "reconstruction_heatmap"),
    "roundtrip2d-masked": (
        "roundtrip2d --n 16 --masked-metrics",
        "max_abs_error phantom_heatmap_max phantom_heatmap_min phantom_l2 phantom_max "
        "projection_heatmap_max projection_heatmap_min projection_max "
        "reconstruction_heatmap_max reconstruction_heatmap_min relative_l2 relative_l2_masked "
        "support_fraction",
        "phantom phantom_heatmap projection projection_heatmap reconstruction "
        "reconstruction_heatmap"),
    "roundtrip2d-vertex-ymin": (
        "roundtrip2d --n 16 --vertex-ymin -1.5",
        "max_abs_error phantom_heatmap_max phantom_heatmap_min phantom_l2 phantom_max "
        "projection_heatmap_max projection_heatmap_min projection_max "
        "reconstruction_heatmap_max reconstruction_heatmap_min relative_l2 support_fraction",
        "phantom phantom_heatmap projection projection_heatmap reconstruction "
        "reconstruction_heatmap"),
    "roundtrip2d-csv": (
        "roundtrip2d --n 16 --csv",
        "max_abs_error phantom_heatmap_max phantom_heatmap_min phantom_l2 phantom_max "
        "projection_heatmap_max projection_heatmap_min projection_max "
        "reconstruction_heatmap_max reconstruction_heatmap_min relative_l2 support_fraction",
        "phantom phantom_csv phantom_heatmap projection projection_csv projection_heatmap "
        "reconstruction reconstruction_csv reconstruction_heatmap"),
    "forward3d": (
        "forward3d --n 12",
        "phantom_heatmap_max phantom_heatmap_min phantom_l2 phantom_max "
        "projection_edge_fraction projection_heatmap_max projection_heatmap_min projection_max "
        "support_fraction truncation_warning",
        "phantom phantom_heatmap projection projection_heatmap"),
    "forward3d-input": (
        "forward3d --input input3d",
        "projection_edge_fraction projection_heatmap_max projection_heatmap_min projection_max "
        "support_fraction truncation_warning",
        "projection projection_heatmap"),
    "invert3d": (
        "invert3d --input input3d",
        "inversion_level_fraction inversion_padded_size projection_edge_fraction "
        "reconstruction_heatmap_max reconstruction_heatmap_min taper_band_fraction "
        "truncation_warning",
        "reconstruction reconstruction_heatmap"),
    "roundtrip3d": (
        "roundtrip3d --n 12",
        "inversion_level_fraction inversion_padded_size max_abs_error phantom_heatmap_max "
        "phantom_heatmap_min phantom_l2 phantom_max projection_edge_fraction "
        "projection_heatmap_max projection_heatmap_min projection_max "
        "reconstruction_heatmap_max reconstruction_heatmap_min relative_l2 support_fraction "
        "taper_band_fraction truncation_warning",
        "phantom phantom_heatmap projection projection_heatmap reconstruction "
        "reconstruction_heatmap"),
    "roundtrip3d-csv": (
        "roundtrip3d --n 12 --csv",
        "inversion_level_fraction inversion_padded_size max_abs_error phantom_heatmap_max "
        "phantom_heatmap_min phantom_l2 phantom_max projection_edge_fraction "
        "projection_heatmap_max projection_heatmap_min projection_max "
        "reconstruction_heatmap_max reconstruction_heatmap_min relative_l2 support_fraction "
        "taper_band_fraction truncation_warning",
        "phantom phantom_csv phantom_heatmap projection projection_csv projection_heatmap "
        "reconstruction reconstruction_csv reconstruction_heatmap"),
    # oracle-check saves no grid.
    "oracle-check": (
        "oracle-check --n 16",
        "forward_vs_spectral_rel_l2 fourier_relation_residual kernel_max_abs_error "
        "projection_edge_fraction",
        ""),
}


class TestReportSchema:
    @pytest.mark.parametrize("name", list(REPORT_SCHEMA))
    def test_metrics_and_outputs_keys(self, tmp_path, name):
        args, metrics, outputs = REPORT_SCHEMA[name]
        inputs = {f"input{rank}d": str(matrix_input_grid(tmp_path, rank)) for rank in (2, 3)}
        args = [inputs.get(arg, arg) for arg in args.split()]
        assert run_cli(*args, "--outdir", str(tmp_path / "out")) == 0
        report = load_report(tmp_path / "out")
        assert sorted(report["metrics"]) == metrics.split()
        assert sorted(report["outputs"]) == outputs.split()

    def test_every_command_has_a_row(self):
        assert set(_COMMANDS) <= set(REPORT_SCHEMA)


class TestAngleParsing:
    @pytest.mark.parametrize("text,value", [
        ("pi/8", math.pi / 8), ("pi/4", math.pi / 4), ("0.3", 0.3), (" pi/6 ", math.pi / 6),
        ("3pi/8", 3 * math.pi / 8),
    ])
    def test_accepted(self, tmp_path, text, value):
        out = tmp_path / "run"
        assert run_cli("forward2d", "--n", "8", "--beta", text, "--outdir", str(out)) == 0
        assert load_report(out)["parameters"]["beta"] == pytest.approx(value)

    @pytest.mark.parametrize("text", ["3pi/0", "pi/"])
    def test_refused(self, tmp_path, capsys, text):
        with pytest.raises(SystemExit) as exc:
            run_cli("forward2d", "--n", "8", "--beta", text, "--outdir", str(tmp_path))
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"cannot parse angle '{text}'" in err and "Traceback" not in err


class TestModuleEntryPoint:
    def test_python_dash_m_help(self):
        # ``python -m coneradon`` runs the CLI from a checkout on PYTHONPATH.
        src = str(Path(coneradon.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "coneradon", "--help"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: coneradon")
