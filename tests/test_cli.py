import json
import math
import struct

import numpy as np
import pytest

from coneradon.cli import main
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


def non_utf8_scene(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_bytes("0.2 0.1 0.25 1  # caf\xe9\n".encode("latin-1"))
    return ["phantom", "--scene", str(path)]


class TestRoundtrip2D:
    def test_basic_run(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("roundtrip2d", "--beta", "pi/8", "--n", "48", "--outdir", str(out))
        assert code == 0
        report = load_report(out)
        assert report["parameters"]["beta"] == pytest.approx(math.pi / 8)
        assert report["parameters"]["pad_factor"] is None
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
            assert run_cli("roundtrip2d", "--n", "32", "--seed", "7",
                           "--outdir", str(out)) == 0
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


class TestFileChain:
    def test_phantom_forward_invert(self, tmp_path):
        pout = tmp_path / "p"
        assert run_cli("phantom", "--n", "40", "--outdir", str(pout)) == 0
        fout = tmp_path / "f"
        assert run_cli("forward2d", "--n", "40", "--input", str(pout / "phantom.crtg"),
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
                       "--pad-factor", "3", "--outdir", str(iout)) == 0
        recon = read_grid(iout / "reconstruction.crtg")
        assert recon.axes() == projection.axes()
        assert (iout / "reconstruction.pgm").exists()
        report = load_report(iout)
        assert report["parameters"]["pad_factor"] == 3
        assert {"reconstruction_heatmap_min", "reconstruction_heatmap_max"} <= set(report["metrics"])

    def test_roundtrip3d_small(self, tmp_path):
        out = tmp_path / "r3"
        code = run_cli("roundtrip3d", "--n", "16", "--outdir", str(out))
        assert code == 0
        report = load_report(out)
        assert math.isfinite(report["metrics"]["relative_l2"])


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

    def test_bad_angle_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["roundtrip2d", "--beta", "half"])
        assert info.value.code == 1

    def test_invalid_parameters_exit_1(self, tmp_path, capsys):
        assert run_cli("roundtrip2d", "--n", "4", "--outdir", str(tmp_path)) == 1
        assert run_cli("roundtrip2d", "--beta", "2.0", "--outdir", str(tmp_path)) == 1
        assert run_cli("roundtrip3d", "--pad-factor", "9", "--outdir", str(tmp_path)) == 1
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
        pytest.param(lambda tmp: ["roundtrip2d", "--n", "16", "--beta", "pi/8",
                                  f"--vertex-ymin={deepest_vertex_ymin() - 2.0 / 15!r}"], 1,
                     repr(deepest_vertex_ymin()), id="vertex-ymin-one-row-too-deep"),
        pytest.param(lambda tmp: ["forward3d", "--n", "12", "--vertex-ymin", "-1.5"], 1,
                     "--vertex-ymin does not apply", id="vertex-ymin-on-3d"),
        pytest.param(lambda tmp: ["roundtrip2d", "--n", "16", "--dim", "3"], 1,
                     "--dim does not apply", id="dim-on-roundtrip2d"),
        pytest.param(lambda tmp: ["roundtrip2d", "--n", "16", "--pad-factor", "4"], 1,
                     "--pad-factor does not apply", id="pad-factor-on-2d"),
        pytest.param(lambda tmp: ["oracle-check", "--n", "16", "--pad-factor", "3"], 1,
                     "--pad-factor does not apply", id="pad-factor-on-oracle-check"),
    ])
    def test_malformed_input_exit_code(self, tmp_path, capsys, make_args, code, message):
        args = make_args(tmp_path) + ["--outdir", str(tmp_path / "out")]
        assert run_cli(*args) == code
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

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

    def test_numerical_failure_exits_3(self, tmp_path):
        # A projection of huge magnitude overflows the difference quotients.
        ax = AxisSpec(16, -1.0, 1.0)
        values = np.zeros((16, 16))
        values[5, :] = 1e308
        write_grid(tmp_path / "huge.crtg", RealGrid2D(ax, ax, values))
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli("invert2d", "--input", str(tmp_path / "huge.crtg"),
                           "--outdir", str(tmp_path))
        assert code == 3


class TestAngleParsing:
    @pytest.mark.parametrize("text,value", [
        ("pi/8", math.pi / 8), ("pi/4", math.pi / 4), ("0.3", 0.3), (" pi/6 ", math.pi / 6),
    ])
    def test_accepted(self, tmp_path, text, value):
        out = tmp_path / "run"
        assert run_cli("phantom", "--n", "16", "--beta", text, "--outdir", str(out)) == 0
        assert load_report(out)["parameters"]["beta"] == pytest.approx(value)
