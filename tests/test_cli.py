import argparse
import inspect
import warnings

import numpy as np
import pytest

from isogauss import datafiles
from isogauss import cli
from isogauss.cli import build_parser, main
from isogauss.grid import build_chart
from isogauss.reconstruct import box_error, observed_order
from isogauss.surfaces import CATALOG, generate

from layout import cf


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def ellipsoid_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ell"
    code = run_cli("forward", "--surface", "ellipsoid", "--axes", "1,1.5,2",
                   "--grid", "33x33", "--out", str(out))
    assert code == 0
    return out


class TestForward:
    def test_writes_two_files(self, ellipsoid_files):
        assert (ellipsoid_files.parent / "ell.dataset.txt").exists()
        assert (ellipsoid_files.parent / "ell.oracle.txt").exists()

    def test_unknown_surface_exit_2(self, tmp_path, capsys):
        assert run_cli("forward", "--surface", "moebius",
                       "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("spacing, origin", [
        ("1e300,1e300", "0,0"), ("1e200,0.1", "0,0"), ("1e300,0.1", "-1e308,0")])
    def test_extreme_spacing_exit_2(self, tmp_path, capsys, spacing, origin):
        # a spacing whose square overflows is a chart error, not a traceback
        for command in (("forward", "--out", str(tmp_path / "x")),
                        ("roundtrip",)):
            assert run_cli(*command, "--surface", "ellipsoid", "--grid", "9x9",
                           "--spacing", spacing, "--origin", origin) == 2
            assert "error: " in capsys.readouterr().err

    def test_bad_window_exit_2(self, tmp_path):
        code = run_cli("forward", "--surface", "round-sphere", "--grid", "9x9",
                       "--spacing", "0.5,0.2", "--origin", "-0.5,0",
                       "--out", str(tmp_path / "x"))
        assert code == 2

    def test_default_prefix_is_the_surface_name(self, tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli("forward", "--surface", "helicoid", "--grid", "9x9") == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "helicoid_9x9.dataset.txt", "helicoid_9x9.oracle.txt"]

    def test_codim_forward(self, tmp_path):
        out = tmp_path / "torus"
        assert run_cli("forward", "--surface", "clifford-torus", "--r1", "1",
                       "--r2", "1.3", "--grid", "17x17", "--out", str(out)) == 0
        ds = datafiles.read_dataset(str(out) + ".dataset.txt")
        assert ds.codim == 2 and "frame" in ds.blocks


class TestCheck:
    def test_admissible_exit_0_and_report(self, ellipsoid_files, tmp_path, capsys):
        report = tmp_path / "report.txt"
        code = run_cli("check", str(ellipsoid_files) + ".dataset.txt",
                       "--out", str(report))
        assert code == 0
        parsed = datafiles.parse_report(report.read_text())
        assert parsed["verdict"] == "admissible"
        from isogauss.admissibility import RESIDUAL_KEYS
        assert set(RESIDUAL_KEYS) <= set(parsed["residuals"])

    def test_perturbed_exit_1(self, tmp_path, capsys):
        out = tmp_path / "pert"
        assert run_cli("forward", "--surface", "ellipsoid", "--axes", "1,1.5,2",
                       "--grid", "33x33", "--perturb-nu", "1e-2",
                       "--seed", "3", "--out", str(out)) == 0
        code = run_cli("check", str(out) + ".dataset.txt")
        captured = capsys.readouterr()
        assert code == 1
        assert "failed_step" in captured.out

    def test_cylinder_exit_3(self, tmp_path, capsys):
        out = tmp_path / "cyl"
        run_cli("forward", "--surface", "cylinder", "--grid", "17x17",
                "--out", str(out))
        assert run_cli("check", str(out) + ".dataset.txt") == 3

    def test_malformed_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a dataset\n")
        assert run_cli("check", str(bad)) == 2

    def test_metric_whose_inverse_overflows_exit_2(self, tmp_path, capsys):
        # g scaled by 1e-310 is positive definite, but g^{-1} overflows to
        # inf: the identity check must refuse it (not read a NaN defect as
        # passing), and nothing but the error line may reach stderr
        surf = CATALOG["ellipsoid"]()
        data = generate(surf, surf.default_chart(9))
        path = tmp_path / "tiny.dataset.txt"
        datafiles.write_dataset(path, datafiles.gauss_dataset(
            data.chart, data.n, 1e-310 * data.g, frame=data.frame))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("check", str(path)) == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: metric inversion failed")

    def test_third_form_that_overflows_exit_2(self, tmp_path, capsys):
        # at spacing 1e-300, dnu ~ 1e300 is invertible but k = dnu^T dnu
        # overflows: a sampling error, not a degenerate Gauss map, and
        # nothing but the error line may reach stderr
        surf = CATALOG["ellipsoid"]()
        data = generate(surf, surf.default_chart(9))
        path = tmp_path / "fine.dataset.txt"
        chart = build_chart(2, (9, 9), (1e-300, 1e-300))
        datafiles.write_dataset(path, datafiles.gauss_dataset(
            chart, data.n, data.g, frame=data.frame))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("check", str(path)) == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: the third form k = dnu^T dnu is not "
                               "finite")

    def test_non_unit_frame_block_exit_2(self, ellipsoid_files, tmp_path,
                                         capsys):
        # d = 1 normals are unit length in a one-column frame block too
        ds = datafiles.read_dataset(str(ellipsoid_files) + ".dataset.txt")
        frame = datafiles.pack_frame(2.0 * datafiles.dataset_normals(ds))
        bad = tmp_path / "bad.dataset.txt"
        datafiles.write_dataset(bad, datafiles.Dataset(
            kind=ds.kind, chart=ds.chart, n=ds.n,
            blocks={"g": ds.blocks["g"], "frame": frame}))
        assert run_cli("check", str(bad)) == 2
        assert "not unit length" in capsys.readouterr().err

    def test_clifford_exit_0(self, tmp_path, capsys):
        out = tmp_path / "torus"
        run_cli("forward", "--surface", "clifford-torus", "--grid", "25x25",
                "--out", str(out))
        assert run_cli("check", str(out) + ".dataset.txt") == 0


class TestReconstruct:
    def test_admissible_writes_outputs(self, ellipsoid_files, tmp_path, capsys):
        out = tmp_path / "rec"
        code = run_cli("reconstruct", str(ellipsoid_files) + ".dataset.txt",
                       "--out", str(out))
        assert code == 0
        imm = datafiles.read_dataset(str(out) + ".immersion.txt")
        assert imm.kind == "immersion"
        plot = (tmp_path / "rec.xyz.txt").read_text().splitlines()
        assert plot[0].startswith("#")
        assert len(plot) == 1 + 33 * 33
        # reconstruction matches the oracle up to translation
        oracle = datafiles.read_dataset(str(ellipsoid_files) + ".oracle.txt")
        err = box_error(cf(imm.blocks["u"], 1), oracle.blocks["u"], imm.chart, 0)
        assert err < 50 * imm.chart.max_spacing ** 2

    def test_theorem3_plot_rows_are_the_immersion_rows(self, tmp_path, capsys):
        out = tmp_path / "ell3"
        assert run_cli("forward", "--surface", "ellipsoid-m3", "--grid",
                       "13x13x13", "--out", str(out)) == 0
        assert run_cli("reconstruct", str(out) + ".dataset.txt", "--out",
                       str(tmp_path / "rec3"), "--method", "theorem3") == 0
        lines = (tmp_path / "rec3.immersion.txt").read_text().splitlines()
        u_rows = lines[lines.index("begin u") + 1:lines.index("end u")]
        plot = (tmp_path / "rec3.xyz.txt").read_text().splitlines()
        assert plot[0] == "# x1 x2 x3 u1 u2 u3 u4"
        assert len(plot) == 1 + 13 ** 3 == 1 + len(u_rows)
        # the u columns of the plot file are the immersion's rows, byte for
        # byte, after three coordinate columns
        assert [row.split(" ", 3)[3] for row in plot[1:]] == u_rows

    def test_rejected_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "pert"
        run_cli("forward", "--surface", "ellipsoid", "--axes", "1,1.5,2",
                "--grid", "33x33", "--perturb-nu", "1e-2", "--out", str(out))
        code = run_cli("reconstruct", str(out) + ".dataset.txt",
                       "--out", str(tmp_path / "nope"))
        assert code == 1
        assert not (tmp_path / "nope.immersion.txt").exists()

    def test_minimal_branch_emits_representative_with_warning(self, tmp_path, capsys):
        out = tmp_path / "cat"
        run_cli("forward", "--surface", "catenoid", "--grid", "33x33",
                "--out", str(out))
        code = run_cli("reconstruct", str(out) + ".dataset.txt",
                       "--out", str(tmp_path / "catrec"))
        captured = capsys.readouterr()
        assert code == 0
        assert "one-parameter family" in captured.out
        assert "Hopf angle phi = 0 at the chart center" in captured.out
        assert (tmp_path / "catrec.immersion.txt").exists()
        # the oracle catenoid has Hopf angle pi at the center: the phi = 0
        # member is its point reflection, and the -1 branch is the oracle
        assert run_cli("reconstruct", str(out) + ".dataset.txt", "--out",
                       str(tmp_path / "catpi"), "--sign-branch", "-1") == 0
        assert "Hopf angle phi = pi" in capsys.readouterr().out
        oracle = datafiles.read_dataset(str(out) + ".oracle.txt").blocks["u"]
        for name, sign in (("catrec", -1), ("catpi", 1)):
            imm = datafiles.read_dataset(str(tmp_path / f"{name}.immersion.txt"))
            err = box_error(cf(imm.blocks["u"], 1), sign * oracle, imm.chart, 0)
            assert err < 50 * imm.chart.max_spacing ** 2


    def test_clifford_reconstruction_is_verified(self, tmp_path, capsys):
        out = tmp_path / "torus"
        assert run_cli("forward", "--surface", "clifford-torus", "--grid", "25x25",
                       "--out", str(out)) == 0
        code = run_cli("reconstruct", str(out) + ".dataset.txt",
                       "--out", str(tmp_path / "torusrec"))
        captured = capsys.readouterr()
        assert code == 0
        line = next(ln for ln in captured.out.splitlines()
                    if ln.startswith("verification:"))
        values = [float(part.split()[-1]) for part in line.split(",")]
        assert len(values) == 3
        dx = datafiles.read_dataset(str(out) + ".dataset.txt").chart.max_spacing
        assert all(0 <= v <= 50 * dx ** 2 for v in values)


class TestRoundtrip:
    def test_order_skips_a_level_that_is_not_admissible(self, inapplicable_levels,
                                                          capsys):
        calls = inapplicable_levels(0)
        code = run_cli("roundtrip", "--surface", "round-sphere",
                       "--grid", "13x13", "--refine", "2")
        out = capsys.readouterr().out
        assert code == 0 and calls == ["admissible"] * 3
        rows = [ln.split() for ln in out.splitlines()
                if "admissible" in ln or "inapplicable" in ln]
        assert [r[1] for r in rows] == ["inapplicable", "admissible", "admissible"]
        assert rows[0][4] == "nan"
        # no order where either neighbour lacks an error; the only order is
        # between the two admissible levels, on the finer one's row
        assert [len(r) for r in rows] == [6, 6, 7]
        expect = observed_order(float(rows[1][4]), float(rows[2][4]))
        assert abs(float(rows[2][6]) - expect) < 5e-3

    def test_sphere_with_refinement_prints_order(self, capsys):
        code = run_cli("roundtrip", "--surface", "round-sphere",
                       "--grid", "25x25", "--refine", "1")
        out = capsys.readouterr().out
        assert code == 0
        lines = [ln for ln in out.splitlines() if "admissible" in ln]
        assert len(lines) == 2
        order = float(lines[1].split()[-1])
        assert order >= 1.5

    def test_plane_inapplicable_row(self, capsys):
        code = run_cli("roundtrip", "--surface", "plane", "--grid", "17x17")
        out = capsys.readouterr().out
        assert code == 3
        assert "inapplicable" in out

    def test_theorem3_roundtrip_prints_gap(self, capsys):
        code = run_cli("roundtrip", "--surface", "ellipsoid-m3",
                       "--grid", "13x13x13", "--method", "theorem3")
        out = capsys.readouterr().out
        assert code == 0
        row = next(ln for ln in out.splitlines() if "admissible" in ln)
        gap = float(row.split()[-1])
        assert np.isfinite(gap) and gap < 0.1

    def test_one_node_box_has_no_error(self, capsys):
        # margin 4 on 9 points (8 on 17) leaves one node per axis: the error
        # there is 0 whatever the reconstruction, so it is not reported
        code = run_cli("roundtrip", "--surface", "hypersphere-m3",
                       "--grid", "9x9x9", "--refine", "1")
        out = capsys.readouterr().out
        assert code == 0
        rows = [ln.split() for ln in out.splitlines() if "admissible" in ln]
        assert [r[0] for r in rows] == ["9x9x9", "17x17x17"]
        assert [r[4] for r in rows] == ["nan", "nan"]
        assert [len(r) for r in rows] == [6, 6]          # and no order

    @pytest.mark.parametrize("surface, theta, name", [
        ("catenoid", None, "catenoid"), ("helicoid", None, "helicoid"),
        ("associated-family", "0.3", "associated-family")])
    def test_family_members_print_their_own_name(self, surface, theta, name,
                                                 capsys):
        extra = ["--theta", theta] if theta else []
        code = run_cli("roundtrip", "--surface", surface, "--grid", "17x17",
                       *extra)
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == f"surface: {name}"

    @pytest.mark.parametrize("surface", ["catenoid", "helicoid",
                                         "associated-family"])
    def test_minimal_roundtrip_converges_at_order_2(self, surface, capsys):
        code = run_cli("roundtrip", "--surface", surface, "--grid", "17x17",
                       "--refine", "2")
        rows = [ln.split() for ln in capsys.readouterr().out.splitlines()[2:]]
        assert code == 0
        assert [r[1:3] for r in rows] == [["admissible", "minimal_m2"]] * 3
        assert float(rows[0][4]) <= 1e-3
        assert all(float(r[6]) >= 1.9 for r in rows[1:])

    @pytest.mark.parametrize("surface", ["catenoid", "helicoid",
                                         "associated-family"])
    def test_perturbed_minimal_data_exits_1(self, surface, capsys):
        code = run_cli("roundtrip", "--surface", surface, "--grid", "33x33",
                       "--perturb-nu", "0.01")
        [row] = [ln.split() for ln in capsys.readouterr().out.splitlines()[2:]]
        assert code == 1 and row[1:3] == ["rejected", "minimal_m2"]

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_tol_scale_exits_2(self, value, capsys):
        code = run_cli("roundtrip", "--surface", "ellipsoid", "--grid",
                       "17x17", "--tol-scale", value)
        assert code == 2
        assert "tol_scale must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["forward", "roundtrip"])
    @pytest.mark.parametrize("flags, message", [
        (("--seed", "-1"), "--seed must be >= 0"),
        (("--perturb-nu", "inf"), "--perturb-nu must be finite"),
        (("--perturb-nu", "nan"), "--perturb-nu must be finite"),
        (("--perturb-nu=-inf",), "--perturb-nu must be finite")])
    def test_bad_perturbation_is_a_usage_error(self, command, flags, message,
                                               tmp_path, capsys):
        # a negative seed or a non-finite magnitude is refused before any
        # sampling: exit 2 with one error line, no warning, no files
        extra = ["--out", str(tmp_path / "x")] if command == "forward" else []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(command, "--surface", "ellipsoid", "--grid", "17",
                           "--perturb-nu", "0.01", *flags, *extra)
        assert code == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: {message}")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["forward", "roundtrip"])
    def test_perturb_nu_is_refused_for_codim_2(self, command, tmp_path, capsys):
        extra = ["--out", str(tmp_path / "x")] if command == "forward" else []
        code = run_cli(command, "--surface", "clifford-torus", "--grid", "17x17",
                       "--perturb-nu", "1e-2", *extra)
        assert code == 2
        assert ("--perturb-nu applies to hypersurface data only"
                in capsys.readouterr().err)
        assert not list(tmp_path.iterdir())


# a non-default value for every parameter of every catalog surface
CATALOG_PARAMS = {
    "plane": {}, "round-sphere": {"radius": 1.3},
    "ellipsoid": {"axes": (1.1, 1.4, 2.2)}, "graph": {"coeffs": (0.8, 0.2, 1.5)},
    "cylinder": {"radius": 0.7}, "catenoid": {"scale": 1.2},
    "helicoid": {"scale": 0.9},
    "associated-family": {"scale": 1.1, "theta": 0.4},
    "clifford-torus": {"r1": 1.1, "r2": 1.4},
    "graph-r4": {"coeffs": (0.31, 0.1, 0.21, 0.24, 0.2, -0.14)},
    "hypersphere-m3": {"radius": 1.2},
    "ellipsoid-m3": {"axes": (1.0, 1.05, 1.2, 1.35)},
}


class TestCatalogFlags:
    @staticmethod
    def flags(command):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        return {opt for action in sub.choices[command]._actions
                for opt in action.option_strings}

    @pytest.mark.parametrize("command", ["forward", "roundtrip"])
    def test_flags_are_the_catalog_parameters(self, command):
        params = {f"--{name}" for factory in CATALOG.values()
                  for name in inspect.signature(factory).parameters}
        assert params == {"--axes", "--coeffs", "--r1", "--r2", "--radius",
                          "--scale", "--theta"}
        chart_flags = {"--surface", "--grid", "--spacing", "--origin",
                       "--perturb-nu", "--seed", "--refine"}
        assert self.flags(command) - self.flags("check") - chart_flags \
            == params

    def test_every_factory_parameter_is_covered(self):
        assert {name: set(params) for name, params in CATALOG_PARAMS.items()} \
            == {name: set(inspect.signature(factory).parameters)
                for name, factory in CATALOG.items()}

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_forward_writes_what_the_factory_builds(self, name, tmp_path,
                                                    capsys):
        params = CATALOG_PARAMS[name]
        argv = []
        for key, value in params.items():
            text = ",".join(map(str, value)) if isinstance(value, tuple) \
                else str(value)
            argv += [f"--{key}", text]
        grid = "7x7x7" if CATALOG[name]().m == 3 else "11x11"
        out = tmp_path / "cli"
        assert run_cli("forward", "--surface", name, "--grid", grid, *argv,
                       "--out", str(out)) == 0
        surf = CATALOG[name](**params)
        data = generate(surf, surf.default_chart(int(grid.split("x")[0])))
        direct = tmp_path / "direct"
        datafiles.write_dataset(f"{direct}.dataset.txt", datafiles.gauss_dataset(
            data.chart, data.n, data.g, frame=data.frame))
        datafiles.write_dataset(f"{direct}.oracle.txt", datafiles.oracle_dataset(
            data.chart, data.n, data.u, data.h_alpha, data.k, data.H_alpha))
        for suffix in (".dataset.txt", ".oracle.txt"):
            assert (tmp_path / f"cli{suffix}").read_bytes() == \
                (tmp_path / f"direct{suffix}").read_bytes()

    def test_a_list_for_a_number_is_a_usage_error(self, tmp_path, capsys):
        assert run_cli("forward", "--surface", "round-sphere", "--radius", "1,2",
                       "--out", str(tmp_path / "x")) == 2
        assert "--radius" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["forward", "roundtrip"])
@pytest.mark.parametrize("grid", ["1x9", "9x1", "0x9", "4x9"])
def test_grid_too_small_exit_2(command, grid, tmp_path, capsys):
    extra = ("--out", str(tmp_path / "x")) if command == "forward" else ()
    assert run_cli(command, "--surface", "ellipsoid", "--grid", grid, *extra) == 2
    assert "grid too small for 2nd-order stencils" in capsys.readouterr().err


def test_usage_error_exit_2(capsys, tmp_path, monkeypatch):
    assert run_cli("check") == 2
    assert run_cli() == 2
    assert run_cli("roundtrip", "--surface", "ellipsoid", "--perturb-nu", "x") == 2
    # malformed surface parameters are usage errors, not rejections
    monkeypatch.chdir(tmp_path)
    for argv in (("forward", "--surface", "round-sphere", "--radius", "abc"),
                 ("forward", "--surface", "catenoid", "--scale", "nope"),
                 ("forward", "--surface", "clifford-torus", "--r1", "zz"),
                 ("forward", "--surface", "ellipsoid", "--axes", "1,2"),
                 ("forward", "--surface", "graph-r4", "--coeffs", "1,2"),
                 ("roundtrip", "--surface", "round-sphere", "--radius", "0")):
        capsys.readouterr()
        assert run_cli(*argv) == 2, argv
        assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags", [("--method", "sqrt"), ("--gap-tol", "1e-3")])
def test_removed_options_exit_2(flags, ellipsoid_files, tmp_path, monkeypatch,
                                capsys):
    # the PSD root issues no verdict, and one tolerance serves every
    # nullspace certificate
    monkeypatch.chdir(tmp_path)
    ds = str(ellipsoid_files) + ".dataset.txt"
    for argv in (("check", ds), ("reconstruct", ds),
                 ("roundtrip", "--surface", "ellipsoid", "--grid", "9x9")):
        assert run_cli(*argv, *flags) == 2, argv
    assert not list(tmp_path.iterdir())


def test_admissible_implies_integrable_on_every_command(tmp_path, capsys):
    """graph at 17^2 with C = 14.5: only the curl is over tau (1.02 tau,
    parallelity 0.94 tau), so ``check``, ``reconstruct`` and ``roundtrip``
    all reject at step 4; none reads admissible and then fails to
    integrate."""
    out = tmp_path / "graph"
    assert run_cli("forward", "--surface", "graph", "--grid", "17x17",
                   "--out", str(out)) == 0
    dataset, flags = str(out) + ".dataset.txt", ("--tol-scale", "14.5")
    assert run_cli("check", dataset, "--out", str(tmp_path / "report.txt"),
                   *flags) == 1
    report = datafiles.parse_report((tmp_path / "report.txt").read_text())
    failing = [key for key, value in report["residuals"].items()
               if value > report["thresholds"][key]]
    assert (report["verdict"], report["failed_step"], failing) == \
        ("rejected", "4", ["curl"])
    assert run_cli("reconstruct", dataset, "--out", str(tmp_path / "rec"),
                   *flags) == 1
    assert not (tmp_path / "rec.immersion.txt").exists()
    assert run_cli("roundtrip", "--surface", "graph", "--grid", "17x17",
                   *flags) == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ("forward", "--surface", "ellipsoid", "--grid", "9x9",
     "--out", "{missing}/x"),
    ("check", "{dataset}", "--out", "{missing}/report.txt"),
    ("reconstruct", "{dataset}", "--out", "{missing}/rec"),
    ("reconstruct", "{dataset}", "--report", "{missing}/report.txt"),
], ids=["forward-out", "check-out", "reconstruct-out", "reconstruct-report"])
def test_write_to_a_missing_directory_exit_2(argv, ellipsoid_files, tmp_path,
                                             capsys):
    # the dataset is admissible: a failed write is a usage error, not a
    # rejection, and ends in one error line
    missing = tmp_path / "missing"
    dataset = str(ellipsoid_files) + ".dataset.txt"
    assert run_cli(*(a.format(missing=missing, dataset=dataset)
                     for a in argv)) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: cannot write {missing}/")
    assert line.endswith("No such file or directory")


@pytest.mark.parametrize("refine, message", [
    ("-1", "--refine must be >= 0, got -1"), ("40", "grid too large"),
    ("60", "grid too large"), ("1000", "grid too large")])
def test_refine_out_of_range_exit_2(refine, message, capsys):
    # refused before anything is sampled or allocated
    assert run_cli("roundtrip", "--surface", "ellipsoid", "--grid", "9x9",
                   "--refine", refine) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {message}")


def test_out_of_memory_exit_2(monkeypatch, capsys):
    def cmd_check(args):
        raise MemoryError("Unable to allocate 64.0 TiB for an array")

    monkeypatch.setattr(cli, "cmd_check", cmd_check)
    assert run_cli("check", "some.dataset.txt") == 2
    assert capsys.readouterr().err == \
        "error: out of memory: Unable to allocate 64.0 TiB for an array\n"


def test_wrong_kind_dataset_exit_2(ellipsoid_files, capsys):
    assert run_cli("check", str(ellipsoid_files) + ".oracle.txt") == 2


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    # main reuses one parser; it is the one build_parser makes, help text
    # included
    assert cli._parser() is cli._parser()
    assert cli._parser().format_help() == build_parser().format_help()
    # a handler replaced after the parser exists (as the benchmark's tracer
    # wraps them) is the one that runs
    calls = []
    monkeypatch.setattr(cli, "cmd_check",
                        lambda args: calls.append(args.dataset) or 0)
    assert run_cli("check", "some.dataset.txt") == 0
    assert calls == ["some.dataset.txt"]


def test_sign_branch_flag_negates_reconstruction(ellipsoid_files, tmp_path, capsys):
    a = tmp_path / "plusrec"
    b = tmp_path / "minusrec"
    ds = str(ellipsoid_files) + ".dataset.txt"
    assert run_cli("reconstruct", ds, "--out", str(a)) == 0
    assert run_cli("reconstruct", ds, "--out", str(b), "--sign-branch", "-1") == 0
    ua = datafiles.read_dataset(str(a) + ".immersion.txt").blocks["u"]
    ub = datafiles.read_dataset(str(b) + ".immersion.txt").blocks["u"]
    from isogauss.reconstruct import compare_up_to_translation
    assert compare_up_to_translation(ub, -ua) < 1e-12
