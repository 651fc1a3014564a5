"""Acceptance gate: one test per criterion, tolerances pinned here.

Every residual threshold of the generic form C*dx^2 uses C = 50 (the
pipeline default); tighter constants are stated inline where the criterion
fixes them.  Each test prints a single pass line (visible with -s and in the
captured output of the run log); a failing criterion fails its test.
"""

import math
from dataclasses import replace

import numpy as np

from isogauss import datafiles
from isogauss.admissibility import (RESIDUAL_KEYS, PipelineOptions,
                                    h_from_theorem3, run_pipeline,
                                    step1_positivity)
from isogauss.cli import main as cli_main
from isogauss.codim import (CodimForms, build_normal_frame,
                            mean_curvature_vector, third_forms)
from isogauss.curvature import metric_field, node_norm, riemann_tensor
from isogauss.grid import interior_max
from isogauss.reconstruct import (compare_up_to_translation, integrate,
                                   observed_order, roundtrip, roundtrip_level)
from isogauss.surfaces import (Catenoid, CliffordTorus, Cylinder, Ellipsoid,
                               EllipsoidM3, Graph, Helicoid, HypersphereM3,
                               Plane, RoundSphere, generate,
                               smooth_rotation_of_gauss_map)

C = 50.0          # generic residual constant (pipeline default)


def announce(num, detail):
    print(f"acceptance criterion {num:02d}: PASS - {detail}")


ROUNDTRIP_SURFACES = [RoundSphere(1.0), Ellipsoid((1.0, 1.5, 2.0)),
                      Graph((1.0, 0.0, 2.0))]


def test_criterion_01_roundtrip_admissibility(tmp_path):
    """Oracle surfaces are admissible at 64^2 with residuals below C*dx^2 and
    the reconstruction error drops at order >= 1.5 under one refinement."""
    orders = []
    for surf in ROUNDTRIP_SURFACES:
        chart = surf.default_chart(64)
        data = generate(surf, chart)
        ds = datafiles.gauss_dataset(chart, data.n, data.g, frame=data.frame)
        path = tmp_path / f"{surf.name}.txt"
        report_path = tmp_path / f"{surf.name}.report.txt"
        datafiles.write_dataset(path, ds)
        assert cli_main(["check", str(path), "--out", str(report_path)]) == 0
        parsed = datafiles.parse_report(report_path.read_text())
        assert parsed["verdict"] == "admissible"
        for key, val in parsed["residuals"].items():
            if not math.isnan(val):
                assert val <= parsed["thresholds"][key], (surf.name, key)

        # 64 points refined once is the 127-point chart
        coarse, fine = roundtrip(surf, chart, PipelineOptions(), 1)
        assert coarse.verdict == fine.verdict == "admissible"
        orders.append(observed_order(coarse.rec_error, fine.rec_error))
        assert orders[-1] >= 1.5, surf.name
    announce(1, f"orders {['%.2f' % o for o in orders]} for "
                f"{[s.name for s in ROUNDTRIP_SURFACES]}")


ALL_HYPERSURFACES = [
    (Plane(), (33, 65)),
    (RoundSphere(1.0), (33, 65)),
    (Ellipsoid((1.0, 1.5, 2.0)), (33, 65)),
    (Graph((1.0, 0.0, 2.0)), (33, 65)),
    (Cylinder(1.0), (33, 65)),
    (Catenoid(), (33, 65)),
    (Helicoid(), (33, 65)),
    (HypersphereM3(1.0), (13, 25)),
    (EllipsoidM3((1.0, 1.1, 1.2, 1.3)), (13, 25)),
]


def test_criterion_02_closed_form_identities():
    """H^2 = s + Tr k and h H = Ric + k hold on every oracle hypersurface at
    C*dx^2 with observed order >= 1.5 (skipped where exactly zero)."""
    worst_order = math.inf
    for surf, sizes in ALL_HYPERSURFACES:
        vals = []
        for level, n in enumerate(sizes):
            chart = surf.default_chart(n)
            data = generate(surf, chart)
            metric = metric_field(chart, data.g)
            pack = riemann_tensor(metric)
            tr_k = np.einsum("...ij,...ij->...", metric.g_inv, data.k)
            scale1 = 1.0 + float(np.max(data.H ** 2))
            scale2 = 1.0 + float(np.max(node_norm(pack.Ric + data.k, 2)))
            margin = 2 * 2 ** level
            r1 = interior_max(chart, np.abs(data.H ** 2 - (pack.s + tr_k)),
                              margin) / scale1
            r2 = interior_max(chart, node_norm(
                data.h * data.H[..., None, None] - (pack.Ric + data.k), 2),
                margin) / scale2
            assert r1 <= C * chart.max_spacing ** 2, (surf.name, "trace", r1)
            assert r2 <= C * chart.max_spacing ** 2, (surf.name, "form", r2)
            vals.append(max(r1, r2))
        if vals[0] > 1e-10:        # zero-residual surfaces carry no order
            order = observed_order(vals[0], vals[1])
            worst_order = min(worst_order, order)
            assert order >= 1.5, surf.name
    announce(2, f"identities on {len(ALL_HYPERSURFACES)} surfaces, "
                f"worst order {worst_order:.2f}")


def test_criterion_03_linear_system_uniqueness():
    """m = 3 ellipsoid: one-dimensional nullspace certified at gap < 1e-6 on
    exactly-assembled forms at >= 99% of nodes; the rescaled solution from
    finite-difference data matches the oracle h at 5e-3 relative (32^3)."""
    surf = EllipsoidM3((1.0, 1.1, 1.2, 1.3))
    chart = surf.default_chart(33)
    data = generate(surf, chart)
    metric = metric_field(chart, data.g)
    pack = riemann_tensor(metric)

    h = data.h_alpha
    quad = (np.einsum("...ail,...ajk->...ijkl", h, h)
            - np.einsum("...aik,...ajl->...ijkl", h, h))
    exact = h_from_theorem3(replace(pack, R_low=quad), data.k, metric,
                            PipelineOptions())
    inter = chart.interior
    frac = float(np.mean(exact.gap[inter] < 1e-6))
    assert frac >= 0.99
    assert exact.status == "ok"

    k = third_forms(build_normal_frame(chart, data.frame)).k
    fd = h_from_theorem3(pack, k, metric, PipelineOptions())
    assert fd.status == "ok"
    scale = float(np.max(node_norm(data.h, 2)))
    rel = interior_max(chart, node_norm(fd.h - data.h, 2)) / scale
    assert rel <= 5e-3
    announce(3, f"exact-form gap < 1e-6 at {100 * frac:.1f}% of nodes, "
                f"fd solution relative error {rel:.1e}")


def test_criterion_04_negative_detection():
    """A smooth rotation of nu by 1e-2 flips the verdict to rejected with a
    residual >= 10x the admissible value, persisting under refinement."""
    surf = Ellipsoid((1.0, 1.5, 2.0))
    failing = {}
    for level, pts in enumerate((64, 127)):
        chart = surf.default_chart(pts)
        data = generate(surf, chart)
        metric = metric_field(chart, data.g)
        good = run_pipeline(metric, data.frame)
        nu_bad = smooth_rotation_of_gauss_map(data.frame[..., 0], chart,
                                              1e-2, seed=0)
        bad = run_pipeline(metric, nu_bad[..., None])
        assert good.admissible
        assert bad.verdict == "rejected"
        assert bad.failed_step in ("3", "4")
        key = "h_squared" if bad.failed_step == "3" else "parallelity"
        assert bad.residuals[key] >= 10 * good.residuals[key]
        assert bad.residuals[key] > bad.thresholds[key]
        failing[pts] = bad.residuals[key]
    assert failing[127] >= 0.3 * failing[64]     # driven by the perturbation
    announce(4, f"rejected with failing residuals {failing}")


def test_criterion_05_minimal_branch_and_nonuniqueness():
    """Catenoid and helicoid pass the minimal-surface check; the family
    members share (g, nu) to 1e-8 yet differ as immersions by > 0.1."""
    residuals = {}
    for surf in (Catenoid(), Helicoid()):
        chart = surf.default_chart(64)
        data = generate(surf, chart)
        metric = metric_field(chart, data.g)
        report = run_pipeline(metric, data.frame)
        assert report.admissible and report.method == "minimal_m2"
        tol = C * chart.max_spacing ** 2
        assert report.residuals["gauss_condition_m2"] <= tol
        assert report.residuals["conformality_m2"] <= tol
        residuals[surf.theta] = (report.residuals["gauss_condition_m2"],
                                 report.residuals["conformality_m2"])
    chart = Catenoid().default_chart(64)
    cat = generate(Catenoid(), chart)
    hel = generate(Helicoid(), chart)
    assert np.max(np.abs(cat.g - hel.g)) < 1e-8
    assert np.max(np.abs(cat.frame - hel.frame)) < 1e-8
    separation = compare_up_to_translation(cat.u, hel.u)
    assert separation > 0.1
    announce(5, f"minimal checks passed, family separation {separation:.2f}")


def test_criterion_06_codazzi_gauss_consequences():
    """Codazzi residual <= 5 * (parallelity + dx^2) on admissible candidates;
    the Gauss-equation residual of oracle surfaces is C*dx^2 at order >= 1.5
    without ever being checked by the pipeline."""
    from isogauss.surfaces import gauss_codazzi_residuals
    for surf in ROUNDTRIP_SURFACES:
        run = roundtrip_level(surf, surf.default_chart(64), PipelineOptions(), 0)
        report = run.report
        assert report.admissible
        bound = 5.0 * (report.residuals["parallelity"] + run.chart.max_spacing ** 2)
        assert report.extra["codazzi"] <= bound, surf.name
    orders = []
    for surf in (RoundSphere(1.0), Ellipsoid((1.0, 1.5, 2.0)), Catenoid()):
        gs = []
        for n in (33, 65):
            chart = surf.default_chart(n)
            data = generate(surf, chart)
            metric = metric_field(chart, data.g)
            pack = riemann_tensor(metric)
            gauss, _ = gauss_codazzi_residuals(data, pack, metric)
            assert gauss <= C * chart.max_spacing ** 2
            gs.append(gauss)
        orders.append(observed_order(gs[0], gs[1]))
        assert orders[-1] >= 1.5
    announce(6, f"codazzi bounded by parallelity, gauss orders "
                f"{['%.2f' % o for o in orders]}")


def test_criterion_07_codimension_two():
    """Clifford torus: rho has a unit eigenvalue within 1e-6 (exact forms);
    recovered H and h match the oracle at C*dx^2 up to global sign; the
    product residual is C*dx^2; reconstruction converges at order >= 1.5."""
    surf = CliffordTorus(1.0, 1.4)
    chart = surf.default_chart(33)
    data = generate(surf, chart)
    metric = metric_field(chart, data.g)
    pack = riemann_tensor(metric)
    forms_exact = CodimForms(chart=chart, k_ab=data.k_ab, k=data.k)
    s1 = step1_positivity(pack.s, forms_exact.k, metric)
    mc = mean_curvature_vector(forms_exact, pack.Ric, s1.H, metric,
                               s1.threshold)
    assert mc.unit_eigen_distance < 1e-6

    errs = []
    for level in (0, 1):      # 33 points, then 65
        run = roundtrip_level(surf, surf.default_chart(33), PipelineOptions(),
                              level)
        chart, data, report = run.chart, run.data, run.report
        assert report.admissible
        tol = C * chart.max_spacing ** 2
        assert report.residuals["h_squared"] <= tol         # product check
        margin = 2 * 2 ** level
        H_err = min(
            interior_max(chart, np.max(np.abs(
                report.candidate.H_alpha - data.H_alpha), axis=-1), margin),
            interior_max(chart, np.max(np.abs(
                report.candidate.H_alpha + data.H_alpha), axis=-1), margin))
        h_err = min(
            interior_max(chart, node_norm(
                report.candidate.h_alpha - data.h_alpha, 3), margin),
            interior_max(chart, node_norm(
                report.candidate.h_alpha + data.h_alpha, 3), margin))
        assert H_err <= tol and h_err <= tol
        errs.append(run.rec_error)
    order = observed_order(*errs)
    assert order >= 1.5
    announce(7, f"unit eigenvalue within 1e-6, reconstruction order {order:.2f}")


def test_criterion_08_degenerate_routing(tmp_path):
    """Plane and cylinder datasets exit with code 3 (inapplicable), never a
    crash or a false admissible."""
    for surf in (Plane(), Cylinder(1.0)):
        chart = surf.default_chart(33)
        data = generate(surf, chart)
        ds = datafiles.gauss_dataset(chart, data.n, data.g, frame=data.frame)
        path = tmp_path / f"{surf.name}.txt"
        datafiles.write_dataset(path, ds)
        assert cli_main(["check", str(path)]) == 3
    announce(8, "plane and cylinder both route to exit code 3")


def test_criterion_09_sign_invariance(capsys):
    """Flipping the sign branch changes no residual by more than 1e-12 and
    negates the reconstruction up to translation."""
    surf = Ellipsoid((1.0, 1.5, 2.0))
    chart = surf.default_chart(64)
    data = generate(surf, chart)
    metric = metric_field(chart, data.g)
    plus = run_pipeline(metric, data.frame, PipelineOptions(sign_branch=1))
    minus = run_pipeline(metric, data.frame, PipelineOptions(sign_branch=-1))
    for key in RESIDUAL_KEYS:
        a, b = plus.residuals[key], minus.residuals[key]
        assert (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-12
    up = integrate(plus.candidate.U, chart)
    um = integrate(minus.candidate.U, chart)
    flip_dev = compare_up_to_translation(um.u, -up.u)
    assert flip_dev <= 1e-12
    announce(9, f"residual shifts <= 1e-12, flipped reconstruction "
                f"deviation {flip_dev:.1e}")


def test_criterion_10_format_and_exit_contract(tmp_path):
    """Datasets rewrite byte-identically; exit codes follow the documented
    0/1/2/3 contract; reports always carry every named residual."""
    surf = Ellipsoid((1.0, 1.5, 2.0))
    chart = surf.default_chart(64)
    data = generate(surf, chart)
    ds = datafiles.gauss_dataset(chart, data.n, data.g, frame=data.frame)
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    datafiles.write_dataset(first, ds)
    datafiles.write_dataset(second, datafiles.read_dataset(first))
    assert first.read_bytes() == second.read_bytes()

    report_path = tmp_path / "rep.txt"
    codes = {"admissible": cli_main(["check", str(first), "--out", str(report_path)])}
    parsed = datafiles.parse_report(report_path.read_text())
    assert set(RESIDUAL_KEYS) <= set(parsed["residuals"])

    nu_bad = smooth_rotation_of_gauss_map(data.frame[..., 0], chart, 1e-2, 0)
    bad = datafiles.gauss_dataset(chart, 3, data.g, nu=nu_bad)
    bad_path = tmp_path / "bad.txt"
    datafiles.write_dataset(bad_path, bad)
    codes["rejected"] = cli_main(["check", str(bad_path)])

    mangled = tmp_path / "mangled.txt"
    mangled.write_text("format_version = 99\n")
    codes["format"] = cli_main(["check", str(mangled)])

    cyl = Cylinder(1.0)
    cyl_data = generate(cyl, cyl.default_chart(33))
    cyl_path = tmp_path / "cyl.txt"
    datafiles.write_dataset(cyl_path, datafiles.gauss_dataset(
        cyl_data.chart, 3, cyl_data.g, frame=cyl_data.frame))
    codes["inapplicable"] = cli_main(["check", str(cyl_path)])

    assert codes == {"admissible": 0, "rejected": 1, "format": 2,
                     "inapplicable": 3}
    announce(10, f"byte-identical rewrite, exit codes {codes}")
