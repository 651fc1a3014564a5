"""Command-line front end: forward, check, reconstruct, roundtrip.

Exit codes are a stable contract: 0 admissible, 1 rejected, 2 usage or
format error, 3 inapplicable.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys

import numpy as np

from . import datafiles, surfaces
from .admissibility import METHODS, PipelineOptions, run_pipeline
from .curvature import metric_field
from .errors import DatasetFormatError, IsoGaussError
from .grid import build_chart
from .reconstruct import integrate, observed_order, roundtrip, verify_immersion

EXIT_ADMISSIBLE = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2
EXIT_INAPPLICABLE = 3

_VERDICT_EXIT = {"admissible": EXIT_ADMISSIBLE, "rejected": EXIT_REJECTED,
                 "inapplicable": EXIT_INAPPLICABLE}


class CliError(Exception):
    pass


def _parse_grid(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.lower().split("x"))
    except ValueError as exc:
        raise CliError(f"bad --grid value {text!r}: {exc}") from exc


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError as exc:
        raise CliError(f"bad numeric list {text!r}: {exc}") from exc


# one --<name> flag per keyword of a catalog factory, in catalog order; a
# tuple default makes it a comma list, any other default one number
_PARAMS = {name: param.default for factory in surfaces.CATALOG.values()
           for name, param in inspect.signature(factory).parameters.items()}


def _make_surface(args) -> surfaces.Surface:
    name = args.surface
    if name not in surfaces.CATALOG:
        raise CliError(f"unknown surface {name!r}; known: "
                       + ", ".join(sorted(surfaces.CATALOG)))
    factory = surfaces.CATALOG[name]
    kwargs = {}
    for param in inspect.signature(factory).parameters:
        value = getattr(args, param)
        if value is not None:
            is_list = isinstance(_PARAMS[param], tuple)
            kwargs[param] = _parse_floats(value) if is_list else value
    return factory(**kwargs)


def _make_chart(surface: surfaces.Surface, args):
    shape = _parse_grid(args.grid) if args.grid else (17 if surface.m == 3 else 33,)
    if len(shape) == 1:
        shape = shape * surface.m
    if len(shape) != surface.m:
        raise CliError(f"--grid has {len(shape)} axes, surface needs {surface.m}")
    if args.spacing or args.origin:
        if not (args.spacing and args.origin):
            raise CliError("--spacing and --origin must be given together")
        return build_chart(surface.m, shape, _parse_floats(args.spacing),
                           _parse_floats(args.origin))
    return surface.default_chart(shape)


def _perturb_nu(args, surface: surfaces.Surface) -> float:
    if args.perturb_nu and surface.codim != 1:
        raise CliError("--perturb-nu applies to hypersurface data only")
    return args.perturb_nu or 0.0


def _options(args) -> PipelineOptions:
    return PipelineOptions(tol_scale=args.tol_scale, method=args.method,
                           sign_branch=args.sign_branch)


def _load_problem(path):
    ds = datafiles.read_dataset(path)
    if ds.kind != "metric+gauss":
        raise DatasetFormatError(f"expected a metric+gauss dataset, got '{ds.kind}'")
    g = datafiles.dataset_metric(ds)
    normals = datafiles.dataset_normals(ds)
    metric = metric_field(ds.chart, g)
    return ds, metric, normals


# ---------------------------------------------------------------------------
# subcommands


def cmd_forward(args) -> int:
    surface = _make_surface(args)
    perturb_nu = _perturb_nu(args, surface)
    chart = _make_chart(surface, args)
    data = surfaces.generate(surface, chart)
    frame = data.frame
    if perturb_nu:
        nu = surfaces.smooth_rotation_of_gauss_map(
            data.frame[..., 0], chart, perturb_nu, seed=args.seed)
        frame = nu[..., None]
    out = args.out or f"{surface.name}_{'x'.join(str(s) for s in chart.shape)}"
    ds = datafiles.gauss_dataset(chart, data.n, data.g, frame=frame)
    datafiles.write_dataset(out + ".dataset.txt", ds)
    oracle = datafiles.oracle_dataset(chart, data.n, data.u, data.h_alpha,
                                      data.k, data.H_alpha)
    datafiles.write_dataset(out + ".oracle.txt", oracle)
    print(f"wrote {out}.dataset.txt and {out}.oracle.txt")
    return EXIT_ADMISSIBLE


def cmd_check(args) -> int:
    ds, metric, normals = _load_problem(args.dataset)
    report = run_pipeline(metric, normals, _options(args))
    text = datafiles.format_report(report)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    print(text, end="")
    return _VERDICT_EXIT[report.verdict]


def cmd_reconstruct(args) -> int:
    ds, metric, normals = _load_problem(args.dataset)
    options = _options(args)
    report = run_pipeline(metric, normals, options)
    if args.report:
        datafiles.write_report(args.report, report)
    if not report.admissible:
        print(f"verdict = {report.verdict}: no reconstruction written")
        return _VERDICT_EXIT[report.verdict]
    chart = metric.chart
    if report.method == "minimal_m2":
        print("note: minimal-surface data determines a one-parameter family; "
              "writing its member with Hopf angle phi = "
              f"{'0' if options.sign_branch > 0 else 'pi'} at the chart center")
    imm = integrate(report.candidate.U, chart, curl_tol=options.fd_tol(chart))
    out = args.out or "reconstruction"
    datafiles.write_dataset(out + ".immersion.txt",
                            datafiles.immersion_dataset(chart, imm.u))
    _write_plot_data(out + ".xyz.txt", chart, imm.u)
    res_g, res_n = verify_immersion(imm, metric, normals)
    print(f"verification: metric residual {res_g:.3e}, "
          f"tangency residual {res_n:.3e}, curl residual {imm.curl_residual:.3e}")
    print(f"wrote {out}.immersion.txt and {out}.xyz.txt")
    return EXIT_ADMISSIBLE


def _write_plot_data(path, chart, u) -> None:
    coords = chart.mesh().reshape(chart.num_points, chart.m)
    pts = u.reshape(chart.num_points, -1)
    header = " ".join([f"x{i+1}" for i in range(chart.m)]
                      + [f"u{i+1}" for i in range(pts.shape[1])])
    rows = np.concatenate([coords, pts], axis=1)
    with open(path, "w", newline="\n") as fh:
        fh.write("# " + header + "\n" + datafiles.format_rows(rows))


def cmd_roundtrip(args) -> int:
    surface = _make_surface(args)
    perturb_nu = _perturb_nu(args, surface)
    chart = _make_chart(surface, args)
    rows = roundtrip(surface, chart, _options(args), max(0, args.refine),
                     perturb_nu, args.seed)
    print(f"surface: {surface.name}")
    print(f"{'grid':>12} {'verdict':>13} {'method':>11} {'max_resid':>11} "
          f"{'rec_error':>11} {'null_gap':>11} {'order':>7}")
    previous = math.nan
    for row in rows:
        order = observed_order(previous, row.rec_error)
        previous = row.rec_error
        tag = "" if math.isnan(order) else f"{order:7.2f}"
        print(f"{'x'.join(map(str, row.shape)):>12} {row.verdict:>13} "
              f"{row.method:>11} {row.max_residual:11.3e} "
              f"{row.rec_error:11.3e} {row.nullspace_gap:11.3e} {tag:>7}")
    return _VERDICT_EXIT[rows[-1].verdict]


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isogauss",
        description="Decide whether sampled (metric, Gauss map) data admits "
                    "an isometric immersion, and reconstruct it.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_surface_args(p):
        p.add_argument("--surface", required=True)
        p.add_argument("--grid", help="points per axis, e.g. 64x64")
        p.add_argument("--spacing", help="comma-separated spacings")
        p.add_argument("--origin", help="comma-separated origin")
        for name, default in _PARAMS.items():
            p.add_argument(f"--{name}",
                           type=None if isinstance(default, tuple) else float)
        p.add_argument("--perturb-nu", dest="perturb_nu", type=float,
                       help="fabricate inadmissible data: smooth rotation of "
                            "nu by this magnitude")
        p.add_argument("--seed", type=int, default=0)

    def add_tol_args(p):
        p.add_argument("--tol-scale", dest="tol_scale", type=float, default=50.0,
                       help="C in the C*dx^2 residual thresholds")
        p.add_argument("--method", choices=METHODS, default="auto")
        p.add_argument("--sign-branch", dest="sign_branch", type=int,
                       choices=(1, -1), default=1)

    p = sub.add_parser("forward", help="sample a catalog surface to dataset files")
    add_surface_args(p)
    p.add_argument("--out", help="output prefix")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("check", help="run the admissibility pipeline on a dataset")
    p.add_argument("dataset")
    p.add_argument("--out", help="report file")
    add_tol_args(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("reconstruct", help="check and integrate the immersion")
    p.add_argument("dataset")
    p.add_argument("--out", help="output prefix")
    p.add_argument("--report", help="report file")
    add_tol_args(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("roundtrip",
                       help="forward -> check -> reconstruct -> compare")
    add_surface_args(p)
    add_tol_args(p)
    p.add_argument("--refine", type=int, default=0,
                   help="extra halved-spacing levels for convergence orders")
    p.set_defaults(func=cmd_roundtrip)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CliError, IsoGaussError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
