"""Seeded workloads of the isogauss benchmark: inputs, commands and checks.

Every workload is a fixed list of CLI commands (a "pass"). ``prepare`` draws
surface parameters from the seed, near the catalog defaults and inside their
validated windows, writes the dataset files the commands read, and returns
the commands together with what each one must produce. The expectations come
from the geometry (convex ellipsoids have ``q > 0``, the catenoid is minimal,
the Clifford torus has a full fixed space), never from a run of the program.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from isogauss import datafiles, surfaces
from isogauss.reconstruct import compare_up_to_translation

TOL_SCALE = 50.0          # the C of the CLI's default C * dx^2 thresholds
PERTURB_NU = 1e-2         # rotation magnitude of the inadmissible ellipsoid
MIN_ORDER = 1.5           # convergence order a roundtrip must reach

# grid points per axis, by scale; "smoke" is the self-test's size. Codim data
# stays at 49 there: on coarser grids some graph-r4 draws are classified as
# having a two-dimensional fixed space and rejected.
SIZES = {
    "full": {"m2": 129, "m3": 21, "torus": 33, "codim": 65, "roundtrip": 129},
    "smoke": {"m2": 33, "m3": 13, "torus": 25, "codim": 49, "roundtrip": 33},
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must be."""

    label: str
    kind: str                         # check | reconstruct | roundtrip
    argv: tuple[str, ...]
    nodes: int                        # chart nodes carried (all levels)
    expect_exit: int
    expect_method: str | None = None
    expect_extra: dict = field(default_factory=dict)
    chart: object = None              # reconstruct: chart of the oracle
    oracle_u: np.ndarray | None = None
    out_prefix: str | None = None


def jitter(rng: np.random.Generator, values, rel: float) -> tuple[float, ...]:
    return tuple(float(v) * rng.uniform(1.0 - rel, 1.0 + rel) for v in values)


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _write_gauss(path: str, data, frame=None) -> None:
    """Write a metric+gauss dataset exactly as ``isogauss forward`` does."""
    frame = data.frame if frame is None else frame
    ds = datafiles.gauss_dataset(data.chart, data.n, data.g, frame=frame)
    datafiles.write_dataset(path, ds)


def _check(label, path, method, exit_code=0, nodes=0, extra=None, args=()):
    return Command(label=label, kind="check", argv=("check", path, *args),
                   nodes=nodes, expect_exit=exit_code, expect_method=method,
                   expect_extra=extra or {})


def _reconstruct(label, path, data, workdir, args=()):
    prefix = os.path.join(workdir, label.replace(" ", "_"))
    return Command(label=label, kind="reconstruct",
                   argv=("reconstruct", path, "--out", prefix, *args),
                   nodes=data.chart.num_points, expect_exit=0,
                   chart=data.chart, oracle_u=data.u, out_prefix=prefix)


def prepare_cli_files(rng, workdir, scale):
    n = SIZES[scale]["m2"]
    ell = surfaces.Ellipsoid(axes=jitter(rng, surfaces.Ellipsoid().axes, 0.05))
    cat = surfaces.Catenoid(scale=rng.uniform(0.9, 1.1))
    perturb_seed = int(rng.integers(2**31))
    ell_data = surfaces.generate(ell, ell.default_chart(n))
    cat_data = surfaces.generate(cat, cat.default_chart(n))
    nu = surfaces.smooth_rotation_of_gauss_map(
        ell_data.frame[..., 0], ell_data.chart, PERTURB_NU, seed=perturb_seed)
    paths = [os.path.join(workdir, f"{name}.dataset.txt")
             for name in ("ellipsoid", "ellipsoid_perturbed", "catenoid")]
    _write_gauss(paths[0], ell_data)
    _write_gauss(paths[1], ell_data, frame=nu[..., None])
    _write_gauss(paths[2], cat_data)
    nodes = ell_data.chart.num_points
    return [
        _check("check ellipsoid", paths[0], "theorem2", nodes=nodes),
        _reconstruct("reconstruct ellipsoid", paths[0], ell_data, workdir),
        _check("check ellipsoid_perturbed", paths[1], "theorem2", exit_code=1,
               nodes=nodes),
        # minimal data fixes only a one-parameter family: check only
        _check("check catenoid", paths[2], "minimal_m2",
               nodes=cat_data.chart.num_points),
    ]


def prepare_theorem3(rng, workdir, scale):
    n = SIZES[scale]["m3"]
    surf = surfaces.EllipsoidM3(
        axes=jitter(rng, surfaces.EllipsoidM3().axes, 0.03))
    data = surfaces.generate(surf, surf.default_chart(n))
    path = os.path.join(workdir, "ellipsoid_m3.dataset.txt")
    _write_gauss(path, data)
    args = ("--method", "theorem3")
    return [
        _check("check ellipsoid-m3", path, "theorem3",
               nodes=data.chart.num_points, args=args),
        _reconstruct("reconstruct ellipsoid-m3", path, data, workdir, args=args),
    ]


def prepare_codim(rng, workdir, scale):
    sizes = SIZES[scale]
    # equal radii keep the trace matrix a multiple of the identity, so the
    # whole fixed space is two-dimensional and the direction scan runs
    r = rng.uniform(0.9, 1.1)
    torus = surfaces.CliffordTorus(r1=r, r2=r)
    graph = surfaces.GraphR4(coeffs=jitter(rng, surfaces.GraphR4().coeffs, 0.05))
    commands = []
    # the torus grid is coarser: its scan makes each call long, and a short
    # call is timed against the host speed measured just before it
    for surf, name, dim, n in ((torus, "clifford-torus", 2.0, sizes["torus"]),
                               (graph, "graph-r4", 1.0, sizes["codim"])):
        data = surfaces.generate(surf, surf.default_chart(n))
        path = os.path.join(workdir, f"{name}.dataset.txt")
        _write_gauss(path, data)
        commands.append(_check(f"check {name}", path, "codim",
                               nodes=data.chart.num_points,
                               extra={"fixed_space_dim": dim}))
        commands.append(_reconstruct(f"reconstruct {name}", path, data, workdir))
    return commands


def prepare_roundtrip(rng, workdir, scale):
    n = SIZES[scale]["roundtrip"]
    axes = jitter(rng, surfaces.Ellipsoid().axes, 0.05)
    argv = ("roundtrip", "--surface", "ellipsoid", "--axes", _fmt(axes),
            "--grid", f"{n}x{n}", "--refine", "1")
    fine = 2 * (n - 1) + 1
    return [Command(label="roundtrip ellipsoid", kind="roundtrip", argv=argv,
                    nodes=n * n + fine * fine, expect_exit=0,
                    expect_method="theorem2")]


# name -> prepare(rng, workdir, scale); BENCHMARK.json gives each one's reason
WORKLOADS = {
    "cli-files-m2": prepare_cli_files,
    "theorem3-m3": prepare_theorem3,
    "codim-r4": prepare_codim,
    "roundtrip-m2": prepare_roundtrip,
}


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else the problem


def _check_report(cmd: Command, stdout: str) -> str | None:
    report = datafiles.parse_report(stdout)
    if report.get("method") != cmd.expect_method:
        return f"method {report.get('method')!r}, expected {cmd.expect_method!r}"
    for key, want in cmd.expect_extra.items():
        got = report["extra"].get(key)
        if got != want:
            return f"extra.{key} = {got}, expected {want}"
    over = [key for key, value in report["residuals"].items()
            if not math.isnan(value)
            and not value <= report["thresholds"].get(key, math.nan)]
    if cmd.expect_exit == 0 and over:
        return f"admissible data but residuals over threshold: {over}"
    if cmd.expect_exit == 1 and (not over or report.get("failed_step") is None):
        return "rejected data but no residual over its threshold"
    return None


def _check_reconstruction(cmd: Command) -> str | None:
    """Compare the written immersion with the oracle, up to translation."""
    ds = datafiles.read_dataset(cmd.out_prefix + ".immersion.txt")
    region = cmd.chart.interior_slices(4)
    err = compare_up_to_translation(ds.blocks["u"][region], cmd.oracle_u[region])
    bound = TOL_SCALE * cmd.chart.max_spacing ** 2
    if not err <= bound:
        return f"reconstruction error {err:.3e} exceeds {bound:.3e}"
    return None


def _check_roundtrip(cmd: Command, stdout: str) -> str | None:
    rows = [line.split() for line in stdout.splitlines()
            if line.strip() and line.split()[0][0].isdigit()]
    if len(rows) != 2:
        return f"expected 2 table rows, got {len(rows)}"
    for row in rows:
        if row[1] != "admissible" or row[2] != cmd.expect_method:
            return f"level {row[0]}: {row[1]} via {row[2]}"
    order = float(rows[1][6]) if len(rows[1]) > 6 else math.nan
    if not order >= MIN_ORDER:
        return f"convergence order {order} below {MIN_ORDER}"
    return None


def verify(cmd: Command, exit_code: int, stdout: str) -> str | None:
    if exit_code != cmd.expect_exit:
        return f"exit {exit_code}, expected {cmd.expect_exit}"
    if cmd.kind == "check":
        return _check_report(cmd, stdout)
    if cmd.kind == "reconstruct":
        return _check_reconstruction(cmd)
    return _check_roundtrip(cmd, stdout)


def rewrite_is_identical(path: str, copy: str) -> bool:
    """A parsed dataset written again must reproduce the file byte for byte."""
    datafiles.write_dataset(copy, datafiles.read_dataset(path))
    with open(path, "rb") as a, open(copy, "rb") as b:
        same = a.read() == b.read()
    os.remove(copy)
    return same

