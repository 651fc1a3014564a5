"""Self-describing text datasets and report serialization.

Datasets are line-oriented: a fixed-order header (format_version, kind, m, n,
grid_shape, spacing, origin) followed by named blocks of per-node rows in
row-major node order.  Numbers are written with 17 significant digits, which
round-trips binary doubles exactly; re-writing a parsed file therefore
reproduces it byte for byte.  Blank lines and ``#`` comment lines may appear
anywhere, and rows may be indented.

Kinds: ``metric+gauss`` (block ``g`` as the lower triangle of the metric,
plus ``nu`` for hypersurfaces or ``frame`` for codimension >= 2),
``immersion`` (block ``u``), ``oracle`` (blocks ``u``, ``h``, ``k``, ``H``).

Reading makes one pass over the lines that settles the structure -- header
entries, ``begin``/``end`` pairs, blank and comment lines -- and gathers each
block's rows as text without parsing them.  Each block is then parsed by one
``numpy.loadtxt`` call, which also rejects ragged rows; only when that call
fails are the block's rows parsed again one at a time, to name the file line
at fault.  Writing formats each block with one ``%`` operation
(:func:`format_rows`).  The parser is numpy's, not ``float()``: tokens that
``float()`` alone accepts, such as ``1_0`` or non-ASCII digits, are bad
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import node_norm
from .errors import (ConfigurationError, DatasetFormatError,
                     InvalidGaussMapError)
from .grid import Chart, build_chart

FORMAT_VERSION = 1
KINDS = ("metric+gauss", "immersion", "oracle")
_BLOCK_ORDER = ("g", "nu", "frame", "u", "h", "k", "H")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def pack_sym(a: np.ndarray) -> np.ndarray:
    """Lower triangle of a symmetric (*grid, m, m) field, row-major."""
    m = a.shape[-1]
    cols = [a[..., i, j] for i in range(m) for j in range(i + 1)]
    return np.stack(cols, axis=-1)


def unpack_sym(rows: np.ndarray, m: int) -> np.ndarray:
    out = np.zeros(rows.shape[:-1] + (m, m))
    c = 0
    for i in range(m):
        for j in range(i + 1):
            out[..., i, j] = rows[..., c]
            out[..., j, i] = rows[..., c]
            c += 1
    return out


def pack_frame(frame: np.ndarray) -> np.ndarray:
    """(*grid, n, d) frame columns concatenated into per-node rows."""
    return np.swapaxes(frame, -1, -2).reshape(frame.shape[:-2] + (-1,))


def unpack_frame(rows: np.ndarray, n: int, d: int) -> np.ndarray:
    cols = rows.reshape(rows.shape[:-1] + (d, n))
    return np.swapaxes(cols, -1, -2)


@dataclass(frozen=True)
class Dataset:
    kind: str
    chart: Chart
    n: int
    blocks: dict[str, np.ndarray]   # name -> (*grid, row_length)

    @property
    def m(self) -> int:
        return self.chart.m

    @property
    def codim(self) -> int:
        return self.n - self.chart.m


def format_rows(rows: np.ndarray) -> str:
    """A ``(count, width)`` array as text: one line per row, ``%.17g`` values.

    One ``%`` operation formats the whole array; ``%.17g`` gives the same
    bytes as ``f"{v:.17g}"``.
    """
    count, width = rows.shape
    line = " ".join(["%.17g"] * width) + "\n"
    return (line * count) % tuple(rows.ravel().tolist())


def write_dataset(path, dataset: Dataset) -> dict[str, str]:
    """Write ``dataset`` to ``path`` and return each block's rows as written
    (:func:`format_rows`), so that a caller can reuse the text."""
    chart = dataset.chart
    lines = ["# isogauss dataset",
             f"format_version = {FORMAT_VERSION}",
             f"kind = {dataset.kind}",
             f"m = {chart.m}",
             f"n = {dataset.n}",
             "grid_shape = " + " ".join(str(s) for s in chart.shape),
             "spacing = " + " ".join(_fmt(dx) for dx in chart.spacing),
             "origin = " + " ".join(_fmt(x) for x in chart.origin)]
    texts = {name: format_rows(dataset.blocks[name].reshape(chart.num_points, -1))
             for name in _BLOCK_ORDER if name in dataset.blocks}
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
        for name, text in texts.items():
            fh.writelines((f"begin {name}\n", text, f"end {name}\n"))
    return texts


# first character of an unindented data row; any other line takes the
# structural checks (a row that starts otherwise is still read as a row)
_ROW_START = frozenset("0123456789+-.")


def read_dataset(path) -> Dataset:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetFormatError(f"cannot read dataset: {exc}") from exc
    header: dict[str, str] = {}
    # name -> (index of the line after ``begin``, the block's rows as text)
    blocks: dict[str, tuple[int, list[str]]] = {}
    current: str | None = None
    rows: list[str] = []
    for ln, raw in enumerate(lines, 1):
        if current is not None and raw[:1] in _ROW_START:
            rows.append(raw)
            continue
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("begin "):
            if current is not None:
                raise DatasetFormatError(f"line {ln}: nested block")
            current = line[6:].strip()
            rows = []
            blocks[current] = (ln, rows)
        elif line.startswith("end "):
            if current != line[4:].strip():
                raise DatasetFormatError(f"line {ln}: mismatched block end")
            current = None
        elif current is not None:
            rows.append(line)
        else:
            if "=" not in line:
                raise DatasetFormatError(f"line {ln}: expected 'key = value'")
            key, _, value = line.partition("=")
            header[key.strip()] = value.strip()
    if current is not None:
        raise DatasetFormatError(f"unterminated block '{current}'")

    try:
        version = int(header["format_version"])
        kind = header["kind"]
        m = int(header["m"])
        n = int(header["n"])
        shape = tuple(int(t) for t in header["grid_shape"].split())
        spacing = tuple(float(t) for t in header["spacing"].split())
        origin = tuple(float(t) for t in header["origin"].split())
    except KeyError as exc:
        raise DatasetFormatError(f"missing header key {exc}") from exc
    except ValueError as exc:
        raise DatasetFormatError(f"bad header value: {exc}") from exc
    if version != FORMAT_VERSION:
        raise DatasetFormatError(f"unrecognized format_version {version}")
    if kind not in KINDS:
        raise DatasetFormatError(f"unrecognized kind '{kind}'")
    if n <= m:
        raise DatasetFormatError(
            f"ambient dimension n = {n} must exceed the chart dimension m = {m}")
    try:
        chart = build_chart(m, shape, spacing, origin)
    except ConfigurationError as exc:
        raise DatasetFormatError(f"bad chart header: {exc}") from exc

    arrays: dict[str, np.ndarray] = {}
    for name, (first, rows) in blocks.items():
        if not rows:
            raise DatasetFormatError(f"block '{name}' is empty")
        try:
            arr = np.loadtxt(rows, ndmin=2, comments=None)
        except ValueError as exc:
            raise _row_error(name, lines, first, exc) from exc
        if arr.shape[0] != chart.num_points:
            raise DatasetFormatError(
                f"block '{name}' has {arr.shape[0]} rows, expected "
                f"{chart.num_points}")
        if not np.all(np.isfinite(arr)):
            raise DatasetFormatError(f"block '{name}' contains non-finite values")
        arrays[name] = arr.reshape(chart.shape + (arr.shape[1],))

    _validate_blocks(kind, chart, n, arrays)
    return Dataset(kind=kind, chart=chart, n=n, blocks=arrays)


def _row_error(name: str, lines: list[str], first: int,
               exc: ValueError) -> DatasetFormatError:
    """The error naming the file line of a block's first ragged or bad row.

    Runs only after the block's one-call parse failed: the rows are parsed
    again one line at a time by the same parser.
    """
    width = None
    for i in range(first, len(lines)):
        line = lines[i].strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("end "):
            break
        try:
            row = np.loadtxt([line], ndmin=2, comments=None)
        except ValueError as row_exc:
            return DatasetFormatError(f"line {i + 1}: bad number: {row_exc}")
        width = row.shape[1] if width is None else width
        if row.shape[1] != width:
            return DatasetFormatError(
                f"line {i + 1}: block '{name}' has ragged rows")
    return DatasetFormatError(f"block '{name}': {exc}")


def _validate_blocks(kind: str, chart: Chart, n: int, arrays) -> None:
    m = chart.m
    d = n - m
    sym = m * (m + 1) // 2

    def need(name, width):
        if name not in arrays:
            raise DatasetFormatError(f"kind '{kind}' requires block '{name}'")
        got = arrays[name].shape[-1]
        if got != width:
            raise DatasetFormatError(
                f"block '{name}' rows have {got} entries, expected {width}")

    if kind == "metric+gauss":
        need("g", sym)
        # the block dataset_normals reads: the frame whenever there is one
        if d == 1 and "frame" not in arrays:
            need("nu", n)
        else:
            need("frame", n * d)
    elif kind == "immersion":
        need("u", n)
    elif kind == "oracle":
        need("u", n)
        need("h", d * sym)
        need("k", sym)
        need("H", d)


# ---------------------------------------------------------------------------
# dataset constructors


def gauss_dataset(chart: Chart, n: int, g: np.ndarray,
                  frame: np.ndarray) -> Dataset:
    blocks = {"g": pack_sym(g)}
    if frame.shape[-1] > 1:
        blocks["frame"] = pack_frame(frame)
    else:
        blocks["nu"] = frame[..., 0]
    return Dataset(kind="metric+gauss", chart=chart, n=n, blocks=blocks)


def immersion_dataset(chart: Chart, u: np.ndarray) -> Dataset:
    return Dataset(kind="immersion", chart=chart, n=u.shape[-1], blocks={"u": u})


def oracle_dataset(chart: Chart, n: int, u, h_alpha, k, H_alpha) -> Dataset:
    d = h_alpha.shape[-3]
    h_rows = np.concatenate([pack_sym(h_alpha[..., a, :, :]) for a in range(d)],
                            axis=-1)
    blocks = {"u": u, "h": h_rows, "k": pack_sym(k), "H": H_alpha}
    return Dataset(kind="oracle", chart=chart, n=n, blocks=blocks)


def dataset_metric(ds: Dataset) -> np.ndarray:
    return unpack_sym(ds.blocks["g"], ds.m)


def dataset_normals(ds: Dataset) -> np.ndarray:
    """Normal data as an (*grid, n, d) stack regardless of codimension.

    Codimension-1 data holds unit normals, in a ``nu`` or a ``frame`` block:
    rows off unit length by ``1e-6`` or more are an error, smaller
    deviations (text rounding) are left to the normal frame to renormalize.
    """
    if "frame" in ds.blocks:
        normals = unpack_frame(ds.blocks["frame"], ds.n, ds.codim)
    else:
        normals = ds.blocks["nu"][..., None]
    if ds.codim == 1:
        nu = normals[..., 0]
        dev = float(np.max(np.abs(node_norm(np.moveaxis(nu, -1, 0), 1) - 1.0)))
        if dev >= 1e-6:
            raise InvalidGaussMapError(
                f"gauss map is not unit length: max deviation {dev:.3e}")
    return normals


# ---------------------------------------------------------------------------
# reports


def format_report(report) -> str:
    lines = ["# isogauss report",
             f"verdict = {report.verdict}",
             f"failed_step = {report.failed_step if report.failed_step else 'none'}",
             f"method = {report.method}"]
    for key in sorted(report.residuals):
        lines.append(f"residual.{key} = {_fmt(report.residuals[key])}")
    for key in sorted(report.thresholds):
        lines.append(f"threshold.{key} = {_fmt(report.thresholds[key])}")
    for key in sorted(report.extra):
        lines.append(f"extra.{key} = {_fmt(report.extra[key])}")
    for note in report.notes:
        lines.append(f"note = {note}")
    return "\n".join(lines) + "\n"


def write_report(path, report) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(format_report(report))


def parse_report(text: str) -> dict:
    """Parse a report back into nested dicts (for tests and tooling)."""
    out = {"residuals": {}, "thresholds": {}, "extra": {}, "notes": []}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key.startswith("residual."):
            out["residuals"][key[9:]] = float(value)
        elif key.startswith("threshold."):
            out["thresholds"][key[10:]] = float(value)
        elif key.startswith("extra."):
            out["extra"][key[6:]] = float(value)
        elif key == "note":
            out["notes"].append(value)
        elif key in ("verdict", "method"):
            out[key] = value
        elif key == "failed_step":
            out[key] = None if value == "none" else value
    return out
