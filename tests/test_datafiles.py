import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogauss import cli, datafiles
from isogauss.admissibility import run_pipeline
from isogauss.errors import DatasetFormatError
from isogauss.surfaces import CATALOG, CliffordTorus, Ellipsoid, generate

import reference_loops


@pytest.fixture(scope="module")
def ellipsoid_file(tmp_path_factory):
    surf = Ellipsoid((1.0, 1.5, 2.0))
    data = generate(surf, surf.default_chart(17))
    ds = datafiles.gauss_dataset(data.chart, data.n, data.g, frame=data.frame)
    path = tmp_path_factory.mktemp("ds") / "ellipsoid.txt"
    datafiles.write_dataset(path, ds)
    return path, data


class TestRoundTrip:
    def test_write_read_write_byte_identical(self, ellipsoid_file, tmp_path):
        path, _ = ellipsoid_file
        ds = datafiles.read_dataset(path)
        second = tmp_path / "again.txt"
        datafiles.write_dataset(second, ds)
        assert path.read_bytes() == second.read_bytes()

    def test_numeric_payload_exact(self, ellipsoid_file):
        path, data = ellipsoid_file
        ds = datafiles.read_dataset(path)
        g = datafiles.dataset_metric(ds)
        nu = datafiles.dataset_normals(ds)
        assert np.array_equal(g, 0.5 * (data.g + np.swapaxes(data.g, -1, -2)))
        assert np.array_equal(nu[..., 0], data.frame[..., 0])

    def test_codim_frame_block(self, tmp_path):
        surf = CliffordTorus(1.0, 1.3)
        data = generate(surf, surf.default_chart(9))
        ds = datafiles.gauss_dataset(data.chart, data.n, data.g, frame=data.frame)
        path = tmp_path / "torus.txt"
        datafiles.write_dataset(path, ds)
        back = datafiles.read_dataset(path)
        assert back.codim == 2
        assert np.array_equal(datafiles.dataset_normals(back), data.frame)

    def test_oracle_blocks(self, tmp_path):
        surf = Ellipsoid((1.0, 1.5, 2.0))
        data = generate(surf, surf.default_chart(9))
        ds = datafiles.oracle_dataset(data.chart, data.n, data.u, data.h_alpha,
                                      data.k, data.H_alpha)
        path = tmp_path / "oracle.txt"
        datafiles.write_dataset(path, ds)
        back = datafiles.read_dataset(path)
        assert np.array_equal(back.blocks["u"], data.u)
        # one packed symmetric block per normal direction (d = 1 here)
        assert np.array_equal(datafiles.unpack_sym(back.blocks["h"], back.m),
                              data.h_alpha[..., 0, :, :])
        assert np.array_equal(back.blocks["H"][..., 0], data.H_alpha[..., 0])


class TestMalformed:
    def test_missing_header_key(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("format_version = 1\nkind = immersion\n")
        with pytest.raises(DatasetFormatError):
            datafiles.read_dataset(path)

    def test_unknown_kind(self, ellipsoid_file, tmp_path):
        text = ellipsoid_file[0].read_text().replace("metric+gauss", "wibble")
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(DatasetFormatError):
            datafiles.read_dataset(path)

    def test_row_count_mismatch(self, ellipsoid_file, tmp_path):
        lines = ellipsoid_file[0].read_text().splitlines()
        start = lines.index("begin g")
        del lines[start + 1]
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError):
            datafiles.read_dataset(path)

    @pytest.mark.parametrize("n", [-1, 0, 1, 2])
    def test_ambient_dimension_not_above_m(self, ellipsoid_file, tmp_path, n):
        # the one-column normal as a 3-column frame block: with n = -1 the
        # block width n * (n - m) = 3 matches it
        text = ellipsoid_file[0].read_text()
        text = text.replace("n = 3\n", f"n = {n}\n")
        text = text.replace("begin nu", "begin frame").replace("end nu",
                                                               "end frame")
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(DatasetFormatError, match=f"n = {n} .* m = 2"):
            datafiles.read_dataset(path)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["check", str(path)]) == cli.EXIT_USAGE

    def test_non_numeric_payload(self, ellipsoid_file, tmp_path):
        lines = ellipsoid_file[0].read_text().splitlines()
        start = lines.index("begin nu")
        lines[start + 1] = "0.1 bad 0.3"
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError):
            datafiles.read_dataset(path)

    def test_unterminated_block(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("format_version = 1\nkind = immersion\nm = 2\nn = 3\n"
                        "grid_shape = 5 5\nspacing = 0.1 0.1\norigin = 0 0\n"
                        "begin u\n0 0 0\n")
        with pytest.raises(DatasetFormatError):
            datafiles.read_dataset(path)

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"format_version = 1\n\xff\xfe\n")
        with pytest.raises(DatasetFormatError, match="cannot read dataset"):
            datafiles.read_dataset(path)

    def test_row_count_of_a_huge_grid_is_exact(self, tmp_path, capsys):
        # 2^32 x 2^32 nodes is 2^64, one past the int64 range
        path = tmp_path / "huge.txt"
        path.write_text("format_version = 1\nkind = immersion\nm = 2\nn = 3\n"
                        "grid_shape = 4294967296 4294967296\n"
                        "spacing = 0.1 0.1\norigin = 0 0\n"
                        "begin u\n" + "0 0 0\n" * 25 + "end u\n")
        with pytest.raises(DatasetFormatError,
                           match="25 rows, expected 18446744073709551616"):
            datafiles.read_dataset(path)
        assert cli.main(["check", str(path)]) == 2


class TestReports:
    def test_format_contains_every_contract_key(self, sphere):
        from isogauss.admissibility import RESIDUAL_KEYS
        report = run_pipeline(sphere.metric, sphere.data.frame)
        text = datafiles.format_report(report)
        for key in RESIDUAL_KEYS:
            assert f"residual.{key} = " in text
            assert f"threshold.{key} = " in text
        parsed = datafiles.parse_report(text)
        assert parsed["verdict"] == "admissible"
        assert parsed["failed_step"] is None
        assert set(RESIDUAL_KEYS) <= set(parsed["residuals"])

    def test_parse_roundtrip_values(self, sphere):
        report = run_pipeline(sphere.metric, sphere.data.frame)
        parsed = datafiles.parse_report(datafiles.format_report(report))
        for key, val in report.residuals.items():
            back = parsed["residuals"][key]
            assert (np.isnan(val) and np.isnan(back)) or back == val


class TestEquivalenceWithReferenceLoops:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_files_byte_identical(self, name, tmp_path):
        surf = CATALOG[name]()
        chart = surf.default_chart(7 if surf.m == 3 else 11)
        data = generate(surf, chart)
        datasets = {
            "dataset": datafiles.gauss_dataset(chart, data.n, data.g,
                                               frame=data.frame),
            "oracle": datafiles.oracle_dataset(chart, data.n, data.u,
                                               data.h_alpha, data.k,
                                               data.H_alpha),
            "immersion": datafiles.immersion_dataset(chart, data.u),
        }
        if data.d > 1:
            assert "frame" in datasets["dataset"].blocks
        for label, ds in datasets.items():
            new, old = tmp_path / f"{label}.new", tmp_path / f"{label}.old"
            datafiles.write_dataset(new, ds)
            reference_loops.write_dataset(old, ds)
            assert new.read_bytes() == old.read_bytes(), label
            got = datafiles.read_dataset(new)
            want = reference_loops.read_dataset(old)
            assert (got.kind, got.n, got.chart) == (want.kind, want.n, want.chart)
            assert list(got.blocks) == list(want.blocks)
            for block, arr in want.blocks.items():
                assert got.blocks[block].shape == arr.shape
                assert np.array_equal(got.blocks[block].view(np.int64),
                                      arr.view(np.int64)), (label, block)
        new, old = tmp_path / "plot.new", tmp_path / "plot.old"
        cli._write_plot_data(new, chart, datafiles.format_rows(
            data.u.reshape(chart.num_points, -1)))
        reference_loops.write_plot_data(old, chart, data.u)
        assert new.read_bytes() == old.read_bytes()

    def test_extreme_values_keep_their_bytes(self, tmp_path):
        surf = Ellipsoid((1.0, 1.5, 2.0))
        chart = surf.default_chart(5)
        special = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300,
                   -1e300, 1.7976931348623157e308, 3.0, -2.0, 1e16, 1e17,
                   2.0 ** 53 + 2, 0.1, 1.0 / 3.0, -123456789.125]
        u = np.resize(np.array(special), chart.shape + (3,))
        ds = datafiles.immersion_dataset(chart, u)
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        texts = datafiles.write_dataset(new, ds)
        reference_loops.write_dataset(old, ds)
        assert new.read_bytes() == old.read_bytes()
        text = new.read_text()
        for token in ("-0 ", "4.9406564584124654e-324", "1.0000000000000001e+300",
                      "10000000000000000", "1e+17", " 3 "):
            assert token in text
        back = datafiles.read_dataset(new).blocks["u"]
        assert np.array_equal(back.view(np.int64), u.view(np.int64))
        # the u rows as the immersion file has them, as cmd_reconstruct does
        cli._write_plot_data(new, chart, texts["u"])
        reference_loops.write_plot_data(old, chart, u)
        assert new.read_bytes() == old.read_bytes()

    def test_blank_comment_and_indented_lines_inside_blocks(
            self, ellipsoid_file, tmp_path):
        path, _ = ellipsoid_file
        lines = path.read_text().splitlines()
        start = lines.index("begin g")
        lines[start + 1] = "   " + lines[start + 1]
        lines[start + 2] = "\t" + lines[start + 2] + "  "
        lines.insert(start + 3, "")
        lines.insert(start + 4, "# a comment inside a block")
        lines.insert(start + 5, "   # an indented comment")
        lines.insert(lines.index("begin nu") + 1, "   ")
        lines.insert(lines.index("end nu"), "#")
        mangled = tmp_path / "mangled.txt"
        mangled.write_text("\n".join(lines) + "\n")
        got = datafiles.read_dataset(mangled)
        clean = datafiles.read_dataset(path)
        want = reference_loops.read_dataset(mangled)
        for block in ("g", "nu"):
            assert np.array_equal(got.blocks[block], clean.blocks[block])
            assert np.array_equal(got.blocks[block], want.blocks[block])


def _block_rows(lines):
    """Indices of the data rows of every block."""
    rows, inside = [], False
    for i, line in enumerate(lines):
        if line.startswith("begin "):
            inside = True
        elif line.startswith("end "):
            inside = False
        elif inside:
            rows.append(i)
    return rows


_BAD_NUMBERS = ["bad", "1_0", "0x1p3", "1e", "--1", "1,5", "\u0661", "'1'",
                "1.5f", "+-2", "1e5.5", "1.0j"]
_NON_FINITE = ["nan", "-nan", "inf", "-inf", "1e999", "-Infinity"]
_MODES = ["truncate", "drop_end", "ragged", "bad_number", "non_finite",
          "header", "drop_row", "extra_row", "zero_row"]


def _mangle(draw, lines):
    """One random defect in a dataset's lines.

    Returns the mangled lines and, for a bad number, the 1-based line number
    the error must name.
    """
    lines = list(lines)
    rows = _block_rows(lines)
    mode = draw(st.sampled_from(_MODES))
    bad_line = None
    if mode == "truncate":
        lines = lines[:draw(st.integers(0, len(lines) - 1))]
    elif mode == "drop_end":
        ends = [i for i, line in enumerate(lines) if line.startswith("end ")]
        del lines[draw(st.sampled_from(ends))]
    elif mode == "header":
        key = draw(st.sampled_from(["m", "n", "grid_shape", "spacing",
                                    "origin"]))
        i = next(j for j, line in enumerate(lines) if line.startswith(key + " "))
        # spacings and origins far out of range: a square or a far corner
        # that overflows must be a format error
        pool = (st.integers(-2, 12) if key in ("m", "n", "grid_shape")
                else st.sampled_from([1e200, 1e300, -1e308, 1.7e308, 0.5]))
        values = draw(st.lists(pool, min_size=1, max_size=4))
        lines[i] = f"{key} = " + " ".join(repr(v) for v in values)
    elif mode == "drop_row":
        del lines[draw(st.sampled_from(rows))]
    elif mode == "extra_row":
        i = draw(st.sampled_from(rows))
        lines.insert(i, lines[i])
    else:
        i = draw(st.sampled_from(rows))
        tokens = lines[i].split()
        if mode == "ragged":
            if draw(st.booleans()):
                tokens.pop(draw(st.integers(0, len(tokens) - 1)))
            else:
                tokens.insert(draw(st.integers(0, len(tokens))), "0.5")
        elif mode == "zero_row":
            tokens = ["0"] * len(tokens)
        else:
            pool = _BAD_NUMBERS if mode == "bad_number" else _NON_FINITE
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
                st.sampled_from(pool))
            if mode == "bad_number":
                bad_line = i + 1
        lines[i] = " ".join(tokens)
    return lines, bad_line


@pytest.fixture(scope="module")
def fuzz_bases(tmp_path_factory):
    """Written lines of one hypersurface and one codimension-2 dataset."""
    root = tmp_path_factory.mktemp("fuzz")
    bases = {}
    for surf in (Ellipsoid((1.0, 1.5, 2.0)), CliffordTorus(1.0, 1.3)):
        data = generate(surf, surf.default_chart(9))
        path = root / f"{surf.name}.txt"
        datafiles.write_dataset(path, datafiles.gauss_dataset(
            data.chart, data.n, data.g, frame=data.frame))
        bases[surf.name] = path.read_text().splitlines()
    return root, bases


class TestFuzzedInput:
    @pytest.mark.parametrize("surf", [Ellipsoid((1.0, 1.5, 2.0)),
                                      CliffordTorus(1.0, 1.3)],
                             ids=lambda surf: surf.name)
    @pytest.mark.parametrize("eps", [1e-10, 1e-12])
    def test_near_singular_metric_ends_in_exit_code(self, near_singular_metric,
                                                    tmp_path, surf, eps):
        data = generate(surf, surf.default_chart(17))
        g = near_singular_metric(data.chart, eps)
        path = tmp_path / "near_singular.txt"
        datafiles.write_dataset(path, datafiles.gauss_dataset(
            data.chart, data.n, g, frame=data.frame))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["check", str(path)])
        assert code in (cli.EXIT_ADMISSIBLE, cli.EXIT_REJECTED,
                        cli.EXIT_USAGE, cli.EXIT_INAPPLICABLE)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mangled_files_end_in_format_error_or_exit_code(self, fuzz_bases,
                                                            data):
        root, bases = fuzz_bases
        base = data.draw(st.sampled_from(sorted(bases)))
        lines, bad_line = _mangle(data.draw, bases[base])
        path = root / "mangled.txt"
        path.write_text("\n".join(lines) + "\n")
        try:
            datafiles.read_dataset(path)
            read_error = None
        except DatasetFormatError as exc:
            read_error = str(exc)
        if bad_line is not None:
            assert read_error is not None
            assert read_error.startswith(f"line {bad_line}: bad number")
        for argv in (["check", str(path)],
                     ["reconstruct", str(path), "--out", str(root / "rec")]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            if read_error is not None:
                assert code == cli.EXIT_USAGE
            else:
                assert code in (cli.EXIT_ADMISSIBLE, cli.EXIT_REJECTED,
                                cli.EXIT_USAGE, cli.EXIT_INAPPLICABLE)
