"""Smoke tests of the experiment scripts under ``scripts/`` on small grids."""

import math
import runpy
import sys
from pathlib import Path

import pytest

from isogauss.surfaces import CATALOG, Ellipsoid

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture(scope="module")
def roundtrips():
    return runpy.run_path(str(SCRIPTS / "run_catalog_roundtrips.py"))


@pytest.mark.parametrize("name", ["ellipsoid", "clifford-torus"])
def test_catalog_roundtrip_row(roundtrips, name):
    cfg = roundtrips["RunConfig"](points_2d=17, points_3d=9, refine=0)
    rows, order = roundtrips["run_surface"](CATALOG[name](), cfg)
    [(shape, verdict, method, worst, err, _)] = rows
    assert shape == (17, 17)
    assert verdict == "admissible"
    assert method == ("theorem2" if name == "ellipsoid" else "codim")
    assert math.isfinite(worst) and math.isfinite(err)
    assert math.isnan(order)            # one level carries no order


def test_catalog_order_needs_adjacent_errors(roundtrips, inapplicable_levels):
    # a middle level that is not admissible leaves no one-step order
    calls = inapplicable_levels(1)
    cfg = roundtrips["RunConfig"](points_2d=17, refine=2)
    rows, order = roundtrips["run_surface"](Ellipsoid((1.0, 1.5, 2.0)), cfg)
    assert calls == ["admissible"] * 3
    assert [row.verdict for row in rows] == ["admissible", "inapplicable",
                                             "admissible"]
    assert math.isfinite(rows[0].rec_error) and math.isfinite(rows[2].rec_error)
    assert math.isnan(order)


def test_catalog_rows_name_catenoid_and_helicoid(roundtrips, monkeypatch,
                                                 capsys):
    monkeypatch.setattr(sys, "argv", ["run_catalog_roundtrips.py",
                                      "--points", "17", "--refine", "0"])
    roundtrips["main"]()
    names = [ln.split()[0] for ln in capsys.readouterr().out.splitlines()[1:]]
    assert names == list(CATALOG)
    assert "catenoid" in names and "helicoid" in names
    assert len(set(names)) == len(names)


def test_convergence_study_residuals():
    study = runpy.run_path(str(SCRIPTS / "convergence_study.py"))
    surface = Ellipsoid((1.0, 1.5, 2.0))
    values = study["residuals_at"](surface, surface.default_chart(17), 0)
    assert set(values) == {"trace_identity", "gauss_defect", "parallelity",
                           "reconstruction"}
    assert all(math.isfinite(v) and v >= 0 for v in values.values())
