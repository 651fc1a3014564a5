import dataclasses

import pytest

from isogauss import reconstruct
from isogauss.codim import build_normal_frame, third_forms
from isogauss.curvature import metric_field, riemann_tensor
from isogauss.surfaces import (CliffordTorus, Ellipsoid, EllipsoidM3, Graph,
                               RoundSphere, generate)


class Problem:
    """Oracle data bundled with the pipeline-side fields for one surface."""

    def __init__(self, surface, points):
        self.surface = surface
        self.chart = surface.default_chart(points)
        self.data = generate(surface, self.chart)
        self.metric = metric_field(self.chart, self.data.g)
        self._pack = None
        self._frame = None
        self._forms = None

    @property
    def pack(self):
        if self._pack is None:
            self._pack = riemann_tensor(self.metric)
        return self._pack

    @property
    def frame(self):
        if self._frame is None:
            self._frame = build_normal_frame(self.chart, self.data.frame)
        return self._frame

    @property
    def forms(self):
        if self._forms is None:
            self._forms = third_forms(self.frame)
        return self._forms

    @property
    def dx2(self):
        return self.chart.max_spacing ** 2


@pytest.fixture(scope="session")
def sphere():
    return Problem(RoundSphere(1.0), 49)


@pytest.fixture(scope="session")
def sphere_pair():
    return Problem(RoundSphere(1.0), 33), Problem(RoundSphere(1.0), 65)


@pytest.fixture(scope="session")
def ellipsoid():
    return Problem(Ellipsoid((1.0, 1.5, 2.0)), 49)


@pytest.fixture(scope="session")
def graph_surface():
    return Problem(Graph((1.0, 0.0, 2.0)), 49)


@pytest.fixture(scope="session")
def ellipsoid_m3():
    return Problem(EllipsoidM3((1.0, 1.1, 1.2, 1.3)), 21)


@pytest.fixture(scope="session")
def clifford():
    return Problem(CliffordTorus(1.0, 1.4), 41)


@pytest.fixture
def inapplicable_levels(monkeypatch):
    """``inapplicable_levels(*levels)`` makes the roundtrip driver read those
    levels as inapplicable; it returns the list of the real verdicts."""
    real = reconstruct.run_pipeline
    verdicts = []

    def install(*levels):
        def run_pipeline(metric, normals, options):
            report = real(metric, normals, options)
            verdicts.append(report.verdict)
            if len(verdicts) - 1 in levels:
                return dataclasses.replace(report, verdict="inapplicable")
            return report

        monkeypatch.setattr(reconstruct, "run_pipeline", run_pipeline)
        return verdicts
    return install
