"""Admissibility of (metric, Gauss map) data and immersion reconstruction.

Given a Riemannian metric g and a candidate Gauss map sampled on a
rectangular chart, decide whether the pair arises as first fundamental form
and Gauss map of an isometric immersion into Euclidean space, and integrate
the immersion when it does.  Hypersurfaces are the main case, the normal
data of codimension 1; Grassmannian normal data of higher codimension takes
the same :func:`run_pipeline` and the same normal frame of
:mod:`isogauss.codim`.
"""

from .admissibility import (AdmissibilityReport, CandidateSolution,
                            PipelineOptions, build_U, check_h_squared,
                            check_isometry, check_minimal_m2, check_parallel,
                            codazzi_residual, h_from_hopf_angle,
                            h_from_theorem2, h_from_theorem3, run_pipeline,
                            step1_positivity)
from .codim import (CodimForms, NormalFrame, build_normal_frame,
                    mean_curvature_vector, second_forms, third_forms)
from .curvature import (CurvaturePack, MetricField, christoffel,
                        curvature_operator, metric_field, raise_index,
                        riemann_tensor)
from .grid import Chart, build_chart
from .reconstruct import (Immersion, compare_up_to_translation, integrate,
                          verify_immersion)
from .surfaces import CATALOG, OracleData, generate

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport", "CandidateSolution", "Chart", "CodimForms",
    "CurvaturePack", "Immersion", "MetricField", "NormalFrame", "OracleData",
    "PipelineOptions", "CATALOG", "build_U", "build_chart",
    "build_normal_frame", "check_h_squared", "check_isometry",
    "check_minimal_m2", "check_parallel", "christoffel", "codazzi_residual",
    "compare_up_to_translation", "curvature_operator", "generate",
    "h_from_hopf_angle", "h_from_theorem2", "h_from_theorem3", "integrate",
    "metric_field", "raise_index", "riemann_tensor", "run_pipeline",
    "second_forms", "step1_positivity", "third_forms", "verify_immersion",
]
