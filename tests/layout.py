"""Layout conversions for the tests.

The package stores every per-node field components first, ``(*components,
*grid)``.  The oracle, the datasets, the references of ``reference_loops``
and the index-notation checks of the tests read fields grid first,
``(*grid, *components)``; these helpers convert between the two
(``reference_loops.node_norm`` and ``node_max`` reduce trailing axes).
"""

from types import SimpleNamespace

from isogauss.curvature import components_first as cf  # noqa: F401
from isogauss.curvature import grid_first as gf


def gf_metric(metric):
    """A grid-first view of a :class:`isogauss.curvature.MetricField`."""
    return SimpleNamespace(chart=metric.chart,
                           **{name: gf(getattr(metric, name), 2)
                              for name in ("g", "g_inv", "chol", "chol_inv")})

