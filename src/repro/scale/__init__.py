"""Million-client scaling layer: coresets and the reduced-solve pipeline.

The paper's heuristics are O(|C| |S|) and beyond in time but — more
restrictively — O(|C| |S|) in *memory* through the dense distance views
every :class:`~repro.core.problem.ClientAssignmentProblem` precomputes.
This package breaks that barrier in two composable stages:

- :mod:`repro.scale.coreset` — collapse clients with near-identical
  latency profiles into weighted **super-clients**, with an explicit
  additive quality bound: the expanded assignment's D exceeds the
  reduced instance's D by at most ``2 * epsilon`` (Coreset.epsilon, the
  achieved profile deviation — test-enforced).
- :mod:`repro.scale.pipeline` — :func:`~repro.scale.pipeline.solve_at_scale`
  chains coreset → reduced solve (any registered algorithm) → expansion
  back to every client, evaluating the exact expanded D in O(|S|^2)
  memory by streaming clients in chunks. Combined with a
  :class:`~repro.net.provider.CoordinateProvider`, a 10^6-client
  instance solves end to end without ever allocating a dense
  ``|C| x |S|`` block.

See ``docs/scaling.md`` for the guarantees.
"""

from repro.scale.coreset import Coreset, build_coreset
from repro.scale.pipeline import (
    ScaleResult,
    expanded_objective,
    solve_at_scale,
)

__all__ = [
    "Coreset",
    "build_coreset",
    "ScaleResult",
    "solve_at_scale",
    "expanded_objective",
]
