"""Small cross-cutting helpers: RNG handling, validation, timing.

``Stopwatch`` lives in :mod:`repro.obs.timing`; the re-export here keeps
``from repro.utils import Stopwatch`` working.
"""

from repro.obs.timing import Stopwatch
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import (
    require,
    require_positive,
    require_in_range,
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "Stopwatch",
    "require",
    "require_positive",
    "require_in_range",
]
