"""Adversarial workload DSL + empirical competitive-ratio harness.

Declarative, seeded scenario documents (:mod:`repro.scenarios.dsl`)
compile to fixed event traces that replay through any registered
:class:`~repro.algorithms.policies.OnlinePolicy` — via the plain
manager or a live wire session — while the harness
(:mod:`repro.scenarios.harness`) measures the empirical competitive
ratio against the paper's §V super-optimal lower bound at checkpoints. See ``docs/scenarios.md`` for the authoring guide.
"""

from repro.scenarios.catalog import bundled_scenario, scenario_names
from repro.scenarios.dsl import (
    SEGMENT_KINDS,
    BuiltInstance,
    CapacityCrunch,
    CorrelatedBursts,
    DiurnalWave,
    Drain,
    FlashCrowd,
    InstanceSpec,
    NemesisChurn,
    RegionalOutage,
    Scenario,
    ScenarioEvent,
    ScenarioTrace,
    Segment,
    segment_from_dict,
)
from repro.scenarios.harness import (
    Checkpoint,
    ReplayOptions,
    ReplayResult,
    check_ratios,
    compare_policies,
    replay_scenario,
)
from repro.scenarios.report import (
    compare_to_dict,
    render_compare_report,
    render_run_report,
)

__all__ = [
    "Scenario",
    "InstanceSpec",
    "BuiltInstance",
    "Segment",
    "FlashCrowd",
    "DiurnalWave",
    "CorrelatedBursts",
    "CapacityCrunch",
    "NemesisChurn",
    "Drain",
    "RegionalOutage",
    "SEGMENT_KINDS",
    "segment_from_dict",
    "ScenarioEvent",
    "ScenarioTrace",
    "bundled_scenario",
    "scenario_names",
    "ReplayOptions",
    "ReplayResult",
    "Checkpoint",
    "replay_scenario",
    "compare_policies",
    "check_ratios",
    "render_run_report",
    "render_compare_report",
    "compare_to_dict",
]
