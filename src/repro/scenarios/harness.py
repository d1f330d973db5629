"""Empirical competitive-ratio harness for online policies.

Replays a compiled :class:`~repro.scenarios.dsl.ScenarioTrace` through
an online policy and measures, at checkpoints, how far the online
decision stream strays from what the instance allows:

- ``ratio`` — D_online divided by the §V super-optimal lower bound of
  the *revealed* instance (all servers, the currently connected client
  set, uncapacitated). Because LB ≤ OPT ≤ D_online for any assignment
  over these servers, this empirical competitive ratio is **≥ 1.0 by
  construction** — a value below 1 means a bug, and the harness's own
  tests enforce that invariant on every bundled scenario.
- ``ratio_offline`` / ``regret`` — D_online against an actual offline
  solve (:func:`~repro.algorithms.base.run_algorithm` on the revealed
  instance with the same capacity). Informational: the offline
  algorithm is itself a heuristic, so regret may be negative.

Each checkpoint computes its bound directly with
:func:`~repro.core.interaction_lower_bound` (a few milliseconds on a
Meridian-size instance), so comparing P policies on one scenario
computes each checkpoint bound P times.

Two execution paths, both with the semantics the service serves:
``library`` (an :class:`~repro.algorithms.online.OnlineAssignmentManager`
with a :class:`~repro.faults.failover.FailoverController` and a
:class:`~repro.resilience.degrade.DegradeController` configured like a
default service session, driven through
:func:`~repro.resilience.events.apply_event`) and ``wire`` (a live
:mod:`repro.service` TCP session; meridian/mit instances, fault events
included). A crash sheds only the stranded clients no survivor can
hold, farthest first; a join that cannot be admitted queues FIFO up to
the backlog watermark (and is counted as ``rejected`` either way).
:func:`compare_policies` fans replays out through
:class:`~repro.parallel.pool.TrialPool` — ``workers=0`` is the
bit-identical serial twin.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import run_algorithm
from repro.algorithms.online import OnlineAssignmentManager, OnlineConfig
from repro.algorithms.policies import validate_policy_name
from repro.core import ClientAssignmentProblem, interaction_lower_bound
from repro.errors import ReproError, ScenarioError
from repro.faults.failover import FailoverController
from repro.obs.metrics import registry
from repro.parallel.pool import TrialPool, run_trials, successful_values
from repro.resilience.degrade import DegradeController, DegradePolicy
from repro.resilience.events import apply_event, check_event
from repro.scenarios.dsl import BuiltInstance, Scenario, ScenarioTrace

_PATHS = ("library", "wire")

#: Guard band for the ratio >= 1 invariant (float roundoff only).
RATIO_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ReplayOptions:
    """Knobs of one scenario replay."""

    path: str = "library"
    checkpoint_every: int = 32
    #: Budget for ``policy.maintain`` after each event (0 disables;
    #: ignored on the wire path, which has no maintenance op).
    maintain_moves: int = 1
    #: Offline reference solver at checkpoints (None disables the
    #: informational offline ratio/regret columns).
    offline_algorithm: Optional[str] = "nearest-server"
    block_size: int = 256

    def __post_init__(self) -> None:
        if self.path not in _PATHS:
            raise ScenarioError(
                f"path must be one of {_PATHS}, got {self.path!r}"
            )
        if self.checkpoint_every < 1:
            raise ScenarioError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.maintain_moves < 0:
            raise ScenarioError(
                f"maintain_moves must be >= 0, got {self.maintain_moves}"
            )
        if self.block_size < 1:
            raise ScenarioError(
                f"block_size must be >= 1, got {self.block_size}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "checkpoint_every": self.checkpoint_every,
            "maintain_moves": self.maintain_moves,
            "offline_algorithm": self.offline_algorithm,
            "block_size": self.block_size,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ReplayOptions":
        return cls(**data)


@dataclass(frozen=True)
class Checkpoint:
    """Measurements after one checkpointed prefix of the trace."""

    event_index: int
    time: float
    n_connected: int
    d_online: float
    lower_bound: float
    ratio: float
    d_offline: Optional[float] = None
    ratio_offline: Optional[float] = None
    regret: Optional[float] = None
    rejected: int = 0
    max_load: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "event_index": self.event_index,
            "time": self.time,
            "n_connected": self.n_connected,
            "d_online": self.d_online,
            "lower_bound": self.lower_bound,
            "ratio": self.ratio,
            "d_offline": self.d_offline,
            "ratio_offline": self.ratio_offline,
            "regret": self.regret,
            "rejected": self.rejected,
            "max_load": self.max_load,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Checkpoint":
        return cls(**data)


@dataclass(frozen=True)
class ReplayResult:
    """One policy's replay of one scenario."""

    scenario: str
    policy: str
    path: str
    n_events: int
    checkpoints: Tuple[Checkpoint, ...]
    counters: Dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def final(self) -> Optional[Checkpoint]:
        return self.checkpoints[-1] if self.checkpoints else None

    @property
    def max_ratio(self) -> float:
        if not self.checkpoints:
            return 1.0
        return max(c.ratio for c in self.checkpoints)

    @property
    def mean_ratio(self) -> float:
        if not self.checkpoints:
            return 1.0
        return sum(c.ratio for c in self.checkpoints) / len(self.checkpoints)

    @property
    def events_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.n_events / self.elapsed_seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "policy": self.policy,
            "path": self.path,
            "n_events": self.n_events,
            "checkpoints": [c.to_dict() for c in self.checkpoints],
            "counters": dict(self.counters),
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ReplayResult":
        payload = dict(data)
        checkpoints = tuple(
            Checkpoint.from_dict(c) for c in payload.pop("checkpoints", [])
        )
        return cls(checkpoints=checkpoints, **payload)


# ----------------------------------------------------------------------
# Checkpoint measurement
# ----------------------------------------------------------------------
def _measure(
    built: BuiltInstance,
    connected: Sequence[int],
    d_online: float,
    *,
    event_index: int,
    time: float,
    rejected: int,
    loads: Optional[np.ndarray],
    options: ReplayOptions,
) -> Optional[Checkpoint]:
    """Build one checkpoint; None when nothing is connected yet."""
    if not connected:
        return None
    clients = np.asarray(sorted(connected), dtype=np.int64)
    revealed = ClientAssignmentProblem(
        built.provider, built.servers, clients=clients
    )
    lb = interaction_lower_bound(revealed, block_size=options.block_size)
    ratio = d_online / lb if lb > 0 else 1.0
    d_offline = ratio_offline = regret = None
    if options.offline_algorithm is not None:
        problem = revealed
        if built.capacity is not None:
            # Same capacity as the online run; over all servers this is
            # always feasible for a client set the manager admitted.
            problem = revealed.with_capacity(built.capacity)
        try:
            result = run_algorithm(
                options.offline_algorithm, problem, seed=0
            )
            d_offline = float(result.d)
            ratio_offline = d_online / d_offline if d_offline > 0 else 1.0
            regret = d_online - d_offline
        except ReproError:
            # Offline reference is informational; a failed solve (e.g.
            # capacity infeasible mid-outage) just leaves the columns
            # empty.
            pass
    return Checkpoint(
        event_index=event_index,
        time=time,
        n_connected=len(connected),
        d_online=float(d_online),
        lower_bound=float(lb),
        ratio=float(ratio),
        d_offline=d_offline,
        ratio_offline=ratio_offline,
        regret=regret,
        rejected=rejected,
        max_load=int(loads.max()) if loads is not None and loads.size else 0,
    )


def _checkpoint_indices(n_events: int, every: int) -> set:
    marks = set(range(every - 1, n_events, every))
    if n_events:
        marks.add(n_events - 1)
    return marks


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
#: Counters every path reports (the wire path has no maintenance, so its
#: ``maintain_moves`` stays 0).
_COUNTERS = (
    "rejected",
    "skipped_leaves",
    "evacuated",
    "shed",
    "rebalance_moves",
    "maintain_moves",
)


def _count(
    counters: Dict[str, int], op: str, outcome: str, extras: Dict[str, Any]
) -> None:
    """Fold one event's outcome and reply extras into the counters.

    ``extras`` may be a whole wire reply envelope: the keys read here
    are exactly the op-specific fields :func:`apply_event` returns.
    """
    if op == "join" and outcome != "assigned":
        counters["rejected"] += 1
    elif op == "leave" and outcome != "left":
        counters["skipped_leaves"] += 1
    elif op == "crash":
        counters["evacuated"] += extras["evacuated"]
        counters["shed"] += len(extras["shed"])
    counters["rebalance_moves"] += extras.get("rebalance_moves", 0)
    counters["rebalance_moves"] += extras.get("moves", 0)


# ----------------------------------------------------------------------
# Library replay
# ----------------------------------------------------------------------
def _build_stack(
    built: BuiltInstance, policy: str
) -> Tuple[OnlineAssignmentManager, FailoverController, DegradeController]:
    """The served stack: manager, failover controller and degrade
    machine configured like a service session's defaults."""
    manager = OnlineAssignmentManager(
        built.provider,
        built.servers,
        OnlineConfig(capacity=built.capacity, join_policy=policy),
        client_nodes=built.clients,
    )
    controller = FailoverController(manager, readmit_moves=8, shed_policy="shed")
    return manager, controller, DegradeController(manager, DegradePolicy())


def _replay_chunks(
    scenario: Scenario,
    trace: ScenarioTrace,
    built: BuiltInstance,
    policy: str,
    options: ReplayOptions,
    step: Callable[..., Tuple[Sequence[int], float, np.ndarray]],
) -> ReplayResult:
    """Drive a path from checkpoint to checkpoint and measure each.

    ``step(chunk, counters)`` applies a chunk of events, folds their
    outcomes into the counters and returns ``(connected, D, loads)``.
    """
    counters = dict.fromkeys(_COUNTERS, 0)
    events_metric = registry().counter("scenarios.events")
    checkpoints: List[Checkpoint] = []
    started = _time.perf_counter()
    start = 0
    for mark in sorted(_checkpoint_indices(trace.n_events, options.checkpoint_every)):
        chunk = trace.events[start : mark + 1]
        start = mark + 1
        events_metric.inc(len(chunk))
        connected, d_online, loads = step(chunk, counters)
        checkpoint = _measure(
            built,
            connected,
            d_online,
            event_index=mark,
            time=trace.events[mark].time,
            rejected=counters["rejected"],
            loads=loads,
            options=options,
        )
        if checkpoint is not None:
            checkpoints.append(checkpoint)
    return ReplayResult(
        scenario=scenario.name,
        policy=policy,
        path=options.path,
        n_events=trace.n_events,
        checkpoints=tuple(checkpoints),
        counters=counters,
        elapsed_seconds=_time.perf_counter() - started,
    )


def _replay_managed(
    scenario: Scenario,
    trace: ScenarioTrace,
    built: BuiltInstance,
    policy: str,
    options: ReplayOptions,
) -> ReplayResult:
    stack = _build_stack(built, policy)
    manager, _controller, degrade = stack

    def step(chunk, counters):
        for event in chunk:
            data = check_event(manager, degrade, event.op, event.to_event_dict())
            outcome, extras = apply_event(*stack, event.op, data, time=event.time)
            _count(counters, event.op, outcome, extras)
            if options.maintain_moves:
                counters["maintain_moves"] += manager.policy.maintain(
                    manager, max_moves=options.maintain_moves
                )
        return manager.clients, manager.current_d(), manager.loads()

    return _replay_chunks(scenario, trace, built, policy, options, step)


# ----------------------------------------------------------------------
# Wire replay
# ----------------------------------------------------------------------
def _replay_wire(
    scenario: Scenario,
    trace: ScenarioTrace,
    built: BuiltInstance,
    policy: str,
    options: ReplayOptions,
) -> ReplayResult:
    from repro.resilience.checkpoint import decode_float
    from repro.service.client import ServiceClient
    from repro.service.server import ServerThread

    online = OnlineConfig(capacity=built.capacity, join_policy=policy)
    config = scenario.instance.session_config(online)
    # Joins the service admitted or queued, minus leaves and sheds; the
    # connected set is this minus the still-queued backlog.
    admitted: set = set()
    with ServerThread() as (host, port), ServiceClient(host, port) as client:
        session = client.open_session(**config.to_dict())["session"]

        def step(chunk, counters):
            replies = client.batch(session, [e.to_event_dict() for e in chunk])
            for event, reply in zip(chunk, replies):
                if "error" in reply:
                    raise ScenarioError(
                        f"scenario {scenario.name!r}: the service refused "
                        f"{event.to_event_dict()}: {reply['error']['message']}"
                    )
                outcome = reply["outcome"]
                _count(counters, event.op, outcome, reply)
                if event.op == "join" and outcome in ("assigned", "queued"):
                    admitted.add(event.node)
                elif event.op == "leave":
                    admitted.discard(event.node)
                elif event.op == "crash":
                    admitted.difference_update(reply["shed"])
            stats = client.query(session, "stats")
            connected = admitted.difference(
                client.query(session, "backlog")["backlog"]
            )
            if len(connected) != stats["n_clients"]:
                raise ScenarioError(
                    f"scenario {scenario.name!r}: rebuilt {len(connected)} "
                    f"connected clients at event {chunk[-1].seq}, but the "
                    f"service serves {stats['n_clients']}"
                )
            loads = np.asarray(stats["loads"], dtype=np.int64)
            return sorted(connected), decode_float(stats["d"]), loads

        result = _replay_chunks(scenario, trace, built, policy, options, step)
        client.close_session(session)
    return result


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def replay_scenario(
    scenario: Scenario,
    policy: str,
    *,
    options: Optional[ReplayOptions] = None,
    built: Optional[BuiltInstance] = None,
    trace: Optional[ScenarioTrace] = None,
) -> ReplayResult:
    """Replay one scenario through one policy; measure at checkpoints.

    ``built``/``trace`` let callers amortize instance construction and
    compilation across replays (both are pure functions of the
    scenario, so passing them cannot change results).
    """
    options = options or ReplayOptions()
    validate_policy_name(policy)
    if built is None:
        built = scenario.instance.build()
    if trace is None:
        trace = scenario.compile(built)
    metrics = registry()
    metrics.counter("scenarios.replays").inc()
    if options.path == "wire":
        result = _replay_wire(scenario, trace, built, policy, options)
    else:
        result = _replay_managed(scenario, trace, built, policy, options)
    prefix = f"scenarios.replay.{policy}"
    metrics.counter(f"{prefix}.checkpoints").inc(len(result.checkpoints))
    metrics.counter(f"{prefix}.ratio_sum").inc(
        sum(c.ratio for c in result.checkpoints)
    )
    metrics.gauge(f"{prefix}.max_ratio").set(result.max_ratio)
    metrics.counter("scenarios.seconds").inc(result.elapsed_seconds)
    return result


def check_ratios(result: ReplayResult) -> None:
    """Raise :class:`~repro.errors.ScenarioError` if any checkpoint
    ratio violates the ≥ 1 invariant (modulo float roundoff)."""
    for checkpoint in result.checkpoints:
        if checkpoint.ratio < 1.0 - RATIO_TOLERANCE:
            raise ScenarioError(
                f"competitive ratio {checkpoint.ratio} < 1 at event "
                f"{checkpoint.event_index} of {result.scenario!r} "
                f"({result.policy}): the lower bound is violated, "
                f"which indicates a harness or engine bug"
            )


def _compare_trial(matrix: Any, task: Any) -> Dict[str, Any]:
    """Module-level trial fn (pool workers rebuild everything from the
    scenario document, so serial and parallel runs are bit-identical)."""
    scenario_doc, policy, options_doc = task
    scenario = Scenario.from_dict(scenario_doc)
    options = ReplayOptions.from_dict(options_doc)
    result = replay_scenario(scenario, policy, options=options)
    return result.to_dict()


def compare_policies(
    scenario: Scenario,
    policies: Sequence[str],
    *,
    options: Optional[ReplayOptions] = None,
    pool: Optional[TrialPool] = None,
) -> List[ReplayResult]:
    """Replay one scenario through several policies, in trace order.

    Fan-out goes through :class:`~repro.parallel.pool.TrialPool` when
    ``pool`` is given (``workers=0`` is the serial twin).
    """
    if not policies:
        raise ScenarioError("need at least one policy to compare")
    options = options or ReplayOptions()
    for policy in policies:
        validate_policy_name(policy)
    scenario_doc = scenario.to_dict()
    options_doc = options.to_dict()
    tasks = [(scenario_doc, policy, options_doc) for policy in policies]
    outcomes = run_trials(_compare_trial, tasks, pool=pool)
    values = successful_values(
        outcomes, context=f"scenario {scenario.name!r} comparison"
    )
    return [ReplayResult.from_dict(v) for v in values]
