"""Command-line interface: ``dia-cap`` / ``python -m repro``.

Subcommands:

- ``dataset``  — generate a synthetic latency matrix (and describe it).
- ``solve``    — run one assignment algorithm on a generated instance.
- ``fig``      — regenerate a paper figure's data series as a table.
- ``claims``   — run the §V claims checklist.
- ``simulate`` — run the DIA event simulation for a solved assignment.
- ``faults``   — fault-injection churn: crashes, failover, recovery.
- ``chaos``    — kill/recover/diff the durable runtime (WAL + checkpoints).
- ``serve``    — run the assignment service over TCP JSON-lines.
- ``loadgen``  — drive seeded churn through a live assignment server.
- ``scale``    — million-client solves: coreset + coordinate provider.
- ``obs``      — summarize a JSONL trace produced with ``--trace``.

Every subcommand runs under the observability harness: a run manifest
is built from the parsed arguments and installed as the ambient
manifest (picked up by ``save_result``), and ``--trace PATH`` (or
``REPRO_OBS_TRACE=PATH``) streams span/metrics/manifest events to a
JSONL file that ``repro obs PATH`` rolls up into a per-phase time
breakdown. Tracing never changes results — see docs/observability.md.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional

import numpy as np

from repro._version import __version__
from repro.errors import ReproError
from repro.kernels import BACKEND_CHOICES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dia-cap",
        description=(
            "Client assignment for continuous distributed interactive "
            "applications (Zhang & Tang, ICDCS 2011) — reproduction toolkit"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)

    # Shared by every trial-sweeping subcommand (fig/claims/report/ablate):
    # 0 = serial (deterministic default), -1 = one worker per CPU, N > 0 =
    # that many worker processes. Results are identical for any value —
    # see docs/parallel.md for the determinism contract.
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help=(
            "worker processes for trial execution "
            "(0 = serial, -1 = all CPUs; results are identical)"
        ),
    )
    # Span tracing for the sweep commands; "null" disables, "memory"
    # buffers in-process (tests), anything else is a JSONL file path.
    tracing = argparse.ArgumentParser(add_help=False)
    tracing.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "write span/metrics/manifest events to a JSONL trace file "
            "(also settable via REPRO_OBS_TRACE; never changes results)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dataset = sub.add_parser("dataset", help="generate a synthetic latency matrix")
    p_dataset.add_argument("--nodes", type=int, default=400)
    p_dataset.add_argument("--kind", choices=("meridian", "mit"), default="meridian")
    p_dataset.add_argument("--seed", type=int, default=0)
    p_dataset.add_argument("--out", type=str, default=None, help=".npy or text path")

    p_analyze = sub.add_parser(
        "analyze", help="structural analytics of a latency matrix"
    )
    p_analyze.add_argument("--nodes", type=int, default=300)
    p_analyze.add_argument("--kind", choices=("meridian", "mit"), default="meridian")
    p_analyze.add_argument("--seed", type=int, default=0)
    p_analyze.add_argument(
        "--load", type=str, default=None, help="analyze a matrix file instead"
    )
    p_analyze.add_argument("--clusters", type=int, default=8)

    p_solve = sub.add_parser("solve", help="run one algorithm on an instance")
    p_solve.add_argument("--nodes", type=int, default=400)
    p_solve.add_argument("--kind", choices=("meridian", "mit"), default="meridian")
    p_solve.add_argument("--servers", type=int, default=80)
    p_solve.add_argument(
        "--placement", choices=("random", "k-center-a", "k-center-b"), default="random"
    )
    p_solve.add_argument("--algorithm", type=str, default="distributed-greedy")
    p_solve.add_argument("--capacity", type=int, default=None)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument(
        "--backend",
        choices=BACKEND_CHOICES,
        default="auto",
        help="kernel backend for the incremental engine "
        "(auto = numba when importable, else numpy)",
    )
    p_solve.add_argument(
        "--save-deployment",
        type=str,
        default=None,
        help="write the assignment + clock offsets as a JSON deployment plan",
    )

    p_fig = sub.add_parser(
        "fig",
        help="regenerate a paper figure's data",
        parents=[workers, tracing],
    )
    p_fig.add_argument("figure", choices=("7", "8", "9", "10"))
    p_fig.add_argument(
        "--placement",
        choices=("random", "k-center-a", "k-center-b"),
        default="random",
        help="panel for figures 7 and 10",
    )
    p_fig.add_argument("--profile", type=str, default="default")
    p_fig.add_argument(
        "--save", type=str, default=None, help="write the series to a JSON file"
    )
    p_fig.add_argument(
        "--load",
        type=str,
        default=None,
        help="render a previously saved series instead of recomputing",
    )

    p_claims = sub.add_parser(
        "claims",
        help="run the §V claims checklist",
        parents=[workers, tracing],
    )
    p_claims.add_argument("--profile", type=str, default="default")

    p_report = sub.add_parser(
        "report",
        help="regenerate the full evaluation (all figures + claims)",
        parents=[workers, tracing],
    )
    p_report.add_argument("--profile", type=str, default="default")
    p_report.add_argument(
        "--out", type=str, default=None, help="directory for JSON series + report.txt"
    )
    p_report.add_argument(
        "--ablations", action="store_true", help="include the ablation studies"
    )

    p_ablate = sub.add_parser(
        "ablate", help="run an ablation study", parents=[workers, tracing]
    )
    p_ablate.add_argument(
        "study",
        choices=(
            "dga-initial",
            "greedy-cost",
            "triangle",
            "estimated-latencies",
            "measurement-error",
            "placement",
        ),
    )
    p_ablate.add_argument("--nodes", type=int, default=200)
    p_ablate.add_argument("--servers", type=int, default=20)
    p_ablate.add_argument("--runs", type=int, default=5)
    p_ablate.add_argument("--seed", type=int, default=0)

    p_churn = sub.add_parser(
        "churn", help="simulate online client churn with/without rebalancing"
    )
    p_churn.add_argument("--nodes", type=int, default=200)
    p_churn.add_argument("--servers", type=int, default=16)
    p_churn.add_argument("--events", type=int, default=300)
    p_churn.add_argument("--rebalance-every", type=int, default=20)
    p_churn.add_argument("--seed", type=int, default=0)

    p_faults = sub.add_parser(
        "faults",
        help="fault-injection churn: server crashes, failover, recovery",
    )
    p_faults.add_argument("--nodes", type=int, default=200)
    p_faults.add_argument("--servers", type=int, default=16)
    p_faults.add_argument("--events", type=int, default=300)
    p_faults.add_argument(
        "--mttf", type=float, default=120.0,
        help="mean time to failure per server (in churn-event ticks)",
    )
    p_faults.add_argument(
        "--mttr", type=float, default=40.0,
        help="mean time to recovery (in churn-event ticks)",
    )
    p_faults.add_argument("--capacity", type=int, default=None)
    p_faults.add_argument("--rebalance-every", type=int, default=None)
    p_faults.add_argument(
        "--readmit-moves", type=int, default=8,
        help="Distributed-Greedy move budget on each server recovery",
    )
    p_faults.add_argument("--seed", type=int, default=0)

    p_chaos = sub.add_parser(
        "chaos",
        help="kill/recover/diff the durable online runtime",
    )
    p_chaos.add_argument("--nodes", type=int, default=120)
    p_chaos.add_argument("--servers", type=int, default=8)
    p_chaos.add_argument("--events", type=int, default=120)
    p_chaos.add_argument(
        "--kill-at", type=int, nargs="*", default=None, metavar="K",
        help=(
            "event indices to kill the runtime after "
            "(default: three points spread across the workload)"
        ),
    )
    p_chaos.add_argument("--capacity", type=int, default=None)
    p_chaos.add_argument(
        "--max-backlog", type=int, default=32,
        help="degraded-mode join backlog before rejection",
    )
    p_chaos.add_argument("--checkpoint-every", type=int, default=20)
    p_chaos.add_argument(
        "--fsync-every", type=int, default=8,
        help="WAL group-commit size (1 = fsync every record)",
    )
    p_chaos.add_argument(
        "--no-torn-tail", action="store_true",
        help="skip appending a torn partial record to each killed WAL",
    )
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument(
        "--dir", type=str, default=None,
        help=(
            "working directory for WALs/checkpoints "
            "(default: a temp dir, removed on exit)"
        ),
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the assignment service over TCP JSON-lines",
    )
    p_serve.add_argument("--host", type=str, default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7690,
        help="listen port (0 = pick an ephemeral port)",
    )
    p_serve.add_argument(
        "--base-dir", type=str, default=None,
        help=(
            "directory for WAL-backed session state "
            "(default: a temp dir, removed on shutdown)"
        ),
    )

    p_loadgen = sub.add_parser(
        "loadgen",
        help="drive seeded churn through a live assignment server",
    )
    p_loadgen.add_argument("--host", type=str, default="127.0.0.1")
    p_loadgen.add_argument("--port", type=int, default=7690)
    p_loadgen.add_argument(
        "--spawn", action="store_true",
        help="start an in-process server on an ephemeral port instead",
    )
    p_loadgen.add_argument("--events", type=int, default=10_000)
    p_loadgen.add_argument("--batch-size", type=int, default=200)
    p_loadgen.add_argument("--pipeline-depth", type=int, default=8)
    p_loadgen.add_argument("--seed", type=int, default=0)
    p_loadgen.add_argument("--nodes", type=int, default=120)
    p_loadgen.add_argument(
        "--kind", choices=("meridian", "mit"), default="meridian"
    )
    p_loadgen.add_argument("--servers", type=int, default=8)
    p_loadgen.add_argument("--capacity", type=int, default=None)
    p_loadgen.add_argument(
        "--durability", choices=("off", "wal"), default="off",
        help="session durability mode (wal persists state server-side)",
    )
    p_loadgen.add_argument("--fault-every", type=int, default=0)
    p_loadgen.add_argument("--partition-every", type=int, default=0)
    p_loadgen.add_argument("--rebalance-every", type=int, default=0)
    p_loadgen.add_argument(
        "--verify", action="store_true",
        help=(
            "replay the events in-process and assert the wire and "
            "library paths are byte-identical"
        ),
    )
    p_loadgen.add_argument(
        "--min-throughput", type=float, default=None, metavar="EVENTS_PER_SEC",
        help="exit non-zero below this sustained event rate",
    )

    p_obs = sub.add_parser(
        "obs", help="summarize a JSONL trace produced with --trace"
    )
    p_obs.add_argument("trace_file", type=str, help="JSONL trace file path")
    p_obs.add_argument(
        "--top", type=int, default=10,
        help="number of hottest spans to show (by self time)",
    )

    p_scale = sub.add_parser(
        "scale",
        help="million-client solves via coresets and coordinate providers",
        parents=[tracing],
    )
    scale_sub = p_scale.add_subparsers(dest="scale_command", required=True)
    p_scale_solve = scale_sub.add_parser(
        "solve",
        help="coreset-solve a planet-scale coordinate instance",
        parents=[tracing],
    )
    p_scale_solve.add_argument(
        "--clients", type=int, default=100_000,
        help="client count (coordinate provider: no dense matrix, any size)",
    )
    p_scale_solve.add_argument("--servers", type=int, default=32)
    p_scale_solve.add_argument(
        "--clusters", type=int, default=64,
        help="metro clusters in the generated geometry",
    )
    p_scale_solve.add_argument(
        "--cell-size", type=float, default=None,
        help="coreset quantization cell in ms (default: geometry-derived)",
    )
    p_scale_solve.add_argument("--algorithm", type=str, default="distributed-greedy")
    p_scale_solve.add_argument("--seed", type=int, default=0)
    p_scale_solve.add_argument(
        "--backend",
        choices=BACKEND_CHOICES,
        default="auto",
        help="kernel backend for the reduced solve",
    )
    p_scale_solve.add_argument(
        "--save", type=str, default=None,
        help="write the scale-solve summary as JSON",
    )

    p_scen = sub.add_parser(
        "scenarios",
        help="adversarial workloads + empirical competitive-ratio harness",
    )
    scen_sub = p_scen.add_subparsers(dest="scenarios_command", required=True)
    scen_sub.add_parser("list", help="list the bundled scenarios")

    scen_shared = argparse.ArgumentParser(add_help=False)
    scen_shared.add_argument(
        "--scenario", type=str, default="flash-crowd",
        help="bundled scenario name (see `scenarios list`)",
    )
    scen_shared.add_argument(
        "--file", type=str, default=None, metavar="PATH",
        help="load a scenario JSON document instead of a bundled one",
    )
    scen_shared.add_argument(
        "--path", choices=("library", "wire"), default="library",
        help="execution path: plain manager or live TCP",
    )
    scen_shared.add_argument(
        "--checkpoint-every", type=int, default=32,
        help="events between competitive-ratio checkpoints",
    )
    scen_shared.add_argument(
        "--maintain-moves", type=int, default=1,
        help="policy.maintain move budget after each event (0 disables)",
    )
    scen_shared.add_argument(
        "--offline", type=str, default="nearest-server", metavar="ALGO",
        help="offline reference algorithm at checkpoints ('none' disables)",
    )
    scen_shared.add_argument(
        "--json", action="store_true", help="emit the JSON document instead"
    )
    scen_shared.add_argument(
        "--out", type=str, default=None, help="write the JSON document here"
    )

    p_scen_run = scen_sub.add_parser(
        "run",
        help="replay one scenario through one policy",
        parents=[scen_shared, tracing],
    )
    p_scen_run.add_argument(
        "--policy", type=str, default="greedy",
        help="online policy (see repro.algorithms.policies)",
    )
    p_scen_run.add_argument(
        "--show", action="store_true",
        help="print the scenario JSON document and exit without replaying",
    )

    p_scen_cmp = scen_sub.add_parser(
        "compare",
        help="replay one scenario through several policies",
        parents=[scen_shared, workers, tracing],
    )
    p_scen_cmp.add_argument(
        "--policies", type=str, default="greedy,nearest,threshold,spread",
        help="comma-separated policy names",
    )

    p_sim = sub.add_parser("simulate", help="run the DIA event simulation")
    p_sim.add_argument("--nodes", type=int, default=120)
    p_sim.add_argument("--servers", type=int, default=10)
    p_sim.add_argument("--algorithm", type=str, default="greedy")
    p_sim.add_argument("--ops-rate", type=float, default=0.01)
    p_sim.add_argument("--horizon", type=float, default=500.0)
    p_sim.add_argument("--jitter-sigma", type=float, default=0.0)
    p_sim.add_argument(
        "--percentile", type=float, default=None,
        help="plan the lag against this latency percentile (with jitter)",
    )
    p_sim.add_argument("--seed", type=int, default=0)
    return parser


def _make_matrix(kind: str, nodes: int, seed: int):
    from repro.datasets import synthesize_meridian_like, synthesize_mit_like

    if kind == "mit":
        return synthesize_mit_like(nodes, seed=seed)
    return synthesize_meridian_like(nodes, seed=seed)


def _cmd_dataset(args: argparse.Namespace) -> int:
    from repro.datasets.io import write_matrix_npy, write_matrix_text
    from repro.net.latency import describe

    matrix = _make_matrix(args.kind, args.nodes, args.seed)
    print(describe(matrix))
    if args.out:
        if args.out.endswith(".npy"):
            write_matrix_npy(args.out, matrix.values)
        else:
            write_matrix_text(args.out, matrix.values)
        print(f"wrote {matrix.n_nodes}x{matrix.n_nodes} matrix to {args.out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.datasets import drop_incomplete_nodes
    from repro.datasets.io import load_matrix_auto
    from repro.net.analysis import (
        asymmetry_report,
        cluster_nodes,
        cluster_quality,
        stretch_report,
    )
    from repro.net.latency import describe

    if args.load:
        raw = load_matrix_auto(args.load)
        matrix, report = drop_incomplete_nodes(raw)
        if report.dropped:
            print(
                f"cleaned: {report.n_before} -> {report.n_after} nodes "
                f"({len(report.dropped)} dropped)"
            )
    else:
        matrix = _make_matrix(args.kind, args.nodes, args.seed)
    print(describe(matrix))
    asym = asymmetry_report(matrix)
    print(
        f"asymmetry: mean {asym.mean_relative_asymmetry:.2%}, "
        f"max {asym.max_relative_asymmetry:.2%}, "
        f">10%: {asym.fraction_above_10pct:.2%} of pairs"
    )
    stretch = stretch_report(matrix)
    print(
        f"stretch vs metric closure: mean {stretch.mean_stretch:.3f}, "
        f"p95 {stretch.p95_stretch:.3f}, max {stretch.max_stretch:.3f}, "
        f"detour available for {stretch.fraction_stretched:.1%} of pairs"
    )
    k = min(args.clusters, matrix.n_nodes)
    labels, medoids = cluster_nodes(matrix, k, seed=args.seed)
    quality = cluster_quality(matrix, labels)
    import numpy as np

    sizes = np.bincount(labels, minlength=k)
    print(
        f"k-medoids (k={k}): separation score {quality:.3f}, "
        f"cluster sizes {sorted(sizes.tolist(), reverse=True)}"
    )
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.algorithms import run_algorithm
    from repro.core import ClientAssignmentProblem, interaction_lower_bound
    from repro.experiments.runner import PLACEMENTS

    matrix = _make_matrix(args.kind, args.nodes, args.seed)
    servers = PLACEMENTS[args.placement](matrix, args.servers, seed=args.seed)
    problem = ClientAssignmentProblem(matrix, servers, capacities=args.capacity)
    result = run_algorithm(
        args.algorithm, problem, seed=args.seed, backend=args.backend
    )
    assignment = result.assignment
    d = result.d
    lb = interaction_lower_bound(problem.uncapacitated())
    loads = assignment.loads()
    print(f"instance: {problem}")
    print(
        f"algorithm: {args.algorithm} ({result.elapsed_seconds*1000:.1f} ms, "
        f"{result.n_evaluations} candidate evaluations)"
    )
    print(f"max interaction path length D = {d:.2f} ms")
    print(f"lower bound = {lb:.2f} ms, normalized interactivity = {d/lb:.3f}")
    print(
        f"servers used: {assignment.used_servers().size}/{problem.n_servers}, "
        f"max load: {int(loads.max())}"
    )
    if args.save_deployment:
        from repro.core import DeploymentPlan

        plan = DeploymentPlan.from_assignment(assignment)
        plan.save(args.save_deployment)
        print(
            f"wrote deployment plan (delta={plan.delta:.2f} ms, "
            f"{len(plan.server_offsets)} servers, "
            f"{len(plan.client_assignments)} clients) to {args.save_deployment}"
        )
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    from repro.experiments import (
        dataset_for,
        fig7,
        fig8,
        fig9,
        fig10,
        profile,
        render_fig7,
        render_fig8,
        render_fig9,
        render_fig10,
    )

    from repro.experiments import load_result, save_result

    from repro.parallel import TrialPool

    renderers = {"7": render_fig7, "8": render_fig8, "9": render_fig9, "10": render_fig10}
    if args.load is not None:
        result = load_result(args.load)
    else:
        prof = profile(args.profile)
        matrix = dataset_for(prof)
        with TrialPool(args.workers) as pool:
            if args.figure == "7":
                result = fig7(prof, args.placement, matrix=matrix, pool=pool)
            elif args.figure == "8":
                result = fig8(prof, matrix=matrix, pool=pool)
            elif args.figure == "9":
                result = fig9(prof, matrix=matrix, pool=pool)
            else:
                result = fig10(prof, args.placement, matrix=matrix, pool=pool)
    print(renderers[args.figure](result))
    if args.save is not None:
        save_result(args.save, result)
        print(f"saved series to {args.save}")
    return 0


def _cmd_claims(args: argparse.Namespace) -> int:
    from repro.experiments import (
        dataset_for,
        profile,
        render_claims,
        run_claims_for_profile,
    )
    from repro.parallel import TrialPool

    prof = profile(args.profile)
    matrix = dataset_for(prof)
    with TrialPool(args.workers) as pool:
        claims = run_claims_for_profile(prof, matrix=matrix, pool=pool)
    print(render_claims(claims))
    return 0 if all(c.holds for c in claims) else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments import profile, run_full_evaluation

    bundle = run_full_evaluation(
        profile(args.profile),
        out_dir=args.out,
        include_ablations=args.ablations,
        progress=lambda msg: print(f"[report] {msg}"),
        workers=args.workers,
    )
    print()
    print(bundle.render())
    return 0 if bundle.all_claims_hold else 1


def _cmd_ablate(args: argparse.Namespace) -> int:
    from repro.experiments.ablations import (
        ablation_dga_initial,
        ablation_estimated_latencies,
        ablation_greedy_cost,
        ablation_placement_strategies,
        ablation_triangle_violations,
    )
    from repro.parallel import TrialPool

    if args.study == "triangle":
        result = ablation_triangle_violations(
            n_nodes=args.nodes,
            n_servers=args.servers,
            n_runs=args.runs,
            seed=args.seed,
        )
    else:
        matrix = _make_matrix("meridian", args.nodes, args.seed)
        if args.study == "dga-initial":
            with TrialPool(args.workers) as pool:
                result = ablation_dga_initial(
                    matrix,
                    n_servers=args.servers,
                    n_runs=args.runs,
                    seed=args.seed,
                    pool=pool,
                )
        elif args.study == "greedy-cost":
            with TrialPool(args.workers) as pool:
                result = ablation_greedy_cost(
                    matrix,
                    n_servers=args.servers,
                    n_runs=args.runs,
                    seed=args.seed,
                    pool=pool,
                )
        elif args.study == "estimated-latencies":
            result = ablation_estimated_latencies(
                matrix, n_servers=args.servers, seed=args.seed
            )
        elif args.study == "measurement-error":
            from repro.experiments.ablations import ablation_measurement_error

            result = ablation_measurement_error(
                matrix, n_servers=args.servers, seed=args.seed
            )
        else:
            with TrialPool(args.workers) as pool:
                result = ablation_placement_strategies(
                    matrix,
                    n_servers=args.servers,
                    n_runs=args.runs,
                    seed=args.seed,
                    pool=pool,
                )
    print(result.render())
    return 0


def _cmd_churn(args: argparse.Namespace) -> int:
    from repro.algorithms.online import simulate_churn
    from repro.placement import kcenter_b

    matrix = _make_matrix("meridian", args.nodes, args.seed)
    servers = kcenter_b(matrix, args.servers, seed=args.seed)
    nearest = simulate_churn(
        matrix,
        servers,
        n_events=args.events,
        rebalance_every=None,
        join_policy="nearest",
        seed=args.seed,
    )
    greedy_joins = simulate_churn(
        matrix,
        servers,
        n_events=args.events,
        rebalance_every=None,
        join_policy="greedy",
        seed=args.seed,
    )
    managed = simulate_churn(
        matrix,
        servers,
        n_events=args.events,
        rebalance_every=args.rebalance_every,
        join_policy="greedy",
        seed=args.seed,
    )
    print(
        f"{args.events} join/leave events over {args.servers} servers "
        f"({args.nodes}-node network)"
    )
    print(
        f"nearest-server joins:      mean D = {nearest.mean_d():8.1f} ms, "
        f"final D = {nearest.final_d():8.1f} ms"
    )
    print(
        f"greedy joins:              mean D = {greedy_joins.mean_d():8.1f} ms, "
        f"final D = {greedy_joins.final_d():8.1f} ms"
    )
    print(
        f"greedy + rebalance/{args.rebalance_every:<3}:    mean D = "
        f"{managed.mean_d():8.1f} ms, final D = {managed.final_d():8.1f} ms "
        f"({managed.moves_by_rebalance} repair moves)"
    )
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import FaultSchedule, simulate_churn_with_faults
    from repro.placement import kcenter_b

    matrix = _make_matrix("meridian", args.nodes, args.seed)
    servers = kcenter_b(matrix, args.servers, seed=args.seed)
    # Keep a strict majority of servers up so evacuation always has a
    # target; the failover controller sheds only on capacity pressure.
    schedule = FaultSchedule.generate(
        args.servers,
        float(args.events),
        mttf=args.mttf,
        mttr=args.mttr,
        seed=args.seed,
        max_concurrent_down=max(1, args.servers // 2),
    )
    n_crashes = len(schedule.down_intervals)
    print(
        f"{args.events} churn events, {args.servers} servers, "
        f"{n_crashes} crash(es) (MTTF {args.mttf:g}, MTTR {args.mttr:g})"
    )
    for label, policy in (("nearest joins", "nearest"), ("greedy joins", "greedy")):
        result = simulate_churn_with_faults(
            matrix,
            servers,
            schedule,
            n_events=args.events,
            join_policy=policy,
            rebalance_every=args.rebalance_every,
            capacity=args.capacity,
            readmit_moves=args.readmit_moves,
            seed=args.seed,
        )
        print(
            f"{label:<14} mean D = {result.mean_d():8.1f} ms, "
            f"peak D = {result.peak_d():8.1f} ms, "
            f"final D = {result.final_d():8.1f} ms, "
            f"shed clients = {result.total_shed()}"
        )
        for cycle in result.cycles():
            recovered = (
                "not recovered"
                if cycle.recovery_ratio is None
                else f"recovered to {cycle.recovery_ratio:.2f}x pre-fault"
            )
            print(
                f"    server {cycle.server:>2} down at t={cycle.crash_time:7.1f}: "
                f"{cycle.n_evacuated} evacuated, {cycle.n_shed} shed, "
                f"degraded {cycle.inflation:.2f}x, {recovered} "
                f"({cycle.rebalance_moves} readmit moves)"
            )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import shutil
    import tempfile

    from repro.placement import kcenter_b
    from repro.resilience import DegradePolicy, run_chaos

    matrix = _make_matrix("meridian", args.nodes, args.seed)
    servers = kcenter_b(matrix, args.servers, seed=args.seed)
    base_dir = args.dir or tempfile.mkdtemp(prefix="repro-chaos-")
    cleanup = args.dir is None
    try:
        report = run_chaos(
            matrix,
            servers,
            base_dir,
            n_events=args.events,
            kill_points=tuple(args.kill_at or ()),
            seed=args.seed,
            capacity=args.capacity,
            policy=DegradePolicy(max_backlog=args.max_backlog),
            checkpoint_every=args.checkpoint_every,
            fsync_every=args.fsync_every,
            tear_tail=not args.no_torn_tail,
        )
    finally:
        if cleanup:
            shutil.rmtree(base_dir, ignore_errors=True)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.algorithms import run_algorithm
    from repro.core import ClientAssignmentProblem, OffsetSchedule
    from repro.net.jitter import LogNormalJitter, NoJitter
    from repro.placement import random_placement
    from repro.sim import poisson_workload, simulate_assignment
    from repro.sim.dia import percentile_schedule

    matrix = _make_matrix("meridian", args.nodes, args.seed)
    servers = random_placement(matrix, args.servers, seed=args.seed)
    problem = ClientAssignmentProblem(matrix, servers)
    result = run_algorithm(args.algorithm, problem, seed=args.seed)
    assignment = result.assignment
    jitter = LogNormalJitter(args.jitter_sigma) if args.jitter_sigma > 0 else NoJitter()
    if args.percentile is not None and args.jitter_sigma > 0:
        schedule = percentile_schedule(assignment, jitter, args.percentile)
    else:
        schedule = OffsetSchedule(assignment)
    ops = poisson_workload(
        problem.n_clients, rate=args.ops_rate, horizon=args.horizon, seed=args.seed
    )
    report = simulate_assignment(
        schedule,
        ops,
        jitter=jitter,
        seed=args.seed,
        allow_late=args.jitter_sigma > 0,
        base_matrix=matrix.values,
    )
    d = result.d
    print(f"assignment D = {d:.2f} ms, planned lag delta = {schedule.delta:.2f} ms")
    print(
        f"operations: {report.n_operations}, messages: {report.n_messages}, "
        f"healthy: {report.healthy}"
    )
    print(
        f"late at servers: {report.late_server_arrivals}, "
        f"late at clients: {report.late_client_updates}, "
        f"timewarp repairs: {report.repairs}"
    )
    print(
        f"interaction time min/max: {report.min_interaction_time:.2f} / "
        f"{report.max_interaction_time:.2f} ms "
        f"(servers consistent: {report.servers_consistent}, fair: {report.fair})"
    )
    return 0 if report.servers_consistent and report.fair else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import AssignmentServer, AssignmentService

    service = AssignmentService(base_dir=args.base_dir)
    server = AssignmentServer(service, host=args.host, port=args.port)

    async def _serve() -> None:
        host, port = await server.start()
        print(f"assignment service listening on {host}:{port}", flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        service.close()
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.service import ServerThread, run_loadgen

    session_params = {
        "nodes": args.nodes,
        "kind": args.kind,
        "n_servers": args.servers,
        "capacity": args.capacity,
        "durability": args.durability,
    }

    def _run(host: str, port: int):
        return run_loadgen(
            host,
            port,
            n_events=args.events,
            batch_size=args.batch_size,
            pipeline_depth=args.pipeline_depth,
            seed=args.seed,
            session_params=session_params,
            fault_every=args.fault_every,
            partition_every=args.partition_every,
            rebalance_every=args.rebalance_every,
            verify=args.verify,
        )

    if args.spawn:
        with ServerThread() as (host, port):
            report = _run(host, port)
    else:
        report = _run(args.host, args.port)
    print(report.render())
    if (
        args.min_throughput is not None
        and report.events_per_second < args.min_throughput
    ):
        print(
            f"FAIL: {report.events_per_second:,.0f} events/s is below the "
            f"required {args.min_throughput:,.0f}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    from repro.datasets import coreset_cell_size_hint, planet_instance
    from repro.obs import format_bytes, peak_rss_bytes
    from repro.scale import solve_at_scale

    instance = planet_instance(
        args.clients, args.servers, n_clusters=args.clusters, seed=args.seed
    )
    cell = args.cell_size
    if cell is None:
        cell = coreset_cell_size_hint(instance)
    result = solve_at_scale(
        instance.provider,
        instance.servers,
        instance.clients,
        cell_size=cell,
        algorithm=args.algorithm,
        seed=args.seed,
        backend=args.backend,
    )
    coreset = result.coreset
    print(
        f"instance: {args.clients} clients, {args.servers} servers, "
        f"{args.clusters} clusters (coordinate provider, no dense matrix)"
    )
    print(
        f"coreset: {coreset.n_clients} -> {coreset.n_representatives} "
        f"super-clients ({coreset.reduction_ratio:.1f}x, cell {cell:.2f} ms, "
        f"epsilon {coreset.epsilon:.2f} ms)"
    )
    print(
        f"reduced D = {result.d_reduced:.2f} ms "
        f"({args.algorithm}, {result.reduced.elapsed_seconds*1000:.1f} ms solve)"
    )
    print(
        f"expanded D = {result.d_expanded:.2f} ms "
        f"<= bound {result.bound:.2f} ms (reduced + 2*epsilon)"
    )
    print(
        f"total {result.elapsed_seconds:.2f} s, "
        f"peak RSS {format_bytes(peak_rss_bytes())}"
    )
    if args.save:
        import json

        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote scale-solve summary to {args.save}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import render_summary, summarize_file

    print(render_summary(summarize_file(args.trace_file, top=args.top)))
    return 0


def _load_scenario(args: argparse.Namespace):
    from repro.scenarios import Scenario, bundled_scenario

    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            return Scenario.loads(fh.read())
    return bundled_scenario(args.scenario)


def _replay_options(args: argparse.Namespace):
    from repro.scenarios import ReplayOptions

    offline = args.offline
    if offline in (None, "", "none"):
        offline = None
    return ReplayOptions(
        path=args.path,
        checkpoint_every=args.checkpoint_every,
        maintain_moves=args.maintain_moves,
        offline_algorithm=offline,
    )


def _write_json_doc(doc: dict, args: argparse.Namespace) -> None:
    import json

    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote JSON report to {args.out}")
    if args.json:
        print(text)


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        bundled_scenario,
        check_ratios,
        compare_to_dict,
        render_compare_report,
        render_run_report,
        scenario_names,
    )

    if args.scenarios_command == "list":
        for name in scenario_names():
            scenario = bundled_scenario(name)
            spec = scenario.instance
            print(
                f"{name:<18} {spec.kind:<9} |C|={spec.n_clients:<5} "
                f"|S|={spec.n_servers:<3} "
                f"cap={spec.capacity if spec.capacity is not None else '-':<4} "
                f"{scenario.description}"
            )
        return 0

    scenario = _load_scenario(args)
    options = _replay_options(args)

    if args.scenarios_command == "run":
        if args.show:
            print(scenario.dumps())
            return 0
        from repro.scenarios import replay_scenario

        result = replay_scenario(scenario, args.policy, options=options)
        if not (args.json and not args.out):
            print(render_run_report(result))
        _write_json_doc(result.to_dict(), args)
        check_ratios(result)
        return 0

    # compare
    from repro.parallel import TrialPool
    from repro.scenarios import compare_policies

    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    with TrialPool(args.workers) as pool:
        results = compare_policies(
            scenario, policies, options=options, pool=pool
        )
    if not (args.json and not args.out):
        print(render_compare_report(results))
    _write_json_doc(compare_to_dict(results), args)
    for result in results:
        check_ratios(result)
    return 0


# Arguments that steer execution mechanics or output locations, not the
# computed result. They go in the manifest's volatile section — putting
# them in the deterministic config would make otherwise byte-identical
# runs (e.g. --workers 0 vs 4, different --save paths) disagree.
_NON_RESULT_ARGS = frozenset(
    {
        "command", "scale_command", "scenarios_command", "trace", "workers",
        "save", "load", "out", "save_deployment", "dir", "host", "port",
        "base_dir", "spawn", "min_throughput", "json", "file", "show",
    }
)


def _manifest_config(args: argparse.Namespace) -> dict:
    """JSON-able view of the result-shaping arguments for the manifest."""
    config = {}
    for key, value in sorted(vars(args).items()):
        if key in _NON_RESULT_ARGS:
            continue
        if value is None or isinstance(value, (bool, int, float, str)):
            config[key] = value
    return config


@contextmanager
def _run_observability(args: argparse.Namespace, command: str) -> Iterator[None]:
    """Observability harness around one CLI command.

    Installs a trace sink (from ``--trace`` or ``REPRO_OBS_TRACE``;
    the null sink when neither is set) and an ambient run manifest,
    wraps the command in a root ``cli.<command>`` span, and on exit
    emits the process metrics snapshot plus the finalized manifest as
    trailing trace events. Purely additive: the command's results are
    identical with tracing on or off.
    """
    from repro import obs

    spec = getattr(args, "trace", None) or obs.sink_spec_from_env()
    sink = obs.open_sink(spec)
    manifest = obs.build_manifest(
        command=command, config=_manifest_config(args),
        seeds={"seed": getattr(args, "seed", None)},
        workers=getattr(args, "workers", None),
    )
    previous_manifest = obs.set_current_manifest(manifest)
    obs.install_sink(sink)
    started = time.perf_counter()
    try:
        with obs.span(f"cli.{command}"):
            yield
    finally:
        manifest.finalize(wall_seconds=time.perf_counter() - started)
        obs.record_peak_rss()
        obs.emit_event("metrics", metrics=obs.registry().snapshot())
        obs.emit_event(
            "manifest", manifest=manifest.to_dict(include_volatile=True)
        )
        obs.uninstall_sink(close=True)
        obs.set_current_manifest(previous_manifest)
        if isinstance(sink, obs.JsonlSink):
            print(f"[obs] trace written to {sink.path}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "dataset": _cmd_dataset,
        "analyze": _cmd_analyze,
        "solve": _cmd_solve,
        "fig": _cmd_fig,
        "claims": _cmd_claims,
        "report": _cmd_report,
        "ablate": _cmd_ablate,
        "churn": _cmd_churn,
        "faults": _cmd_faults,
        "chaos": _cmd_chaos,
        "scale": _cmd_scale,
        "simulate": _cmd_simulate,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "scenarios": _cmd_scenarios,
        "obs": _cmd_obs,
    }
    try:
        if args.command == "obs":
            return _cmd_obs(args)
        with _run_observability(args, args.command):
            return handlers[args.command](args)
    except ReproError as exc:
        # Package errors carry a stable code (e.g.
        # "kernel-backend-unavailable" for --backend numba without
        # numba); surface it instead of a traceback.
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
