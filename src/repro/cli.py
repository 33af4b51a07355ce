"""Command-line interface: run simulations and reproduce experiments from a shell.

Installed as ``python -m repro`` (see ``__main__.py``).  Sub-commands:

``experiments``
    List the E1-E9 registry (paper item, claim, benchmark file).

``experiment <id>``
    Show the full metadata of one experiment.

``simulate``
    Build a :class:`~repro.api.ScenarioSpec` from command-line options (or
    load one from ``--spec file.json``), run it through
    :class:`~repro.api.Session`, and print the measured-vs-bound row.  With
    ``--json`` the row is emitted as machine-readable JSON; the exit code is
    non-zero when the measured occupancy exceeds the algorithm's bound.

``bounds``
    Print every closed-form bound for a given ``(n, d, d', ell, rho, sigma)``
    (``--json`` for machine-readable output).

``figure1``
    Render the Figure 1 hierarchy (optionally with a sample trajectory).

``registry``
    List every registered algorithm, adversary and topology name (with
    aliases) usable in a ``ScenarioSpec`` — the full catalogue, including
    names the ``simulate`` shortcuts do not expose, lives in
    ``docs/REGISTRY.md``.

``service``
    The crash-safe job service (docs/SERVICE.md): ``serve`` runs the durable
    server on a data directory, ``submit`` queues a scenario spec, and
    ``ls`` / ``info`` / ``logs`` / ``cancel`` / ``stats`` / ``cleanup`` /
    ``drain`` manage it.  Accepted jobs survive ``kill -9`` of the server;
    every failure mode is a typed error (exit code 2).

Examples
--------
::

    python -m repro experiments
    python -m repro simulate --algorithm ppts --nodes 64 --destinations 12 \
        --rho 1.0 --sigma 2 --rounds 300
    python -m repro simulate --algorithm hpts --levels 3 --nodes 64 --rho 0.33
    python -m repro simulate --spec scenario.json --json
    python -m repro bounds --nodes 64 --destinations 12 --rho 0.5 --sigma 2 --json
    python -m repro figure1 --branching 2 --levels 4 --source 2 --destination 13
    python -m repro service serve --data jobs.d &
    python -m repro service submit --data jobs.d --spec scenario.json --wait
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, Optional, Sequence

from .adversary.generators import hierarchy_random_destinations
from .analysis.tables import format_kv, format_table
from .api import ScenarioSpec, Session, SpecError, reports_to_table
from .api.builder import Scenario
from .core import bounds
from .experiments.figures import render_figure1, trajectory_table
from .experiments.registry import get_experiment, list_experiments
from .network.errors import ReproError

__all__ = ["main", "build_parser"]

#: Algorithms selectable from the command line, with the ``--workload``
#: kinds each one accepts; the first kind is its default.
WORKLOAD_KINDS = {
    "pts": ("stress", "random"),
    "ppts": ("round_robin", "nested", "random"),
    "hpts": ("hierarchy", "random"),
    "local": ("stress", "random"),
    "downhill": ("stress", "random"),
    "greedy": ("round_robin", "nested", "random"),
}
ALGORITHMS = tuple(WORKLOAD_KINDS)


class _StoreExplicit(argparse.Action):
    """Store the option's value and record that it was given explicitly
    (``<dest>_explicit``), so a default can depend on other options."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        setattr(namespace, f"{self.dest}_explicit", True)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AQT buffer-space reproduction: simulations, bounds and experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("experiments", help="list the E1-E9 experiment registry")

    show = subparsers.add_parser("experiment", help="show one experiment's metadata")
    show.add_argument("id", help="experiment id, e.g. E4")

    simulate = subparsers.add_parser("simulate", help="run one scenario spec")
    simulate.add_argument("--algorithm", choices=ALGORITHMS, default="ppts")
    simulate.add_argument("--nodes", type=int, default=64, help="line length n")
    simulate.add_argument(
        "--destinations",
        type=int,
        default=8,
        action=_StoreExplicit,
        help="number of destinations d (default 8, at most nodes - 1)",
    )
    simulate.add_argument(
        "--rho",
        type=float,
        default=1.0,
        action=_StoreExplicit,
        help="adversary rate (default 1.0; 1/levels for --algorithm hpts, "
        "the largest rate Theorem 4.1 allows)",
    )
    simulate.set_defaults(rho_explicit=False, destinations_explicit=False)
    simulate.add_argument("--sigma", type=float, default=2.0)
    simulate.add_argument("--rounds", type=int, default=200)
    simulate.add_argument("--levels", type=int, default=2, help="HPTS hierarchy levels")
    simulate.add_argument("--locality", type=int, default=2, help="radius for --algorithm local")
    simulate.add_argument("--policy", default="FIFO", help="greedy policy name")
    simulate.add_argument(
        "--workload",
        choices=("stress", "round_robin", "nested", "random", "hierarchy"),
        default=None,
        help="workload kind (defaults to the natural one for the algorithm)",
    )
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument(
        "--spec",
        metavar="FILE",
        default=None,
        help="load a full ScenarioSpec from this JSON file (other scenario "
        "options are ignored; see repro.api for the schema)",
    )
    simulate.add_argument(
        "--json",
        action="store_true",
        help="emit the result row as JSON instead of an ASCII table",
    )
    simulate.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="K",
        help="write a resumable snapshot to --checkpoint after every K "
        "injection rounds (each save atomically replaces the previous one)",
    )
    simulate.add_argument(
        "--checkpoint",
        metavar="FILE",
        default=None,
        help="checkpoint file for --checkpoint-every",
    )
    simulate.add_argument(
        "--resume",
        metavar="FILE",
        default=None,
        help="resume a checkpointed run from this file and drive it to "
        "completion (scenario options are taken from the embedded spec; "
        "--spec, if given, must describe the same scenario)",
    )
    simulate.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="partition the line into N contiguous segments and run the "
        "batch kernel over each in its own worker process (results are "
        "bit-identical to a single-process run); needs --engine auto (the "
        "default) or batch and a scenario the batch kernel accepts (line "
        "topology, non-adaptive adversary, PTS/local/downhill/built-in greedy), "
        "anything else exits with code 2",
    )
    simulate.add_argument(
        "--engine",
        choices=("delta", "batch", "auto"),
        default=None,
        help="execution engine (default: the spec's, 'auto' unless a --spec "
        "file sets one): 'auto' tries the vectorized batch-round kernel and "
        "silently falls back to the per-round object engine 'delta'; "
        "'batch' runs the kernel alone (line topologies, non-adaptive "
        "adversaries and PTS/PPTS/HPTS/local/downhill/built-in greedy only; "
        "anything else exits with code 2). Results are bit-identical "
        "either way",
    )
    simulate.add_argument(
        "--batch-rounds",
        type=int,
        default=None,
        metavar="K",
        help="rounds advanced per batch window for --engine batch/auto "
        "(results do not depend on it)",
    )
    simulate.add_argument(
        "--recovery",
        choices=("fail", "restart", "fold"),
        default=None,
        help="what the sharded coordinator does when a worker dies: "
        "'fail' aborts (default), 'restart' respawns a replacement and "
        "resumes from the last consistent checkpoint cut, 'fold' merges "
        "the dead segment into a neighbour (results stay bit-identical "
        "in every mode)",
    )
    simulate.add_argument(
        "--max-worker-restarts",
        type=int,
        default=None,
        metavar="N",
        help="recovery budget: after N worker failures the run aborts "
        "with RecoveryExhaustedError (exit code 2)",
    )
    simulate.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-phase reply deadline for sharded workers; a worker that "
        "stays silent longer is declared failed and recovery kicks in",
    )
    simulate.add_argument(
        "--faults",
        metavar="FILE",
        default=None,
        help="inject a deterministic FaultPlan (JSON, see docs/FAULTS.md) "
        "into the sharded run; requires --shards > 1 (or a spec with "
        "policy.shards > 1) and cannot be combined with --resume",
    )

    bounds_cmd = subparsers.add_parser("bounds", help="print the closed-form bounds")
    bounds_cmd.add_argument("--nodes", type=int, default=64)
    bounds_cmd.add_argument("--destinations", type=int, default=8)
    bounds_cmd.add_argument("--destination-depth", type=int, default=4)
    bounds_cmd.add_argument("--levels", type=int, default=None)
    bounds_cmd.add_argument("--rho", type=float, default=0.5)
    bounds_cmd.add_argument("--sigma", type=float, default=2.0)
    bounds_cmd.add_argument(
        "--json", action="store_true", help="emit the bounds as JSON"
    )

    figure = subparsers.add_parser("figure1", help="render the Figure 1 hierarchy")
    figure.add_argument("--branching", type=int, default=2)
    figure.add_argument("--levels", type=int, default=4)
    figure.add_argument("--source", type=int, default=None)
    figure.add_argument("--destination", type=int, default=None)

    registry = subparsers.add_parser(
        "registry",
        help="list registered algorithm/adversary/topology names "
        "(see docs/REGISTRY.md)",
    )
    registry.add_argument(
        "--kind",
        choices=("algorithms", "adversaries", "topologies"),
        default=None,
        help="restrict the listing to one registry",
    )
    registry.add_argument(
        "--json", action="store_true", help="emit the catalogue as JSON"
    )

    service = subparsers.add_parser(
        "service",
        help="the crash-safe job service (docs/SERVICE.md)",
    )
    verbs = service.add_subparsers(dest="service_command", required=True)

    def _service_common(verb: argparse.ArgumentParser) -> None:
        verb.add_argument(
            "--data",
            metavar="DIR",
            default="service-data",
            help="service data directory (journal + job files); the socket "
            "defaults to DIR/service.sock",
        )
        verb.add_argument(
            "--socket",
            metavar="PATH",
            default=None,
            help="Unix socket path (overrides the --data default)",
        )

    serve = verbs.add_parser(
        "serve", help="run the durable job server on a data directory"
    )
    _service_common(serve)
    serve.add_argument(
        "--max-running", type=int, default=2, metavar="N",
        help="worker-pool width: concurrent job leases",
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=64, metavar="N",
        help="admission bound on queued jobs (past it submissions are "
        "rejected with ServiceOverloadedError)",
    )
    serve.add_argument(
        "--lease-seconds", type=float, default=30.0, metavar="S",
        help="heartbeat staleness after which a worker is declared dead "
        "and its job retried from the last checkpoint",
    )
    serve.add_argument(
        "--max-retries", type=int, default=3, metavar="N",
        help="default per-job retry budget for worker failures",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=20, metavar="K",
        help="default per-job checkpoint cadence (injection rounds)",
    )
    serve.add_argument(
        "--faults", metavar="FILE", default=None,
        help="inject a deterministic service-level FaultPlan (JSON with "
        "phases queued/running/checkpointing/draining; see docs/SERVICE.md)",
    )
    serve.add_argument(
        "--no-fsync", action="store_true",
        help="skip fsync on journal appends (faster; loses power-failure "
        "durability, process crashes stay safe)",
    )

    submit = verbs.add_parser("submit", help="queue one scenario spec")
    _service_common(submit)
    submit.add_argument(
        "--spec", metavar="FILE", required=True,
        help="ScenarioSpec JSON file to run",
    )
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument(
        "--submit-key", default=None, metavar="KEY",
        help="idempotency key: resubmitting with the same key returns the "
        "already-admitted job instead of queueing a duplicate (use it when "
        "retrying after a lost reply)",
    )
    submit.add_argument("--max-retries", type=int, default=None, metavar="N")
    submit.add_argument("--checkpoint-every", type=int, default=None, metavar="K")
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job is terminal and print its outcome "
        "(a failed job exits 2 with its typed error)",
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="how long --wait waits before giving up",
    )
    submit.add_argument("--json", action="store_true")

    ls = verbs.add_parser("ls", help="list jobs")
    _service_common(ls)
    ls.add_argument("--json", action="store_true")

    info = verbs.add_parser("info", help="show one job's full state")
    _service_common(info)
    info.add_argument("job", help="job id, e.g. job-000003")
    info.add_argument("--json", action="store_true")

    logs = verbs.add_parser("logs", help="print one job's service+worker log")
    _service_common(logs)
    logs.add_argument("job")

    cancel = verbs.add_parser("cancel", help="cancel a queued or running job")
    _service_common(cancel)
    cancel.add_argument("job")

    stats = verbs.add_parser("stats", help="queue and worker-pool statistics")
    _service_common(stats)
    stats.add_argument("--json", action="store_true")

    cleanup = verbs.add_parser(
        "cleanup", help="purge terminal jobs and their files"
    )
    _service_common(cleanup)

    drain = verbs.add_parser(
        "drain",
        help="gracefully stop the server: admission ends, running jobs are "
        "checkpointed and requeued for the next serve",
    )
    _service_common(drain)

    return parser


def _command_experiments() -> int:
    rows = [
        {
            "id": experiment.id,
            "paper item": experiment.paper_item,
            "claim": experiment.claim,
            "benchmark": experiment.benchmark,
        }
        for experiment in list_experiments()
    ]
    print(format_table(rows, title="Reproduced experiments"))
    return 0


def _command_experiment(experiment_id: str) -> int:
    experiment = get_experiment(experiment_id)
    print(
        format_kv(
            {
                "id": experiment.id,
                "paper item": experiment.paper_item,
                "claim": experiment.claim,
                "workload": experiment.workload,
                "modules": ", ".join(experiment.modules),
                "benchmark": experiment.benchmark,
            },
            title=f"Experiment {experiment.id}",
        )
    )
    return 0


def _finish_spec(
    scenario: Scenario, name: str, seed: Optional[int]
) -> ScenarioSpec:
    """Label the scenario, apply the seed only when one was given (keeping
    unseeded random workloads fresh per invocation), and freeze it."""
    scenario.named(name)
    if seed is not None:
        scenario.seed(seed)
    return scenario.build()


def _workload_kind(args: argparse.Namespace) -> str:
    """The workload kind to build: ``--workload`` if the algorithm accepts
    it, the algorithm's default when it is not given."""
    kinds = WORKLOAD_KINDS[args.algorithm]
    if args.workload is None:
        return kinds[0]
    if args.workload not in kinds:
        raise SpecError(
            f"--workload {args.workload} does not fit --algorithm "
            f"{args.algorithm}, which accepts: {', '.join(kinds)}"
        )
    return args.workload


def _build_spec(args: argparse.Namespace) -> ScenarioSpec:
    """Map the flat command-line options onto a declarative scenario spec."""
    kind = _workload_kind(args)
    if args.algorithm == "hpts":
        if args.levels < 1:
            raise ReproError(f"--levels must be >= 1, got {args.levels}")
        branching = max(2, round(args.nodes ** (1.0 / args.levels)))
        num_nodes = branching**args.levels
        rho = args.rho if args.rho_explicit else 1.0 / args.levels
        scenario = Scenario.line(num_nodes).algorithm(
            "hpts", levels=args.levels, branching=branching, rho=rho
        )
        if kind == "hierarchy":
            scenario.adversary(
                "hierarchy", rho=rho, sigma=args.sigma, rounds=args.rounds,
                branching=branching, levels=args.levels,
            )
        else:
            scenario.adversary(
                "bounded", rho=rho, sigma=args.sigma, rounds=args.rounds,
                num_destinations=hierarchy_random_destinations(
                    num_nodes, branching, args.levels
                ),
            )
        return _finish_spec(scenario, f"hierarchy/{kind}", args.seed)

    if args.algorithm in ("pts", "local", "downhill"):
        scenario = Scenario.line(args.nodes)
        if args.algorithm == "pts":
            scenario.algorithm("pts")
        elif args.algorithm == "local":
            scenario.algorithm("local", locality=args.locality)
        else:
            scenario.algorithm("downhill")
        adversary = "burst" if kind == "stress" else "single"
        scenario.adversary(
            adversary, rho=args.rho, sigma=args.sigma, rounds=args.rounds
        )
        return _finish_spec(scenario, f"single-dest/{kind}", args.seed)

    # ppts / greedy share the multi-destination line setting.
    scenario = Scenario.line(args.nodes)
    if args.algorithm == "greedy":
        scenario.algorithm("greedy", policy=args.policy)
    else:
        scenario.algorithm("ppts")
    adversary = {"round_robin": "round-robin", "nested": "nested", "random": "bounded"}[kind]
    # The default fits short lines; an explicit count is taken as given.
    num_destinations = (
        args.destinations
        if args.destinations_explicit
        else min(args.destinations, args.nodes - 1)
    )
    scenario.adversary(
        adversary, rho=args.rho, sigma=args.sigma, rounds=args.rounds,
        num_destinations=num_destinations,
    )
    return _finish_spec(scenario, f"multi-dest/{kind}", args.seed)


def _with_checkpoint_policy(spec: ScenarioSpec, args: argparse.Namespace) -> ScenarioSpec:
    """Fold the checkpoint/sharding/recovery/engine flags into the spec's policy.

    Applied identically to fresh and resumed runs (all of these fields are
    outside the resume-identity hash, so this never trips the spec check).
    """
    overrides = {}
    if args.checkpoint_every is not None:
        overrides["checkpoint_every"] = args.checkpoint_every
        overrides["checkpoint_path"] = args.checkpoint
    if args.shards is not None:
        overrides["shards"] = args.shards
    if args.recovery is not None:
        overrides["recovery"] = args.recovery
    if args.max_worker_restarts is not None:
        overrides["max_worker_restarts"] = args.max_worker_restarts
    if args.heartbeat_timeout is not None:
        overrides["heartbeat_timeout"] = args.heartbeat_timeout
    if args.engine is not None:
        overrides["engine"] = args.engine
    if args.batch_rounds is not None:
        overrides["batch_rounds"] = args.batch_rounds
    if not overrides:
        return spec
    return Scenario.from_spec(spec).policy(**overrides).build()


def _command_simulate(args: argparse.Namespace) -> int:
    if args.checkpoint_every is not None and args.checkpoint is None:
        raise ReproError("--checkpoint-every requires --checkpoint FILE")
    faults = None
    if args.faults is not None:
        if args.resume is not None:
            raise ReproError(
                "--faults cannot be combined with --resume: fault plans "
                "describe a full run from round 0"
            )
        from .network.faults import FaultPlan

        with open(args.faults, "r", encoding="utf-8") as handle:
            faults = FaultPlan.from_json(handle.read())
    spec = None
    if args.spec is not None:
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = ScenarioSpec.from_json(handle.read())
    if args.resume is not None:
        # Scenario flags are ignored: the checkpoint's embedded spec is the
        # scenario.  An explicit --spec must hash to the same scenario or the
        # resume is refused (CheckpointSpecMismatchError -> exit code 2).
        from .checkpoint import load_checkpoint

        loaded = load_checkpoint(args.resume)
        if spec is None and loaded.spec is not None:
            spec = ScenarioSpec.from_dict(loaded.spec)
        if spec is None and args.checkpoint_every is not None:
            raise ReproError(
                "--checkpoint-every with --resume needs a scenario: the "
                "checkpoint has no embedded spec and no --spec was given"
            )
        if spec is not None:
            spec = _with_checkpoint_policy(spec, args)
        report = Session().resume(loaded, spec=spec)
    else:
        if spec is None:
            spec = _build_spec(args)
        report = Session().run(_with_checkpoint_policy(spec, args), faults=faults)
    if args.json:
        row = report.as_row()
        if report.recovery is not None:
            # Sharded runs surface their recovery telemetry (worker restarts
            # absorbed, seconds spent restitching) next to the result, so a
            # run that survived faults is distinguishable from one that never
            # saw any — the results themselves are bit-identical.
            row["recovery"] = report.recovery
        if report.engine is not None:
            # Engine routing telemetry: which engine ran and, for
            # --engine auto, why a batch refusal fell back to delta — silent
            # fallbacks otherwise look exactly like batch runs (results are
            # bit-identical by construction).
            row["engine"] = report.engine
        print(json.dumps(row, indent=2, sort_keys=True))
    else:
        print(reports_to_table([report], title="Simulation result"))
    return 0 if report.within_bound else 1


def _command_bounds(args: argparse.Namespace) -> int:
    levels = args.levels if args.levels is not None else bounds.optimal_levels(args.rho)
    values = {
        "PTS (Prop 3.1)": bounds.pts_upper_bound(args.sigma),
        "PPTS (Prop 3.2)": bounds.ppts_upper_bound(args.destinations, args.sigma),
        "tree PPTS (Prop 3.5)": bounds.tree_ppts_upper_bound(
            args.destination_depth, args.sigma
        ),
        f"HPTS, ell={levels} (Thm 4.1)": round(
            bounds.hpts_upper_bound(args.nodes, levels, args.sigma), 2
        ),
        f"lower bound, ell={levels} (Thm 5.1)": round(
            bounds.lower_bound(args.nodes, levels, args.rho), 2
        ),
        "destination form upper O(k d^(1/k))": round(
            bounds.destination_upper_bound(args.destinations, args.rho, args.sigma), 2
        ),
        "destination form lower": round(
            bounds.destination_lower_bound(args.destinations, args.rho), 2
        ),
    }
    if args.json:
        payload = {
            "parameters": {
                "nodes": args.nodes,
                "destinations": args.destinations,
                "destination_depth": args.destination_depth,
                "levels": levels,
                "rho": args.rho,
                "sigma": args.sigma,
            },
            "bounds": values,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        format_kv(
            values,
            title=(
                f"Bounds for n={args.nodes}, d={args.destinations}, "
                f"d'={args.destination_depth}, rho={args.rho}, sigma={args.sigma}"
            ),
        )
    )
    return 0


def _command_figure1(args: argparse.Namespace) -> int:
    trajectory = None
    if args.source is not None and args.destination is not None:
        trajectory = (args.source, args.destination)
    print(render_figure1(args.branching, args.levels, trajectory=trajectory))
    if trajectory is not None:
        print()
        print(
            format_table(
                trajectory_table(args.branching, args.levels, *trajectory),
                title=f"Segments of {trajectory[0]} -> {trajectory[1]}",
            )
        )
    return 0


def _command_registry(args: argparse.Namespace) -> int:
    from .api.registry import ADVERSARIES, ALGORITHMS, TOPOLOGIES

    registries = {
        "algorithms": ALGORITHMS,
        "adversaries": ADVERSARIES,
        "topologies": TOPOLOGIES,
    }
    if args.kind is not None:
        registries = {args.kind: registries[args.kind]}
    if args.json:
        payload = {kind: reg.catalog() for kind, reg in registries.items()}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for kind, reg in registries.items():
        rows = [
            {
                "name": row["name"],
                "aliases": ", ".join(row["aliases"]) or "-",
                "summary": row["summary"],
            }
            for row in reg.catalog()
        ]
        print(format_table(rows, title=f"Registered {kind}"))
        print()
    print("Full catalogue with parameters: docs/REGISTRY.md")
    return 0


def _service_socket(args: argparse.Namespace) -> str:
    if args.socket is not None:
        return str(args.socket)
    return os.path.join(args.data, "service.sock")


def _service_client(args: argparse.Namespace) -> "Any":
    from .service import ServiceClient

    return ServiceClient(_service_socket(args))


def _command_service_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .service import JobService

    faults = None
    if args.faults is not None:
        from .network.faults import FaultPlan

        with open(args.faults, "r", encoding="utf-8") as handle:
            faults = FaultPlan.from_json(handle.read())
    service = JobService(
        args.data,
        socket_path=args.socket,
        max_running=args.max_running,
        max_queue_depth=args.max_queue_depth,
        lease_seconds=args.lease_seconds,
        default_max_retries=args.max_retries,
        default_checkpoint_every=args.checkpoint_every,
        faults=faults,
        fsync=not args.no_fsync,
        crash_mode="exit",  # injected server crashes die for real, like kill -9
    )
    service.start()
    print(f"serving on {service.socket_path} (data: {service.data_dir})")
    interrupted = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: interrupted.set())
    # Wake on SIGTERM/SIGINT (graceful drain) or on the server ending by
    # itself (client-requested drain, or an injected crash).
    while service.is_alive() and not interrupted.wait(0.2):
        pass
    service.stop()
    print("drained: running jobs checkpointed and requeued; journal flushed")
    return 0


def _command_service(args: argparse.Namespace) -> int:
    from .service.errors import JobFailedError

    verb = args.service_command
    if verb == "serve":
        return _command_service_serve(args)
    client = _service_client(args)
    if verb == "submit":
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec_payload = json.loads(handle.read())
        reply = client.submit(
            spec_payload,
            tenant=args.tenant,
            priority=args.priority,
            submit_key=args.submit_key,
            max_retries=args.max_retries,
            checkpoint_every=args.checkpoint_every,
        )
        if not args.wait:
            if args.json:
                print(json.dumps(reply, indent=2, sort_keys=True))
            else:
                print(f"{reply['job']} {reply['state']}")
            return 0
        view = client.wait(reply["job"], timeout=args.timeout)
        if view["state"] == "failed":
            raise JobFailedError(
                f"{view['job_id']} failed: {view.get('error_type')}: "
                f"{view.get('error_message')}"
            )
        if args.json:
            print(json.dumps(view, indent=2, sort_keys=True))
        else:
            print(format_kv(_job_view_row(view), title=view["job_id"]))
        return 0
    if verb == "ls":
        rows = client.ls()
        if args.json:
            print(json.dumps(rows, indent=2, sort_keys=True))
        elif rows:
            print(format_table(rows, title="Jobs"))
        else:
            print("no jobs")
        return 0
    if verb == "info":
        view = client.info(args.job)
        if args.json:
            print(json.dumps(view, indent=2, sort_keys=True))
        else:
            print(format_kv(_job_view_row(view), title=view["job_id"]))
        return 0
    if verb == "logs":
        sys.stdout.write(client.logs(args.job))
        return 0
    if verb == "cancel":
        reply = client.cancel(args.job)
        print(f"{reply['job']} {reply['state']}")
        return 0
    if verb == "stats":
        payload = client.stats()
        payload.pop("ok", None)
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(format_kv(payload, title="Service stats"))
        return 0
    if verb == "cleanup":
        purged = client.cleanup()
        print(f"purged {len(purged)} terminal job(s)" +
              (f": {', '.join(purged)}" if purged else ""))
        return 0
    if verb == "drain":
        client.drain()
        print("drain requested: the server stops admitting and exits after "
              "requeueing running jobs")
        return 0
    raise ReproError(f"unknown service verb {verb!r}")


def _job_view_row(view: Dict[str, Any]) -> Dict[str, Any]:
    """Flatten a job info view for the key-value formatter."""
    row = {key: value for key, value in view.items() if key != "result"}
    result = view.get("result")
    if isinstance(result, dict):
        for key in ("max_occupancy", "bound", "within_bound"):
            if key in result:
                row[f"result.{key}"] = result[key]
    return row


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        if args.command == "experiments":
            return _command_experiments()
        if args.command == "experiment":
            return _command_experiment(args.id)
        if args.command == "simulate":
            return _command_simulate(args)
        if args.command == "bounds":
            return _command_bounds(args)
        if args.command == "figure1":
            return _command_figure1(args)
        if args.command == "registry":
            return _command_registry(args)
        if args.command == "service":
            return _command_service(args)
        parser.error(f"unknown command {args.command!r}")
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0
