"""Unit and protocol tests for the sharded execution layer.

The bit-identical differential matrix lives in
``test_sharded_differential.py``; this file covers the pieces around it: the
segment planner, the segment-filtered adversary, the typed error family and
the refusals (the batch kernel is the only segment engine), worker
processes and their shared-memory rings, Session/CLI integration, and the
run_many error fix.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.adversary.segmented import SegmentFilteredAdversary
from repro.api import (
    PreparedRun,
    RunPolicy,
    Scenario,
    ScenarioSpec,
    Session,
    SpecError,
)
from repro.api.session import build_topology
from repro.core.packet import packet_id_scope
from repro.network.errors import (
    RecoveryExhaustedError,
    ReproError,
    ShardingError,
    UnshardableScenarioError,
    WorkerFailedError,
)
from repro.network import sharded as sharded_module
from repro.network.faults import FaultEvent, FaultPlan
from repro.network.sharded import plan_segments, run_sharded
from repro.network.topology import LineTopology


def _line_spec(**policy) -> ScenarioSpec:
    scenario = (
        Scenario.line(16)
        .algorithm("greedy")
        .adversary("bounded", rho=0.8, sigma=3.0, rounds=25, num_destinations=3)
    )
    scenario.policy(seed=7, engine="batch", **policy)
    return scenario.build()


def _delta_oracle(spec: ScenarioSpec):
    """The single-process delta-engine result for ``spec``."""
    return Session().run(
        Scenario.from_spec(spec).policy(engine="delta", shards=None).build()
    ).result


#: The batch kernel's pseudo-buffer kind: it runs them single-process only,
#: so sharded runs refuse them.
UNSHARDABLE = ("ppts", "hpts")


# ---------------------------------------------------------------------------
# Segment planning
# ---------------------------------------------------------------------------


def test_plan_segments_balanced_and_contiguous():
    segments = plan_segments(10, 3)
    assert segments == [(0, 3), (4, 6), (7, 9)]
    widths = [hi - lo + 1 for lo, hi in segments]
    assert max(widths) - min(widths) <= 1


def test_plan_segments_clamps_to_line_length():
    assert plan_segments(4, 9) == [(0, 0), (1, 1), (2, 2), (3, 3)]
    assert plan_segments(5, 1) == [(0, 4)]


def test_plan_segments_covers_every_node_exactly_once():
    for n in (2, 5, 16, 31):
        for k in (1, 2, 3, 7, n, n + 3):
            segments = plan_segments(n, k)
            covered = [node for lo, hi in segments for node in range(lo, hi + 1)]
            assert covered == list(range(n))


@pytest.mark.parametrize("shards", [0, -1, True, 2.0, "2"])
def test_run_sharded_validates_shards(shards, monkeypatch):
    """A shard count that is not an int >= 1 is refused before any worker
    starts."""

    def spawn(*args, **kwargs):
        raise AssertionError("a worker was spawned for an invalid shards")

    monkeypatch.setattr(sharded_module, "_spawn_workers", spawn)
    with pytest.raises(UnshardableScenarioError, match="shards >= 1"):
        run_sharded(_line_spec(), shards=shards)


# ---------------------------------------------------------------------------
# Segment-filtered adversaries
# ---------------------------------------------------------------------------


def test_segment_filter_preserves_global_packet_ids():
    """The union of per-segment injections is exactly the full schedule —
    same packets, same ids, each claimed by exactly one segment."""
    spec = _line_spec()
    segments = plan_segments(16, 3)

    def materialise(lo=None, hi=None):
        with packet_id_scope():
            session = Session(cache_topologies=False)
            prepared = session.prepare(spec)
            adversary = prepared.adversary
            if lo is not None:
                adversary = SegmentFilteredAdversary(adversary, lo, hi)
            return [
                (injection.packet_id, injection.round, injection.source,
                 injection.destination)
                for t in range(prepared.adversary.horizon)
                for injection in adversary.injections_for_round(t)
            ]

    full = materialise()
    per_segment = [materialise(lo, hi) for lo, hi in segments]
    combined = sorted(record for part in per_segment for record in part)
    assert combined == sorted(full)
    for (lo, hi), part in zip(segments, per_segment):
        assert all(lo <= source <= hi for _id, _t, source, _dest in part)


def test_segment_filter_delegates_envelope_and_cursor():
    spec = _line_spec(history="streaming")
    scenario = Scenario.from_spec(spec)
    payload = spec.to_dict()
    payload["adversary"]["params"]["stream"] = True
    spec = ScenarioSpec.from_dict(payload)
    with packet_id_scope():
        prepared = Session(cache_topologies=False).prepare(spec)
        wrapped = SegmentFilteredAdversary(prepared.adversary, 0, 7)
        assert wrapped.rho == prepared.adversary.rho
        assert wrapped.sigma == prepared.adversary.sigma
        assert wrapped.horizon == prepared.adversary.horizon
        assert wrapped.checkpoint_kind == "StreamingAdversary"
        wrapped.injections_for_round(0)
        assert wrapped.cursor() == prepared.adversary.cursor()


def test_segment_filter_rejects_adaptive_adversaries():
    topology = LineTopology(16)
    from repro.api import ADVERSARIES

    adaptive = ADVERSARIES.get("hotspot")(
        topology, rho=0.5, sigma=2.0, rounds=10, seed=1
    )
    with pytest.raises(UnshardableScenarioError):
        SegmentFilteredAdversary(adaptive, 0, 7)


# ---------------------------------------------------------------------------
# Typed error family
# ---------------------------------------------------------------------------


def test_sharding_errors_are_repro_errors():
    assert issubclass(ShardingError, ReproError)
    assert issubclass(UnshardableScenarioError, ShardingError)


def test_adaptive_adversary_scenario_is_refused():
    scenario = (
        Scenario.line(16)
        .algorithm("greedy")
        .adversary("hotspot", rho=0.5, sigma=2.0, rounds=10)
        .policy(seed=1, engine="batch")
    )
    shm_before = _shm_segments()
    with pytest.raises(UnshardableScenarioError):
        Session().run(scenario.policy(shards=2).build())
    _assert_nothing_left_behind(shm_before)


def test_tree_topology_is_refused():
    scenario = (
        Scenario.tree("binary", depth=3)
        .algorithm("tree-ppts")
        .adversary("bounded", rho=0.5, sigma=2.0, rounds=10)
        .policy(seed=1, shards=2)
    )
    with pytest.raises(UnshardableScenarioError):
        Session().run(scenario.build())


# ---------------------------------------------------------------------------
# Refusals: the batch kernel is the only segment engine
# ---------------------------------------------------------------------------

ENGINES = (None, "delta", "batch", "auto")
REFUSAL_ALGORITHMS = {
    "pts": ({}, "single", {}, 1.0),
    "ppts": ({}, "bounded", {"num_destinations": 3}, 0.8),
    "hpts": ({"levels": 2}, "bounded", {"num_destinations": 3}, 0.5),
}


def _refusal_spec(algorithm: str, engine) -> ScenarioSpec:
    params, adversary, adversary_params, rho = REFUSAL_ALGORITHMS[algorithm]
    return (
        Scenario.line(16)
        .algorithm(algorithm, **params)
        .adversary(adversary, rho=rho, sigma=2.0, rounds=20, **adversary_params)
        .policy(seed=1, shards=2, engine=engine)
        .build()
    )


def _runs_sharded(algorithm: str, engine) -> bool:
    """Only an algorithm with a segment scan on engine batch/auto runs
    sharded."""
    return algorithm == "pts" and engine in ("batch", "auto")


def _shm_segments() -> set:
    """Names in /dev/shm (where BoundaryRing segments live), if any."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _assert_nothing_left_behind(shm_before: set) -> None:
    assert multiprocessing.active_children() == []
    leaked = _shm_segments() - shm_before
    assert not leaked, f"shared-memory segments left behind: {sorted(leaked)}"


@pytest.mark.parametrize("algorithm", sorted(REFUSAL_ALGORITHMS))
@pytest.mark.parametrize("engine", ENGINES)
def test_session_refuses_unshardable_engine_or_algorithm(engine, algorithm):
    """shards > 1 with engine None/"delta", or an algorithm the segment
    scans do not cover (PPTS, HPTS), raises the typed error with its reason;
    a refused run leaves no worker process and no shared-memory ring
    behind."""
    spec = _refusal_spec(algorithm, engine)
    shm_before = _shm_segments()
    if _runs_sharded(algorithm, engine):
        report = Session().run(spec)
        assert report.result == _delta_oracle(spec)
        assert report.engine["selected"] == "batch"
    else:
        with pytest.raises(UnshardableScenarioError) as excinfo:
            Session().run(spec)
        message = str(excinfo.value)
        if engine in (None, "delta"):
            assert f"engine={engine!r}" in message
        else:
            assert "batch kernel" in message
    _assert_nothing_left_behind(shm_before)


@pytest.mark.parametrize("algorithm", sorted(REFUSAL_ALGORITHMS))
@pytest.mark.parametrize("engine", ENGINES)
def test_cli_refuses_unshardable_engine_or_algorithm(
    engine, algorithm, tmp_path, capsys
):
    """`repro simulate --shards 2` exits 2 with the refusal on stderr."""
    from repro.cli import main

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(_refusal_spec(algorithm, engine).to_json())
    shm_before = _shm_segments()
    exit_code = main(["simulate", "--spec", str(spec_path), "--shards", "2"])
    captured = capsys.readouterr()
    if _runs_sharded(algorithm, engine):
        assert exit_code == 0
    else:
        assert exit_code == 2
        assert "sharded execution runs only the batch kernel" in captured.err
        assert "Traceback" not in captured.err
    _assert_nothing_left_behind(shm_before)


@pytest.mark.parametrize("algorithm", UNSHARDABLE)
def test_pseudo_buffer_kind_refused_before_any_worker(algorithm, monkeypatch):
    """The batch kernel runs PPTS/HPTS single-process; the coordinator
    refuses them sharded before spawning a worker or opening a ring."""

    def spawn(*args, **kwargs):
        raise AssertionError("a worker was spawned for a refused scenario")

    monkeypatch.setattr(sharded_module, "_spawn_workers", spawn)
    with pytest.raises(UnshardableScenarioError,
                       match="outside the regular family"):
        run_sharded(_refusal_spec(algorithm, "batch"), shards=2)


def test_prepared_run_with_shards_is_refused():
    spec = _line_spec()
    with packet_id_scope():
        prepared_ingredients = Session(cache_topologies=False).prepare(spec)
    prepared = PreparedRun(
        topology=prepared_ingredients.topology,
        algorithm=prepared_ingredients.algorithm,
        adversary=prepared_ingredients.adversary,
        policy=RunPolicy(shards=2, seed=7),
    )
    with pytest.raises(UnshardableScenarioError):
        Session().run(prepared)


def test_run_policy_shards_validation():
    with pytest.raises(SpecError):
        RunPolicy(shards=0)
    with pytest.raises(SpecError):
        RunPolicy(shards=True)
    assert RunPolicy(shards=None).shards is None
    assert RunPolicy(shards=4).shards == 4
    round_tripped = RunPolicy.from_dict(RunPolicy(shards=4).to_dict())
    assert round_tripped == RunPolicy(shards=4)


def test_run_many_use_processes_raises_typed_error_for_live_items():
    """Satellite fix: a clear, typed (ReproError) message — never a bare
    ValueError — when live PreparedRun items meet use_processes=True."""
    spec = _line_spec()
    with packet_id_scope():
        ingredients = Session(cache_topologies=False).prepare(spec)
    prepared = PreparedRun(
        topology=ingredients.topology,
        algorithm=ingredients.algorithm,
        adversary=ingredients.adversary,
    )
    with pytest.raises(SpecError) as excinfo:
        Session().run_many([spec, prepared], use_processes=True)
    assert not isinstance(excinfo.value, ValueError)
    assert isinstance(excinfo.value, ReproError)
    assert "ScenarioSpec" in str(excinfo.value)
    assert "item 1" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Worker processes and their shared-memory rings
# ---------------------------------------------------------------------------


class _NoSharedMemoryRing:
    """Stands in for BoundaryRing on a host without usable shared memory."""

    def __init__(self, *args, **kwargs):
        raise OSError(38, "Function not implemented: shm_open")


def test_ring_creation_failure_refuses_and_reaps_workers(monkeypatch):
    """When the coordinator cannot create a boundary ring, Session.run
    raises the typed refusal pointing at shards=1, after tearing down the
    workers it already spawned; nothing falls back silently."""
    monkeypatch.setattr(sharded_module, "BoundaryRing", _NoSharedMemoryRing)
    spec = _line_spec(shards=2)
    shm_before = _shm_segments()
    with pytest.raises(UnshardableScenarioError,
                       match="shared-memory rings.*shards=1") as excinfo:
        Session().run(spec)
    assert "OSError" in str(excinfo.value)
    _assert_nothing_left_behind(shm_before)


def test_ring_attach_failure_in_a_worker_is_typed(monkeypatch):
    """A worker that cannot map a ring the coordinator created reports the
    same typed refusal (not a raw OSError), and the run leaves no worker
    and no ring behind."""
    real_ring = sharded_module.BoundaryRing

    def ring(name=None, **kwargs):
        if name is not None:
            raise OSError(13, "Permission denied", name)
        return real_ring(**kwargs)

    monkeypatch.setattr(sharded_module, "BoundaryRing", ring)
    shm_before = _shm_segments()
    with pytest.raises(UnshardableScenarioError, match="shards=1"):
        run_sharded(_line_spec(), shards=3)
    _assert_nothing_left_behind(shm_before)


@pytest.mark.parametrize(
    "algorithm, params, adversary, adversary_params, rho",
    [
        ("pts", {}, "single", {}, 1.0),
        ("ppts", {}, "bounded", {"num_destinations": 3}, 0.8),
        ("hpts", {"levels": 2}, "bounded", {"num_destinations": 3}, 0.5),
        ("local", {"locality": 2}, "single", {}, 0.8),
        ("downhill", {}, "single", {}, 0.8),
        ("greedy", {}, "bounded", {"num_destinations": 3}, 0.8),
    ],
)
def test_process_transport_matches_single_process(
    algorithm, params, adversary, adversary_params, rho
):
    scenario = (
        Scenario.line(16)
        .algorithm(algorithm, **params)
        .adversary(adversary, rho=rho, sigma=3.0, rounds=25, **adversary_params)
        .policy(seed=29, engine="batch")
    )
    spec = scenario.build()
    if algorithm in UNSHARDABLE:
        with pytest.raises(UnshardableScenarioError, match="batch kernel"):
            run_sharded(spec, shards=2)
        assert multiprocessing.active_children() == []
        return
    sharded, _ = run_sharded(spec, shards=2)
    assert sharded == _delta_oracle(spec)


def test_worker_build_errors_propagate_across_processes():
    scenario = (
        Scenario.line(16)
        .algorithm("greedy")
        .adversary("hotspot", rho=0.5, sigma=2.0, rounds=10)
        .policy(seed=1, engine="batch")
    )
    with pytest.raises(UnshardableScenarioError):
        run_sharded(scenario.build(), shards=2)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_simulate_with_shards(capsys):
    from repro.cli import main

    exit_code = main(
        [
            "simulate", "--algorithm", "pts", "--nodes", "24",
            "--rho", "1.0", "--sigma", "2.0", "--rounds", "40",
            "--seed", "3", "--shards", "2", "--engine", "batch", "--json",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert '"max_occupancy"' in captured.out


def test_cli_shards_on_tree_spec_exits_2(tmp_path, capsys):
    from repro.cli import main

    spec = (
        Scenario.tree("binary", depth=3)
        .algorithm("tree-ppts")
        .adversary("bounded", rho=0.5, sigma=2.0, rounds=10)
        .policy(seed=1)
        .build()
    )
    spec_path = tmp_path / "tree.json"
    spec_path.write_text(spec.to_json())
    exit_code = main(
        ["simulate", "--spec", str(spec_path), "--shards", "2"]
    )
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "error:" in captured.err


def test_cli_shards_matches_unsharded_row(capsys):
    import json

    from repro.cli import main

    argv = [
        "simulate", "--algorithm", "greedy", "--nodes", "20",
        "--destinations", "4", "--rho", "0.8", "--sigma", "2.0",
        "--rounds", "30", "--seed", "5", "--json",
    ]
    main(argv + ["--engine", "delta"])
    single_row = json.loads(capsys.readouterr().out)
    main(argv + ["--shards", "3", "--engine", "batch"])
    sharded_row = json.loads(capsys.readouterr().out)
    # Sharded rows additionally surface the supervisor's recovery telemetry
    # (a fault-free run reports zero restarts) and the engine routing
    # record; the result itself must stay bit-identical to the
    # single-process delta row.
    assert sharded_row.pop("recovery") == {
        "restarts": 0, "recovery_time_s": None
    }
    assert sharded_row.pop("engine")["selected"] == "batch"
    assert sharded_row == single_row
    assert "recovery" not in single_row


# ---------------------------------------------------------------------------
# Coordinator bookkeeping
# ---------------------------------------------------------------------------


def test_extras_carry_segments_and_routing():
    spec = _line_spec()
    result, extras = run_sharded(spec, shards=3)
    assert extras["segments"] == plan_segments(16, 3)
    assert extras["engine"] == {
        "requested": "batch", "selected": "batch", "fallback_reason": None,
        "transport": "shm",
    }
    assert len(extras["handoff_traces"]) == 3
    assert extras["adversary_sigma"] == 3.0
    assert result.packets_injected > 0


def test_topology_is_built_once_per_worker_not_shared():
    """Workers must not share mutable ingredients: a spec-described topology
    builds fine standalone (sanity for the coordinator's pre-check)."""
    spec = _line_spec()
    topology = build_topology(spec.topology)
    assert isinstance(topology, LineTopology)
    assert topology.num_nodes == 16


# ---------------------------------------------------------------------------
# Supervision: heartbeats, retries, recovery on real worker processes
# ---------------------------------------------------------------------------


def _crash_plan(round_number: int, segment: int, phase: str = "begin") -> FaultPlan:
    return FaultPlan(events=(
        FaultEvent(kind="crash", round=round_number, segment=segment,
                   phase=phase),
    ))


def test_run_sharded_validates_faults_and_clock(monkeypatch):
    def spawn(*args, **kwargs):
        raise AssertionError("a worker was spawned for invalid arguments")

    monkeypatch.setattr(sharded_module, "_spawn_workers", spawn)
    spec = _line_spec()
    with pytest.raises(UnshardableScenarioError, match="FaultPlan"):
        run_sharded(spec, shards=2, faults={"events": []})
    with pytest.raises(UnshardableScenarioError, match="clock"):
        run_sharded(spec, shards=2, clock=12.5)


def test_recovery_error_hierarchy():
    assert issubclass(WorkerFailedError, ShardingError)
    assert issubclass(RecoveryExhaustedError, ShardingError)
    assert issubclass(WorkerFailedError, ReproError)
    error = WorkerFailedError("boom", segment=2, round_number=5, phase="begin")
    assert (error.segment, error.round_number, error.phase) == (2, 5, "begin")


def test_process_worker_hard_crash_recovers():
    """A real worker process dying mid-run (os._exit) is detected, respawned
    and the run still matches its fault-free twin."""
    spec = _line_spec(shards=3, recovery="restart", max_worker_restarts=2)
    baseline, _ = run_sharded(spec)
    recovered, extras = run_sharded(
        spec, faults=_crash_plan(9, 1, "finish")
    )
    assert recovered == baseline
    assert extras["recovery"]["restarts"] == 1


def test_heartbeat_timeout_detects_hung_worker():
    """A worker stalled well past heartbeat_timeout is declared failed and
    replaced; the injected delay fires only once, so the retry completes."""
    spec = _line_spec(shards=2, recovery="restart", max_worker_restarts=2,
                      heartbeat_timeout=0.25)
    baseline, _ = run_sharded(spec)
    slow = FaultPlan(events=(
        FaultEvent(kind="slow", round=5, segment=1, phase="begin", delay=5.0),
    ))
    recovered, extras = run_sharded(spec, faults=slow)
    assert recovered == baseline
    assert extras["recovery"]["restarts"] == 1


def test_dropped_sends_are_retried_without_recovery():
    """Simulated send loss within the retry budget is absorbed by backoff
    alone — no worker restart, identical results."""
    spec = _line_spec(shards=3, recovery="restart", max_worker_restarts=2)
    baseline, _ = run_sharded(spec)
    drops = FaultPlan(events=(
        FaultEvent(kind="drop", round=4, segment=0, phase="select", count=2),
    ))
    recovered, extras = run_sharded(spec, faults=drops)
    assert recovered == baseline
    assert extras["recovery"]["restarts"] == 0


def test_drop_exhaustion_escalates_to_recovery():
    """More consecutive losses than max_retries marks the worker failed;
    the supervisor then recovers instead of looping forever.  count=5 burns
    the full retry budget once (3 attempts), escalates, and leaves the
    replayed window enough tokens to fail twice more before the retry
    succeeds — one restart, no exhaustion."""
    spec = _line_spec(shards=3, recovery="restart", max_worker_restarts=2)
    baseline, _ = run_sharded(spec)
    drops = FaultPlan(events=(
        FaultEvent(kind="drop", round=4, segment=0, phase="select", count=5),
    ))
    recovered, extras = run_sharded(spec, faults=drops)
    assert recovered == baseline
    assert extras["recovery"]["restarts"] == 1


@pytest.mark.parametrize("first", [
    FaultEvent(kind="crash", round=3, segment=0),
    FaultEvent(kind="slow", round=3, segment=1, delay=5.0),
], ids=["crash", "hang"])
@pytest.mark.parametrize("batch_rounds", [1, 64],
                         ids=["one-round-windows", "window"])
def test_each_failure_in_one_window_costs_its_own_restart(first, batch_rounds):
    """A window ships its rounds' directives before it runs, but the events
    past the first failure never ran: the replay must fire them, so two
    failures inside one window cost two restarts, as they do when every
    window is a single round."""
    spec = _line_spec(shards=3, recovery="restart", max_worker_restarts=3,
                      heartbeat_timeout=0.25, batch_rounds=batch_rounds)
    baseline, _ = run_sharded(spec)
    plan = FaultPlan(events=(
        first, FaultEvent(kind="crash", round=6, segment=1, phase="finish"),
    ))
    recovered, extras = run_sharded(spec, faults=plan)
    assert recovered == baseline
    assert extras["recovery"]["restarts"] == 2


def test_recovery_extras_report_wall_clock_time():
    """An injected clock makes recovery_time_s observable and deterministic
    to assert against (monotonic fake, no real time reads)."""
    ticks = iter(range(100))
    spec = _line_spec(shards=2, recovery="restart", max_worker_restarts=2)
    baseline, _ = run_sharded(spec)
    recovered, extras = run_sharded(
        spec, faults=_crash_plan(6, 0),
        clock=lambda: float(next(ticks)),
    )
    assert recovered == baseline
    assert extras["recovery"]["restarts"] == 1
    assert extras["recovery"]["recovery_time_s"] == 1.0
    # Without a clock the metric is absent-but-present: explicitly None.
    _, no_clock_extras = run_sharded(spec, faults=_crash_plan(6, 0))
    assert no_clock_extras["recovery"]["recovery_time_s"] is None


def test_session_threads_faults_and_recovers(tmp_path):
    """Session.run(spec, faults=...) reaches the sharded supervisor."""
    spec = _line_spec(shards=3, recovery="restart", max_worker_restarts=2)
    baseline = Session().run(spec)
    recovered = Session().run(spec, faults=_crash_plan(7, 2))
    assert recovered.result == baseline.result
    assert recovered.bound == baseline.bound


def test_session_rejects_faults_without_sharding():
    spec = _line_spec()
    with pytest.raises(SpecError, match="shards"):
        Session().run(spec, faults=_crash_plan(1, 0))


def test_cli_recovery_flags_and_fault_plan(tmp_path, capsys):
    import json

    from repro.cli import main

    spec = _line_spec()
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    base_argv = [
        "simulate", "--spec", str(spec_path), "--shards", "3", "--json",
    ]
    assert main(base_argv) in (0, 1)
    baseline_row = json.loads(capsys.readouterr().out)

    plan_path = tmp_path / "plan.json"
    plan_path.write_text(_crash_plan(8, 1, "select").to_json())
    chaos_argv = base_argv + [
        "--recovery", "restart", "--max-worker-restarts", "2",
        "--heartbeat-timeout", "30", "--faults", str(plan_path),
    ]
    assert main(chaos_argv) in (0, 1)
    chaos_row = json.loads(capsys.readouterr().out)
    # The recovery telemetry is exactly what distinguishes the two runs —
    # one absorbed restart — while the result row stays bit-identical.
    assert baseline_row.pop("recovery")["restarts"] == 0
    assert chaos_row.pop("recovery")["restarts"] == 1
    assert chaos_row == baseline_row


def test_cli_exhausted_recovery_budget_exits_2(tmp_path, capsys):
    from repro.cli import main

    spec = _line_spec()
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    plan_path = tmp_path / "plan.json"
    plan = FaultPlan(events=(
        FaultEvent(kind="crash", round=3, segment=0),
        FaultEvent(kind="crash", round=6, segment=1),
    ))
    plan_path.write_text(plan.to_json())
    exit_code = main([
        "simulate", "--spec", str(spec_path), "--shards", "3",
        "--recovery", "restart", "--max-worker-restarts", "1",
        "--faults", str(plan_path),
    ])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "recovery budget exhausted" in captured.err


def test_cli_faults_with_resume_is_refused(tmp_path, capsys):
    from repro.cli import main

    plan_path = tmp_path / "plan.json"
    plan_path.write_text(_crash_plan(1, 0).to_json())
    exit_code = main([
        "simulate", "--resume", str(tmp_path / "missing.ckpt"),
        "--faults", str(plan_path),
    ])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "--resume" in captured.err
