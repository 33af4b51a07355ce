"""Unit and protocol tests for the sharded execution layer.

The bit-identical differential matrix lives in
``test_sharded_differential.py``; this file covers the pieces around it: the
segment planner, the segment-filtered adversary, the typed error family and
the refusals (the batch kernel is the only segment engine), worker
processes and their shared-memory rings, and Session/CLI integration.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import textwrap

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
from repro.network.batch_sharded import BatchSegmentSimulator
from repro.network.errors import (
    ReproError,
    ShardingError,
    UnshardableScenarioError,
    WorkerFailedError,
)
from repro.network import sharded as sharded_module
from repro.network.sharded import plan_segments, run_sharded
from repro.network.shm import BoundaryRing
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


def test_adaptive_adversary_scenario_is_refused(ring_names):
    scenario = (
        Scenario.line(16)
        .algorithm("greedy")
        .adversary("hotspot", rho=0.5, sigma=2.0, rounds=10)
        .policy(seed=1, engine="batch")
    )
    with pytest.raises(UnshardableScenarioError):
        Session().run(scenario.policy(shards=2).build())
    _assert_nothing_left_behind(ring_names)


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


@pytest.fixture
def ring_names(monkeypatch):
    """The names of the boundary rings created in this process during the
    test.  Only these are checked for leaks, so shared memory that other
    processes create meanwhile cannot fail the check."""
    names = []
    real_init = BoundaryRing.__init__

    def init(self, name=None, capacity=256, peer=None):
        real_init(self, name, capacity, peer)
        if name is None:
            names.append(self.name)

    monkeypatch.setattr(BoundaryRing, "__init__", init)
    return names


def _assert_nothing_left_behind(ring_names) -> None:
    """No worker process is alive and no ring the run created is left in
    /dev/shm (where BoundaryRing segments live)."""
    assert multiprocessing.active_children() == []
    leaked = [
        name for name in ring_names
        if os.path.exists(os.path.join("/dev/shm", name))
    ]
    assert not leaked, f"shared-memory segments left behind: {leaked}"


@pytest.mark.parametrize("algorithm", sorted(REFUSAL_ALGORITHMS))
@pytest.mark.parametrize("engine", ENGINES)
def test_session_refuses_unshardable_engine_or_algorithm(
    engine, algorithm, ring_names
):
    """shards > 1 with engine None/"delta", or an algorithm the segment
    scans do not cover (PPTS, HPTS), raises the typed error with its reason;
    a refused run leaves no worker process and no shared-memory ring
    behind."""
    spec = _refusal_spec(algorithm, engine)
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
    _assert_nothing_left_behind(ring_names)


@pytest.mark.parametrize("algorithm", sorted(REFUSAL_ALGORITHMS))
@pytest.mark.parametrize("engine", ENGINES)
def test_cli_refuses_unshardable_engine_or_algorithm(
    engine, algorithm, tmp_path, capsys, ring_names
):
    """`repro simulate --shards 2` exits 2 with the refusal on stderr."""
    from repro.cli import main

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(_refusal_spec(algorithm, engine).to_json())
    exit_code = main(["simulate", "--spec", str(spec_path), "--shards", "2"])
    captured = capsys.readouterr()
    if _runs_sharded(algorithm, engine):
        assert exit_code == 0
    else:
        assert exit_code == 2
        assert "sharded execution runs only the batch kernel" in captured.err
        assert "Traceback" not in captured.err
    _assert_nothing_left_behind(ring_names)


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


def test_sharded_policy_refuses_checkpointing():
    """A sharded run writes no checkpoints: the combination is refused when
    the policy is built, naming both fields."""
    with pytest.raises(SpecError) as excinfo:
        RunPolicy(shards=2, checkpoint_every=5, checkpoint_path="run.ckpt")
    assert "shards" in str(excinfo.value)
    assert "checkpoint_every" in str(excinfo.value)
    assert RunPolicy(shards=1, checkpoint_every=5, checkpoint_path="run.ckpt")


# ---------------------------------------------------------------------------
# Worker processes and their shared-memory rings
# ---------------------------------------------------------------------------


class _NoSharedMemoryRing:
    """Stands in for BoundaryRing on a host without usable shared memory."""

    def __init__(self, *args, **kwargs):
        raise OSError(38, "Function not implemented: shm_open")


def test_ring_creation_failure_refuses_and_reaps_workers(monkeypatch, ring_names):
    """When the coordinator cannot create a boundary ring, Session.run
    raises the typed refusal pointing at shards=1, after tearing down the
    workers it already spawned; nothing falls back silently."""
    monkeypatch.setattr(sharded_module, "BoundaryRing", _NoSharedMemoryRing)
    spec = _line_spec(shards=2)
    with pytest.raises(UnshardableScenarioError,
                       match="shared-memory rings.*shards=1") as excinfo:
        Session().run(spec)
    assert "OSError" in str(excinfo.value)
    _assert_nothing_left_behind(ring_names)


def test_ring_attach_failure_in_a_worker_is_typed(ring_names, monkeypatch):
    """A worker that cannot map a ring the coordinator created reports the
    same typed refusal (not a raw OSError), and the run leaves no worker
    and no ring behind."""
    real_ring = sharded_module.BoundaryRing

    def ring(name=None, **kwargs):
        if name is not None:
            raise OSError(13, "Permission denied", name)
        return real_ring(**kwargs)

    monkeypatch.setattr(sharded_module, "BoundaryRing", ring)
    with pytest.raises(UnshardableScenarioError, match="shards=1"):
        run_sharded(_line_spec(), shards=3)
    _assert_nothing_left_behind(ring_names)


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
    # Sharded rows additionally surface the engine routing record; the
    # result itself must stay bit-identical to the single-process delta row.
    assert sharded_row.pop("engine")["selected"] == "batch"
    assert sharded_row == single_row


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
# A dead worker: one typed error, nothing left behind
# ---------------------------------------------------------------------------


def _exit_at(monkeypatch, segment: int, round_number: int) -> None:
    """Make ``segment``'s worker exit hard (``os._exit``, as a SIGKILL'd or
    OOM-killed process would) when its window reaches ``round_number``.
    The patch is in place before ``run_sharded`` forks, so workers inherit
    it."""
    real = BatchSegmentSimulator.run_window

    def run_window(self, t0, t1, **kwargs):
        if self.segment_index == segment and t0 <= round_number < t1:
            real(self, t0, round_number, **kwargs)
            os._exit(70)
        return real(self, t0, t1, **kwargs)

    monkeypatch.setattr(BatchSegmentSimulator, "run_window", run_window)


def test_error_family():
    assert issubclass(WorkerFailedError, ShardingError)
    assert issubclass(WorkerFailedError, ReproError)
    error = WorkerFailedError("boom", segment=2, round_number=5, phase="window")
    assert (error.segment, error.round_number, error.phase) == (2, 5, "window")


@pytest.mark.parametrize(
    "segment, round_number",
    [(1, 12), (2, 29)],
    ids=["injection-window", "drain-window"],
)
def test_dead_worker_raises_typed_error_and_leaves_nothing(
    segment, round_number, monkeypatch, ring_names
):
    """A worker that dies mid-window ends the run with WorkerFailedError
    naming its segment; every worker and boundary ring is gone after."""
    spec = _line_spec(shards=3, batch_rounds=8)
    horizon = spec.adversary.rounds
    baseline, _ = run_sharded(spec)
    # Windows are [0, 8), [8, 16), ... while injecting and [25, 33), ...
    # while draining: round 12 is mid-injection, round 29 mid-drain.
    assert 8 < 12 < 16 <= horizon < 29 < baseline.rounds_executed
    _exit_at(monkeypatch, segment, round_number)
    with pytest.raises(WorkerFailedError) as excinfo:
        run_sharded(spec)
    assert excinfo.value.segment == segment
    assert f"segment worker {segment}" in str(excinfo.value)
    _assert_nothing_left_behind(ring_names)


def test_session_run_propagates_the_dead_worker(monkeypatch, ring_names):
    spec = _line_spec(shards=2, batch_rounds=8)
    _exit_at(monkeypatch, 0, 5)
    with pytest.raises(WorkerFailedError, match="segment worker 0"):
        Session().run(spec)
    _assert_nothing_left_behind(ring_names)


#: Runs ``repro simulate`` with segment 1 failing in the window holding
#: round 12 (argv: failure, spec path): ``exit`` dies hard, ``hang`` sleeps
#: with every ring wait shortened to 0.5 s, so its neighbour times out and
#: exits through the error path.
_FAILING_CLI = textwrap.dedent("""
    import os, sys, time
    from repro.network.batch_sharded import BatchSegmentSimulator
    from repro.network.shm import BoundaryRing
    from repro.cli import main

    failure, spec_path = sys.argv[1:]
    real_window = BatchSegmentSimulator.run_window
    real_wait = BoundaryRing._wait

    def run_window(self, t0, t1, **kwargs):
        if self.segment_index == 1 and t0 <= 12 < t1:
            if failure == "hang":
                time.sleep(600)
            os._exit(70)
        return real_window(self, t0, t1, **kwargs)

    def short_wait(self, ready, timeout, what):
        return real_wait(self, ready, min(timeout, 0.5), what)

    BatchSegmentSimulator.run_window = run_window
    BoundaryRing._wait = short_wait
    sys.exit(main(["simulate", "--spec", spec_path, "--shards", "2"]))
""")


@pytest.mark.parametrize("failure", ["exit", "hang"])
def test_cli_failed_sharded_run_writes_no_buffer_error(failure, tmp_path):
    """A failing `simulate --shards 2` reports the failed segment and
    nothing else: no exiting worker prints a `SharedMemory` finalizer's
    BufferError about ring views it still exported."""
    spec = (
        Scenario.line(16)
        .algorithm("pts", work_conserving=True)
        .adversary("single", rho=0.8, sigma=3.0, rounds=30)
        .policy(seed=17, engine="batch", batch_rounds=8)
        .build()
    )
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["repro"].__file__)))
    completed = subprocess.run(
        [sys.executable, "-c", _FAILING_CLI, failure, str(spec_path)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src_dir},
    )
    assert completed.returncode == 2, completed.stderr
    assert completed.stderr.startswith("error: segment worker 1 "), (
        completed.stderr
    )
    assert "BufferError" not in completed.stderr
    assert "Exception ignored" not in completed.stderr
