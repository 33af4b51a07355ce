"""Differential proof for the batch x sharded engine.

The tentpole claim of the batch-sharded execution layer is the same as the
sharded engine's, one level up: ``engine="batch"`` with ``shards=k``
(k in {2, 3, 4}) produces a :class:`SimulationResult` equal — field for
field, including per-round history records and per-node occupancy maxima —
to the ``shards=1`` delta-engine run, across the whole vectorized family
({PTS, work-conserving PTS, local, downhill, greedy} x {trickle, random,
explicit} x three history modes), on worker processes that free-run
``batch_rounds``-round windows over shared-memory boundary rings.

Beyond the result record, the stitched checkpoint's decoded *packet table*
(every ``packets/*`` int64 column) must match the single-process
checkpoint's bit for bit, and an injected worker crash mid-window must
recover to the identical result.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario, ScenarioSpec, Session
from repro.checkpoint import load_checkpoint
from repro.network.errors import UnshardableScenarioError
from repro.network.faults import FaultEvent, FaultPlan
from repro.network.sharded import run_sharded

N = 16
ROUNDS = 60
#: Small enough that a 60-round horizon spans several windows plus a
#: ragged drain tail; coprime with the checkpoint cadence used below.
BATCH_ROUNDS = 13
SHARD_COUNTS = (2, 3, 4)
HISTORIES = ("summary", "streaming", "full")

#: The regular family the batch kernel vectorizes, with builder params.
#: Work-conserving PTS exercises the reverse boundary lane (suffix badness
#: chained right-to-left); downhill exercises the other reverse-lane user.
ALGORITHMS = {
    "pts": {"spec": ("pts", {}), "multi": False},
    "pts_wc": {"spec": ("pts", {"work_conserving": True}), "multi": False},
    "local": {"spec": ("local", {"locality": 2}), "multi": False},
    "downhill": {"spec": ("downhill", {}), "multi": False},
    "greedy": {"spec": ("greedy", {}), "multi": True},
}

ADVERSARIES = ("trickle", "random", "explicit")

#: Explicit schedule with round-0 bursts, repeated sources, boundary-node
#: injections at every 16/k split point (3|4, 5|6, 7|8, 10|11, 11|12) and a
#: long silent gap before a late straggler (drain-tail coverage).
_EXPLICIT_ROUTES = [
    (0, 0, N - 1), (0, 0, N - 1), (0, 3, N - 1), (1, 4, N - 1),
    (2, 5, N - 1), (3, 7, N - 1), (3, 8, N - 1), (5, 10, N - 1),
    (8, 11, N - 1), (8, 12, N - 1), (21, 1, N - 1), (40, 14, N - 1),
]


def _adversary_call(name: str, multi: bool, stream: bool):
    params = {"stream": True} if stream else {}
    if name == "random":
        registry_name = "bounded" if multi else "single"
        if multi:
            params["num_destinations"] = 3
    elif name == "explicit":
        registry_name = "explicit"
        params = {}  # explicit rows are already materialized
        params["routes"] = [list(route) for route in _EXPLICIT_ROUTES]
    else:
        registry_name = "trickle"
        if multi:
            params["destinations"] = [6, 11, N - 1]
    return registry_name, params


def _build_spec(algorithm: str, adversary: str, history: str, *,
                engine: str = "batch", seed: int = 17,
                **policy_extra) -> ScenarioSpec:
    config = ALGORITHMS[algorithm]
    name, algo_params = config["spec"]
    stream = history == "streaming"
    adversary_name, adversary_params = _adversary_call(
        adversary, config["multi"], stream
    )
    rho = 1.0 if adversary == "explicit" else 0.8
    sigma = 4.0 if adversary == "explicit" else 3.0
    scenario = Scenario.line(N).algorithm(name, **algo_params)
    scenario.adversary(
        adversary_name, rho=rho, sigma=sigma, rounds=ROUNDS,
        **adversary_params,
    )
    policy = {"seed": seed, "engine": engine, "batch_rounds": BATCH_ROUNDS}
    if history == "full":
        policy["record_history"] = True
    elif history == "streaming":
        policy["history"] = "streaming"
    policy.update(policy_extra)
    scenario.policy(**policy)
    return scenario.build()


def _delta_baseline(algorithm: str, adversary: str, history: str,
                    **policy_extra):
    spec = _build_spec(algorithm, adversary, history, engine="delta",
                       **policy_extra)
    return Session().run(spec).result


# ---------------------------------------------------------------------------
# The full matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("adversary", ADVERSARIES)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_batch_sharded_matrix(algorithm, adversary):
    """engine=batch, shards in {2,3,4} x histories == shards=1 delta."""
    for history in HISTORIES:
        baseline = _delta_baseline(algorithm, adversary, history)
        spec = _build_spec(algorithm, adversary, history)
        for shards in SHARD_COUNTS:
            sharded, extras = run_sharded(spec, shards=shards)
            assert sharded == baseline, (
                f"{algorithm}/{adversary}/{history} diverged at "
                f"shards={shards}"
            )
            assert extras["engine"]["selected"] == "batch"
            assert extras["engine"]["transport"] == "shm"


# ---------------------------------------------------------------------------
# The Session front door and window geometry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_session_runs_every_algorithm_on_shm_windows(algorithm):
    """Session.run with policy.shards routes every algorithm of the family
    to the shared-memory windows and reports the oracle's result."""
    baseline = _delta_baseline(algorithm, "trickle", "full")
    spec = _build_spec(algorithm, "trickle", "full", shards=3)
    report = Session().run(spec)
    assert report.result == baseline, f"{algorithm} diverged"
    assert report.engine["transport"] == "shm"
    assert report.recovery == {"restarts": 0, "recovery_time_s": None}


def test_shard_counts_with_one_window_spanning_the_horizon():
    """A window longer than the horizon: the injection loop is a single
    ragged window and only the drain runs further windows."""
    baseline = _delta_baseline("pts", "random", "summary")
    spec = _build_spec("pts", "random", "summary", batch_rounds=4 * ROUNDS)
    for shards in SHARD_COUNTS:
        sharded, extras = run_sharded(spec, shards=shards)
        assert sharded == baseline, f"shards={shards} diverged"
        assert extras["engine"]["transport"] == "shm"


# ---------------------------------------------------------------------------
# Stitched checkpoints: resume equality and the decoded packet table
# ---------------------------------------------------------------------------


def _checkpoint_spec(history: str, path: str, engine: str) -> ScenarioSpec:
    return _build_spec(
        "pts", "random", history, engine=engine,
        checkpoint_every=20, checkpoint_path=path,
    )


@pytest.mark.parametrize("history", HISTORIES)
def test_stitched_checkpoint_matches_single_process(history, tmp_path):
    """The stitched cut equals the single-process checkpoint: same engine
    counters, every section equal in order (the packet table and the
    timeline maxima by node), and a resume from it finishes
    bit-identically."""
    single_path = str(tmp_path / "single.ckpt")
    sharded_path = str(tmp_path / "sharded.ckpt")
    baseline_spec = _checkpoint_spec(history, single_path, "delta")
    baseline = Session().run(baseline_spec).result

    spec = _checkpoint_spec(history, sharded_path, "batch")
    sharded, _ = run_sharded(spec, shards=3)
    assert sharded == baseline

    stitched = load_checkpoint(sharded_path)
    single = load_checkpoint(single_path)
    assert stitched.round == single.round
    for field in ("round", "injected", "delivered", "latency_sum",
                  "latency_max", "num_nodes"):
        assert stitched.header["engine"][field] == \
            single.header["engine"][field]
    assert stitched.header["next_packet_id"] == \
        single.header["next_packet_id"]
    assert set(stitched.sections) == set(single.sections)
    for name in single.sections:
        assert stitched.sections[name] == single.sections[name], (
            f"checkpoint section {name!r} diverged"
        )

    resumed = Session().resume(sharded_path)
    assert resumed.result == baseline


# ---------------------------------------------------------------------------
# Injected worker crash mid-window
# ---------------------------------------------------------------------------


def _crash_plan(round_number: int = 33, segment: int = 1,
                phase: str = "begin") -> FaultPlan:
    return FaultPlan(events=(
        FaultEvent(kind="crash", round=round_number, segment=segment,
                   phase=phase),
    ))


@pytest.mark.parametrize("phase", ["begin", "select", "finish"])
def test_injected_crash_recovers_bit_identically(phase, tmp_path):
    """A worker crash mid-window — at the start of round 33, whichever
    per-round phase the plan names — restarts from the checkpoint cut and
    the run still finishes bit-identical to the fault-free delta oracle."""
    path = str(tmp_path / "crash.ckpt")
    baseline = _delta_baseline("pts", "random", "full")
    spec = _build_spec("pts", "random", "full", recovery="restart",
                       checkpoint_every=20, checkpoint_path=path)
    sharded, extras = run_sharded(
        spec, shards=3, faults=_crash_plan(phase=phase),
    )
    assert sharded == baseline
    assert extras["recovery"]["restarts"] == 1


def test_injected_crash_fold_recovery_matches():
    """Fold recovery (no checkpoint: merge the dead segment into a
    neighbour and restitch) also preserves bit-identity in batch mode."""
    baseline = _delta_baseline("greedy", "trickle", "summary")
    spec = _build_spec("greedy", "trickle", "summary", recovery="fold")
    sharded, extras = run_sharded(
        spec, shards=3, faults=_crash_plan(),
    )
    assert sharded == baseline
    assert len(extras["segments"]) == 2  # one fold happened


# ---------------------------------------------------------------------------
# Engine routing telemetry
# ---------------------------------------------------------------------------


def test_auto_engine_refuses_unbatchable_scenario():
    """engine=auto on HPTS, which the batch kernel runs single-process only,
    has no segment engine to fall back to: the refusal names the regular
    family the segment scans cover, typed as an unshardable scenario."""
    spec = (
        Scenario.line(N)
        .algorithm("hpts", levels=2)
        .adversary("bounded", rho=0.4, sigma=3.0, rounds=ROUNDS,
                   num_destinations=3)
        .policy(seed=17, engine="auto")
        .build()
    )
    with pytest.raises(UnshardableScenarioError,
                       match="outside the regular family"):
        run_sharded(spec, shards=3)


def test_batch_engine_refuses_unbatchable_scenario():
    spec = (
        Scenario.line(N)
        .algorithm("hpts", levels=2)
        .adversary("bounded", rho=0.4, sigma=3.0, rounds=ROUNDS,
                   num_destinations=3)
        .policy(seed=17, engine="batch")
        .build()
    )
    with pytest.raises(UnshardableScenarioError, match="batch kernel"):
        run_sharded(spec, shards=3)


def test_auto_selects_batch_for_regular_family():
    spec = _build_spec("local", "trickle", "summary", engine="auto")
    baseline = _delta_baseline("local", "trickle", "summary")
    sharded, extras = run_sharded(spec, shards=2)
    assert sharded == baseline
    assert extras["engine"]["selected"] == "batch"
    assert extras["engine"]["fallback_reason"] is None


# ---------------------------------------------------------------------------
# Window-geometry edges
# ---------------------------------------------------------------------------


def test_rounds_override_and_no_drain_cut_windows_cleanly():
    """A horizon that is not a multiple of batch_rounds truncates the last
    window; drain=False must not run a single drain round."""
    baseline_spec = Scenario.from_spec(
        _build_spec("greedy", "random", "summary", engine="delta")
    ).policy(rounds=17, drain=False).build()
    baseline = Session().run(baseline_spec).result
    spec = Scenario.from_spec(
        _build_spec("greedy", "random", "summary")
    ).policy(rounds=17, drain=False).build()
    sharded, _ = run_sharded(spec, shards=3)
    assert sharded == baseline
    assert sharded.rounds_executed == 17


def test_batch_rounds_one_degenerates_to_lockstep():
    """batch_rounds=1 must behave exactly like the per-round engine."""
    baseline = _delta_baseline("pts", "random", "full")
    spec = _build_spec("pts", "random", "full", batch_rounds=1)
    sharded, _ = run_sharded(spec, shards=3)
    assert sharded == baseline


def test_width_one_segments_batch():
    """Every segment one node wide: each round every forward is a hand-off
    block through the boundary protocol."""
    routes = [(0, 0, 5), (0, 1, 4), (1, 0, 3), (2, 2, 5), (3, 0, 5)]
    scenario = Scenario.line(6).algorithm("greedy")
    scenario.adversary("explicit", rho=1.0, sigma=4.0,
                       rounds=max(r for r, _s, _d in routes) + 1,
                       routes=[list(route) for route in routes])
    scenario.policy(seed=3, engine="batch", batch_rounds=BATCH_ROUNDS)
    spec = scenario.build()
    baseline_spec = Scenario.from_spec(spec).policy(engine="delta").build()
    baseline = Session().run(baseline_spec).result
    sharded, _ = run_sharded(spec, shards=6)
    assert sharded == baseline
    assert baseline.drained
