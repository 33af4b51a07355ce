"""Differential proof for the fault-tolerant sharded runtime.

The recovery layer's acceptance claim mirrors the sharded engine's own: a
chaos run — same spec, plus an injected worker failure — must produce a
:class:`SimulationResult` equal field-for-field to its fault-free twin,
*and* the final stitched checkpoint file must be byte-identical.  The fault
plan is an argument of ``run_sharded``, never part of the spec, so the two
runs share specs, spec hashes and checkpoint headers by construction;
everything that could diverge is the recovery machinery.

The matrix covers every bundled line algorithm the batch kernel runs x two
adversary families x two history modes x both elastic recovery strategies
(``restart`` respawns the workers, ``fold`` merges the dead segment into a
neighbour), all on worker processes whose injected crashes are real process
exits, and checks each fault-free twin against the single-process delta
oracle as well.  PPTS and HPTS, which the batch kernel (the only segment
engine) refuses, assert the typed refusal instead.  Heartbeat timeouts and
dropped sends are exercised in ``test_sharded_engine.py``.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario, ScenarioSpec, Session
from repro.network.errors import (
    RecoveryExhaustedError,
    UnshardableScenarioError,
    WorkerFailedError,
)
from repro.network.faults import FaultEvent, FaultPlan
from repro.network.sharded import run_sharded

N = 16
ROUNDS = 30
SHARDS = 3
HISTORIES = ("summary", "streaming")
MODES = ("restart", "fold")

ALGORITHMS = {
    "pts": {"spec": ("pts", {}), "multi": False, "rho": 0.8},
    "ppts": {"spec": ("ppts", {}), "multi": True, "rho": 0.8},
    "hpts": {"spec": ("hpts", {"levels": 2}), "multi": True, "rho": 0.5},
    "local": {"spec": ("local", {"locality": 2}), "multi": False, "rho": 0.8},
    "downhill": {"spec": ("downhill", {}), "multi": False, "rho": 0.8},
    "greedy": {"spec": ("greedy", {}), "multi": True, "rho": 0.8},
}

ADVERSARIES = ("saturating", "bursty")

#: Algorithms the batch kernel refuses, so sharded runs refuse them too.
UNBATCHABLE = ("ppts", "hpts")


def _build_spec(algorithm: str, adversary: str, history: str, *,
                recovery: str, checkpoint_path: str,
                checkpoint_every: int = 7, max_worker_restarts: int = 3,
                rounds: int = ROUNDS, seed: int = 17) -> ScenarioSpec:
    config = ALGORITHMS[algorithm]
    name, algo_params = config["spec"]
    scenario = Scenario.line(N).algorithm(name, **algo_params)
    adversary_params = {"num_destinations": 3 if config["multi"] else 1}
    if history == "streaming":
        adversary_params["stream"] = True
    scenario.adversary(
        adversary, rho=config["rho"], sigma=3.0, rounds=rounds,
        **adversary_params,
    )
    policy = {
        "seed": seed,
        "shards": SHARDS,
        "checkpoint_every": checkpoint_every,
        "checkpoint_path": checkpoint_path,
        "recovery": recovery,
        "max_worker_restarts": max_worker_restarts,
        "engine": "batch",
    }
    if history == "streaming":
        policy["history"] = "streaming"
    scenario.policy(**policy)
    return scenario.build()


def _crash(round_number: int, segment: int, phase: str = "select") -> FaultPlan:
    return FaultPlan(events=(
        FaultEvent(kind="crash", round=round_number, segment=segment,
                   phase=phase),
    ))


# ---------------------------------------------------------------------------
# The matrix: algorithm x adversary x history x recovery mode
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("adversary", ADVERSARIES)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_recovered_runs_are_bit_identical(algorithm, adversary, tmp_path):
    """One mid-run worker crash, recovered, == the fault-free twin — same
    result fields and byte-identical final stitched checkpoint — and the
    twin == the single-process delta oracle."""
    for history in HISTORIES:
        for mode in MODES:
            path = str(tmp_path / f"{algorithm}-{adversary}-{history}-{mode}.ckpt")
            spec = _build_spec(algorithm, adversary, history,
                               recovery=mode, checkpoint_path=path)
            if algorithm in UNBATCHABLE:
                with pytest.raises(UnshardableScenarioError,
                                   match="batch kernel"):
                    run_sharded(spec, faults=_crash(11, 1))
                continue
            baseline, _ = run_sharded(spec)
            oracle_spec = Scenario.from_spec(spec).policy(
                engine="delta", shards=None, checkpoint_every=None,
                checkpoint_path=None,
            ).build()
            assert baseline == Session().run(oracle_spec).result
            baseline_bytes = (tmp_path / f"{algorithm}-{adversary}-{history}-{mode}.ckpt").read_bytes()
            recovered, extras = run_sharded(
                spec, faults=_crash(11, 1)
            )
            label = f"{algorithm}/{adversary}/{history}/{mode}"
            assert extras["recovery"]["restarts"] == 1, label
            assert recovered == baseline, f"{label} result diverged"
            chaos_bytes = (tmp_path / f"{algorithm}-{adversary}-{history}-{mode}.ckpt").read_bytes()
            assert chaos_bytes == baseline_bytes, f"{label} checkpoint diverged"


def test_fold_recovery_runs_the_tail_on_fewer_segments(tmp_path):
    """fold shrinks the segment plan by one and still matches."""
    path = str(tmp_path / "fold.ckpt")
    spec = _build_spec("greedy", "bursty", "summary", recovery="fold",
                       checkpoint_path=path)
    baseline, base_extras = run_sharded(spec)
    recovered, extras = run_sharded(spec,
                                    faults=_crash(9, 2, "finish"))
    assert recovered == baseline
    assert len(base_extras["segments"]) == SHARDS
    assert len(extras["segments"]) == SHARDS - 1


# ---------------------------------------------------------------------------
# Crash-at-every-round sweep (round 0, final round and drain included)
# ---------------------------------------------------------------------------


def _small_spec(recovery: str, checkpoint_path: str,
                max_worker_restarts: int = 4) -> ScenarioSpec:
    return (
        Scenario.line(12)
        .algorithm("greedy")
        .adversary("round-robin", rho=0.9, sigma=3.0, rounds=10,
                   num_destinations=3)
        .policy(seed=3, shards=3, checkpoint_every=4,
                checkpoint_path=checkpoint_path, recovery=recovery,
                max_worker_restarts=max_worker_restarts, engine="batch")
        .build()
    )


@pytest.mark.parametrize("mode", MODES)
def test_crash_at_every_round_recovers(mode, tmp_path):
    """Sweep the crash coordinate over every round (0, mid, the final
    injection round and the drain tail) and every per-round phase."""
    path = str(tmp_path / "sweep.ckpt")
    spec = _small_spec(mode, path)
    baseline, _ = run_sharded(spec)
    baseline_bytes = (tmp_path / "sweep.ckpt").read_bytes()
    drain_tail = 4  # rounds past the horizon still served by workers
    for round_number in range(10 + drain_tail):
        for phase in ("begin", "select", "finish"):
            recovered, extras = run_sharded(
                spec,
                faults=_crash(round_number, round_number % SHARDS, phase),
            )
            label = f"round {round_number}/{phase}"
            assert recovered == baseline, f"{label} diverged"
            assert (tmp_path / "sweep.ckpt").read_bytes() == baseline_bytes, (
                f"{label} checkpoint diverged"
            )
            if round_number < 10:
                assert extras["recovery"]["restarts"] == 1, label


def test_crash_during_checkpoint_phase_falls_back_to_previous_cut(tmp_path):
    """A worker dying mid-snapshot tears the staged cut, never the committed
    one: recovery rewinds to the previous consistent checkpoint."""
    path = str(tmp_path / "midckpt.ckpt")
    spec = _small_spec("restart", path)
    baseline, _ = run_sharded(spec)
    # checkpoint_every=4 -> checkpoint commands run after rounds 3 and 7.
    recovered, extras = run_sharded(
        spec, faults=_crash(7, 1, "checkpoint")
    )
    assert recovered == baseline
    assert extras["recovery"]["restarts"] == 1


def test_crash_without_checkpointing_replays_from_round_zero(tmp_path):
    """No checkpoint_every configured: the only consistent cut is round 0,
    and a full deterministic replay still matches."""
    spec = (
        Scenario.line(12)
        .algorithm("greedy")
        .adversary("round-robin", rho=0.8, sigma=2.0, rounds=12,
                   num_destinations=3)
        .policy(seed=5, shards=3, recovery="restart", max_worker_restarts=2,
                engine="batch")
        .build()
    )
    baseline, _ = run_sharded(spec)
    recovered, extras = run_sharded(spec,
                                    faults=_crash(8, 1))
    assert recovered == baseline
    assert extras["recovery"]["restarts"] == 1


# ---------------------------------------------------------------------------
# Replayability and escalation
# ---------------------------------------------------------------------------


def test_sampled_chaos_runs_replay_identically(tmp_path):
    """A seeded FaultPlan is pure data: running the same plan twice gives
    the same recovery story and the same bytes."""
    path = str(tmp_path / "replay.ckpt")
    spec = _small_spec("restart", path)
    plan = FaultPlan.sample(31, rounds=10, shards=SHARDS, events=2,
                            kinds=("crash", "drop"))
    assert plan == FaultPlan.sample(31, rounds=10, shards=SHARDS, events=2,
                                    kinds=("crash", "drop"))
    first, first_extras = run_sharded(spec, faults=plan)
    first_bytes = (tmp_path / "replay.ckpt").read_bytes()
    second, second_extras = run_sharded(spec, faults=plan)
    assert first == second
    assert first_extras["recovery"] == second_extras["recovery"]
    assert (tmp_path / "replay.ckpt").read_bytes() == first_bytes
    baseline, _ = run_sharded(spec)
    assert first == baseline


def test_recovery_budget_exhaustion_raises_typed_error(tmp_path):
    """More crashes than max_worker_restarts escalates, with context."""
    path = str(tmp_path / "exhaust.ckpt")
    spec = _small_spec("restart", path, max_worker_restarts=1)
    plan = FaultPlan(events=(
        FaultEvent(kind="crash", round=2, segment=0),
        FaultEvent(kind="crash", round=5, segment=1),
    ))
    with pytest.raises(RecoveryExhaustedError, match="max_worker_restarts=1"):
        run_sharded(spec, faults=plan)


def test_recovery_fail_mode_propagates_worker_failure(tmp_path):
    """recovery='fail' (the default) keeps the old contract: the failure
    surfaces as a typed WorkerFailedError carrying its coordinate."""
    path = str(tmp_path / "failmode.ckpt")
    spec = _small_spec("fail", path)
    with pytest.raises(WorkerFailedError) as excinfo:
        run_sharded(spec, faults=_crash(4, 2))
    assert excinfo.value.segment == 2
    assert excinfo.value.round_number == 4


def test_fold_with_single_segment_exhausts_immediately(tmp_path):
    """fold needs a surviving neighbour; a one-segment plan cannot shrink."""
    spec = (
        Scenario.line(8)
        .algorithm("greedy")
        .adversary("round-robin", rho=0.8, sigma=2.0, rounds=8,
                   num_destinations=2)
        .policy(seed=2, shards=2, recovery="fold", max_worker_restarts=5,
                engine="batch")
        .build()
    )
    baseline, _ = run_sharded(spec)
    # First crash folds 2 -> 1; the second cannot fold further.
    plan = FaultPlan(events=(
        FaultEvent(kind="crash", round=2, segment=0),
        FaultEvent(kind="crash", round=5, segment=0),
    ))
    with pytest.raises(RecoveryExhaustedError, match="single segment"):
        run_sharded(spec, faults=plan)
    # A single fold alone still matches the fault-free run.
    recovered, extras = run_sharded(
        spec,
        faults=FaultPlan(events=(FaultEvent(kind="crash", round=2, segment=0),)),
    )
    assert recovered == baseline
    assert len(extras["segments"]) == 1
