"""Per-segment checkpoints stitch into a global snapshot that resumes
bit-identically.

A sharded run with ``checkpoint_every`` saves one snapshot per segment plus
the stitched global file.  The acceptance property: resuming the stitched
file in a plain single-process engine finishes with exactly the result the
uninterrupted delta run produces — across history modes (including
streaming, whose injection log is re-sorted into global id order).  Sharded
runs use the batch kernel, so PPTS and HPTS cells assert the typed refusal
— before any checkpoint file is written — instead.
"""

from __future__ import annotations

import os

import pytest

from repro.api import Scenario, ScenarioSpec, Session
from repro.checkpoint import (
    CheckpointError,
    CheckpointFormatError,
    load_checkpoint,
    resume_spec_hash,
    stitch_checkpoints,
)
from repro.network.errors import UnshardableScenarioError
from repro.network.sharded import run_sharded

N = 16
ROUNDS = 30


def _spec(algorithm: str, history: str, *, checkpoint_path=None,
          checkpoint_every=None, seed: int = 41,
          engine: str = "batch") -> ScenarioSpec:
    scenario = Scenario.line(N)
    if algorithm == "hpts":
        scenario.algorithm("hpts", levels=2)
        rho = 0.5
    elif algorithm == "greedy":
        scenario.algorithm("greedy")
        rho = 0.8
    else:
        scenario.algorithm("ppts")
        rho = 0.8
    params = {"num_destinations": 3}
    if history == "streaming":
        params["stream"] = True
    scenario.adversary("bounded", rho=rho, sigma=3.0, rounds=ROUNDS, **params)
    policy = {"seed": seed, "engine": engine}
    if history == "streaming":
        policy["history"] = "streaming"
    elif history == "full":
        policy["record_history"] = True
    if checkpoint_every is not None:
        policy["checkpoint_every"] = checkpoint_every
        policy["checkpoint_path"] = checkpoint_path
    scenario.policy(**policy)
    return scenario.build()


@pytest.mark.parametrize("history", ["summary", "streaming", "full"])
@pytest.mark.parametrize("algorithm", ["ppts", "hpts", "greedy"])
def test_stitched_checkpoint_resumes_bit_identically(tmp_path, algorithm,
                                                     history):
    path = str(tmp_path / "global.ckpt")
    checkpointed = _spec(
        algorithm, history, checkpoint_path=path, checkpoint_every=7
    )
    if algorithm != "greedy":
        with pytest.raises(UnshardableScenarioError, match="batch kernel"):
            run_sharded(checkpointed, shards=3)
        assert not os.path.exists(path)
        return
    uninterrupted = Session().run(
        _spec(algorithm, history, engine="delta")
    ).result
    sharded, _ = run_sharded(checkpointed, shards=3)
    assert sharded == uninterrupted

    # Only the stitched file survives (per-segment scaffolding is removed
    # after every successful stitch); it was taken at the last multiple of 7
    # before the horizon.
    assert os.path.exists(path)
    for index in range(3):
        assert not os.path.exists(f"{path}.seg{index}")
    stitched = load_checkpoint(path)
    assert stitched.round == (ROUNDS // 7) * 7

    resumed = Session().resume(path)
    assert resumed.result == uninterrupted


def test_stitched_checkpoint_resumes_mid_staging_phase(tmp_path):
    """HPTS, the one algorithm that stages injected packets across a phase
    boundary, cannot run sharded: the refusal comes before any per-segment
    snapshot or stitched file is written, whatever the engine."""
    path = str(tmp_path / "staged.ckpt")
    for engine in ("delta", "batch", "auto"):
        checkpointed = _spec(
            "hpts", "summary", checkpoint_path=path, checkpoint_every=3,
            engine=engine,
        )
        with pytest.raises(UnshardableScenarioError):
            run_sharded(checkpointed, shards=4)
    assert os.listdir(tmp_path) == []


def test_stitch_validates_segment_agreement(tmp_path):
    path_a = str(tmp_path / "a.ckpt")
    path_b = str(tmp_path / "b.ckpt")
    run_sharded(
        _spec("greedy", "summary", checkpoint_path=path_a, checkpoint_every=7),
        shards=2,
    )
    run_sharded(
        _spec("greedy", "summary", checkpoint_path=path_b, checkpoint_every=5,
              seed=99),
        shards=2,
    )
    with pytest.raises(CheckpointError):
        stitch_checkpoints([])
    with pytest.raises(CheckpointError):
        # Snapshots of two different runs (different seeds, different
        # checkpoint rounds) must refuse to stitch.
        stitch_checkpoints(
            [load_checkpoint(path_a), load_checkpoint(path_b)]
        )


def test_stitch_mismatched_rounds_is_a_typed_format_error(tmp_path):
    """Snapshots taken at different round boundaries are not a consistent
    cut: stitching must raise CheckpointFormatError naming the round — the
    recovery supervisor keys its fallback-to-round-0 decision on exactly
    this error type."""
    early_path = str(tmp_path / "early.ckpt")
    late_path = str(tmp_path / "late.ckpt")
    # Same scenario, checkpointed at different cadences: final snapshots
    # land at rounds 28 (every 7) and 25 (every 5).
    Session().run(
        _spec("ppts", "summary", checkpoint_path=early_path, checkpoint_every=5,
              engine="delta")
    )
    Session().run(
        _spec("ppts", "summary", checkpoint_path=late_path, checkpoint_every=7,
              engine="delta")
    )
    early = load_checkpoint(early_path)
    late = load_checkpoint(late_path)
    assert early.round != late.round
    with pytest.raises(CheckpointFormatError, match="round"):
        stitch_checkpoints([early, late])


def test_recovery_mode_retains_per_segment_cut(tmp_path):
    """recovery='restart' keeps the per-segment snapshots on disk — they ARE
    the recovery cut — and they stitch to the same round as the global
    file.  (With recovery='fail' the scaffolding is removed; see
    test_stitched_checkpoint_resumes_bit_identically.)"""
    path = str(tmp_path / "kept.ckpt")
    base = _spec("greedy", "summary", checkpoint_path=path, checkpoint_every=7)
    spec = Scenario.from_spec(base).policy(
        shards=3, recovery="restart", max_worker_restarts=2
    ).build()
    sharded, _ = run_sharded(spec)
    assert os.path.exists(path)
    segments = [load_checkpoint(f"{path}.seg{index}") for index in range(3)]
    restitched = stitch_checkpoints(segments)
    assert restitched.round == load_checkpoint(path).round == (ROUNDS // 7) * 7


def test_resume_hash_ignores_recovery_knobs(tmp_path):
    """The recovery knobs decide how a run survives failures, not what it
    computes: they are normalized out of the resume-identity hash, so a
    checkpoint taken under one recovery policy resumes under any other."""
    base = _spec("greedy", "summary")
    tuned = Scenario.from_spec(base).policy(
        recovery="fold", max_worker_restarts=9, heartbeat_timeout=2.5
    ).build()
    assert resume_spec_hash(base) == resume_spec_hash(tuned)

    path = str(tmp_path / "cross.ckpt")
    ckpt_spec = Scenario.from_spec(base).policy(
        checkpoint_every=7, checkpoint_path=path, shards=3,
        recovery="restart", max_worker_restarts=2,
    ).build()
    uninterrupted = Session().run(
        Scenario.from_spec(base).policy(engine="delta").build()
    ).result
    run_sharded(ckpt_spec)
    # Resume under the default (recovery='fail') policy: same run.
    assert Session().resume(path).result == uninterrupted


def test_stitched_file_is_a_plain_checkpoint(tmp_path):
    """The stitched file parses like any single-engine snapshot: the
    adversary masquerade and packet-table re-sort leave a file the normal
    loader fully validates (magic, CRC, sections)."""
    path = str(tmp_path / "plain.ckpt")
    run_sharded(
        _spec("greedy", "streaming", checkpoint_path=path, checkpoint_every=7),
        shards=3,
    )
    checkpoint = load_checkpoint(path)
    assert checkpoint.header["adversary"]["kind"] == "StreamingAdversary"
    ids = list(checkpoint.section("packets/ids"))
    assert ids == sorted(ids)
    store_ids = list(checkpoint.section("store/ids"))
    assert store_ids == sorted(store_ids)
