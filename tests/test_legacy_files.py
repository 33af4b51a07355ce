"""Files written before sharded-worker recovery was retired still load.

``RunPolicy`` used to carry ``recovery``, ``max_worker_restarts`` and
``heartbeat_timeout``, and the sharded engine used to stitch per-segment
snapshots into one checkpoint.  The fixtures under ``tests/regressions/``
were written by that code:

* ``spec_retired_recovery_keys.json`` — a two-shard PTS spec whose policy
  lists the three retired keys at their old defaults;
* ``checkpoint_stitched_two_segments.ckpt`` — the stitched cut at round 30
  of the same scenario run with ``checkpoint_every=15`` on two workers; its
  embedded spec combines ``shards=2`` with ``checkpoint_every``, which a
  policy built today refuses;
* ``checkpoint_stitched_{pts,greedy}_{history}.ckpt`` — stitched cuts of
  three-worker runs in the other history modes (see ``STITCHED_MATRIX``).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.api import RunPolicy, Scenario, ScenarioSpec, Session, SpecError
from repro.api.specs import RETIRED_POLICY_FIELDS
from repro.checkpoint import load_checkpoint, resume_spec_hash, verify_spec
from repro.cli import main

REGRESSIONS = Path(__file__).parent / "regressions"
SPEC_FILE = REGRESSIONS / "spec_retired_recovery_keys.json"
STITCHED = REGRESSIONS / "checkpoint_stitched_two_segments.ckpt"


def _single_process(spec: ScenarioSpec) -> ScenarioSpec:
    payload = spec.to_dict()
    payload["policy"]["shards"] = None
    return ScenarioSpec.from_dict(payload)


# -- spec files ----------------------------------------------------------------------


def test_spec_fixture_carries_the_retired_keys_at_their_defaults():
    policy = json.loads(SPEC_FILE.read_text())["policy"]
    for name, default in RETIRED_POLICY_FIELDS.items():
        assert policy[name] == default


def test_spec_fixture_loads_without_the_retired_keys():
    spec = ScenarioSpec.from_json(SPEC_FILE.read_text())
    assert not set(RETIRED_POLICY_FIELDS) & set(spec.policy.to_dict())
    assert spec.policy.shards == 2
    # Loading and re-saving gives today's layout of the same spec.
    assert ScenarioSpec.from_json(spec.to_json()) == spec


def test_spec_fixture_runs_sharded_like_one_process(capsys):
    assert main(["simulate", "--spec", str(SPEC_FILE), "--json"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row.pop("engine")["transport"] == "shm"
    spec = ScenarioSpec.from_json(SPEC_FILE.read_text())
    assert row == Session().run(_single_process(spec)).as_row()


@pytest.mark.parametrize(
    "name, value",
    [
        ("recovery", "restart"),
        ("recovery", "fold"),
        ("max_worker_restarts", 0),
        ("max_worker_restarts", 3.0),
        ("max_worker_restarts", True),
        ("heartbeat_timeout", 30.0),
    ],
)
def test_a_retired_key_away_from_its_default_names_the_field(name, value):
    payload = json.loads(SPEC_FILE.read_text())
    payload["policy"][name] = value
    with pytest.raises(SpecError, match=f"RunPolicy.{name} was retired"):
        ScenarioSpec.from_dict(payload)
    with pytest.raises(SpecError, match=f"RunPolicy.{name}"):
        RunPolicy.from_dict({name: value})


# -- stitched checkpoints ------------------------------------------------------------


@pytest.fixture
def stitched(tmp_path, monkeypatch):
    """A copy of the stitched checkpoint in a temporary working directory (its
    embedded spec names a relative checkpoint path)."""
    monkeypatch.chdir(tmp_path)
    return str(shutil.copy(STITCHED, tmp_path / STITCHED.name))


def test_stitched_fixture_is_what_a_policy_now_refuses(stitched):
    checkpoint = load_checkpoint(stitched)
    assert checkpoint.round == 30
    policy = checkpoint.spec["policy"]
    assert (policy["shards"], policy["checkpoint_every"]) == (2, 15)
    with pytest.raises(SpecError, match="shards.*checkpoint_every"):
        ScenarioSpec.from_dict(checkpoint.spec)


def test_resume_hash_of_today_matches_the_recorded_one(stitched):
    checkpoint = load_checkpoint(stitched)
    spec = ScenarioSpec.from_json(SPEC_FILE.read_text())
    assert resume_spec_hash(spec) == checkpoint.spec_hash
    verify_spec(checkpoint, _single_process(spec))


@pytest.mark.parametrize("explicit", [False, True], ids=["embedded", "explicit"])
def test_stitched_checkpoint_resumes_bit_identically(stitched, explicit):
    spec = _single_process(ScenarioSpec.from_json(SPEC_FILE.read_text()))
    uninterrupted = Session().run(spec).result
    resumed = Session().resume(stitched, spec=spec if explicit else None)
    assert resumed.result == uninterrupted


@pytest.mark.parametrize("extra", [[], ["--shards", "2"]],
                         ids=["plain", "shards-ignored"])
def test_cli_resumes_the_stitched_checkpoint(stitched, capsys, extra):
    """A resumed run continues in one process, so ``--shards`` cannot make
    the embedded ``checkpoint_every`` a refused combination."""
    assert main(["simulate", "--resume", stitched, "--json"] + extra) == 0
    row = json.loads(capsys.readouterr().out)
    spec = _single_process(ScenarioSpec.from_json(SPEC_FILE.read_text()))
    expected = Session().run(spec).as_row()
    assert row["max_occupancy"] == expected["max_occupancy"]
    assert row["packets"] == expected["packets"]
    assert row["delivered"] == expected["delivered"]
    assert row["max_latency"] == expected["max_latency"]


# -- stitched checkpoints of every history mode ---------------------------------------

#: Stitched cuts written the same way on three workers (``shards=3`` and
#: ``checkpoint_every`` in the embedded policy), one per history mode the old
#: stitcher re-sorted differently: PTS under a single-destination adversary
#: (60 rounds, a cut every 20, ``batch_rounds=13``) and greedy under a
#: three-destination one (30 rounds, a cut every 7).
STITCHED_MATRIX = {
    f"{algorithm}-{history}": (
        REGRESSIONS / f"checkpoint_stitched_{algorithm}_{history}.ckpt",
        cut,
        cadence,
    )
    for algorithm, cut, cadence in (("pts", 60, 20), ("greedy", 28, 7))
    for history in ("summary", "streaming", "full")
    if (algorithm, history) != ("pts", "summary")
}


def _embedded_single_process(checkpoint) -> ScenarioSpec:
    """The embedded spec of a stitched cut as one uninterrupted process."""
    payload = json.loads(json.dumps(checkpoint.spec))
    for name in ("shards", "checkpoint_every", "checkpoint_path"):
        payload["policy"][name] = None
    return ScenarioSpec.from_dict(payload)


@pytest.fixture(params=sorted(STITCHED_MATRIX))
def stitched_cell(request, tmp_path, monkeypatch):
    """(copied path, cut round, cadence) of one matrix fixture, in a temporary
    working directory (the embedded ``checkpoint_path`` is relative)."""
    source, cut, cadence = STITCHED_MATRIX[request.param]
    monkeypatch.chdir(tmp_path)
    return str(shutil.copy(source, tmp_path / source.name)), cut, cadence


def test_stitched_matrix_fixture_is_what_a_policy_now_refuses(stitched_cell):
    path, cut, cadence = stitched_cell
    checkpoint = load_checkpoint(path)
    assert checkpoint.round == cut
    policy = checkpoint.spec["policy"]
    assert (policy["shards"], policy["checkpoint_every"]) == (3, cadence)
    for name, default in RETIRED_POLICY_FIELDS.items():
        assert policy[name] == default
    with pytest.raises(SpecError, match="shards.*checkpoint_every"):
        ScenarioSpec.from_dict(checkpoint.spec)


def test_stitched_matrix_resume_hash_verifies(stitched_cell):
    checkpoint = load_checkpoint(stitched_cell[0])
    spec = _embedded_single_process(checkpoint)
    assert resume_spec_hash(spec) == checkpoint.spec_hash
    verify_spec(checkpoint, spec)


@pytest.mark.parametrize("explicit", [False, True], ids=["embedded", "explicit"])
def test_stitched_matrix_resumes_bit_identically(stitched_cell, explicit):
    path = stitched_cell[0]
    spec = _embedded_single_process(load_checkpoint(path))
    uninterrupted = Session().run(spec).result
    resumed = Session().resume(path, spec=spec if explicit else None)
    assert resumed.result == uninterrupted


def test_stitched_matrix_equals_a_single_process_cut(stitched_cell, tmp_path):
    """The stitched file holds, section by section, what one process writes
    today at the same cut: the engine counters, the packet table, the
    buffers, the timeline and (streaming) the injection store."""
    path, cut, cadence = stitched_cell
    stitched = load_checkpoint(path)
    single_path = str(tmp_path / "single.ckpt")
    spec = Scenario.from_spec(_embedded_single_process(stitched)).policy(
        engine="delta", checkpoint_every=cadence, checkpoint_path=single_path,
    ).build()
    Session().run(spec)
    single = load_checkpoint(single_path)
    assert single.round == stitched.round == cut
    for field in ("round", "injected", "delivered", "latency_sum",
                  "latency_max", "num_nodes"):
        assert stitched.header["engine"][field] == \
            single.header["engine"][field]
    assert stitched.header["next_packet_id"] == single.header["next_packet_id"]
    assert set(stitched.sections) == set(single.sections)
    for name in single.sections:
        assert stitched.sections[name] == single.sections[name], name


@pytest.mark.parametrize("algorithm", ["pts", "greedy"])
def test_stitched_streaming_file_is_a_plain_checkpoint(algorithm):
    """A stitched streaming cut names the streaming adversary (no segment
    wrapper) and keeps its packet table and injection store in global id
    order, as a single-process file does."""
    checkpoint = load_checkpoint(
        REGRESSIONS / f"checkpoint_stitched_{algorithm}_streaming.ckpt"
    )
    assert checkpoint.header["adversary"]["kind"] == "StreamingAdversary"
    for section in ("packets/ids", "store/ids"):
        ids = list(checkpoint.section(section))
        assert ids and ids == sorted(ids), section
