"""A failed worker ends a sharded run with one typed error, whatever it runs.

A sharded run is one attempt: when a segment worker dies or stops producing,
the coordinator kills every worker, destroys every boundary ring and raises
:class:`WorkerFailedError`.  ``test_sharded_engine.py`` pins that for one
scenario; this file carries it across what the sharded engine runs — every
line algorithm of the batch family x two adversary families x two history
modes, a death in every window of a run (injection and drain), windows of one
round and of many, and a worker that hangs instead of exiting.  Each
scenario's fault-free run is checked against the single-process delta oracle
first, so a failure case never passes on a run that was wrong anyway.  PPTS
and HPTS, which the batch kernel (the only segment engine) refuses, assert
the typed refusal instead.

Deaths are real process exits (``os._exit`` in a patched
``BatchSegmentSimulator.run_window``, inherited by the forked workers).
"""

from __future__ import annotations

import time

import pytest

from test_sharded_engine import (
    _assert_nothing_left_behind,
    _exit_at,
    ring_names,
)

from repro.api import Scenario, ScenarioSpec, Session
from repro.network.batch_sharded import BatchSegmentSimulator
from repro.network.errors import UnshardableScenarioError, WorkerFailedError
from repro.network.sharded import run_sharded
from repro.network.shm import BoundaryRing

N = 16
ROUNDS = 30
SHARDS = 3
BATCH_ROUNDS = 8
HISTORIES = ("summary", "streaming")

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
                batch_rounds: int = BATCH_ROUNDS,
                shards: int = SHARDS) -> ScenarioSpec:
    config = ALGORITHMS[algorithm]
    name, algo_params = config["spec"]
    scenario = Scenario.line(N).algorithm(name, **algo_params)
    adversary_params = {"num_destinations": 3 if config["multi"] else 1}
    if history == "streaming":
        adversary_params["stream"] = True
    scenario.adversary(
        adversary, rho=config["rho"], sigma=3.0, rounds=ROUNDS,
        **adversary_params,
    )
    policy = {
        "seed": 17,
        "shards": shards,
        "engine": "batch",
        "batch_rounds": batch_rounds,
    }
    if history == "streaming":
        policy["history"] = "streaming"
    scenario.policy(**policy)
    return scenario.build()


def _delta_oracle(spec: ScenarioSpec):
    return Session().run(
        Scenario.from_spec(spec).policy(engine="delta", shards=None).build()
    ).result


def _assert_death_is_typed(spec, monkeypatch, ring_names, segment: int,
                           round_number: int) -> WorkerFailedError:
    """Kill ``segment`` at ``round_number``; the run must raise the typed
    error naming it and leave no worker or ring behind."""
    with monkeypatch.context() as patch:
        _exit_at(patch, segment, round_number)
        with pytest.raises(WorkerFailedError) as excinfo:
            run_sharded(spec)
    assert excinfo.value.segment == segment, str(excinfo.value)
    assert f"segment worker {segment}" in str(excinfo.value)
    _assert_nothing_left_behind(ring_names)
    return excinfo.value


# ---------------------------------------------------------------------------
# The matrix: algorithm x adversary x history
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("adversary", ADVERSARIES)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_dead_worker_is_typed_in_every_scenario(algorithm, adversary,
                                                monkeypatch, ring_names):
    """The fault-free sharded run == the delta oracle; the same run with
    the middle worker killed mid-window raises WorkerFailedError naming it
    and leaves nothing behind."""
    for history in HISTORIES:
        spec = _build_spec(algorithm, adversary, history)
        if algorithm in UNBATCHABLE:
            with pytest.raises(UnshardableScenarioError, match="batch kernel"):
                run_sharded(spec)
            _assert_nothing_left_behind(ring_names)
            continue
        baseline, _ = run_sharded(spec)
        assert baseline == _delta_oracle(spec), f"{algorithm}/{history}"
        _assert_death_is_typed(spec, monkeypatch, ring_names, 1, 11)


# ---------------------------------------------------------------------------
# Where the death falls
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("segment", range(SHARDS))
def test_death_in_any_window_is_typed(segment, monkeypatch, ring_names):
    """A death one round into each window the run executes — injection
    windows and drain windows alike — names the dead segment and the
    window it was in (or the next one, whose send found the pipe gone)."""
    spec = _build_spec("pts", "bursty", "summary")
    baseline, _ = run_sharded(spec)
    assert baseline.rounds_executed > ROUNDS + BATCH_ROUNDS  # drain windows
    for t0 in range(0, baseline.rounds_executed, BATCH_ROUNDS):
        death = t0 + 1
        error = _assert_death_is_typed(spec, monkeypatch, ring_names, segment, death)
        assert error.round_number in (t0, t0 + BATCH_ROUNDS), (
            death, str(error)
        )


@pytest.mark.parametrize("batch_rounds", [1, 4 * ROUNDS],
                         ids=["one-round-windows", "window"])
def test_dead_worker_in_windows_of_any_length(batch_rounds, monkeypatch,
                                              ring_names):
    """One-round windows (every round is a pipe round trip) and one window
    spanning the whole horizon report the same typed failure."""
    spec = _build_spec("greedy", "saturating", "summary",
                       batch_rounds=batch_rounds)
    baseline, _ = run_sharded(spec)
    assert baseline == _delta_oracle(spec)
    _assert_death_is_typed(spec, monkeypatch, ring_names, 2, 11)


# ---------------------------------------------------------------------------
# A worker that hangs instead of exiting
# ---------------------------------------------------------------------------


def _hung_spec(algorithm: str, params) -> ScenarioSpec:
    scenario = Scenario.line(N).algorithm(algorithm, **params)
    if algorithm == "greedy":
        scenario.adversary("bounded", rho=0.8, sigma=3.0, rounds=ROUNDS,
                           num_destinations=3)
    else:
        scenario.adversary("single", rho=0.8, sigma=3.0, rounds=ROUNDS)
    return scenario.policy(
        seed=17, shards=2, engine="batch", batch_rounds=BATCH_ROUNDS
    ).build()


def _assert_hang_is_named(spec, hung: int, monkeypatch, ring_names) -> None:
    """Hang ``hung`` in the window holding round 12, with every ring wait
    shortened from its fixed default to 0.5 s: the run must end quickly in
    WorkerFailedError naming the hung segment with the time-out diagnosis,
    and leave no worker or ring behind."""
    baseline, _ = run_sharded(spec)
    assert baseline == _delta_oracle(spec)

    real_wait = BoundaryRing._wait
    real_window = BatchSegmentSimulator.run_window

    def short_wait(self, ready, timeout, what):
        return real_wait(self, ready, min(timeout, 0.5), what)

    def run_window(self, t0, t1, **kwargs):
        if self.segment_index == hung and t0 <= 12 < t1:
            time.sleep(600)
        return real_window(self, t0, t1, **kwargs)

    monkeypatch.setattr(BoundaryRing, "_wait", short_wait)
    monkeypatch.setattr(BatchSegmentSimulator, "run_window", run_window)
    started = time.monotonic()
    with pytest.raises(WorkerFailedError) as excinfo:
        run_sharded(spec)
    assert time.monotonic() - started < 30
    message = str(excinfo.value)
    assert excinfo.value.segment == hung, message
    assert message.startswith(f"segment worker {hung} "), message
    assert "timed out" in message
    _assert_nothing_left_behind(ring_names)


@pytest.mark.parametrize(
    "algorithm, params, hung",
    [
        ("greedy", {}, 0),
        ("pts", {"work_conserving": True}, 1),
    ],
    ids=["forward-lane-starves", "reverse-lane-starves"],
)
def test_hung_worker_times_out_through_its_neighbours_ring(
    algorithm, params, hung, monkeypatch, ring_names
):
    """A worker that stops producing starves the neighbour reading its
    ring; the neighbour's ring wait times out and reports the segment at the
    ring's other end, so the error names the hung worker, not the one that
    noticed.  Greedy's right segment reads the forward lane from the hung
    left one; work-conserving PTS's left segment reads the reverse lane from
    the hung right one."""
    _assert_hang_is_named(
        _hung_spec(algorithm, params), hung, monkeypatch, ring_names
    )


def test_hung_worker_no_neighbour_reads_from_times_out(monkeypatch,
                                                       ring_names):
    """Greedy's left segment reads nothing from its right neighbour, so a
    hung right segment starves no ring and the left one replies to every
    window.  The coordinator then gives the last silent worker the ring
    time-out and names it."""
    _assert_hang_is_named(_hung_spec("greedy", {}), 1, monkeypatch, ring_names)
