"""Differential proof for the sharded engine.

The acceptance claim of the sharded execution layer is *bit-identical
results*: for every bundled line algorithm the batch kernel runs x adversary
family x history mode, ``engine="batch"`` with ``shards=k`` (k in
{2, 3, 4}) produces a :class:`SimulationResult` equal — field for field,
including per-round history records and per-node occupancy maxima — to the
single-process delta oracle.  PPTS and HPTS are outside the batch kernel,
the only segment engine, so their cells assert the typed refusal instead.

The matrix runs on worker processes exchanging boundary facts through
shared-memory rings — the path every sharded run takes.  The random and
trickle adversaries of the batch family are covered by
``test_batch_sharded_differential.py``.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario, ScenarioSpec, Session
from repro.network.errors import UnshardableScenarioError
from repro.network.sharded import run_sharded

N = 16
ROUNDS = 30
SHARD_COUNTS = (2, 3, 4)
HISTORIES = ("summary", "streaming", "full")

#: The six bundled line algorithms with their builder params.  PTS, the
#: locality rules and downhill are single-destination; PPTS/HPTS/greedy get a
#: three-destination workload.  HPTS needs rho * levels <= 1.
ALGORITHMS = {
    "pts": {"spec": ("pts", {}), "multi": False, "rho": 0.8},
    "ppts": {"spec": ("ppts", {}), "multi": True, "rho": 0.8},
    "hpts": {"spec": ("hpts", {"levels": 2}), "multi": True, "rho": 0.5},
    "local": {"spec": ("local", {"locality": 2}), "multi": False, "rho": 0.8},
    "downhill": {"spec": ("downhill", {}), "multi": False, "rho": 0.8},
    "greedy": {"spec": ("greedy", {}), "multi": True, "rho": 0.8},
}

#: Four adversary families: steady random, the harshest feasible burst
#: pattern, silence-then-burst, and the bucketless O(1)-per-round trickle.
ADVERSARIES = ("random", "saturating", "bursty", "trickle")

#: Algorithms the batch kernel refuses, so sharded runs refuse them too.
UNBATCHABLE = ("ppts", "hpts")

#: The (algorithm, adversary) cells run here: every unbatchable cell (as a
#: refusal) and every batchable cell that
#: ``test_batch_sharded_differential.py`` does not already run with the
#: same histories and shard counts.
MATRIX = [
    (algorithm, adversary)
    for algorithm in sorted(ALGORITHMS)
    for adversary in ADVERSARIES
    if algorithm in UNBATCHABLE or adversary not in ("random", "trickle")
]


def _adversary_call(name: str, multi: bool, stream: bool):
    params = {"stream": True} if stream else {}
    if name == "random":
        registry_name = "bounded" if multi else "single"
        if multi:
            params["num_destinations"] = 3
    elif name in ("saturating", "bursty"):
        registry_name = name
        params["num_destinations"] = 3 if multi else 1
    else:
        registry_name = "trickle"
        if multi:
            params["destinations"] = [6, 11, N - 1]
    return registry_name, params


def _build_spec(algorithm: str, adversary: str, history: str, *,
                shards=None, seed: int = 17,
                engine: str = "batch") -> ScenarioSpec:
    config = ALGORITHMS[algorithm]
    name, algo_params = config["spec"]
    stream = history == "streaming"
    adversary_name, adversary_params = _adversary_call(
        adversary, config["multi"], stream
    )
    scenario = Scenario.line(N).algorithm(name, **algo_params)
    scenario.adversary(
        adversary_name, rho=config["rho"], sigma=3.0, rounds=ROUNDS,
        **adversary_params,
    )
    policy = {"seed": seed, "engine": engine}
    if history == "full":
        policy["record_history"] = True
    elif history == "streaming":
        policy["history"] = "streaming"
    if shards is not None:
        policy["shards"] = shards
    scenario.policy(**policy)
    return scenario.build()


def _delta_oracle(spec: ScenarioSpec):
    return Session().run(
        Scenario.from_spec(spec).policy(engine="delta", shards=None).build()
    ).result


@pytest.mark.parametrize(
    "algorithm, adversary",
    [pytest.param(algorithm, adversary, id=f"{algorithm}-{adversary}")
     for algorithm, adversary in MATRIX],
)
def test_sharded_results_are_bit_identical(algorithm, adversary):
    """shards in {2, 3, 4} x histories == the delta oracle, field for field
    (a typed refusal for the algorithms the batch kernel refuses)."""
    for history in HISTORIES:
        spec = _build_spec(algorithm, adversary, history)
        if algorithm in UNBATCHABLE:
            for shards in SHARD_COUNTS:
                with pytest.raises(UnshardableScenarioError,
                                   match="batch kernel"):
                    run_sharded(spec, shards=shards)
            continue
        baseline = _delta_oracle(spec)
        for shards in SHARD_COUNTS:
            sharded, _extras = run_sharded(
                spec, shards=shards
            )
            assert sharded == baseline, (
                f"{algorithm}/{adversary}/{history} diverged at shards={shards}"
            )


def test_full_history_with_occupancy_vectors_matches():
    """Per-round occupancy vectors merge exactly."""
    spec = (
        Scenario.line(N)
        .algorithm("greedy")
        .adversary("bounded", rho=0.8, sigma=3.0, rounds=ROUNDS,
                   num_destinations=3)
        .policy(seed=23, record_history=True, record_occupancy_vectors=True,
                engine="batch")
        .build()
    )
    baseline = _delta_oracle(spec)
    for shards in SHARD_COUNTS:
        sharded, _ = run_sharded(spec, shards=shards)
        assert sharded == baseline
        assert sharded.history[0].occupancy == baseline.history[0].occupancy


def test_session_routes_shards_and_reports_identical_bounds():
    """policy.shards > 1 routes through Session transparently: same result,
    same bound as the single-process delta run."""
    sharded_spec = _build_spec("pts", "random", "summary", shards=3)
    single_spec = _build_spec("pts", "random", "summary", engine="delta")
    sharded = Session().run(sharded_spec)
    single = Session().run(single_spec)
    assert sharded.result == single.result
    assert sharded.bound == single.bound is not None
    assert sharded.within_bound == single.within_bound


def test_policy_rounds_override_and_no_drain_match():
    """rounds overrides and drain=False flow through the coordinator."""
    base = _build_spec("greedy", "bursty", "summary")
    spec = Scenario.from_spec(base).policy(rounds=11, drain=False).build()
    baseline = _delta_oracle(spec)
    sharded, _ = run_sharded(spec, shards=3)
    assert sharded == baseline
    assert sharded.rounds_executed == 11


# ---------------------------------------------------------------------------
# Segment-boundary edge cases (deterministic explicit schedules)
# ---------------------------------------------------------------------------


def _explicit_spec(num_nodes: int, routes, *, shards=None) -> ScenarioSpec:
    # Greedy is work-conserving, so every packet actually traverses its
    # boundary-crossing route (PTS would quiesce: isolated packets never
    # make a buffer bad).
    scenario = Scenario.line(num_nodes).algorithm("greedy")
    scenario.adversary(
        "explicit", rho=1.0, sigma=4.0, rounds=max(r for r, _s, _d in routes) + 1,
        routes=[list(route) for route in routes],
    )
    scenario.policy(engine="batch")
    if shards is not None:
        scenario.policy(shards=shards)
    return scenario.build()


def test_packets_injected_exactly_at_shard_boundaries():
    """n=8, shards=2 splits at 3|4: inject at both boundary nodes, route
    across the boundary, and deliver exactly onto the boundary node."""
    routes = [
        (0, 3, 5),   # injected at segment 0's last node, crosses the boundary
        (0, 4, 7),   # injected at segment 1's first node
        (1, 2, 4),   # delivered exactly at the boundary node (absorbed there)
        (2, 3, 4),   # one-hop hand-off: last node -> first node
        (3, 0, 4),
        (4, 3, 8),   # boundary node to the virtual sink
    ]
    spec = _explicit_spec(8, routes)
    baseline = _delta_oracle(spec)
    for shards in (2, 4, 8):
        sharded, _ = run_sharded(spec, shards=shards)
        assert sharded == baseline
    assert baseline.packets_delivered == len(routes)


def test_width_one_segments():
    """Every segment one node wide: each round every packet is a hand-off."""
    routes = [(0, 0, 5), (0, 1, 4), (1, 0, 3), (2, 2, 5), (3, 0, 5)]
    spec = _explicit_spec(6, routes)
    baseline = _delta_oracle(spec)
    sharded, _ = run_sharded(spec, shards=6)
    assert sharded == baseline
    assert baseline.drained


def test_more_shards_than_nodes_degrades_gracefully():
    """shards > n clamps to one node per worker instead of failing."""
    routes = [(0, 0, 3), (1, 1, 4), (2, 0, 2)]
    spec = _explicit_spec(4, routes)
    baseline = _delta_oracle(spec)
    sharded, extras = run_sharded(spec, shards=9)
    assert sharded == baseline
    assert len(extras["segments"]) == 4
    # And through the Session front door too.
    report = Session().run(_explicit_spec(4, routes, shards=9))
    assert report.result == baseline
