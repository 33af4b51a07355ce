"""Differential test: the numpy token bucket against the list-based oracle.

:class:`ListTokenBucket` is the scalar, per-buffer implementation of
:class:`~repro.adversary.bounded.TokenBucket` that the generators used to
run on: a Python list of floats refilled with ``min(t + rho, cap)`` and
walked buffer by buffer on every proposal.  It exposes the same API (tuple
spans for tree routes, endpoints for line routes) so every bucket-driven
builder can run on either bucket.  The builders must emit identical rows,
and the two buckets identical ``json.dumps(state())`` at every round
boundary, for dyadic and non-dyadic ``(rho, sigma)`` alike (a non-dyadic
rate exposes any change in the order of float operations).
"""

from __future__ import annotations

import json
import random
from typing import List

import numpy as np
import pytest

from repro.adversary import adaptive, generators, stress
from repro.adversary.adaptive import AdaptiveAdversary
from repro.adversary.bounded import TokenBucket
from repro.core.packet import packet_id_scope
from repro.network.errors import ConfigurationError
from repro.network.topology import LineTopology, binary_tree

ENVELOPES = [(1.0, 4.0), (0.5, 4.0), (0.3, 2.5), (0.7, 1.0)]


class ListTokenBucket:
    """The list-based token bucket: one Python float per buffer."""

    def __init__(self, num_nodes: int, rho: float, sigma: float) -> None:
        if rho < 0:
            raise ValueError("rho must be non-negative")
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.num_nodes = num_nodes
        self.rho = float(rho)
        self.sigma = float(sigma)
        self._tokens: List[float] = [float(sigma)] * num_nodes
        self._refilled_this_round = False

    def start_round(self) -> None:
        cap = self.sigma + self.rho
        self._tokens = [min(tokens + self.rho, cap) for tokens in self._tokens]
        self._refilled_this_round = True

    def can_inject(self, span) -> bool:
        return all(self._tokens[v] >= 1.0 for v in span)

    def inject(self, span) -> None:
        for v in span:
            self._tokens[v] -= 1.0

    def admit(self, span) -> bool:
        if not self.can_inject(span):
            return False
        self.inject(span)
        return True

    def admit_line(self, source: int, destination: int) -> bool:
        return self.admit(tuple(range(source, destination)))

    def last_exhausted(self, stop: int) -> int:
        exhausted = [v for v in range(stop) if self._tokens[v] < 1.0]
        return max(exhausted) if exhausted else -1

    def available(self, buffer: int) -> float:
        return self._tokens[buffer]

    def headroom(self, span) -> int:
        if not span:
            return 0
        return int(min(self._tokens[v] for v in span))

    def state(self) -> dict:
        return {"tokens": list(self._tokens), "refilled": self._refilled_this_round}

    def set_state(self, state: dict) -> None:
        self._tokens = [float(value) for value in state["tokens"]]
        self._refilled_this_round = bool(state.get("refilled", False))


def _recording(base, log: List[str]):
    """``base`` with every bucket's state logged at each round boundary."""
    buckets: List = []

    class Recording(base):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self.index = len(buckets)
            buckets.append(self)

        def start_round(self) -> None:
            log.append(f"{self.index} {json.dumps(self.state())}")
            super().start_round()

    Recording.buckets = buckets
    return Recording


class _ProbeAdversary(AdaptiveAdversary):
    """Long, short, overlapping and degenerate routes, driven by the occupancy."""

    def __init__(self, topology, rho, sigma, num_rounds, seed):
        super().__init__(topology, rho, sigma, num_rounds)
        self._rng = random.Random(seed)

    def choose_routes(self, round_number, occupancy):
        n = self.topology.num_nodes
        hot = max(occupancy, key=occupancy.get) if occupancy else 0
        routes = [(0, n), (hot, n - 1), (n - 1, n - 1), (n - 2, 1)]
        for _ in range(6):
            source = self._rng.randrange(n - 1)
            routes.append((source, self._rng.randint(source + 1, n)))
        return routes


def _run_probe(topology, rho, sigma, rounds):
    probe = _ProbeAdversary(topology, rho, sigma, rounds, seed=5)
    for t in range(rounds):
        occupancy = {v: (3 * v + t) % 5 for v in range(topology.num_nodes)}
        probe.adaptive_injections(t, occupancy)
    return probe.realized_pattern()


def _builders(rho: float, sigma: float):
    line, tree = LineTopology(33), binary_tree(4)
    hierarchy_line = LineTopology(27)
    rounds = 48
    return {
        "random-line": lambda: generators.random_line_adversary(
            line, rho, sigma, rounds, 4, seed=3, intensity=0.8
        ),
        "saturating": lambda: generators.saturating_line_adversary(
            line, rho, sigma, rounds, 3, seed=4
        ),
        "single": lambda: generators.single_destination_adversary(
            line, rho, sigma, rounds, destination=20, seed=5
        ),
        "bursty": lambda: generators.bursty_adversary(
            line, rho, sigma, rounds, 3, burst_period=5, seed=6
        ),
        "random-tree": lambda: generators.random_tree_adversary(
            tree, rho, sigma, rounds, [tree.root, 1, 2], seed=7
        ),
        "burst-stress": lambda: stress.pts_burst_stress(line, rho, sigma, rounds),
        "round-robin": lambda: stress.round_robin_destination_stress(
            line, rho, sigma, rounds, 5, source=2
        ),
        "nested": lambda: stress.nested_route_stress(line, rho, sigma, rounds, 4),
        "hierarchy": lambda: stress.hierarchy_stress(
            hierarchy_line, rho, sigma, rounds, 3, 3
        ),
        "convergecast": lambda: stress.tree_convergecast_stress(
            tree, rho, sigma, rounds, [tree.root, 1, 2]
        ),
        "adaptive": lambda: _run_probe(line, rho, sigma, rounds),
    }


def _build_with(bucket_class, monkeypatch, build):
    log: List[str] = []
    recording = _recording(bucket_class, log)
    for module in (generators, stress, adaptive):
        monkeypatch.setattr(module, "TokenBucket", recording)
    with packet_id_scope():
        pattern = build()
    rows = [
        (p.round, p.source, p.destination, p.packet_id)
        for p in pattern.all_injections()
    ]
    final = [json.dumps(bucket.state()) for bucket in recording.buckets]
    return rows, log, final


@pytest.mark.parametrize("rho,sigma", ENVELOPES)
@pytest.mark.parametrize("builder", sorted(_builders(1.0, 1.0)))
def test_builder_matches_list_bucket(monkeypatch, builder, rho, sigma):
    build = _builders(rho, sigma)[builder]
    expected = _build_with(ListTokenBucket, monkeypatch, build)
    actual = _build_with(TokenBucket, monkeypatch, build)
    assert expected[0], f"{builder} injected nothing; the case tests nothing"
    assert actual[0] == expected[0]
    assert actual[1] == expected[1]
    assert actual[2] == expected[2]


@pytest.mark.parametrize("rho,sigma", ENVELOPES)
@pytest.mark.parametrize("num_destinations", (1, 3, 8))
def test_random_line_threshold_passes_only_admissible_routes(
    monkeypatch, rho, sigma, num_destinations
):
    # The random-line rows refuse a proposal whose source is at or below the
    # largest dry buffer under its destination without asking the bucket.
    # That is exact only if every proposal they do pass is admitted: a
    # threshold that is off by one or stale after an admission lets a
    # refused route through to admit_line.  (One that is too strict drops
    # a route and fails the golden rows.)
    answers: List[bool] = []

    class Recording(TokenBucket):
        def admit_line(self, source: int, destination: int) -> bool:
            admitted = super().admit_line(source, destination)
            answers.append(admitted)
            return admitted

    monkeypatch.setattr(generators, "TokenBucket", Recording)
    with packet_id_scope():
        pattern = generators.random_line_adversary(
            LineTopology(33), rho, sigma, 48, num_destinations, seed=3
        )
    assert len(answers) == len(pattern) > 0
    assert all(answers)


def _assert_dry_list(bucket: TokenBucket) -> None:
    """The dry list is exactly the buffers with fewer than one token."""
    assert bucket._dry == np.flatnonzero(bucket._tokens < 1.0).tolist()


def _round_trip(bucket, rho, sigma):
    """A fresh bucket of the same class restored from ``bucket``'s JSON state."""
    restored = type(bucket)(bucket.num_nodes, rho, sigma)
    restored.set_state(json.loads(json.dumps(bucket.state())))
    return restored


#: The builders' envelopes plus one whose cap ``sigma + rho`` is below one
#: token, where every buffer is dry after every refill.
SEQUENCE_ENVELOPES = ENVELOPES + [(0.25, 0.5)]


@pytest.mark.parametrize("rho,sigma", SEQUENCE_ENVELOPES)
def test_random_operation_sequences(rho, sigma):
    rng = random.Random(f"{rho}/{sigma}")
    n = 24
    reference, bucket = ListTokenBucket(n, rho, sigma), TokenBucket(n, rho, sigma)
    for _ in range(300):
        if rng.random() < 0.2:
            reference.start_round()
            bucket.start_round()
        if rng.random() < 0.05:
            reference = _round_trip(reference, rho, sigma)
            bucket = _round_trip(bucket, rho, sigma)
        _assert_dry_list(bucket)
        source = rng.randrange(n)
        destination = rng.randint(source, n)
        # Tree spans list their buffers in path order, not sorted.
        span = tuple(rng.sample(range(n), rng.randint(1, 5)))
        assert bucket.can_inject(span) == reference.can_inject(span)
        assert bucket.headroom(span) == reference.headroom(span)
        assert bucket.admit(span) == reference.admit(span)
        # A bare charge, then the line queries that read the dry list it
        # updated.
        span = tuple(rng.sample(range(n), rng.randint(1, 5)))
        if reference.can_inject(span):
            reference.inject(span)
            bucket.inject(span)
        _assert_dry_list(bucket)
        if destination > source:
            assert bucket.admit_line(source, destination) == reference.admit_line(
                source, destination
            )
        assert bucket.last_exhausted(destination) == reference.last_exhausted(
            destination
        )
        assert bucket.available(source) == reference.available(source)
        assert json.dumps(bucket.state()) == json.dumps(reference.state())
        _assert_dry_list(bucket)


def test_below_one_token_cap_admits_nothing():
    bucket = TokenBucket(6, 0.25, 0.5)
    # A restored level above the cap dries at the next refill.
    bucket.set_state({"tokens": [2.0] * 6})
    assert bucket.admit_line(0, 6)
    for _ in range(5):
        bucket.start_round()
        assert not bucket.admit_line(0, 6)
        assert bucket.last_exhausted(6) == 5
        _assert_dry_list(bucket)


@pytest.mark.parametrize("span", [(5, 0), (4, 2, 1), (1, 3, 5), (3,)])
def test_inject_records_the_buffer_an_index_names(span):
    # A tree span lists its buffers leaf to root, in any index order; the
    # dry list must hold exactly those buffers, sorted.
    bucket = TokenBucket(6, 0.5, 1.0)
    bucket.inject(span)
    _assert_dry_list(bucket)
    assert bucket._dry == sorted(span)
    assert bucket.last_exhausted(6) == max(span)


@pytest.mark.parametrize("levels", [[float("nan"), 2.0], [2.0, 3.0, 4.0]])
def test_set_state_refuses_bad_levels(levels):
    with pytest.raises(ValueError):
        TokenBucket(2, 0.5, 1.0).set_state({"tokens": levels})


def test_state_is_plain_python_floats():
    bucket = TokenBucket(5, 0.3, 2.5)
    bucket.start_round()
    bucket.admit_line(1, 4)
    state = bucket.state()
    assert all(type(value) is float for value in state["tokens"])
    restored = TokenBucket(5, 0.3, 2.5)
    restored.set_state(json.loads(json.dumps(state)))
    assert json.dumps(restored.state()) == json.dumps(state)
    assert type(restored.available(0)) is float


STREAMED = {
    "random-line": lambda rho, sigma, line: generators.random_line_adversary(
        line, rho, sigma, 40, 4, seed=3, stream=True
    ),
    "saturating": lambda rho, sigma, line: generators.saturating_line_adversary(
        line, rho, sigma, 40, 3, seed=4, stream=True
    ),
    "single": lambda rho, sigma, line: generators.single_destination_adversary(
        line, rho, sigma, 40, seed=5, stream=True
    ),
    "bursty": lambda rho, sigma, line: generators.bursty_adversary(
        line, rho, sigma, 40, 3, burst_period=4, seed=6, stream=True
    ),
    "random-tree": lambda rho, sigma, line: generators.random_tree_adversary(
        binary_tree(4), rho, sigma, 40, seed=7, stream=True
    ),
}


@pytest.mark.parametrize("rho,sigma", ENVELOPES)
@pytest.mark.parametrize("name", sorted(STREAMED))
def test_stream_resume_mid_run_equals_straight_run(name, rho, sigma):
    line = LineTopology(33)
    make = STREAMED[name]

    def rows(adversary, rounds):
        return [
            (p.round, p.source, p.destination, p.packet_id)
            for t in rounds
            for p in adversary.injections_for_round(t)
        ]

    with packet_id_scope():
        straight = rows(make(rho, sigma, line), range(40))
    with packet_id_scope():
        first = make(rho, sigma, line)
        head = rows(first, range(17))
        cursor = json.loads(json.dumps(first.cursor()))
        resumed = make(rho, sigma, line)
        resumed.resume(cursor)
        tail = rows(resumed, range(17, 40))
    assert head + tail == straight


@pytest.mark.parametrize("resume_at", [1, 13, 29])
@pytest.mark.parametrize("rho,sigma", ENVELOPES)
def test_random_line_resumed_stream_equals_eager_rows(rho, sigma, resume_at):
    line = LineTopology(40)

    def make(stream):
        return generators.random_line_adversary(
            line, rho, sigma, 36, 5, seed=11, intensity=0.7, stream=stream
        )

    def rows(injections):
        return sorted((p.round, p.source, p.destination) for p in injections)

    with packet_id_scope():
        eager = rows(make(False).all_injections())
    with packet_id_scope():
        first = make(True)
        head = [p for t in range(resume_at) for p in first.injections_for_round(t)]
        cursor = json.loads(json.dumps(first.cursor()))
        resumed = make(True)
        resumed.resume(cursor)
        tail = [p for t in range(resume_at, 36) for p in resumed.injections_for_round(t)]
    assert eager
    assert rows(head + tail) == eager


@pytest.mark.parametrize("route", [(-1, 4), (2, 17)])
def test_adaptive_route_out_of_range_is_refused(route):
    # A slice would silently wrap a negative source or clip a destination
    # past the line; the adversary must refuse such a route instead.
    class Stray(AdaptiveAdversary):
        def choose_routes(self, round_number, occupancy):
            return [route]

    with pytest.raises(ConfigurationError, match="outside the line"):
        Stray(LineTopology(16), 1.0, 2.0, 5).adaptive_injections(0, {})
