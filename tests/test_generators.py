"""Unit tests for the random bounded adversary generators."""

from __future__ import annotations

from itertools import islice

import numpy as np
import pytest

from repro.adversary import generators
from repro.adversary.base import InjectionPattern
from repro.adversary.bounded import check_bounded
from repro.adversary.generators import (
    build_explicit_adversary,
    bursty_adversary,
    random_line_adversary,
    random_tree_adversary,
    saturating_line_adversary,
    single_destination_adversary,
)
from repro.core.packet import current_allocator, make_injection, packet_id_scope
from repro.network.errors import ConfigurationError
from repro.network.topology import (
    LineTopology, binary_tree, caterpillar_tree, star_tree,
)


#: Envelopes outside Definition 2.1's ``0 < rho <= 1``, ``sigma >= 0``.
BAD_ENVELOPES = [(2.0, 4.0), (0.0, 4.0), (0.5, -1.0), (float("nan"), 1.0),
                 (0.5, float("nan"))]


class TestRandomLineAdversary:
    def test_generated_pattern_is_bounded(self):
        line = LineTopology(32)
        pattern = random_line_adversary(
            line, rho=0.75, sigma=3, num_rounds=120, num_destinations=5, seed=1
        )
        assert check_bounded(pattern, line, 0.75, 3).bounded
        assert len(pattern) > 0

    def test_respects_destination_count(self):
        line = LineTopology(32)
        pattern = random_line_adversary(
            line, rho=1.0, sigma=2, num_rounds=100, num_destinations=6, seed=2
        )
        assert pattern.num_destinations <= 6

    def test_deterministic_for_seed(self):
        line = LineTopology(16)
        first = random_line_adversary(line, 0.5, 2, 50, 3, seed=9)
        second = random_line_adversary(line, 0.5, 2, 50, 3, seed=9)
        assert [
            (p.round, p.source, p.destination) for p in first.all_injections()
        ] == [(p.round, p.source, p.destination) for p in second.all_injections()]

    def test_intensity_scales_volume(self):
        line = LineTopology(16)
        light = random_line_adversary(line, 1.0, 2, 80, 2, seed=4, intensity=0.1)
        heavy = random_line_adversary(line, 1.0, 2, 80, 2, seed=4, intensity=1.0)
        assert len(light) < len(heavy)

    def test_invalid_parameters(self):
        line = LineTopology(8)
        with pytest.raises(ConfigurationError):
            random_line_adversary(line, 0.0, 1, 10, 1)
        with pytest.raises(ConfigurationError):
            random_line_adversary(line, 0.5, -1, 10, 1)
        with pytest.raises(ConfigurationError):
            random_line_adversary(line, 0.5, 1, 10, 0)
        with pytest.raises(ConfigurationError):
            random_line_adversary(line, 0.5, 1, 10, 8)
        with pytest.raises(ConfigurationError):
            random_line_adversary(line, 0.5, 1, 10, 1, intensity=0.0)


class TestSaturatingLineAdversary:
    def test_bounded_and_heavy(self):
        line = LineTopology(24)
        rho, sigma = 1.0, 2
        pattern = saturating_line_adversary(line, rho, sigma, 100, 4, seed=5)
        assert check_bounded(pattern, line, rho, sigma).bounded
        # A saturating adversary at rho = 1 should inject close to one packet
        # per round per unit of bottleneck capacity.
        assert len(pattern) >= 90

    def test_uses_full_burst_budget_early(self):
        line = LineTopology(16)
        pattern = saturating_line_adversary(line, 1.0, 4, 50, 1, seed=6)
        first_round = pattern.injections_for_round(0)
        assert len(first_round) >= 4

    @pytest.mark.parametrize("rho,sigma", BAD_ENVELOPES)
    def test_invalid_envelope(self, rho, sigma):
        with pytest.raises(ConfigurationError):
            saturating_line_adversary(LineTopology(16), rho, sigma, 10, 2, seed=1)


class TestSingleDestinationAdversary:
    def test_all_packets_share_destination(self):
        line = LineTopology(20)
        pattern = single_destination_adversary(line, 1.0, 2, 60, seed=7)
        assert pattern.destinations() == [19]
        assert check_bounded(pattern, line, 1.0, 2).bounded

    def test_custom_destination(self):
        line = LineTopology(20)
        pattern = single_destination_adversary(
            line, 0.5, 1, 40, destination=10, seed=8
        )
        assert pattern.destinations() == [10]

    @pytest.mark.parametrize("rho,sigma", BAD_ENVELOPES)
    def test_invalid_envelope(self, rho, sigma):
        with pytest.raises(ConfigurationError):
            single_destination_adversary(LineTopology(16), rho, sigma, 10, seed=1)


class TestBurstyAdversary:
    def test_bounded_despite_bursts(self):
        line = LineTopology(24)
        pattern = bursty_adversary(
            line, rho=0.5, sigma=4, num_rounds=96, num_destinations=3,
            burst_period=12, seed=3,
        )
        assert check_bounded(pattern, line, 0.5, 4).bounded

    def test_injections_only_on_burst_rounds(self):
        pattern = bursty_adversary(
            LineTopology(16), 1.0, 3, 40, 2, burst_period=10, seed=1
        )
        for injection in pattern.all_injections():
            assert injection.round % 10 == 9

    def test_invalid_period(self):
        with pytest.raises(ConfigurationError):
            bursty_adversary(LineTopology(8), 0.5, 1, 10, 1, burst_period=0)

    @pytest.mark.parametrize("rho,sigma", BAD_ENVELOPES)
    def test_invalid_envelope(self, rho, sigma):
        with pytest.raises(ConfigurationError):
            bursty_adversary(LineTopology(16), rho, sigma, 10, 2, seed=1)


class TestRandomTreeAdversary:
    def test_bounded_on_caterpillar(self):
        tree = caterpillar_tree(5, 2)
        pattern = random_tree_adversary(tree, 1.0, 2, 80, seed=11)
        # Boundedness is defined per buffer; reuse the line checker by mapping
        # node ids (the tree checker uses node indices directly).
        assert len(pattern) > 0
        for injection in pattern.all_injections():
            tree.validate_route(injection.source, injection.destination)

    def test_multiple_destinations(self):
        tree = caterpillar_tree(6, 1)
        spine = [v for v in tree.nodes if tree.children(v)]
        pattern = random_tree_adversary(
            tree, 0.8, 2, 60, destinations=spine, seed=12
        )
        assert set(pattern.destinations()).issubset(set(spine))

    def test_unknown_destination_rejected(self):
        with pytest.raises(ConfigurationError):
            random_tree_adversary(star_tree(3), 0.5, 1, 10, destinations=[99])

    @pytest.mark.parametrize("rho,sigma", BAD_ENVELOPES)
    def test_invalid_envelope(self, rho, sigma):
        with pytest.raises(ConfigurationError):
            random_tree_adversary(star_tree(3), rho, sigma, 10, seed=1)

    def test_no_eligible_sources_returns_empty(self):
        # A single leaf destination that is itself a leaf has no descendants.
        tree = star_tree(3)
        pattern = random_tree_adversary(tree, 0.5, 1, 10, destinations=[1], seed=1)
        assert len(pattern) == 0


class TestExplicitRoutes:
    def _build(self, routes, rounds=4):
        return build_explicit_adversary(
            LineTopology(8), rho=1.0, sigma=2.0, rounds=rounds, routes=routes
        )

    @pytest.mark.parametrize(
        "route",
        [
            (True, 0, 5),  # a bool is not round 1
            (0, 0.9, 5),  # a float is not source 0
            (0, 0, "5"),  # a string is not destination 5
            (0, 0, 5.0),
            (-1, 0, 5),  # a negative round
            (0, 5),  # two items
            (0, 0, 5, 1),  # four items
            5,  # not a sequence
            "015",  # a string of three characters
            (4, 0, 5),  # past the declared horizon
        ],
    )
    def test_malformed_route_is_a_configuration_error(self, route):
        with pytest.raises(ConfigurationError):
            self._build([(0, 0, 7), route])

    def test_routes_keep_their_order_and_ids(self):
        routes = [(2, 1, 7), (0, 0, 7), (2, 0, 5), (1, 3, 4), (2, 2, 3)]
        with packet_id_scope() as ids:
            pattern = self._build(routes + [(np.int64(0), np.int64(4), 6)])
            assert ids.next_value == 6
        assert [
            (p.round, p.source, p.destination, p.packet_id)
            for t in range(3)
            for p in pattern.injections_for_round(t)
        ] == [(0, 0, 7, 1), (0, 4, 6, 5), (1, 3, 4, 3),
              (2, 1, 7, 0), (2, 0, 5, 2), (2, 2, 3, 4)]
        assert pattern.horizon == 3
        assert [p.packet_id for p in pattern] == [1, 5, 3, 2, 0, 4]


def _registered(seed):
    """Every registered bounded generator, as ``stream -> adversary``."""
    line, tree = LineTopology(40), binary_tree(4)
    cases = {}
    for d in (1, 3, 8):
        cases[f"bounded-line/d{d}"] = lambda stream, d=d: (
            generators.build_bounded_adversary(
                line, rho=0.5, sigma=3.0, rounds=60, seed=seed,
                num_destinations=d, stream=stream,
            )
        )
    cases["bounded-tree"] = lambda stream: generators.build_bounded_adversary(
        tree, rho=0.7, sigma=2.0, rounds=60, seed=seed,
        destinations=[tree.root, 1, 2], stream=stream,
    )
    cases["single"] = lambda stream: generators.build_single_destination_adversary(
        line, rho=1.0, sigma=4.0, rounds=60, seed=seed, stream=stream
    )
    cases["saturating"] = lambda stream: generators.build_saturating_adversary(
        line, rho=0.3, sigma=2.5, rounds=60, num_destinations=3, seed=seed,
        stream=stream,
    )
    cases["bursty"] = lambda stream: generators.build_bursty_adversary(
        line, rho=0.5, sigma=4.0, rounds=60, num_destinations=3, burst_period=7,
        seed=seed, stream=stream,
    )
    cases["trickle"] = lambda stream: generators.build_trickle_adversary(
        line, rho=0.7, sigma=1.0, rounds=60, destinations=[9, 25, 39],
        seed=seed, stream=stream,
    )
    return cases


EQUIVALENCE_CASES = {
    f"{name}/seed{seed}": build
    for seed in (1, 2)
    for name, build in _registered(seed).items()
}


def _object_build(build):
    """The pattern as built before the columnar path: one ``make_injection``
    per packet, in draw order, into ``InjectionPattern(...)``."""
    stream = build(True)
    rows = islice(stream._factory(), stream.horizon)
    injections = [
        make_injection(t, source, destination)
        for t, row in enumerate(rows)
        for source, destination in row
    ]
    return InjectionPattern(injections, rho=stream.rho, sigma=stream.sigma)


class TestColumnarMatchesObjectBuild:
    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_eager_and_streamed_patterns_match_reference(self, case):
        build = EQUIVALENCE_CASES[case]
        with packet_id_scope(7):
            reference = _object_build(build)
            reference_next = current_allocator().next_value
        with packet_id_scope(7):
            pattern = build(False)
            assert current_allocator().next_value == reference_next
        with packet_id_scope(7):
            stream = build(True)
            streamed = [stream.injections_for_round(t) for t in range(60)]
            assert current_allocator().next_value == reference_next
        assert len(reference) > 0, "the case injected nothing; it tests nothing"
        assert len(pattern) == len(reference)
        assert pattern.horizon == reference.horizon
        for t in range(62):
            expected = reference.injections_for_round(t)
            assert pattern.injections_for_round(t) == expected
            if t < 60:
                assert streamed[t] == expected
        assert pattern.all_injections() == reference.all_injections()
        assert list(pattern) == list(reference)
        assert (pattern.rho, pattern.sigma) == (reference.rho, reference.sigma)
