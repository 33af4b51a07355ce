"""Unit tests for the random bounded adversary generators."""

from __future__ import annotations

import pytest

from repro.adversary.bounded import check_bounded
from repro.adversary.generators import (
    bursty_adversary,
    random_line_adversary,
    random_tree_adversary,
    saturating_line_adversary,
    single_destination_adversary,
)
from repro.network.errors import ConfigurationError
from repro.network.topology import LineTopology, caterpillar_tree, star_tree


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
