"""Unit tests for the Section 5 lower-bound construction."""

from __future__ import annotations

import pytest

from repro.adversary.bounded import tightest_sigma
from repro.adversary.lower_bound import (
    LowerBoundConstruction,
    front_position,
    injection_site,
    lower_bound_network_size,
)
from repro.baselines.greedy import GreedyForwarding
from repro.core.ppts import ParallelPeakToSink
from repro.network.errors import ConfigurationError
from repro.network.simulator import run_simulation


class TestStructure:
    def test_network_size_formula(self):
        assert lower_bound_network_size(2, 2) == 12
        assert lower_bound_network_size(3, 2) == 27
        assert lower_bound_network_size(2, 3) == 32

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            lower_bound_network_size(1, 2)
        with pytest.raises(ConfigurationError):
            LowerBoundConstruction(2, 0, 0.5)
        with pytest.raises(ConfigurationError):
            LowerBoundConstruction(2, 2, 0.0)

    def test_injection_sites_hand_computed(self):
        # m = 2, ell = 2, phase digits all zero:
        # v_1 = (2*2 - 1*1) + (3*4 - 2*2) = 3 + 8 = 11; v_2 = 8.
        assert injection_site(1, [0, 0], 2, 2) == 11
        assert injection_site(2, [0, 0], 2, 2) == 8

    def test_sites_decrease_as_phase_digits_grow(self):
        construction = LowerBoundConstruction(3, 2, 0.5)
        fronts = [construction.phase_plan(p).sites[0] for p in range(construction.num_phases)]
        assert fronts == sorted(fronts, reverse=True)
        assert all(0 <= f < construction.num_nodes for f in fronts)

    def test_front_position_matches_phase_plan(self):
        construction = LowerBoundConstruction(2, 3, 0.6)
        for phase in range(construction.num_phases):
            plan = construction.phase_plan(phase)
            for offset in range(construction.phase_length):
                assert (
                    construction.front(plan.first_round + offset) == plan.sites[0]
                )
        assert front_position(0, 2, 3) == construction.phase_plan(0).sites[0]

    def test_phase_routes_are_edge_disjoint(self):
        construction = LowerBoundConstruction(3, 3, 0.4)
        for phase in (0, 1, construction.num_phases - 1):
            plan = construction.phase_plan(phase)
            covered = []
            for source, destination in plan.routes:
                if destination > source:
                    covered.extend(range(source, destination))
            assert len(covered) == len(set(covered))

    def test_route_types(self):
        construction = LowerBoundConstruction(2, 2, 0.5)
        plan = construction.phase_plan(0)
        # type-1 targets the virtual sink, type-(ell+1) starts at buffer 0.
        assert plan.routes[0][1] == construction.num_nodes
        assert plan.routes[-1][0] == 0
        assert len(plan.routes) == construction.levels + 1

    def test_theoretical_bound_positive_above_threshold(self):
        assert LowerBoundConstruction(4, 2, 0.5).theoretical_bound() > 0
        assert LowerBoundConstruction(3, 2, 0.3).theoretical_bound() == 0.0

    def test_theoretical_bound_uses_the_injected_rate(self):
        """The floor is taken at floor(rho * m) / m, the rate the pattern
        injects, not at the nominal rho."""
        silent = LowerBoundConstruction(2, 3, 1 / 3)
        assert silent.packets_per_type == 0
        assert len(silent.build_pattern()) == 0
        assert silent.theoretical_bound() == 0.0
        # Nominal 0.5 > 1/3, but three rounds carry one packet per type:
        # exactly the threshold rate.
        threshold = LowerBoundConstruction(3, 2, 0.5)
        assert threshold.packets_per_type == 1
        assert threshold.theoretical_bound() == 0.0
        exact = LowerBoundConstruction(4, 2, 0.5)
        assert exact.packets_per_type == 2
        assert exact.theoretical_bound() == pytest.approx(
            (3 * 0.5 - 1) / 4 * exact.num_nodes ** 0.5
        )


class TestPattern:
    def test_packets_per_phase(self):
        construction = LowerBoundConstruction(4, 2, 0.5)
        pattern = construction.build_pattern(num_phases=1)
        # (ell + 1) types, rho * m packets each.
        assert len(pattern) == 3 * 2

    def test_pattern_routes_valid_on_topology(self):
        construction = LowerBoundConstruction(2, 3, 0.6)
        topology = construction.topology()
        for injection in construction.build_pattern(num_phases=4).all_injections():
            topology.validate_route(injection.source, injection.destination)

    def test_pattern_is_nearly_1_bounded(self):
        """The construction claims (rho, 1)-boundedness; allow a small constant
        because injections are spread per-phase rather than globally."""
        construction = LowerBoundConstruction(3, 2, 0.5)
        pattern = construction.build_pattern()
        sigma = tightest_sigma(pattern, construction.topology(), construction.rho)
        assert sigma <= 2.0 + 1e-9

    def test_truncated_pattern(self):
        construction = LowerBoundConstruction(2, 2, 0.5)
        assert construction.build_pattern(num_phases=2).horizon <= 2 * 2


class TestClassification:
    def test_fresh_and_stale_counting(self):
        construction = LowerBoundConstruction(2, 2, 0.5)
        front = construction.front(0)
        locations = {0: front, 1: front + 1, 2: None, 3: 0}
        counts = construction.classify_packets(locations, round_number=0)
        assert counts == {"fresh": 2, "stale": 1, "delivered": 1}

    def test_round_out_of_range_rejected(self):
        construction = LowerBoundConstruction(2, 2, 0.5)
        with pytest.raises(ConfigurationError):
            construction.front(construction.num_rounds)


class TestAdversaryForcesLoad:
    @pytest.mark.parametrize("algorithm_factory", [
        lambda line: ParallelPeakToSink(line),
        lambda line: GreedyForwarding(line),
    ])
    def test_measured_load_meets_theoretical_bound(self, algorithm_factory):
        """Theorem 5.1 holds for *every* protocol, so each algorithm we run
        must exhibit at least the theoretical occupancy somewhere."""
        construction = LowerBoundConstruction(branching=4, levels=2, rho=0.75)
        topology = construction.topology()
        pattern = construction.build_pattern()
        result = run_simulation(
            topology, algorithm_factory(topology), pattern, drain=False
        )
        assert result.max_occupancy >= construction.theoretical_bound() - 1e-9

    def test_larger_networks_force_larger_loads(self):
        """The forced load grows with n^(1/ell) (shape of Theorem 5.1)."""
        small = LowerBoundConstruction(3, 2, 0.75)
        large = LowerBoundConstruction(6, 2, 0.75)
        small_result = run_simulation(
            small.topology(), GreedyForwarding(small.topology()),
            small.build_pattern(), drain=False,
        )
        large_result = run_simulation(
            large.topology(), GreedyForwarding(large.topology()),
            large.build_pattern(), drain=False,
        )
        assert large_result.max_occupancy >= small_result.max_occupancy
        assert large.theoretical_bound() > small.theoretical_bound()
