"""Unit tests for the simulation engine (repro.network.simulator)."""

from __future__ import annotations

from typing import Hashable, List

import pytest

from repro.adversary.base import InjectionPattern
from repro.core.packet import Packet
from repro.core.scheduler import Activation, ForwardingAlgorithm
from repro.core.pts import PeakToSink
from repro.network.errors import CapacityViolationError, SchedulingError, TopologyError
from repro.network.simulator import (
    DrainStop,
    Simulator,
    default_max_drain_rounds,
    quiescence_window,
    run_simulation,
)
from repro.network.topology import LineTopology


class ForwardEverything(ForwardingAlgorithm):
    """A simple work-conserving single-queue algorithm used to test the engine."""

    name = "ForwardEverything"

    def classify(self, packet: Packet, node: int) -> Hashable:
        return "q"

    def select_activations(self, round_number: int) -> List[Activation]:
        return [
            Activation(node=node, key="q")
            for node, buffer in self.buffers.items()
            if buffer.load > 0
        ]


class DoubleActivation(ForwardEverything):
    """Deliberately violates capacity by activating a node twice."""

    name = "DoubleActivation"

    def select_activations(self, round_number: int) -> List[Activation]:
        activations = super().select_activations(round_number)
        return activations + activations


class UnknownNodeActivation(ForwardEverything):
    name = "UnknownNodeActivation"

    def select_activations(self, round_number: int) -> List[Activation]:
        return [Activation(node=999, key="q")]


class TestBasicExecution:
    def test_single_packet_travels_one_hop_per_round(self):
        line = LineTopology(6)
        pattern = InjectionPattern.from_tuples([(0, 0, 5)])
        result = run_simulation(line, ForwardEverything(line), pattern)
        assert result.packets_injected == 1
        assert result.packets_delivered == 1
        # The packet covers 5 hops, one per round, starting in its injection
        # round: delivered in round 4, i.e. latency 4.
        assert result.max_latency == 4
        assert result.drained

    def test_max_occupancy_measured_after_injection(self):
        line = LineTopology(4)
        # Three packets injected at node 0 in round 0: L^0(0) = 3 even though
        # one of them leaves during the forwarding step.
        pattern = InjectionPattern.from_tuples([(0, 0, 3)] * 3)
        result = run_simulation(line, ForwardEverything(line), pattern)
        assert result.max_occupancy == 3

    def test_per_node_maxima(self):
        line = LineTopology(4)
        pattern = InjectionPattern.from_tuples([(0, 0, 3), (0, 1, 3), (0, 1, 3)])
        result = run_simulation(line, ForwardEverything(line), pattern)
        assert result.max_occupancy_per_node[1] == 2
        assert result.max_occupancy_per_node[0] == 1

    def test_route_validation(self):
        line = LineTopology(4)
        pattern = InjectionPattern.from_tuples([(0, 3, 1)])
        with pytest.raises(TopologyError):
            run_simulation(line, ForwardEverything(line), pattern)

    def test_latency_statistics(self):
        line = LineTopology(8)
        pattern = InjectionPattern.from_tuples([(0, 0, 7), (0, 6, 7)])
        result = run_simulation(line, ForwardEverything(line), pattern)
        # 7 hops -> delivered in round 6 (latency 6); 1 hop -> delivered in
        # its injection round (latency 0).
        assert result.max_latency == 6
        assert result.mean_latency == pytest.approx(3.0)

    def test_throughput(self):
        line = LineTopology(4)
        pattern = InjectionPattern.from_tuples([(t, 2, 3) for t in range(10)])
        result = run_simulation(line, ForwardEverything(line), pattern)
        assert result.packets_delivered == 10
        assert 0 < result.throughput <= 1

    def test_num_rounds_override_without_drain(self):
        line = LineTopology(6)
        pattern = InjectionPattern.from_tuples([(0, 0, 5)])
        simulator = Simulator(line, ForwardEverything(line), pattern)
        result = simulator.run(num_rounds=2, drain=False)
        assert result.rounds_executed == 2
        assert result.packets_delivered == 0
        assert not result.drained
        assert result.packets_undelivered == 1


class TestHistoryRecording:
    def test_round_records(self):
        line = LineTopology(5)
        pattern = InjectionPattern.from_tuples([(0, 0, 4), (1, 0, 4)])
        simulator = Simulator(
            line, ForwardEverything(line), pattern, record_history=True
        )
        result = simulator.run()
        assert len(result.history) == result.rounds_executed
        assert result.history[0].injected == 1
        assert result.history[0].forwarded == 1
        assert result.occupancy_timeline()[0] == 1

    def test_occupancy_vectors_optional(self):
        line = LineTopology(5)
        pattern = InjectionPattern.from_tuples([(0, 0, 4)])
        simulator = Simulator(
            line,
            ForwardEverything(line),
            pattern,
            record_occupancy_vectors=True,
        )
        result = simulator.run()
        assert result.history[0].occupancy == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}

    def test_history_off_by_default(self):
        line = LineTopology(5)
        pattern = InjectionPattern.from_tuples([(0, 0, 4)])
        result = run_simulation(line, ForwardEverything(line), pattern)
        assert result.history == []


class TestCapacityEnforcement:
    def test_double_activation_rejected(self):
        line = LineTopology(4)
        pattern = InjectionPattern.from_tuples([(0, 0, 3)])
        simulator = Simulator(line, DoubleActivation(line), pattern)
        with pytest.raises(CapacityViolationError):
            simulator.run()

    def test_unknown_node_rejected(self):
        line = LineTopology(4)
        pattern = InjectionPattern.from_tuples([(0, 0, 3)])
        simulator = Simulator(line, UnknownNodeActivation(line), pattern)
        with pytest.raises(SchedulingError):
            simulator.run()

    def test_validation_can_be_disabled(self):
        line = LineTopology(4)
        pattern = InjectionPattern.from_tuples([(0, 0, 3)])
        simulator = Simulator(
            line, UnknownNodeActivation(line), pattern, validate_capacity=False
        )
        # Still fails, but deeper in the engine (unknown buffer), proving the
        # flag only disables the validation layer, not correctness.
        with pytest.raises(Exception):
            simulator.run()

    def test_empty_activation_is_silent_noop(self):
        line = LineTopology(4)

        class ActivatesEmpty(ForwardEverything):
            def select_activations(self, round_number):
                return [Activation(node=2, key="q")]

        pattern = InjectionPattern.from_tuples([(0, 0, 1)])
        result = run_simulation(line, ActivatesEmpty(line), pattern, drain=False)
        assert result.packets_delivered == 0


class TestDrainStop:
    """The one drain stop rule every engine steps, round by round."""

    def test_default_cap_is_default_max_drain_rounds(self):
        rule = DrainStop(10, 7)
        assert rule.cap == default_max_drain_rounds(10, 7)
        assert rule.window == quiescence_window(10)
        assert not rule.stopped

    @pytest.mark.parametrize("cap", (0, -3))
    def test_non_positive_cap_stops_before_any_round(self, cap):
        assert DrainStop(10, 7, cap).stopped

    def test_stops_at_cap_while_forwarding(self):
        rule = DrainStop(10, 7, 4)
        assert [rule.step(1) for _ in range(4)] == [False, False, False, True]
        assert rule.rounds == 4 and rule.quiet == 0

    @pytest.mark.parametrize("num_nodes", (2, 10))
    def test_stops_after_quiescence_window(self, num_nodes):
        window = quiescence_window(num_nodes)
        rule = DrainStop(num_nodes, 1)
        steps = [rule.step(0) for _ in range(window)]
        assert steps == [False] * (window - 1) + [True]
        assert rule.rounds == rule.quiet == window

    def test_forwarding_round_resets_the_quiet_count(self):
        window = quiescence_window(4)
        rule = DrainStop(4, 1)
        for _ in range(window - 1):
            rule.step(0)
        assert not rule.step(2)
        assert rule.quiet == 0
        assert not any(rule.step(0) for _ in range(window - 1))
        assert rule.step(0)

    def test_staged_change_is_progress(self):
        window = quiescence_window(4)
        rule = DrainStop(4, 1, staged=3)
        assert not rule.step(0, 3)
        assert rule.quiet == 1
        assert not rule.step(0, 2)
        assert rule.quiet == 0 and rule.staged == 2
        steps = [rule.step(0, 2) for _ in range(window)]
        assert steps == [False] * (window - 1) + [True]

    def test_initial_staged_count_is_the_baseline(self):
        assert DrainStop(4, 1, staged=5).step(0, 5) is False
        moved = DrainStop(4, 1, staged=5)
        moved.step(0, 0)
        assert moved.quiet == 0
        unmoved = DrainStop(4, 1, staged=5)
        unmoved.step(0, 5)
        assert unmoved.quiet == 1


class TestDraining:
    def test_drain_stops_at_quiescence_for_lazy_algorithms(self):
        # PTS never forwards a lone packet, so the run cannot drain; the
        # simulator must still terminate (via quiescence detection).
        line = LineTopology(10)
        pattern = InjectionPattern.from_tuples([(0, 0, 9)])
        result = run_simulation(line, PeakToSink(line), pattern)
        assert not result.drained
        assert result.packets_undelivered == 1
        assert result.rounds_executed < 200

    def test_drain_cap_respected(self):
        line = LineTopology(10)
        pattern = InjectionPattern.from_tuples([(0, 0, 9)])
        simulator = Simulator(line, PeakToSink(line), pattern)
        result = simulator.run(max_drain_rounds=5)
        assert result.rounds_executed <= 1 + 5

    def test_virtual_sink_delivery(self):
        line = LineTopology(4, allow_virtual_sink=True)
        pattern = InjectionPattern.from_tuples([(0, 0, 4)])
        result = run_simulation(line, ForwardEverything(line), pattern)
        assert result.packets_delivered == 1

    def test_summary_row_shape(self):
        line = LineTopology(4)
        pattern = InjectionPattern.from_tuples([(0, 0, 3)])
        result = run_simulation(line, ForwardEverything(line), pattern)
        row = result.summary_row()
        assert row["algorithm"] == "ForwardEverything"
        assert row["max_occupancy"] == 1
        assert row["delivered"] == 1
