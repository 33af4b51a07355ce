"""Unit tests for the ForwardingAlgorithm base class and error hierarchy."""

from __future__ import annotations

import gc
import weakref
from typing import Hashable, List

import pytest

from repro.core.packet import Packet, make_injection
from repro.core.scheduler import Activation, ForwardingAlgorithm
from repro.network.errors import (
    BoundednessViolationError,
    CapacityViolationError,
    ConfigurationError,
    ReproError,
    SchedulingError,
    TopologyError,
)
from repro.network.topology import LineTopology


class MinimalAlgorithm(ForwardingAlgorithm):
    """Smallest possible concrete algorithm, used to test base-class defaults."""

    name = "Minimal"

    def classify(self, packet: Packet, node: int) -> Hashable:
        return "only"

    def select_activations(self, round_number: int) -> List[Activation]:
        return []


class TestForwardingAlgorithmDefaults:
    def test_buffers_created_per_node(self):
        line = LineTopology(5)
        algorithm = MinimalAlgorithm(line)
        assert sorted(algorithm.buffers) == [0, 1, 2, 3, 4]

    def test_default_injection_stores_at_source(self):
        line = LineTopology(5)
        algorithm = MinimalAlgorithm(line)
        packet = Packet.from_injection(make_injection(0, 2, 4))
        algorithm.on_inject(0, [packet])
        assert algorithm.occupancy(2) == 1
        assert packet.accepted_round == 0

    def test_occupancy_queries(self):
        line = LineTopology(4)
        algorithm = MinimalAlgorithm(line)
        for source in (0, 0, 1):
            algorithm.on_inject(
                0, [Packet.from_injection(make_injection(0, source, 3))]
            )
        assert algorithm.occupancy_vector() == {0: 2, 1: 1, 2: 0, 3: 0}
        assert algorithm.max_occupancy() == 2
        assert algorithm.total_stored() == 3
        assert algorithm.pending_packets() == 3
        assert algorithm.staged_count() == 0

    def test_on_arrival_reclassifies(self):
        line = LineTopology(4)
        algorithm = MinimalAlgorithm(line)
        packet = Packet.from_injection(make_injection(0, 0, 3))
        algorithm.on_arrival(packet, 2, round_number=1)
        assert algorithm.occupancy(2) == 1

    def test_no_bound_by_default(self):
        assert MinimalAlgorithm(LineTopology(4)).theoretical_bound(2) is None

    @pytest.mark.parametrize(
        "algorithm,engine", [("pts", "delta"), ("hpts", "delta"), ("hpts", "batch")]
    )
    def test_finished_run_is_freed_without_the_cyclic_collector(
        self, algorithm, engine
    ):
        # The node buffers' change listener holds no reference back to the
        # algorithm, so a dropped run frees its buffers and packets at once
        # instead of piling up until the collector's next full pass.
        from repro.api import Scenario
        from repro.api.session import Session

        builder = Scenario.line(16).algorithm(
            algorithm, **({"levels": 2} if algorithm == "hpts" else {})
        )
        spec = builder.adversary(
            "bounded", rho=0.5, sigma=2.0, rounds=40,
            num_destinations=1 if algorithm == "pts" else 3,
        ).policy(engine=engine, seed=3).build()
        enabled = gc.isenabled()
        gc.disable()
        try:
            session = Session()
            prepared = session.prepare(spec)
            report = session.run(prepared)
            assert report.result.packets_injected > 0
            freed = weakref.ref(prepared.algorithm)
            del prepared, report
            assert freed() is None
        finally:
            if enabled:
                gc.enable()

    def test_activation_is_frozen(self):
        activation = Activation(node=3, key="q")
        with pytest.raises(AttributeError):
            activation.node = 4  # type: ignore[misc]


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for error_type in (
            TopologyError,
            CapacityViolationError,
            BoundednessViolationError,
            SchedulingError,
            ConfigurationError,
        ):
            assert issubclass(error_type, ReproError)

    def test_capacity_violation_message(self):
        error = CapacityViolationError(edge=(3, 4), round_number=7, detail="two queues")
        assert "(3, 4)" in str(error)
        assert "7" in str(error)
        assert "two queues" in str(error)
        assert error.edge == (3, 4)

    def test_boundedness_violation_fields(self):
        error = BoundednessViolationError(
            buffer=2, interval=(0, 9), observed=5.0, allowed=3.0
        )
        assert error.buffer == 2
        assert error.observed == 5.0
        assert "buffer 2" in str(error)
