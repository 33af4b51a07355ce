"""Streaming (memory-lean) runs: equivalence, retention, lazy adversaries.

The acceptance bar for the memory-lean engine is that ``history="streaming"``
— folded statistics, packets released at delivery, lazily generated
injections — produces the *same* ``SimulationResult`` summary statistics as
the full-history path on seeded scenarios, while retaining only
O(packets-in-flight) state.
"""

from __future__ import annotations

import pytest

from repro.adversary.base import StreamingAdversary
from repro.adversary.bounded import check_bounded
from repro.adversary.generators import trickle_adversary
from repro.api.session import Session
from repro.api.specs import RunPolicy, ScenarioSpec, SpecError
from repro.core.excess import ExcessTracker
from repro.core.hierarchy import HierarchicalPartition, Segment
from repro.core.packet import Packet, PacketStore, make_injection, packet_id_scope
from repro.core.pseudobuffer import NodeBuffer, PseudoBuffer
from repro.core.pts import PeakToSink
from repro.core.scheduler import Activation
from repro.network.errors import ConfigurationError
from repro.network.events import HistoryPolicy, SimulationResult
from repro.network.simulator import Simulator
from repro.network.topology import LineTopology


def _spec(payload):
    return ScenarioSpec.from_dict(payload)


SEEDED_SCENARIOS = [
    _spec(
        {
            "name": "stream/pts",
            "topology": {"kind": "line", "params": {"num_nodes": 48}},
            "algorithm": {"name": "pts", "params": {}},
            "adversary": {"name": "single", "rho": 1.0, "sigma": 3.0,
                          "rounds": 200, "params": {}},
            "policy": {"seed": 11, "engine": "delta"},
        }
    ),
    _spec(
        {
            "name": "stream/ppts",
            "topology": {"kind": "line", "params": {"num_nodes": 48}},
            "algorithm": {"name": "ppts", "params": {}},
            "adversary": {"name": "bounded", "rho": 0.9, "sigma": 3.0,
                          "rounds": 200, "params": {"num_destinations": 5}},
            "policy": {"seed": 11, "engine": "delta"},
        }
    ),
    _spec(
        {
            "name": "stream/hpts",
            "topology": {"kind": "line", "params": {"num_nodes": 64}},
            "algorithm": {"name": "hpts", "params": {"levels": 2}},
            "adversary": {"name": "bounded", "rho": 0.5, "sigma": 3.0,
                          "rounds": 200, "params": {"num_destinations": 5}},
            "policy": {"seed": 11, "engine": "delta"},
        }
    ),
    _spec(
        {
            "name": "stream/trickle-pts",
            "topology": {"kind": "line", "params": {"num_nodes": 96}},
            "algorithm": {"name": "pts", "params": {}},
            "adversary": {"name": "trickle", "rho": 1.0, "sigma": 1.0,
                          "rounds": 300, "params": {}},
            "policy": {"seed": 11, "engine": "delta"},
        }
    ),
]


def _fingerprint(result):
    return (
        result.max_occupancy,
        result.max_occupancy_per_node,
        result.max_staged,
        result.rounds_executed,
        result.packets_injected,
        result.packets_delivered,
        result.packets_undelivered,
        result.max_latency,
        result.mean_latency,
        result.drained,
    )


def _with_policy(spec, **overrides):
    policy = {**spec.policy.to_dict(), **overrides}
    return _spec({**spec.to_dict(), "policy": policy})


def _with_stream_adversary(spec):
    adversary = spec.adversary.to_dict()
    adversary["params"] = {**adversary["params"], "stream": True}
    return _spec({**spec.to_dict(), "adversary": adversary})


class TestStreamingEquivalence:
    @pytest.mark.parametrize("spec", SEEDED_SCENARIOS, ids=lambda s: s.label)
    def test_streaming_matches_full_history_summary_stats(self, spec):
        session = Session()
        streaming = session.run(
            _with_stream_adversary(_with_policy(spec, history="streaming"))
        )
        full = session.run(_with_policy(spec, record_history=True))
        assert _fingerprint(streaming.result) == _fingerprint(full.result)
        assert streaming.within_bound == full.within_bound
        # Only the full run retains per-round records.
        assert streaming.result.history == []
        assert len(full.result.history) == full.result.rounds_executed

    @pytest.mark.parametrize("spec", SEEDED_SCENARIOS, ids=lambda s: s.label)
    def test_lazy_adversary_matches_eager_adversary(self, spec):
        session = Session()
        eager = session.run(spec)
        lazy = session.run(_with_stream_adversary(spec))
        assert _fingerprint(eager.result) == _fingerprint(lazy.result)

    def test_history_policies_agree_pairwise(self):
        spec = SEEDED_SCENARIOS[1]
        session = Session()
        results = {
            policy: session.run(_with_policy(spec, history=policy)).result
            for policy in ("summary", "streaming", "full")
        }
        assert (
            _fingerprint(results["summary"])
            == _fingerprint(results["streaming"])
            == _fingerprint(results["full"])
        )


class TestStreamingRetention:
    def test_streaming_run_releases_delivered_packets(self):
        spec = _with_stream_adversary(
            _with_policy(SEEDED_SCENARIOS[0], history="streaming")
        )
        session = Session()
        with packet_id_scope():
            prepared = session.prepare(spec)
            simulator = Simulator(
                prepared.topology, prepared.algorithm, prepared.adversary,
                history="streaming",
            )
            result = simulator.run()
        assert simulator.history_policy is HistoryPolicy.STREAMING
        assert not simulator.retain_packets
        # Only undelivered packets remain reachable; the columnar store has
        # the full injection log.
        assert len(simulator.packets) == result.packets_undelivered
        assert simulator.packet_store is not None
        assert len(simulator.packet_store) == result.packets_injected

    def test_summary_run_retains_every_packet(self):
        spec = SEEDED_SCENARIOS[0]
        session = Session()
        with packet_id_scope():
            prepared = session.prepare(spec)
            simulator = Simulator(
                prepared.topology, prepared.algorithm, prepared.adversary
            )
            result = simulator.run()
        assert simulator.history_policy is HistoryPolicy.SUMMARY
        assert len(simulator.packets) == result.packets_injected
        assert simulator.packet_store is None

    def test_record_history_flags_conflict_with_streaming(self):
        line = LineTopology(8)
        algorithm = PeakToSink(line)
        adversary = trickle_adversary(line, 1.0, 1.0, 10, seed=0)
        with pytest.raises(ConfigurationError):
            Simulator(
                line, algorithm, adversary,
                record_history=True, history="streaming",
            )

    def test_unknown_history_policy_rejected(self):
        line = LineTopology(8)
        with pytest.raises(ValueError):
            Simulator(
                line, PeakToSink(line),
                trickle_adversary(line, 1.0, 1.0, 10, seed=0),
                history="everything",
            )


class TestStreamingAdversaryContract:
    def _stream(self, horizon=20):
        line = LineTopology(32)
        return trickle_adversary(line, 1.0, 1.0, horizon, seed=4, stream=True)

    def test_backward_access_raises(self):
        adversary = self._stream()
        adversary.injections_for_round(3)
        with pytest.raises(RuntimeError):
            adversary.injections_for_round(2)

    def test_skipped_rounds_keep_packet_ids_aligned(self):
        with packet_id_scope():
            reference = trickle_adversary(
                LineTopology(32), 1.0, 1.0, 20, seed=4
            ).injections_for_round(7)
        with packet_id_scope():
            skipping = self._stream()
            jumped = skipping.injections_for_round(7)  # rounds 0-6 skipped
        assert jumped == reference

    def test_past_horizon_is_empty(self):
        adversary = self._stream(horizon=5)
        assert adversary.injections_for_round(17) == []

    def test_all_injections_refuses_to_materialise(self):
        with pytest.raises(RuntimeError):
            self._stream().all_injections()

    def test_materialize_fresh_stream_equals_eager(self):
        with packet_id_scope():
            eager = trickle_adversary(LineTopology(32), 1.0, 1.0, 20, seed=4)
        with packet_id_scope():
            materialized = self._stream().materialize()
        assert eager.all_injections() == materialized.all_injections()

    def test_materialize_after_consumption_raises(self):
        adversary = self._stream()
        adversary.injections_for_round(0)
        with pytest.raises(RuntimeError):
            adversary.materialize()


class TestTrickleAdversary:
    def test_trickle_is_rho_one_bounded_by_construction(self):
        line = LineTopology(40)
        pattern = trickle_adversary(line, 0.7, 0.0, 200, seed=9)
        assert pattern.sigma == 1.0  # declared envelope is clamped up to 1
        report = check_bounded(pattern, line, 0.7, 1.0)
        assert report.bounded
        # Rate check: at most rho * T + 1 packets in total.
        assert len(pattern) <= 0.7 * 200 + 1

    def test_trickle_validates_destinations(self):
        line = LineTopology(16)
        with pytest.raises(ConfigurationError):
            trickle_adversary(line, 1.0, 1.0, 10, destination=0)
        with pytest.raises(ConfigurationError):
            trickle_adversary(line, 1.0, 1.0, 10, destinations=[])
        with pytest.raises(ConfigurationError):
            trickle_adversary(line, 1.0, 1.0, 10, destination=3, destinations=[4])


class TestRunPolicyHistoryField:
    def test_round_trip_preserves_history(self):
        policy = RunPolicy(history="streaming")
        assert RunPolicy.from_dict(policy.to_dict()) == policy

    def test_invalid_history_rejected(self):
        with pytest.raises(SpecError):
            RunPolicy(history="forever")

    def test_history_conflicts_with_record_flags(self):
        with pytest.raises(SpecError):
            RunPolicy(history="streaming", record_history=True)
        with pytest.raises(SpecError):
            RunPolicy(history="summary", record_occupancy_vectors=True)
        # "full" is the explicit spelling of the record flags: compatible.
        RunPolicy(history="full", record_history=True)


class TestSlottedHotClasses:
    """The hot-path objects must stay dict-free (the memory-lean invariant)."""

    @pytest.mark.parametrize(
        "instance",
        [
            Packet.from_injection(make_injection(0, 0, 3)),
            PseudoBuffer("w"),
            NodeBuffer(0),
            Activation(node=0, key=1),
            PacketStore(),
            # Slotted by the RPR002 sweep (see docs/LINTING.md).
            ExcessTracker(4, 0.5),
            Segment(start=0, end=3, level=1),
            HierarchicalPartition(8, 3, 2),
            packet_id_scope(),
            SimulationResult(algorithm="pts", num_nodes=4, rounds_executed=0,
                             max_occupancy=0),
        ],
        ids=lambda obj: type(obj).__name__,
    )
    def test_no_instance_dict(self, instance):
        assert not hasattr(instance, "__dict__")

    def test_packet_store_round_trips_records(self):
        store = PacketStore()
        with packet_id_scope():
            injections = [make_injection(t, t % 3, 5 + t % 2) for t in range(10)]
        for injection in injections:
            store.append_injection(injection)
        assert len(store) == 10
        assert list(store) == injections
        assert store.injection(4) == injections[4]
        assert store.nbytes >= 10 * 4 * 8

    def test_packet_materialises_injection_view(self):
        with packet_id_scope():
            injection = make_injection(2, 1, 7)
        packet = Packet.from_injection(injection)
        assert packet.injection == injection
        packet.advance(2)
        assert packet.injection == injection  # the view tracks injection data
