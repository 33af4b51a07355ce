"""End-to-end equivalence of the delta-driven engine with the seed engine.

The acceptance bar for the incremental engine is *bit-identical*
:class:`SimulationResult` values on seeded runs:

* summary runs against full-history runs of the same scenario,
* the index-driven ``select_activations`` of PTS / PPTS / HPTS, greedy and
  the tree algorithms against their scan oracles
  (``test_property_incremental.SCAN_ORACLES``),
* latency / delivery statistics folded in at delivery time against the
  per-packet recomputation.
"""

from __future__ import annotations

import pytest

from repro.api.session import Session
from repro.api.specs import ScenarioSpec
from repro.core.packet import packet_id_scope
from test_property_incremental import as_scan_oracle


def _spec(payload):
    return ScenarioSpec.from_dict(payload)


LINE_SCENARIOS = [
    _spec(
        {
            "name": "equiv/pts",
            "topology": {"kind": "line", "params": {"num_nodes": 48}},
            "algorithm": {"name": "pts", "params": {}},
            "adversary": {"name": "single", "rho": 1.0, "sigma": 3.0,
                          "rounds": 220, "params": {}},
            "policy": {"seed": 11, "engine": "delta"},
        }
    ),
    _spec(
        {
            "name": "equiv/ppts",
            "topology": {"kind": "line", "params": {"num_nodes": 48}},
            "algorithm": {"name": "ppts", "params": {}},
            "adversary": {"name": "bounded", "rho": 0.9, "sigma": 3.0,
                          "rounds": 220, "params": {"num_destinations": 6}},
            "policy": {"seed": 11, "engine": "delta"},
        }
    ),
    _spec(
        {
            "name": "equiv/hpts",
            "topology": {"kind": "line", "params": {"num_nodes": 64}},
            "algorithm": {"name": "hpts", "params": {"levels": 2}},
            "adversary": {"name": "bounded", "rho": 0.5, "sigma": 3.0,
                          "rounds": 220, "params": {"num_destinations": 6}},
            "policy": {"seed": 11, "engine": "delta"},
        }
    ),
    # The E9 ablation switches; the first two make ``auto`` fall back to
    # delta, the only HPTS traffic delta still runs.
    *(
        _spec(
            {
                "name": f"equiv/hpts-{label}",
                "topology": {"kind": "line", "params": {"num_nodes": 64}},
                "algorithm": {"name": "hpts", "params": {"levels": 2, **params}},
                "adversary": {"name": "bounded", "rho": 0.5, "sigma": 3.0,
                              "rounds": 220, "params": {"num_destinations": 6}},
                "policy": {"seed": 11, "engine": "delta"},
            }
        )
        for label, params in (
            ("no-pre-bad", {"activate_pre_bad": False}),
            ("immediate", {"batch_acceptance": False}),
            ("ascending", {"level_schedule": "ascending"}),
        )
    ),
    _spec(
        {
            "name": "equiv/greedy",
            "topology": {"kind": "line", "params": {"num_nodes": 48}},
            "algorithm": {"name": "greedy", "params": {}},
            "adversary": {"name": "bounded", "rho": 0.9, "sigma": 3.0,
                          "rounds": 220, "params": {"num_destinations": 6}},
            "policy": {"seed": 11, "engine": "delta"},
        }
    ),
    _spec(
        {
            "name": "equiv/tree-ppts",
            "topology": {"kind": "tree", "params": {"family": "random",
                                                    "num_nodes": 40, "seed": 5}},
            "algorithm": {"name": "tree-ppts", "params": {}},
            "adversary": {"name": "convergecast", "rho": 0.9, "sigma": 3.0,
                          "rounds": 180, "params": {}},
            "policy": {"seed": 11, "engine": "delta"},
        }
    ),
]


def _result_fingerprint(result):
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
    policy = dict(
        rounds=spec.policy.rounds,
        drain=spec.policy.drain,
        max_drain_rounds=spec.policy.max_drain_rounds,
        record_history=spec.policy.record_history,
        record_occupancy_vectors=spec.policy.record_occupancy_vectors,
        validate_capacity=spec.policy.validate_capacity,
        seed=spec.policy.seed,
        engine=spec.policy.engine,
    )
    policy.update(overrides)
    return _spec({**spec.to_dict(), "policy": policy})


@pytest.mark.parametrize("spec", LINE_SCENARIOS, ids=lambda s: s.label)
def test_delta_timeline_matches_full_snapshot_path(spec):
    """A full-history run reports what a summary run reports."""
    session = Session()
    delta_report = session.run(spec)
    snapshot_report = session.run(_with_policy(spec, record_history=True))
    assert _result_fingerprint(delta_report.result) == _result_fingerprint(
        snapshot_report.result
    )
    # The per-round history must agree with the timeline it produced.
    history_max = max(
        (record.max_occupancy for record in snapshot_report.result.history), default=0
    )
    assert history_max == delta_report.result.max_occupancy


@pytest.mark.parametrize("spec", LINE_SCENARIOS, ids=lambda s: s.label)
def test_occupancy_vector_run_matches_summary_run(spec):
    """Per-round occupancy vectors change no summary statistic, and each
    round's vector agrees with that round's record."""
    session = Session()
    summary = session.run(spec).result
    history = session.run(_with_policy(spec, record_history=True)).result
    vectors = session.run(_with_policy(spec, record_occupancy_vectors=True)).result
    assert _result_fingerprint(vectors) == _result_fingerprint(summary)
    assert history.history[0].occupancy is None
    assert len(vectors.history) == len(history.history)
    for with_vector, record in zip(vectors.history, history.history):
        assert with_vector.occupancy is not None
        assert with_vector.max_occupancy == record.max_occupancy
        assert max(with_vector.occupancy.values()) == record.max_occupancy
        assert with_vector.forwarded == record.forwarded


def test_full_history_run_drains_the_dirty_set():
    """History runs fold deltas too: no node is left dirty after the run."""
    from repro.network.simulator import Simulator

    spec = _with_policy(
        _spec(
            {
                "name": "equiv/ppts-64",
                "topology": {"kind": "line", "params": {"num_nodes": 64}},
                "algorithm": {"name": "ppts", "params": {}},
                "adversary": {"name": "bounded", "rho": 0.9, "sigma": 3.0,
                              "rounds": 120, "params": {"num_destinations": 6}},
            }
        ),
        seed=11,
    )
    with packet_id_scope():
        prepared = Session().prepare(spec)
        simulator = Simulator(
            prepared.topology, prepared.algorithm, prepared.adversary,
            record_history=True,
        )
        result = simulator.run()
    assert result.history
    assert prepared.algorithm.occupancy_delta() == {}


@pytest.mark.parametrize("spec", LINE_SCENARIOS, ids=lambda s: s.label)
def test_incremental_engine_matches_seed_scan_engine(spec):
    """Run the same scenario on the algorithm's scan oracle; results must be identical."""
    session = Session()
    incremental = session.run(spec)

    with packet_id_scope():
        prepared = session.prepare(spec)
        with as_scan_oracle(prepared.algorithm):
            scan = session.run(prepared)

    assert _result_fingerprint(incremental.result) == _result_fingerprint(scan.result)
    assert incremental.within_bound == scan.within_bound


def test_latency_statistics_match_per_packet_recount():
    spec = LINE_SCENARIOS[1]
    from repro.network.simulator import Simulator

    session = Session()
    with packet_id_scope():
        prepared = session.prepare(spec)
        simulator = Simulator(prepared.topology, prepared.algorithm, prepared.adversary)
        result = simulator.run()
    latencies = [
        packet.latency
        for packet in simulator.packets.values()
        if packet.latency is not None
    ]
    assert result.packets_delivered == len(latencies)
    assert result.max_latency == (max(latencies) if latencies else None)
    assert result.mean_latency == (
        sum(latencies) / len(latencies) if latencies else None
    )
    assert result.packets_undelivered == len(simulator.packets) - len(latencies)


def test_empty_run_produces_seed_shaped_result():
    """Zero rounds, zero packets: the delta path must not invent node entries."""
    spec = _with_policy(LINE_SCENARIOS[0], rounds=0, drain=False)
    result = Session().run(spec).result
    assert result.max_occupancy == 0
    assert result.rounds_executed == 0
    assert result.max_latency is None
    assert result.mean_latency is None
