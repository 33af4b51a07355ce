"""Tests for the Session runner: execution, caching, scoping, determinism."""

from __future__ import annotations

import pytest

from repro.api import RunPolicy, Scenario, Session, TopologySpec
from repro.api.session import PreparedRun
from repro.api.specs import SpecError
from repro.adversary.base import InjectionPattern
from repro.core.packet import make_injection, packet_id_scope
from repro.core.pts import PeakToSink
from repro.adversary.stress import pts_burst_stress
from repro.network.topology import LineTopology


def _random_spec(seed: int, *, d: int = 4):
    return (
        Scenario.line(32)
        .algorithm("ppts")
        .adversary("bounded", rho=1.0, sigma=2, rounds=60, num_destinations=d)
        .seed(seed)
        .build()
    )


class TestRun:
    def test_run_reports_bound_comparison(self):
        report = (
            Scenario.line(24)
            .algorithm("pts")
            .adversary("burst", rho=1.0, sigma=2, rounds=50)
            .run()
        )
        assert report.algorithm == "PTS"
        assert report.bound == 4.0
        assert report.within_bound
        assert report.result.packets_injected > 0
        row = report.as_row()
        assert row["n"] == 24
        assert row["max_occupancy"] <= row["bound"]

    def test_run_rejects_non_scenarios(self):
        from repro.api import SpecError

        with pytest.raises(SpecError):
            Session().run("not a spec")  # type: ignore[arg-type]

    def test_prepared_run_path(self):
        line = LineTopology(16)
        prepared = PreparedRun(
            topology=line,
            algorithm=PeakToSink(line),
            adversary=pts_burst_stress(line, 1.0, 1, 30),
            policy=RunPolicy(),
            name="hand-built",
        )
        report = Session().run(prepared)
        assert report.name == "hand-built"
        assert report.within_bound

    def test_policy_rounds_and_drain(self):
        report = (
            Scenario.line(16)
            .algorithm("pts")
            .adversary("burst", rho=1.0, sigma=1, rounds=50)
            .rounds(10)
            .drain(False)
            .run()
        )
        assert report.result.rounds_executed == 10


class TestBoundComputation:
    def test_compat_layer_uses_the_workload_declared_sigma(self):
        # The lower-bound pattern declares sigma=None (no claim); the workload
        # declares 2.0 — the harness row must keep the pre-API behaviour of
        # computing the bound from the workload's sigma.
        from repro.core.ppts import ParallelPeakToSink
        from repro.experiments.harness import run_workload
        from repro.experiments.workloads import lower_bound_workload

        workload = lower_bound_workload(3, 2, rho=0.5, num_phases=4)
        row = run_workload(workload, lambda w: ParallelPeakToSink(w.topology))
        assert row.bound is not None

    def test_exact_boundary_occupancy_counts_as_within_bound(self):
        # hpts_upper_bound(64, 3, 2) is 14.999999999999998 through floating
        # point; an integer measurement equal to the mathematical bound must
        # not be flagged as a violation.
        class ExactBound(PeakToSink):
            def theoretical_bound(self, sigma):
                return 3 - 1e-13

        line = LineTopology(8)
        prepared = PreparedRun(
            topology=line,
            algorithm=ExactBound(line),
            adversary=pts_burst_stress(line, 1.0, 2, 20),
            name="boundary",
        )
        report = Session().run(prepared)
        assert report.result.max_occupancy == 3
        assert report.within_bound


class TestTopologyCache:
    def test_same_spec_shares_one_topology_instance(self):
        session = Session()
        spec = TopologySpec.tree("random", num_nodes=40, seed=3)
        assert session.topology(spec) is session.topology(spec)
        # Equal-but-distinct spec objects hit the same cache slot.
        assert session.topology(spec) is session.topology(
            TopologySpec.tree("random", num_nodes=40, seed=3)
        )

    def test_cache_can_be_disabled(self):
        session = Session(cache_topologies=False)
        spec = TopologySpec.line(8)
        assert session.topology(spec) is not session.topology(spec)


class TestPacketIdScoping:
    def test_scope_restarts_ids_and_restores_outer_counter(self):
        outer_first = make_injection(0, 0, 1).packet_id
        with packet_id_scope():
            assert make_injection(0, 0, 1).packet_id == 0
            assert make_injection(0, 0, 1).packet_id == 1
        assert make_injection(0, 0, 1).packet_id == outer_first + 1

    def test_each_session_run_starts_packet_ids_at_zero(self):
        make_injection(0, 0, 1)  # disturb the process-wide counter
        report = Session().run(_random_spec(5))
        assert 0 in report.result.max_occupancy_per_node  # sanity: ran on nodes
        # The run's packets were numbered from 0 in its own scope, so a
        # repeat run produces identical injections regardless of history.
        repeat = Session().run(_random_spec(5))
        assert report.result.packets_injected == repeat.result.packets_injected


class TestRunManyDeterminism:
    def test_run_many_matches_sequential_runs_under_fixed_seed(self):
        specs = [_random_spec(seed, d=2 + seed % 3) for seed in range(6)]
        sequential = [Session().run(spec) for spec in specs]
        fanned_out = Session().run_many(
            specs, max_workers=2, use_processes=True
        )
        assert [r.result.max_occupancy for r in fanned_out] == [
            r.result.max_occupancy for r in sequential
        ]
        assert [r.result.packets_injected for r in fanned_out] == [
            r.result.packets_injected for r in sequential
        ]

    def test_run_many_is_repeatable(self):
        specs = [_random_spec(9), _random_spec(9)]
        first, second = Session().run_many(specs)
        assert first.result.packets_injected == second.result.packets_injected
        assert first.result.max_occupancy == second.result.max_occupancy
        again = Session().run_many(specs, max_workers=0, use_processes=True)
        assert again[0].result.max_occupancy == first.result.max_occupancy

    def test_run_many_preserves_input_order(self):
        specs = [
            Scenario.line(n)
            .algorithm("pts")
            .adversary("burst", rho=1.0, sigma=1, rounds=20)
            .build()
            for n in (8, 16, 32, 64)
        ]
        for reports in (
            Session().run_many(specs),
            Session().run_many(specs, max_workers=2, use_processes=True),
        ):
            assert [report.result.num_nodes for report in reports] == [
                8, 16, 32, 64
            ]

    def test_run_many_without_processes_runs_in_order_in_process(
        self, monkeypatch
    ):
        """max_workers sizes only the process pool: without
        use_processes the batch runs in order on the calling thread."""
        import threading

        from repro.api import session as session_module

        def no_pool(*args, **kwargs):
            raise AssertionError("run_many started a pool")

        monkeypatch.setattr(session_module, "ProcessPoolExecutor", no_pool)
        seen = []
        original_run = Session.run

        def run(self, scenario, **kwargs):
            seen.append((threading.get_ident(), scenario.label))
            return original_run(self, scenario, **kwargs)

        monkeypatch.setattr(Session, "run", run)
        specs = [_random_spec(seed) for seed in range(3)]
        reports = Session(max_workers=4).run_many(specs, max_workers=4)
        assert [label for _thread, label in seen] == [s.label for s in specs]
        assert {thread for thread, _label in seen} == {threading.get_ident()}
        assert len(reports) == 3

    def test_run_many_with_processes_matches_in_order_run(self):
        specs = [_random_spec(seed, d=2 + seed % 3) for seed in range(4)]
        in_order = Session().run_many(specs)
        processed = Session().run_many(specs, max_workers=2, use_processes=True)
        for in_order_report, process_report in zip(in_order, processed):
            assert (
                in_order_report.result.max_occupancy
                == process_report.result.max_occupancy
            )
            assert (
                in_order_report.result.max_occupancy_per_node
                == process_report.result.max_occupancy_per_node
            )
            assert (
                in_order_report.result.packets_injected
                == process_report.result.packets_injected
            )
            assert (
                in_order_report.result.mean_latency
                == process_report.result.mean_latency
            )
        assert [r.result.num_nodes for r in processed] == [
            r.result.num_nodes for r in in_order
        ]

    def test_run_many_with_processes_rejects_prepared_runs(self):
        line = LineTopology(8)
        prepared = PreparedRun(
            topology=line,
            algorithm=PeakToSink(line),
            adversary=InjectionPattern.from_tuples([(0, 0, 7)]),
        )
        with pytest.raises(SpecError):
            Session().run_many([prepared], use_processes=True)


class TestProcessPoolWarmup:
    """The pool initializer must build each worker's topologies exactly once.

    The seed behaviour rebuilt the topology for every submitted run (a fresh
    Session per run); these tests drive the worker lifecycle in-process —
    ``_warm_worker`` once, then ``_run_spec_in_worker`` per run — and count
    constructions through ``Session.topology_builds``.
    """

    def _install_worker(self, topology_specs):
        from repro.api import session as session_module

        session_module._warm_worker(tuple(topology_specs), True)
        return session_module._WORKER_SESSION

    def _uninstall_worker(self):
        from repro.api import session as session_module

        session_module._WORKER_SESSION = None

    def test_worker_builds_each_topology_once_across_runs(self):
        from repro.api.session import _run_spec_in_worker

        specs = [_random_spec(seed) for seed in range(5)]
        worker_session = self._install_worker({s.topology for s in specs})
        try:
            assert worker_session.topology_builds == 1  # one distinct topology
            reports = [_run_spec_in_worker(spec) for spec in specs]
            # Regression guard: five submitted runs, still one construction.
            assert worker_session.topology_builds == 1
        finally:
            self._uninstall_worker()
        sequential = [Session().run(spec) for spec in specs]
        assert [r.result.max_occupancy for r in reports] == [
            r.result.max_occupancy for r in sequential
        ]

    def test_unwarmed_worker_falls_back_to_fresh_session(self):
        from repro.api.session import _run_spec_in_worker

        self._uninstall_worker()
        report = _run_spec_in_worker(_random_spec(3))
        assert report.result.packets_injected > 0

    def test_session_topology_builds_counts_cache_misses_only(self):
        session = Session()
        spec = _random_spec(0)
        session.topology(spec.topology)
        session.topology(spec.topology)
        assert session.topology_builds == 1
        uncached = Session(cache_topologies=False)
        uncached.topology(spec.topology)
        uncached.topology(spec.topology)
        assert uncached.topology_builds == 2


class TestSeedPropagation:
    def test_policy_seed_reaches_seed_accepting_builders(self):
        a = Session().run(_random_spec(1))
        b = Session().run(_random_spec(1))
        c = Session().run(_random_spec(2))
        assert a.result.packets_injected == b.result.packets_injected
        # Different seeds should (overwhelmingly) produce different traffic;
        # compare the full occupancy fingerprint rather than a single count.
        assert (
            a.result.max_occupancy_per_node != c.result.max_occupancy_per_node
            or a.result.packets_injected != c.result.packets_injected
        )

    def test_explicit_adversary_seed_wins_over_policy_seed(self):
        base = (
            Scenario.line(32)
            .algorithm("ppts")
            .adversary("bounded", rho=1.0, sigma=2, rounds=60,
                       num_destinations=4, seed=1)
        )
        pinned = base.seed(99).build()
        reference = _random_spec(1)
        assert (
            Session().run(pinned).result.packets_injected
            == Session().run(reference).result.packets_injected
        )
