"""Tests for the Session runner: execution, caching, scoping, determinism."""

from __future__ import annotations

import pytest

from repro.api import RunPolicy, Scenario, Session, TopologySpec
from repro.api.session import PreparedRun
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
    def test_adversary_claiming_no_envelope_gets_no_bound(self):
        # The lower-bound pattern declares sigma=None (no claim), so the run
        # compares against no bound, whatever sigma the spec carries.
        report = (
            Scenario.line(27)
            .algorithm("ppts")
            .adversary("lower-bound", rho=0.5, sigma=2, rounds=1,
                       branching=3, levels=2, num_phases=4)
            .run()
        )
        assert report.bound is None
        assert report.result.packets_injected > 0

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
        batched = Session().run_many(specs)
        assert [r.result.max_occupancy for r in batched] == [
            r.result.max_occupancy for r in sequential
        ]
        assert [r.result.packets_injected for r in batched] == [
            r.result.packets_injected for r in sequential
        ]

    def test_run_many_is_repeatable(self):
        specs = [_random_spec(9), _random_spec(9)]
        first, second = Session().run_many(specs)
        assert first.result.packets_injected == second.result.packets_injected
        assert first.result.max_occupancy == second.result.max_occupancy

    def test_run_many_preserves_input_order(self):
        specs = [
            Scenario.line(n)
            .algorithm("pts")
            .adversary("burst", rho=1.0, sigma=1, rounds=20)
            .build()
            for n in (8, 16, 32, 64)
        ]
        reports = Session().run_many(specs)
        assert [report.result.num_nodes for report in reports] == [8, 16, 32, 64]

    def test_run_many_runs_in_order_on_the_calling_thread(self, monkeypatch):
        import threading

        seen = []
        original_run = Session.run

        def run(self, scenario, **kwargs):
            seen.append((threading.get_ident(), scenario.label))
            return original_run(self, scenario, **kwargs)

        monkeypatch.setattr(Session, "run", run)
        specs = [_random_spec(seed) for seed in range(3)]
        reports = Session().run_many(specs)
        assert [label for _thread, label in seen] == [s.label for s in specs]
        assert {thread for thread, _label in seen} == {threading.get_ident()}
        assert len(reports) == 3

    def test_run_many_mixes_specs_and_prepared_runs(self):
        line = LineTopology(8)
        prepared = PreparedRun(
            topology=line,
            algorithm=PeakToSink(line),
            adversary=InjectionPattern.from_tuples([(0, 0, 7)]),
            name="hand-built",
        )
        spec_report, prepared_report = Session().run_many(
            [_random_spec(4), prepared]
        )
        assert spec_report.spec is not None
        assert prepared_report.name == "hand-built"
        assert prepared_report.spec is None
        assert prepared_report.result.packets_injected == 1


    def test_run_many_over_an_algorithm_by_destinations_grid(self):
        grid = [
            (algorithm, d)
            for d in (2, 4)
            for algorithm in ("ppts", "hpts")
        ]
        reports = Session().run_many(
            Scenario.line(24)
            .algorithm(name, **({"levels": 1, "branching": 24}
                                if name == "hpts" else {}))
            .adversary("bounded", rho=1.0, sigma=1, rounds=40, seed=d,
                       num_destinations=d)
            .build()
            for name, d in grid
        )
        assert [(r.algorithm, r.params["num_destinations"]) for r in reports] == [
            ("PPTS", 2), ("HPTS", 2), ("PPTS", 4), ("HPTS", 4)
        ]
        assert all(r.within_bound for r in reports if r.algorithm == "PPTS")


class TestReportsToTable:
    def test_title_header_and_one_line_per_report(self):
        from repro.api.session import reports_to_table

        reports = Session().run_many(
            Scenario.line(16)
            .algorithm(name)
            .adversary("burst", rho=1.0, sigma=1, rounds=30)
            .build()
            for name in ("pts", "ppts")
        )
        lines = reports_to_table(reports, title="E1").splitlines()
        assert lines[0] == "E1"
        assert [cell.strip() for cell in lines[1].split(" | ")[:2]] == [
            "scenario", "algorithm"
        ]
        assert len(lines) == 3 + len(reports)  # title, header, separator, rows
        assert "PTS" in lines[3] and "PPTS" in lines[4]

    def test_columns_select_and_order_the_report_fields(self):
        from repro.api.session import reports_to_table

        report = (
            Scenario.line(16)
            .algorithm("pts")
            .adversary("burst", rho=1.0, sigma=1, rounds=30)
            .run()
        )
        header, _separator, row = reports_to_table(
            [report], ["max_occupancy", "algorithm"]
        ).splitlines()
        assert header.split() == ["max_occupancy", "|", "algorithm"]
        assert row.split() == [str(report.max_occupancy), "|", "PTS"]


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
