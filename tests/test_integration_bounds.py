"""Integration sweeps: every algorithm against every relevant bound.

These are the end-to-end versions of the E1-E4 benchmarks, shrunk to sizes
suitable for the unit-test suite.  Each case is a :class:`ScenarioSpec` built
from registered names and run through :class:`Session` — registry lookups,
adversary builders, engine routing, algorithms, bound checking — and asserts
that every upper bound from the paper holds on every (adversary, algorithm)
pair it applies to.
"""

from __future__ import annotations

import pytest

from repro.adversary.generators import hierarchy_random_destinations
from repro.api import Scenario, Session


class TestProposition31Sweep:
    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("rho", [0.5, 1.0])
    @pytest.mark.parametrize("sigma", [0, 4])
    def test_pts_bound_over_grid(self, n, rho, sigma):
        for adversary, params in (("burst", {}), ("single", {"seed": n + sigma})):
            report = (
                Scenario.line(n)
                .algorithm("pts")
                .adversary(adversary, rho=rho, sigma=sigma, rounds=80, **params)
                .run()
            )
            assert report.within_bound, report.as_row()


class TestProposition32Sweep:
    @pytest.mark.parametrize("d", [1, 4, 16])
    @pytest.mark.parametrize("adversary", ["round-robin", "nested", "bounded"])
    def test_ppts_bound_over_grid(self, d, adversary):
        params = {"num_destinations": d}
        if adversary == "bounded":
            params["seed"] = d
        report = (
            Scenario.line(48)
            .algorithm("ppts")
            .adversary(adversary, rho=1.0, sigma=2, rounds=120, **params)
            .run()
        )
        assert report.within_bound, report.as_row()

    def test_ppts_and_pts_agree_on_single_destination(self):
        pts, ppts = Session().run_many(
            Scenario.line(32)
            .algorithm(algorithm)
            .adversary("burst", rho=1.0, sigma=2, rounds=100)
            .build()
            for algorithm in ("pts", "ppts")
        )
        # PPTS restricted to one destination is exactly PTS, so the measured
        # occupancies coincide.
        assert pts.max_occupancy == ppts.max_occupancy


class TestProposition35Sweep:
    @pytest.mark.parametrize(
        "family, params",
        [
            ("caterpillar", {"spine_length": 5, "legs_per_node": 2}),
            ("star", {"num_leaves": 8}),
            ("binary", {"depth": 3}),
        ],
        ids=["caterpillar", "star", "binary"],
    )
    def test_tree_algorithms_over_topologies(self, family, params):
        session = Session()
        root_only = (
            Scenario.tree(family, **params)
            .algorithm("tree-pts")
            .adversary("convergecast", rho=1.0, sigma=2, rounds=80)
            .build()
        )
        report = session.run(root_only)
        assert report.within_bound, report.as_row()

        tree = session.topology(root_only.topology)
        internal = [v for v in tree.nodes if tree.children(v)][:3] or [tree.root]
        multi = (
            Scenario.tree(family, **params)
            .algorithm("tree-ppts", destinations=internal)
            .adversary("convergecast", rho=1.0, sigma=2, rounds=80,
                       destinations=internal)
            .build()
        )
        report = session.run(multi)
        assert report.within_bound, report.as_row()


class TestTheorem41Sweep:
    @pytest.mark.parametrize("branching,levels", [(4, 2), (2, 4), (3, 3)])
    def test_hpts_bound_over_grid(self, branching, levels):
        rho = 1.0 / levels
        report = (
            Scenario.line(branching**levels)
            .algorithm("hpts", levels=levels, branching=branching, rho=rho)
            .adversary("hierarchy", rho=rho, sigma=2, rounds=50 * levels,
                       branching=branching, levels=levels)
            .run()
        )
        assert report.within_bound, report.as_row()

    def test_bound_shape_hpts_vs_ppts_crossover(self):
        """For many destinations at low rate the HPTS *bound* beats the PPTS
        bound, and both algorithms respect their own bounds — the crossover
        the abstract describes."""
        branching, levels = 4, 3
        rho = 1.0 / levels
        n = branching**levels
        hpts, ppts = Session().run_many(
            Scenario.line(n)
            .algorithm(name, **params)
            .adversary("bounded", rho=rho, sigma=1, rounds=180, seed=1,
                       num_destinations=hierarchy_random_destinations(
                           n, branching, levels))
            .build()
            for name, params in (
                ("hpts", {"levels": levels, "branching": branching, "rho": rho}),
                ("ppts", {}),
            )
        )
        assert hpts.algorithm == "HPTS" and ppts.algorithm == "PPTS"
        assert hpts.within_bound
        assert ppts.within_bound
        # The HPTS guarantee is what scales: ell * n^(1/ell) + sigma + 1 stays
        # far below 1 + d + sigma once d is large.
        d = ppts.params["n"] - 1
        assert hpts.bound < 1 + d + 1
