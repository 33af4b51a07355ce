"""Unit tests for the string-keyed registries (repro.api.registry)."""

from __future__ import annotations

import pytest

from repro.adversary.bounded import check_bounded
from repro.api import (
    ADVERSARIES,
    ALGORITHMS,
    TOPOLOGIES,
    Registry,
    RegistryError,
    Scenario,
    Session,
    SpecError,
)


class TestBuiltInRegistration:
    def test_seed_algorithms_registered(self):
        for name in ("pts", "ppts", "hpts", "local", "downhill", "greedy",
                     "tree-pts", "tree-ppts"):
            assert name in ALGORITHMS

    def test_seed_adversaries_registered(self):
        for name in ("burst", "round-robin", "nested", "hierarchy", "bounded",
                     "single", "bursty", "saturating", "convergecast",
                     "hotspot", "blocking", "lower-bound"):
            assert name in ADVERSARIES

    def test_seed_topologies_registered(self):
        for kind in ("line", "tree", "forest"):
            assert kind in TOPOLOGIES

    def test_aliases_resolve_to_canonical_entries(self):
        assert ADVERSARIES.get("stress") is ADVERSARIES.get("burst")
        assert ADVERSARIES.get("random") is ADVERSARIES.get("bounded")
        assert ADVERSARIES.get("round_robin") is ADVERSARIES.get("round-robin")
        assert ALGORITHMS.get("tree_ppts") is ALGORITHMS.get("tree-ppts")


class TestLookupErrors:
    def test_unknown_key_raises_registry_error_listing_known_keys(self):
        with pytest.raises(RegistryError) as excinfo:
            ALGORITHMS.get("magic")
        message = str(excinfo.value)
        assert "magic" in message
        assert "ppts" in message  # the error names the registered keys

    def test_registry_error_is_a_key_error(self):
        with pytest.raises(KeyError):
            TOPOLOGIES.get("torus")

    def test_unknown_names_surface_through_session(self):
        with pytest.raises(RegistryError):
            Session().run(
                Scenario.line(8).algorithm("nope").adversary("burst").build()
            )
        with pytest.raises(RegistryError):
            Session().run(
                Scenario.line(8).algorithm("pts").adversary("nope").build()
            )
        with pytest.raises(RegistryError):
            Session().run(
                Scenario.topology("torus", num_nodes=8)
                .algorithm("pts")
                .adversary("burst")
                .build()
            )


class TestCustomRegistration:
    def test_decorator_registration_and_replacement(self):
        registry = Registry("widget")

        @registry.register("alpha", aliases=("a",))
        def build_alpha():
            return "alpha-1"

        assert registry.get("a") is build_alpha
        assert registry.names() == ["alpha"]

        @registry.register("alpha")
        def build_alpha_v2():
            return "alpha-2"

        assert registry.get("alpha") is build_alpha_v2  # replaced, not duplicated
        assert len(registry) == 1

    def test_canonical_registration_overrides_same_named_alias(self):
        registry = Registry("widget")

        @registry.register("alpha", aliases=("a",))
        def build_alpha():
            return "alpha"

        @registry.register("a")
        def build_a():
            return "a"

        assert registry.get("a") is build_a  # the alias no longer shadows it
        assert registry.get("alpha") is build_alpha

    def test_custom_algorithm_is_runnable_from_a_spec(self):
        from repro.api import register_algorithm
        from repro.core.pts import PeakToSink

        @register_algorithm("test-pts-variant")
        def build_variant(topology, **params):
            return PeakToSink(topology, **params)

        try:
            report = (
                Scenario.line(16)
                .algorithm("test-pts-variant")
                .adversary("burst", rho=1.0, sigma=1, rounds=30)
                .run()
            )
            assert report.within_bound
        finally:
            ALGORITHMS._entries.pop("test-pts-variant", None)

    def test_bad_discipline_string_is_a_spec_error(self):
        with pytest.raises(SpecError):
            Session().run(
                Scenario.line(8)
                .algorithm("pts", discipline="SILLY")
                .adversary("burst", rounds=10)
                .build()
            )


def _assert_bounded_at_declared_envelope(prepared, rho, sigma):
    adversary = prepared.adversary
    assert adversary.rho == rho
    assert adversary.sigma >= sigma
    report = check_bounded(
        adversary, prepared.topology, adversary.rho, adversary.sigma
    )
    assert report.bounded, report


class TestRegisteredAdversariesKeepTheirEnvelope:
    """A run's bound is computed from the ``sigma`` its adversary declares,
    so every oblivious adversary that a spec names must build a pattern that
    is bounded at the envelope it declares, once the registry has translated
    the spec's parameters for its generator.  The declared envelope keeps the
    spec's ``rho`` and never undercuts its ``sigma`` (``trickle`` raises a
    ``sigma`` of 0 to 1)."""

    @pytest.mark.parametrize(
        "scenario, rho, sigma",
        [
            (Scenario.line(24), 1.0, 2),
            (Scenario.line(24), 0.5, 0),
        ],
        ids=["rho1-sigma2", "rho0.5-sigma0"],
    )
    @pytest.mark.parametrize(
        "name, params",
        [
            ("burst", {}),
            ("single", {"seed": 1}),
            ("bounded", {"seed": 1}),
            ("bounded", {"seed": 2, "num_destinations": 6}),
            ("round-robin", {"num_destinations": 6}),
            ("nested", {"num_destinations": 6}),
            ("saturating", {"seed": 3, "num_destinations": 4}),
            ("bursty", {"seed": 4, "num_destinations": 4, "burst_period": 8}),
            ("trickle", {"seed": 5}),
        ],
        ids=["burst", "single", "bounded", "bounded-multi", "round-robin",
             "nested", "saturating", "bursty", "trickle"],
    )
    def test_line_adversary_is_bounded_at_the_spec_envelope(
        self, scenario, rho, sigma, name, params
    ):
        spec = scenario.algorithm("ppts").adversary(
            name, rho=rho, sigma=sigma, rounds=60, **params
        ).build()
        prepared = Session().prepare(spec)
        _assert_bounded_at_declared_envelope(prepared, rho, sigma)

    def test_hierarchy_adversary_is_bounded_at_the_spec_envelope(self):
        spec = (
            Scenario.line(64)
            .algorithm("hpts", levels=3, branching=4, rho=1 / 3)
            .adversary("hierarchy", rho=1 / 3, sigma=2, rounds=90,
                       branching=4, levels=3)
            .build()
        )
        prepared = Session().prepare(spec)
        assert prepared.topology.num_nodes == 64
        _assert_bounded_at_declared_envelope(prepared, 1 / 3, 2)

    @pytest.mark.parametrize("name", ["convergecast", "bounded"])
    def test_tree_adversary_is_bounded_at_the_spec_envelope(self, name):
        session = Session()
        root_only = (
            Scenario.tree("caterpillar", spine_length=5, legs_per_node=1)
            .algorithm("tree-pts")
            .adversary(name, rho=1.0, sigma=1, rounds=40)
            .build()
        )
        tree = session.topology(root_only.topology)
        spine = [v for v in tree.nodes if tree.children(v)]
        spec = (
            Scenario.tree("caterpillar", spine_length=5, legs_per_node=1)
            .algorithm("tree-ppts", destinations=spine)
            .adversary(name, rho=1.0, sigma=1, rounds=40, destinations=spine)
            .seed(3)
            .build()
        )
        for candidate in (root_only, spec):
            _assert_bounded_at_declared_envelope(session.prepare(candidate), 1.0, 1)
        destinations = session.prepare(spec).adversary.destinations()
        assert destinations and set(destinations) <= set(spine)
