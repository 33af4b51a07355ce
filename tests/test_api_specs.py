"""Unit tests for the declarative spec layer (repro.api.specs)."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    AdversarySpec,
    AlgorithmSpec,
    RunPolicy,
    Scenario,
    ScenarioSpec,
    SpecError,
    TopologySpec,
)


def _full_spec() -> ScenarioSpec:
    return (
        Scenario.line(64)
        .algorithm("hpts", levels=3, branching=4, rho=1 / 3)
        .adversary("hierarchy", rho=1 / 3, sigma=2, rounds=90, branching=4, levels=3)
        .policy(seed=7, record_history=True)
        .named("round-trip")
        .build()
    )


class TestValidation:
    def test_rho_out_of_range(self):
        with pytest.raises(SpecError):
            AdversarySpec(rho=0.0)
        with pytest.raises(SpecError):
            AdversarySpec(rho=1.5)

    def test_negative_sigma(self):
        with pytest.raises(SpecError):
            AdversarySpec(sigma=-1)

    @pytest.mark.parametrize("field", ["rho", "sigma"])
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), True],
        ids=["nan", "inf", "-inf", "bool"],
    )
    def test_rho_and_sigma_must_be_finite_non_bool_reals(self, field, value):
        with pytest.raises(SpecError, match=f"AdversarySpec.{field}"):
            AdversarySpec(**{field: value})

    def test_non_finite_sigma_in_json_rejected(self):
        # Python's json parses NaN and Infinity, so a spec file can carry them.
        payload = json.loads(_full_spec().to_json())
        payload["adversary"]["sigma"] = float("nan")
        with pytest.raises(SpecError):
            ScenarioSpec.from_json(json.dumps(payload))

    def test_rounds_must_be_non_negative_int(self):
        with pytest.raises(SpecError):
            AdversarySpec(rounds=-1)
        with pytest.raises(SpecError):
            AdversarySpec(rounds=2.5)  # type: ignore[arg-type]

    def test_empty_names_rejected(self):
        with pytest.raises(SpecError):
            AlgorithmSpec(name="")
        with pytest.raises(SpecError):
            TopologySpec(kind="")

    def test_params_must_be_json_serialisable(self):
        with pytest.raises(SpecError):
            AlgorithmSpec("ppts", {"bad": object()})

    def test_params_must_be_a_mapping(self):
        with pytest.raises(SpecError):
            AlgorithmSpec("ppts", [1, 2])  # type: ignore[arg-type]

    def test_policy_field_types(self):
        with pytest.raises(SpecError):
            RunPolicy(rounds=-1)
        with pytest.raises(SpecError):
            RunPolicy(drain="yes")  # type: ignore[arg-type]
        with pytest.raises(SpecError):
            RunPolicy(seed="abc")  # type: ignore[arg-type]

    @pytest.mark.parametrize(
        "field", ("rounds", "max_drain_rounds", "checkpoint_every", "seed")
    )
    def test_policy_integer_fields_reject_booleans(self, field):
        extra = {"checkpoint_path": "run.ckpt"} if field == "checkpoint_every" else {}
        with pytest.raises(SpecError, match=f"RunPolicy.{field}"):
            RunPolicy(**{field: True}, **extra)
        with pytest.raises(SpecError, match=f"RunPolicy.{field}"):
            RunPolicy.from_dict({field: True, **extra})

    def test_scenario_requires_spec_components(self):
        with pytest.raises(SpecError):
            ScenarioSpec(topology={"kind": "line"})  # type: ignore[arg-type]

    def test_unknown_keys_rejected_in_from_dict(self):
        with pytest.raises(SpecError):
            TopologySpec.from_dict({"kind": "line", "bogus": 1})
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict({"topologyy": {}})

    def test_builder_requires_algorithm_and_adversary(self):
        with pytest.raises(SpecError):
            Scenario.line(8).adversary("burst").build()
        with pytest.raises(SpecError):
            Scenario.line(8).algorithm("pts").build()


class TestRoundTrip:
    def test_dict_round_trip_is_equality(self):
        spec = _full_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_is_equality(self):
        spec = _full_spec()
        clone = ScenarioSpec.from_json(spec.to_json(indent=2))
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()
        assert hash(clone) == hash(spec)

    def test_json_layout_matches_documented_schema(self):
        payload = json.loads(_full_spec().to_json())
        assert set(payload) == {"topology", "algorithm", "adversary", "policy", "name"}
        assert payload["topology"] == {"kind": "line", "params": {"num_nodes": 64}}
        assert payload["adversary"]["rho"] == pytest.approx(1 / 3)
        assert payload["policy"]["seed"] == 7

    def test_invalid_json_raises_spec_error(self):
        with pytest.raises(SpecError):
            ScenarioSpec.from_json("{not json")

    def test_params_normalised_so_tuples_compare_equal(self):
        a = AlgorithmSpec("tree-ppts", {"destinations": (1, 2, 3)})
        b = AlgorithmSpec("tree-ppts", {"destinations": [1, 2, 3]})
        assert a == b

    def test_distinct_specs_have_distinct_hashes(self):
        assert TopologySpec.line(8).spec_hash() != TopologySpec.line(9).spec_hash()

    def test_label_defaults_to_quadruple(self):
        spec = ScenarioSpec()
        assert spec.label == "line/bounded/ppts"
        assert _full_spec().label == "round-trip"


class TestBuilder:
    def test_fluent_chain_builds_expected_spec(self):
        spec = (
            Scenario.line(16)
            .algorithm("pts")
            .adversary("burst", rho=0.5, sigma=1, rounds=40)
            .rounds(30)
            .drain(False)
            .seed(11)
            .build()
        )
        assert spec.topology == TopologySpec.line(16)
        assert spec.algorithm.name == "pts"
        assert spec.adversary.rho == 0.5
        assert spec.policy.rounds == 30
        assert spec.policy.drain is False
        assert spec.policy.seed == 11

    def test_from_spec_round_trips_through_builder(self):
        spec = _full_spec()
        assert Scenario.from_spec(spec).build() == spec
