"""Unit tests for the deterministic fault-injection subsystem.

Fault plans are pure data: frozen, validated at construction, JSON
round-trippable, and reproducibly samplable from a seed.  The injector is
the only mutable piece, and its contract — crash/slow events fire exactly
once, drop events hold a token count — is what makes chaos runs replayable.
"""

from __future__ import annotations

import pytest

from repro.network.errors import ConfigurationError
from repro.network.faults import (
    FAULT_KINDS,
    FAULT_PHASES,
    SERVICE_FAULT_PHASES,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)


# ---------------------------------------------------------------------------
# FaultEvent validation
# ---------------------------------------------------------------------------


def test_event_accepts_every_kind_and_phase():
    for kind in FAULT_KINDS:
        for phase in FAULT_PHASES + SERVICE_FAULT_PHASES:
            event = FaultEvent(
                kind=kind, round=0, segment=0, phase=phase,
                delay=0.1 if kind == "slow" else 0.0,
            )
            assert event.kind == kind and event.phase == phase


def test_service_phases_are_disjoint_from_engine_phases():
    # Job-service plans reuse FaultEvent with lifecycle phases; the two
    # namespaces must never collide or a plan becomes ambiguous.
    assert set(FAULT_PHASES).isdisjoint(SERVICE_FAULT_PHASES)
    assert SERVICE_FAULT_PHASES == ("queued", "running", "checkpointing",
                                    "draining")


def test_unknown_phase_error_names_both_phase_lists():
    with pytest.raises(ConfigurationError) as excinfo:
        FaultEvent(kind="crash", round=0, segment=0, phase="warmup")
    message = str(excinfo.value)
    for phase in FAULT_PHASES + SERVICE_FAULT_PHASES:
        assert phase in message


def test_sample_never_draws_service_phases():
    # FaultPlan.sample targets the sharded engine; service plans are always
    # written explicitly (docs/SERVICE.md).
    plan = FaultPlan.sample(7, rounds=50, shards=4, events=12)
    assert all(event.phase in FAULT_PHASES for event in plan.events)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "explode", "round": 0, "segment": 0},
        {"kind": "crash", "round": 0, "segment": 0, "phase": "warmup"},
        {"kind": "crash", "round": -1, "segment": 0},
        {"kind": "crash", "round": True, "segment": 0},
        {"kind": "crash", "round": 1.5, "segment": 0},
        {"kind": "crash", "round": 0, "segment": -2},
        {"kind": "slow", "round": 0, "segment": 0},  # delay defaults to 0
        {"kind": "slow", "round": 0, "segment": 0, "delay": -0.5},
        {"kind": "drop", "round": 0, "segment": 0, "count": 0},
        {"kind": "drop", "round": 0, "segment": 0, "count": True},
    ],
)
def test_event_rejects_bad_coordinates(kwargs):
    with pytest.raises(ConfigurationError):
        FaultEvent(**kwargs)


def test_event_from_dict_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigurationError, match="unknown keys"):
        FaultEvent.from_dict(
            {"kind": "crash", "round": 1, "segment": 0, "severity": 9}
        )
    with pytest.raises(ConfigurationError, match="missing required key"):
        FaultEvent.from_dict({"kind": "crash", "round": 1})
    with pytest.raises(ConfigurationError, match="JSON object"):
        FaultEvent.from_dict(["crash", 1, 0])  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# FaultPlan construction and JSON round-trip
# ---------------------------------------------------------------------------


def test_plan_coerces_event_lists_and_rejects_non_events():
    plan = FaultPlan(events=[FaultEvent(kind="crash", round=2, segment=1)])
    assert isinstance(plan.events, tuple)
    with pytest.raises(ConfigurationError, match="FaultEvent"):
        FaultPlan(events=({"kind": "crash"},))  # type: ignore[arg-type]


def test_plan_truthiness_and_hashability():
    assert not FaultPlan()
    plan = FaultPlan(events=(FaultEvent(kind="drop", round=0, segment=0),))
    assert plan
    assert hash(plan) == hash(FaultPlan(events=plan.events))


def test_plan_json_round_trip_is_exact():
    plan = FaultPlan(
        events=(
            FaultEvent(kind="crash", round=7, segment=1, phase="select"),
            FaultEvent(kind="slow", round=3, segment=0, delay=0.25),
            FaultEvent(kind="drop", round=9, segment=2, phase="finish",
                       count=2),
        ),
        seed=99,
    )
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_plan_from_json_rejects_garbage_and_bad_versions():
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        FaultPlan.from_json("{nope")
    with pytest.raises(ConfigurationError, match="version"):
        FaultPlan.from_dict({"version": 999, "events": []})
    with pytest.raises(ConfigurationError, match="unknown keys"):
        FaultPlan.from_dict({"events": [], "bonus": True})
    with pytest.raises(ConfigurationError, match="must be a list"):
        FaultPlan.from_dict({"events": "crash"})


def test_sample_is_a_pure_function_of_its_arguments():
    first = FaultPlan.sample(42, rounds=50, shards=4)
    second = FaultPlan.sample(42, rounds=50, shards=4)
    other = FaultPlan.sample(43, rounds=50, shards=4)
    assert first == second
    assert first != other
    assert first.seed == 42
    assert len(first.events) == 3
    for event in first.events:
        assert 0 <= event.round < 50
        assert 0 <= event.segment < 4


def test_sample_validates_bounds_and_kinds():
    with pytest.raises(ConfigurationError):
        FaultPlan.sample(1, rounds=0, shards=2)
    with pytest.raises(ConfigurationError):
        FaultPlan.sample(1, rounds=5, shards=2, kinds=("crash", "meteor"))
    crashes_only = FaultPlan.sample(7, rounds=5, shards=2, events=5,
                                    kinds=("crash",))
    assert all(event.kind == "crash" for event in crashes_only.events)


# ---------------------------------------------------------------------------
# FaultInjector consumption semantics
# ---------------------------------------------------------------------------


def test_crash_and_slow_fire_exactly_once():
    plan = FaultPlan(
        events=(
            FaultEvent(kind="crash", round=4, segment=1, phase="begin"),
            FaultEvent(kind="slow", round=4, segment=1, phase="begin",
                       delay=0.5),
        )
    )
    injector = FaultInjector(plan)
    assert injector.pending() == 2
    directive = injector.directives_for(4, 1, "begin")
    assert directive == {"crash": True, "delay": 0.5}
    # A recovered run replaying the same round must not re-fire.
    assert injector.directives_for(4, 1, "begin") is None
    assert injector.pending() == 0


def test_directives_ignore_non_matching_coordinates():
    injector = FaultInjector(
        FaultPlan(events=(FaultEvent(kind="crash", round=2, segment=0),))
    )
    assert injector.directives_for(2, 1, "begin") is None
    assert injector.directives_for(3, 0, "begin") is None
    assert injector.directives_for(2, 0, "select") is None
    assert injector.pending() == 1


def test_drop_tokens_burn_one_per_failed_send():
    injector = FaultInjector(
        FaultPlan(events=(
            FaultEvent(kind="drop", round=6, segment=2, phase="select",
                       count=2),
        ))
    )
    assert injector.drop_next_send(6, 2, "select") is True
    assert injector.drop_next_send(6, 2, "select") is True
    assert injector.drop_next_send(6, 2, "select") is False
    assert injector.pending() == 0
    # Drops never surface through the crash/slow channel.
    fresh = FaultInjector(
        FaultPlan(events=(FaultEvent(kind="drop", round=1, segment=0),))
    )
    assert fresh.directives_for(1, 0, "begin") is None
    assert fresh.pending() == 1
