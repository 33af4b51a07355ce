"""Unit tests for the deterministic fault-injection subsystem.

Fault plans are pure data: frozen, validated at construction and JSON
round-trippable.  The injector is the only mutable piece, and its contract —
crash/slow events fire exactly once, drop events hold a token count — is
what makes the job service's chaos runs replayable.
"""

from __future__ import annotations

import pytest

from repro.network.errors import ConfigurationError
from repro.network.faults import (
    FAULT_KINDS,
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
        for phase in SERVICE_FAULT_PHASES:
            event = FaultEvent(
                kind=kind, round=0, segment=0, phase=phase,
                delay=0.1 if kind == "slow" else 0.0,
            )
            assert event.kind == kind and event.phase == phase


@pytest.mark.parametrize("phase", ["begin", "select", "finish", "checkpoint"])
def test_retired_engine_phase_names_the_service_phases(phase):
    """The per-round phases of sharded-worker fault plans are gone; naming
    one is a typed error that lists what a plan may target."""
    assert SERVICE_FAULT_PHASES == ("queued", "running", "checkpointing",
                                    "draining")
    with pytest.raises(ConfigurationError) as excinfo:
        FaultEvent(kind="crash", round=0, segment=0, phase=phase)
    message = str(excinfo.value)
    for service_phase in SERVICE_FAULT_PHASES:
        assert service_phase in message


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "explode", "round": 0, "segment": 0, "phase": "running"},
        {"kind": "crash", "round": 0, "segment": 0, "phase": "warmup"},
        {"kind": "crash", "round": -1, "segment": 0, "phase": "running"},
        {"kind": "crash", "round": True, "segment": 0, "phase": "running"},
        {"kind": "crash", "round": 1.5, "segment": 0, "phase": "running"},
        {"kind": "crash", "round": 0, "segment": -2, "phase": "running"},
        # delay defaults to 0
        {"kind": "slow", "round": 0, "segment": 0, "phase": "running"},
        {"kind": "slow", "round": 0, "segment": 0, "phase": "running",
         "delay": -0.5},
        {"kind": "drop", "round": 0, "segment": 0, "phase": "queued",
         "count": 0},
        {"kind": "drop", "round": 0, "segment": 0, "phase": "queued",
         "count": True},
    ],
)
def test_event_rejects_bad_coordinates(kwargs):
    with pytest.raises(ConfigurationError):
        FaultEvent(**kwargs)


def test_event_from_dict_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigurationError, match="unknown keys"):
        FaultEvent.from_dict(
            {"kind": "crash", "round": 1, "segment": 0, "phase": "running",
             "severity": 9}
        )
    with pytest.raises(ConfigurationError, match="missing required key"):
        FaultEvent.from_dict({"kind": "crash", "round": 1})
    with pytest.raises(ConfigurationError, match="'phase'"):
        FaultEvent.from_dict({"kind": "crash", "round": 1, "segment": 0})
    with pytest.raises(ConfigurationError, match="JSON object"):
        FaultEvent.from_dict(["crash", 1, 0])  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# FaultPlan construction and JSON round-trip
# ---------------------------------------------------------------------------


def test_plan_coerces_event_lists_and_rejects_non_events():
    plan = FaultPlan(
        events=[FaultEvent(kind="crash", round=2, segment=1, phase="running")]
    )
    assert isinstance(plan.events, tuple)
    with pytest.raises(ConfigurationError, match="FaultEvent"):
        FaultPlan(events=({"kind": "crash"},))  # type: ignore[arg-type]


def test_plan_truthiness_and_hashability():
    assert not FaultPlan()
    plan = FaultPlan(
        events=(FaultEvent(kind="drop", round=0, segment=0, phase="queued"),)
    )
    assert plan
    assert hash(plan) == hash(FaultPlan(events=plan.events))


def test_plan_json_round_trip_is_exact():
    plan = FaultPlan(
        events=(
            FaultEvent(kind="crash", round=7, segment=1, phase="running"),
            FaultEvent(kind="slow", round=3, segment=0, phase="draining",
                       delay=0.25),
            FaultEvent(kind="drop", round=9, segment=2, phase="queued",
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


# ---------------------------------------------------------------------------
# FaultInjector consumption semantics
# ---------------------------------------------------------------------------


def test_crash_and_slow_fire_exactly_once():
    plan = FaultPlan(
        events=(
            FaultEvent(kind="crash", round=4, segment=1, phase="running"),
            FaultEvent(kind="slow", round=4, segment=1, phase="running",
                       delay=0.5),
        )
    )
    injector = FaultInjector(plan)
    assert injector.pending() == 2
    directive = injector.directives_for(4, 1, "running")
    assert directive == {"crash": True, "delay": 0.5}
    # Reaching the same coordinate again must not re-fire.
    assert injector.directives_for(4, 1, "running") is None
    assert injector.pending() == 0


def test_directives_ignore_non_matching_coordinates():
    injector = FaultInjector(
        FaultPlan(events=(
            FaultEvent(kind="crash", round=2, segment=0, phase="running"),
        ))
    )
    assert injector.directives_for(2, 1, "running") is None
    assert injector.directives_for(3, 0, "running") is None
    assert injector.directives_for(2, 0, "checkpointing") is None
    assert injector.pending() == 1


def test_drop_tokens_burn_one_per_failed_send():
    injector = FaultInjector(
        FaultPlan(events=(
            FaultEvent(kind="drop", round=6, segment=2, phase="queued",
                       count=2),
        ))
    )
    assert injector.drop_next_send(6, 2, "queued") is True
    assert injector.drop_next_send(6, 2, "queued") is True
    assert injector.drop_next_send(6, 2, "queued") is False
    assert injector.pending() == 0
    # Drops never surface through the crash/slow channel.
    fresh = FaultInjector(
        FaultPlan(events=(
            FaultEvent(kind="drop", round=1, segment=0, phase="queued"),
        ))
    )
    assert fresh.directives_for(1, 0, "queued") is None
    assert fresh.pending() == 1
