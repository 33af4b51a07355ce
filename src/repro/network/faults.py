"""Deterministic fault injection for the job service.

Chaos testing is only useful when a failing run can be replayed exactly, so
faults here are *data*, not monkey-patching: a :class:`FaultPlan` is a frozen,
JSON-serializable list of :class:`FaultEvent` records ("crash the worker of
job 1 on its first attempt while it checkpoints", "lose the submit reply of
job 0", "stall job 2's worker by 300 ms").  :mod:`repro.service` reads the
plan given to ``repro service serve --faults``; events target
``(round=attempt, segment=admission index, phase)`` with the job-lifecycle
phases of :data:`SERVICE_FAULT_PHASES` (docs/SERVICE.md gives the semantics
of each (kind, phase) pair).

Plans can be written by hand or loaded from JSON (``FaultPlan.from_json``).

The mutable side lives in :class:`FaultInjector`: the server consults it at
every (attempt, job, phase) edge.  Crash/slow events fire exactly once; drop
events hold a token count that each simulated send failure decrements.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .errors import ConfigurationError

__all__ = [
    "FAULT_KINDS",
    "SERVICE_FAULT_PHASES",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
]

#: Supported failure modes.  ``crash`` kills the process (a hard exit),
#: ``slow`` stalls it before it serves the phase, and ``drop`` loses the
#: next ``count`` sends of the phase.
FAULT_KINDS = ("crash", "slow", "drop")

#: Job-lifecycle phases a fault can target (:mod:`repro.service`):
#: ``segment`` is the job's admission index and ``round`` the attempt
#: number.
SERVICE_FAULT_PHASES = ("queued", "running", "checkpointing", "draining")

_PLAN_VERSION = 1


@dataclass(frozen=True)
class FaultEvent:
    """One injected failure, pinned to a (round, segment, phase) coordinate.

    Events whose coordinate never occurs (an attempt that never runs, an
    admission index never reached) simply never fire.
    """

    kind: str
    round: int
    segment: int
    phase: str
    #: ``slow`` only: seconds the worker sleeps before serving the phase.
    delay: float = 0.0
    #: ``drop`` only: how many consecutive send attempts fail.
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{list(FAULT_KINDS)}"
            )
        if self.phase not in SERVICE_FAULT_PHASES:
            raise ConfigurationError(
                f"unknown fault phase {self.phase!r}; expected a service "
                f"job-lifecycle phase {list(SERVICE_FAULT_PHASES)}"
            )
        if not isinstance(self.round, int) or isinstance(self.round, bool) \
                or self.round < 0:
            raise ConfigurationError(
                f"fault round must be a non-negative int, got {self.round!r}"
            )
        if not isinstance(self.segment, int) or isinstance(self.segment, bool) \
                or self.segment < 0:
            raise ConfigurationError(
                f"fault segment must be a non-negative int, got "
                f"{self.segment!r}"
            )
        if self.kind == "slow":
            if not isinstance(self.delay, (int, float)) \
                    or isinstance(self.delay, bool) or self.delay <= 0:
                raise ConfigurationError(
                    f"slow fault needs delay > 0 seconds, got {self.delay!r}"
                )
        if self.kind == "drop":
            if not isinstance(self.count, int) or isinstance(self.count, bool) \
                    or self.count < 1:
                raise ConfigurationError(
                    f"drop fault needs count >= 1, got {self.count!r}"
                )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "round": self.round,
            "segment": self.segment,
            "phase": self.phase,
            "delay": self.delay,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultEvent":
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"fault event must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        unknown = set(payload) - {"kind", "round", "segment", "phase",
                                  "delay", "count"}
        if unknown:
            raise ConfigurationError(
                f"fault event has unknown keys {sorted(unknown)}"
            )
        for required in ("kind", "round", "segment", "phase"):
            if required not in payload:
                raise ConfigurationError(
                    f"fault event is missing required key {required!r}"
                )
        return cls(
            kind=payload["kind"],
            round=payload["round"],
            segment=payload["segment"],
            phase=payload["phase"],
            delay=payload.get("delay", 0.0),
            count=payload.get("count", 1),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, replayable schedule of injected failures.

    Plans are hashable and round-trip through JSON unchanged, so a chaos run
    can be attached to a bug report and replayed byte-identically.  ``seed``
    is an optional provenance label (say, the seed a test drew the plan
    from); it does not affect execution.
    """

    events: Tuple[FaultEvent, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise ConfigurationError(
                    f"FaultPlan events must be FaultEvent instances, got "
                    f"{type(event).__name__}"
                )

    def __bool__(self) -> bool:
        return bool(self.events)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": _PLAN_VERSION,
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"fault plan must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        version = payload.get("version", _PLAN_VERSION)
        if version != _PLAN_VERSION:
            raise ConfigurationError(
                f"fault plan version {version!r} is not supported (this "
                f"library reads version {_PLAN_VERSION})"
            )
        unknown = set(payload) - {"version", "seed", "events"}
        if unknown:
            raise ConfigurationError(
                f"fault plan has unknown keys {sorted(unknown)}"
            )
        events = payload.get("events", [])
        if not isinstance(events, (list, tuple)):
            raise ConfigurationError(
                f"fault plan 'events' must be a list, got "
                f"{type(events).__name__}"
            )
        return cls(
            events=tuple(FaultEvent.from_dict(event) for event in events),
            seed=payload.get("seed"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"fault plan is not valid JSON: {error}"
            ) from error
        return cls.from_dict(payload)


class FaultInjector:
    """Mutable server-side cursor over a :class:`FaultPlan`.

    Lives in the server (one per plan, surviving job retries) and is
    consulted at every (attempt, job, phase) edge.  Crash and slow events are
    consumed the first time their coordinate is reached.  Drop events expose
    per-event token counts through :meth:`drop_next_send`.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, plan: FaultPlan) -> None:
        self._events: Tuple[FaultEvent, ...] = plan.events
        self._remaining: List[int] = [
            event.count if event.kind == "drop" else 1
            for event in plan.events
        ]

    def directives_for(
        self, round_number: int, segment: int, phase: str
    ) -> Optional[Dict[str, Any]]:
        """The crash / slow directive for one coordinate.

        Returns ``None`` when nothing fires, else ``{"crash": bool,
        "delay": seconds}``.  Matching events are consumed.
        """
        crash = False
        delay = 0.0
        for index, event in enumerate(self._events):
            if event.kind == "drop" or self._remaining[index] <= 0:
                continue
            if (event.round == round_number and event.segment == segment
                    and event.phase == phase):
                self._remaining[index] = 0
                if event.kind == "crash":
                    crash = True
                else:
                    delay += event.delay
        if not crash and delay == 0.0:
            return None
        return {"crash": crash, "delay": delay}

    def drop_next_send(
        self, round_number: int, segment: int, phase: str
    ) -> bool:
        """Whether the next send for this phase command should be lost.

        Each call that returns ``True`` burns one token of one matching
        ``drop`` event, so an event with ``count=2`` fails exactly two
        consecutive attempts and then lets the retry through.
        """
        for index, event in enumerate(self._events):
            if event.kind != "drop" or self._remaining[index] <= 0:
                continue
            if (event.round == round_number and event.segment == segment
                    and event.phase == phase):
                self._remaining[index] -= 1
                return True
        return False

    def pending(self) -> int:
        """How many events have not fully fired yet (diagnostics only)."""
        return sum(1 for remaining in self._remaining if remaining > 0)
