"""Deterministic fault injection for the sharded runtime.

Chaos testing is only useful when a failing run can be replayed exactly, so
faults here are *data*, not monkey-patching: a :class:`FaultPlan` is a frozen,
JSON-serializable list of :class:`FaultEvent` records ("crash worker 1 at
round 7 during the select phase", "drop the next two sends to worker 0",
"slow worker 2 by 300 ms").  The plan travels as the ``faults`` argument of
:func:`~repro.network.sharded.run_sharded` (and ``Session.run``) — never
through the :class:`~repro.api.specs.ScenarioSpec` — so a chaos run and its
fault-free twin share byte-identical specs, spec hashes and checkpoint
headers.  That is what lets the differential recovery suite compare them bit
for bit.

Workers run ``batch_rounds``-round windows, so a window carries the
``begin`` / ``select`` / ``finish`` events of its rounds merged into one
directive per round, fired at the start of that round: delays add up, and a
crash in any of the three phases crashes the round.  ``checkpoint`` events
fire when the worker takes its periodic snapshot.

Plans can be written by hand, loaded from JSON (``FaultPlan.from_json``) or
drawn reproducibly from a seed (``FaultPlan.sample``), which uses
``random.Random(seed)`` only — the module never touches global RNG state.

The mutable side lives in :class:`FaultInjector`: the coordinator consults it
once per (round, segment, phase) edge.  Crash/slow events fire exactly once
and stay fired across recovery respawns (a replayed round must not re-kill
the replacement worker); drop events hold a token count that each
simulated send failure decrements.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import ConfigurationError

__all__ = [
    "FAULT_KINDS",
    "FAULT_PHASES",
    "SERVICE_FAULT_PHASES",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
]

#: Supported failure modes.  ``crash`` kills the worker (a hard process
#: exit), ``slow`` delays the worker before it serves the phase (tripping
#: ``heartbeat_timeout`` when the delay exceeds it), and ``drop`` makes the
#: coordinator's next ``count`` sends to the worker fail, exercising the
#: bounded retry-with-backoff path.
FAULT_KINDS = ("crash", "slow", "drop")

#: Per-round phases a fault can target; ``checkpoint`` covers the periodic
#: per-segment snapshot command between windows.
FAULT_PHASES = ("begin", "select", "finish", "checkpoint")

#: Job-lifecycle phases the service layer (:mod:`repro.service`) targets
#: with the same plan machinery.  Coordinates there read differently —
#: ``segment`` is the job's admission index and ``round`` the attempt
#: number — but the algebra (fire-once crash/slow, token-counted drop,
#: JSON round-trip, seeded sampling) is shared.  ``FaultPlan.sample`` only
#: draws from :data:`FAULT_PHASES`; service plans are written explicitly.
SERVICE_FAULT_PHASES = ("queued", "running", "checkpointing", "draining")

_PLAN_VERSION = 1


@dataclass(frozen=True)
class FaultEvent:
    """One injected failure, pinned to a (round, segment, phase) coordinate.

    ``segment`` indexes the *current* segment plan: after a ``fold`` recovery
    merges two segments, surviving workers are renumbered and later events
    target the new indices.  Events whose coordinate never occurs (round past
    the horizon, segment out of range) simply never fire.
    """

    kind: str
    round: int
    segment: int
    phase: str = "begin"
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
        if self.phase not in FAULT_PHASES and self.phase not in SERVICE_FAULT_PHASES:
            raise ConfigurationError(
                f"unknown fault phase {self.phase!r}; expected a per-round "
                f"phase {list(FAULT_PHASES)} or a service job-lifecycle "
                f"phase {list(SERVICE_FAULT_PHASES)}"
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
        for required in ("kind", "round", "segment"):
            if required not in payload:
                raise ConfigurationError(
                    f"fault event is missing required key {required!r}"
                )
        return cls(
            kind=payload["kind"],
            round=payload["round"],
            segment=payload["segment"],
            phase=payload.get("phase", "begin"),
            delay=payload.get("delay", 0.0),
            count=payload.get("count", 1),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, replayable schedule of injected failures.

    Plans are hashable and round-trip through JSON unchanged, so a chaos run
    can be attached to a bug report and replayed byte-identically.  ``seed``
    records provenance when the plan was drawn by :meth:`sample`; it does
    not affect execution.
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

    @classmethod
    def sample(
        cls,
        seed: int,
        *,
        rounds: int,
        shards: int,
        events: int = 3,
        kinds: Sequence[str] = FAULT_KINDS,
        max_delay: float = 0.05,
    ) -> "FaultPlan":
        """Draw a reproducible random plan: same seed, same plan, always.

        Uses a private ``random.Random(seed)`` stream (never the global RNG)
        so sampling a plan cannot perturb anything else, and the plan is a
        pure function of its arguments.
        """
        if rounds < 1 or shards < 1:
            raise ConfigurationError(
                f"FaultPlan.sample needs rounds >= 1 and shards >= 1, got "
                f"rounds={rounds}, shards={shards}"
            )
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ConfigurationError(
                    f"unknown fault kind {kind!r}; expected a subset of "
                    f"{list(FAULT_KINDS)}"
                )
        rng = random.Random(seed)
        drawn: List[FaultEvent] = []
        for _ in range(events):
            kind = rng.choice(list(kinds))
            drawn.append(
                FaultEvent(
                    kind=kind,
                    round=rng.randrange(rounds),
                    segment=rng.randrange(shards),
                    phase=rng.choice(list(FAULT_PHASES)),
                    delay=(
                        rng.uniform(0.001, max_delay) if kind == "slow" else 0.0
                    ),
                    count=rng.randint(1, 2) if kind == "drop" else 1,
                )
            )
        return cls(events=tuple(drawn), seed=seed)


class FaultInjector:
    """Mutable coordinator-side cursor over a :class:`FaultPlan`.

    Lives in the coordinator (one per run, surviving recovery attempts) and
    is consulted at every (round, segment, phase) edge.  Crash and slow
    events are consumed the first time their coordinate is reached — a
    recovered run that replays the same round does not re-fire them.
    Drop events expose per-event token counts through :meth:`drop_next_send`.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, plan: FaultPlan) -> None:
        self._events: Tuple[FaultEvent, ...] = plan.events
        self._remaining: List[int] = [
            event.count if event.kind == "drop" else 1
            for event in plan.events
        ]

    def directives_for(
        self,
        round_number: int,
        segment: int,
        phase: str,
        fired: Optional[List[int]] = None,
    ) -> Optional[Dict[str, Any]]:
        """Worker-bound directives (crash / slow) for one phase command.

        Returns ``None`` when nothing fires, else a payload dict shipped to
        the worker inside the phase command.  Matching events are consumed;
        their plan indices are appended to ``fired`` when it is given, so a
        caller that ships directives ahead of execution can :meth:`rearm`
        the ones that never ran.
        """
        crash = False
        delay = 0.0
        for index, event in enumerate(self._events):
            if event.kind == "drop" or self._remaining[index] <= 0:
                continue
            if (event.round == round_number and event.segment == segment
                    and event.phase == phase):
                self._remaining[index] = 0
                if fired is not None:
                    fired.append(index)
                if event.kind == "crash":
                    crash = True
                else:
                    delay += event.delay
        if not crash and delay == 0.0:
            return None
        return {"crash": crash, "delay": delay}

    def rearm(self, indices: Iterable[int]) -> None:
        """Make consumed crash / slow events fire again at their coordinate."""
        for index in indices:
            self._remaining[index] = 1

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
