"""Frozen declarative specs for the scenario quadruple.

Every simulation the library can run is described by a
:class:`ScenarioSpec` — the composition of

* a :class:`TopologySpec` (*where* packets travel),
* an :class:`AdversarySpec` (*what* traffic arrives, and its declared
  ``(rho, sigma)`` bound),
* an :class:`AlgorithmSpec` (*how* packets are forwarded), and
* a :class:`RunPolicy` (*how* the execution is driven and observed).

Specs are frozen dataclasses with strict validation, dict/JSON round-tripping
(``ScenarioSpec.from_dict(spec.to_dict()) == spec``) and a stable canonical
hash used by :class:`repro.api.session.Session` to cache shared topology
construction.  ``params`` mappings are normalised through JSON at
construction time, so a spec is JSON-serialisable by construction — putting a
non-serialisable object in ``params`` fails fast, not at save time.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Type, TypeVar

from ..network.errors import ConfigurationError

__all__ = [
    "SpecError",
    "TopologySpec",
    "AdversarySpec",
    "AlgorithmSpec",
    "RunPolicy",
    "ScenarioSpec",
]


class SpecError(ConfigurationError):
    """A malformed or inconsistent scenario spec."""


_SpecT = TypeVar("_SpecT", bound="_SpecBase")

#: Policy keys retired with sharded-worker recovery, each with the one value
#: a file may still carry: its old default.  :meth:`RunPolicy.from_dict`
#: drops them, and :func:`repro.checkpoint.resume_spec_hash` hashes them at
#: these values, so spec files, checkpoints and service journals written
#: before the retirement still load and verify.
RETIRED_POLICY_FIELDS: Dict[str, Any] = {
    "recovery": "fail",
    "max_worker_restarts": 3,
    "heartbeat_timeout": None,
}


def _normalize_params(params: Optional[Mapping[str, Any]], owner: str) -> Dict[str, Any]:
    """Copy ``params`` through JSON: validates serialisability and makes the
    stored form identical to what ``from_dict`` reconstructs (tuples become
    lists, keys become strings), so round-trip equality holds."""
    if params is None:
        return {}
    if not isinstance(params, Mapping):
        raise SpecError(f"{owner} params must be a mapping, got {type(params).__name__}")
    try:
        return json.loads(json.dumps(dict(params), sort_keys=True))
    except TypeError as error:
        raise SpecError(f"{owner} params are not JSON-serialisable: {error}") from None


def _require_str(value: Any, what: str) -> None:
    if not isinstance(value, str) or not value:
        raise SpecError(f"{what} must be a non-empty string, got {value!r}")


def _require_finite_real(value: Any, what: str) -> float:
    """``value`` as a float; it must be a finite int or float, not a bool."""
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not math.isfinite(value)
    ):
        raise SpecError(f"{what} must be a finite real number, got {value!r}")
    return float(value)


def _check_keys(payload: Mapping[str, Any], allowed: set, what: str) -> None:
    if not isinstance(payload, Mapping):
        raise SpecError(f"{what} must be a mapping, got {type(payload).__name__}")
    unknown = set(payload) - allowed
    if unknown:
        raise SpecError(
            f"unknown key(s) {sorted(unknown)} in {what}; allowed: {sorted(allowed)}"
        )


class _SpecBase:
    """Shared dict/JSON plumbing for the frozen spec dataclasses."""

    def to_dict(self) -> Dict[str, Any]:
        result: Dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, _SpecBase):
                value = value.to_dict()
            result[spec_field.name] = value
        return result

    @classmethod
    def from_dict(cls: Type[_SpecT], payload: Mapping[str, Any]) -> _SpecT:
        _check_keys(payload, {f.name for f in fields(cls)}, cls.__name__)
        return cls(**dict(payload))

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls: Type[_SpecT], text: str) -> _SpecT:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"invalid spec JSON: {error}") from None
        return cls.from_dict(payload)

    def canonical_json(self) -> str:
        """A stable serialisation: equal specs produce identical strings."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def spec_hash(self) -> str:
        """A short stable digest (cache keys, run labels)."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    def __hash__(self) -> int:
        return hash(self.canonical_json())


@dataclass(frozen=True)
class TopologySpec(_SpecBase):
    """Which network to build: a registered topology kind plus its params.

    ``kind`` is a key of :data:`repro.api.registry.TOPOLOGIES` (seed library:
    ``"line"``, ``"tree"``, ``"forest"``); ``params`` are passed verbatim to
    the registered builder.
    """

    kind: str = "line"
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require_str(self.kind, "TopologySpec.kind")
        object.__setattr__(self, "params", _normalize_params(self.params, "topology"))

    # -- convenience constructors ------------------------------------------------

    @classmethod
    def line(cls, num_nodes: int, **params: Any) -> "TopologySpec":
        return cls("line", {"num_nodes": num_nodes, **params})

    @classmethod
    def tree(cls, family: str, **params: Any) -> "TopologySpec":
        return cls("tree", {"family": family, **params})

    @classmethod
    def forest(cls, components: list, **params: Any) -> "TopologySpec":
        return cls("forest", {"components": components, **params})


@dataclass(frozen=True)
class AlgorithmSpec(_SpecBase):
    """Which forwarding algorithm to run: a registered name plus constructor
    params (everything after the topology argument)."""

    name: str = "ppts"
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require_str(self.name, "AlgorithmSpec.name")
        object.__setattr__(self, "params", _normalize_params(self.params, "algorithm"))


@dataclass(frozen=True)
class AdversarySpec(_SpecBase):
    """Which injection process to run and its declared envelope.

    ``rho``/``sigma`` are the paper's ``(rho, sigma)``-boundedness parameters
    (Definition 2.1); ``rounds`` is the injection horizon handed to the
    registered builder; ``params`` are builder-specific extras (destination
    counts, seeds, burst periods, ...).
    """

    name: str = "bounded"
    rho: float = 1.0
    sigma: float = 2.0
    rounds: int = 200
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require_str(self.name, "AdversarySpec.name")
        rho = _require_finite_real(self.rho, "AdversarySpec.rho")
        if not 0 < rho <= 1:
            raise SpecError(f"AdversarySpec.rho must be in (0, 1], got {self.rho!r}")
        sigma = _require_finite_real(self.sigma, "AdversarySpec.sigma")
        if sigma < 0:
            raise SpecError(f"AdversarySpec.sigma must be >= 0, got {self.sigma!r}")
        if not isinstance(self.rounds, int) or isinstance(self.rounds, bool) or self.rounds < 0:
            raise SpecError(
                f"AdversarySpec.rounds must be a non-negative int, got {self.rounds!r}"
            )
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "params", _normalize_params(self.params, "adversary"))


@dataclass(frozen=True)
class RunPolicy(_SpecBase):
    """How the simulator drives and observes the run.

    Attributes
    ----------
    rounds:
        Injection-round override for :meth:`Simulator.run` (``None`` = the
        adversary's horizon).
    drain:
        Keep executing after the horizon until all packets deliver.
    max_drain_rounds:
        Safety cap on drain rounds (``None`` = automatic).
    record_history / record_occupancy_vectors:
        Per-round measurement detail (memory grows with execution length).
    history:
        Retention policy name — ``"full"``, ``"summary"`` or ``"streaming"``
        (:class:`repro.network.events.HistoryPolicy`); ``None`` derives it
        from the two flags above.  ``"streaming"`` keeps a run's memory
        proportional to packets in flight (delivered packets are released,
        the injection log is columnar) — summary statistics are identical to
        the other policies.
    validate_capacity:
        Raise on infeasible activation sets (the paper proves the bundled
        algorithms never produce one; keep on unless profiling).
    seed:
        Per-run RNG seed, forwarded to adversary builders that accept one
        (unless the adversary spec pins its own ``seed`` param).
    checkpoint_every:
        Write a :mod:`repro.checkpoint` snapshot to ``checkpoint_path`` after
        every this-many injection rounds (each save atomically replaces the
        previous one), so a horizon-scale run that dies can be resumed with
        :meth:`repro.api.session.Session.resume`.  Both fields are excluded
        from the resume-identity hash: checkpointing does not change what the
        simulation computes.
    checkpoint_path:
        Where the periodic snapshots go; required when ``checkpoint_every``
        is set.
    shards:
        Partition the line into this many contiguous segments and run the
        batch kernel over each in its own worker process
        (:mod:`repro.network.sharded`); ``engine`` must then be ``"batch"``
        or ``"auto"``, and neither PPTS, HPTS nor a scenario the batch
        kernel refuses can be sharded.  ``None`` or ``1`` means
        single-process.  A sharded run is one attempt: a worker failure
        raises :class:`~repro.network.errors.WorkerFailedError` and nothing
        is retried, so ``shards > 1`` takes no ``checkpoint_every``.
        Sharding never changes what the simulation computes — results are
        bit-identical to ``shards=1`` — so, like the checkpoint fields, it
        is excluded from the resume-identity hash.
    engine:
        Which round engine executes the run: ``"auto"`` (default) tries the
        vectorized flat-array kernel (:mod:`repro.network.batch`) and falls
        back to the object engine when the scenario is refused with
        :class:`~repro.network.errors.UnbatchableScenarioError`;
        ``None``/``"delta"`` is the object engine
        (:class:`repro.network.simulator.Simulator`, the oracle every other
        engine is checked against), ``"batch"`` the kernel alone.  The engine
        never changes what the simulation computes — batch results are
        bit-identical to the object engine — so, like the checkpoint and
        sharding fields, both engine fields are excluded from the
        resume-identity hash.
    batch_rounds:
        How many rounds the batch kernel advances per window.  Results do not
        depend on it: the single-process kernel syncs back to object state
        only at checkpoint cuts (which end a window early, so saves land on
        exact round boundaries) and at the end of the run; sharded workers
        run one window between boundary exchanges.
    """

    rounds: Optional[int] = None
    drain: bool = True
    max_drain_rounds: Optional[int] = None
    record_history: bool = False
    record_occupancy_vectors: bool = False
    history: Optional[str] = None
    validate_capacity: bool = True
    seed: Optional[int] = None
    checkpoint_every: Optional[int] = None
    checkpoint_path: Optional[str] = None
    shards: Optional[int] = None
    engine: Optional[str] = "auto"
    batch_rounds: int = 64

    def __post_init__(self) -> None:
        if self.rounds is not None and (
            not isinstance(self.rounds, int)
            or isinstance(self.rounds, bool)
            or self.rounds < 0
        ):
            raise SpecError(f"RunPolicy.rounds must be None or int >= 0, got {self.rounds!r}")
        if self.max_drain_rounds is not None and (
            not isinstance(self.max_drain_rounds, int)
            or isinstance(self.max_drain_rounds, bool)
            or self.max_drain_rounds < 0
        ):
            raise SpecError(
                f"RunPolicy.max_drain_rounds must be None or int >= 0, "
                f"got {self.max_drain_rounds!r}"
            )
        if self.seed is not None and (
            not isinstance(self.seed, int) or isinstance(self.seed, bool)
        ):
            raise SpecError(f"RunPolicy.seed must be None or int, got {self.seed!r}")
        if self.checkpoint_every is not None and (
            not isinstance(self.checkpoint_every, int)
            or isinstance(self.checkpoint_every, bool)
            or self.checkpoint_every < 1
        ):
            raise SpecError(
                f"RunPolicy.checkpoint_every must be None or int >= 1, "
                f"got {self.checkpoint_every!r}"
            )
        if self.checkpoint_path is not None and (
            not isinstance(self.checkpoint_path, str) or not self.checkpoint_path
        ):
            raise SpecError(
                f"RunPolicy.checkpoint_path must be None or a non-empty string, "
                f"got {self.checkpoint_path!r}"
            )
        if self.checkpoint_every is not None and self.checkpoint_path is None:
            raise SpecError("RunPolicy.checkpoint_every requires checkpoint_path")
        if self.shards is not None and (
            not isinstance(self.shards, int)
            or isinstance(self.shards, bool)
            or self.shards < 1
        ):
            raise SpecError(
                f"RunPolicy.shards must be None or int >= 1, got {self.shards!r}"
            )
        if (
            self.shards is not None
            and self.shards > 1
            and self.checkpoint_every is not None
        ):
            raise SpecError(
                f"RunPolicy.shards={self.shards} cannot be combined with "
                f"RunPolicy.checkpoint_every={self.checkpoint_every}: a "
                f"sharded run writes no checkpoints; set shards=1 to "
                f"checkpoint"
            )
        if self.engine is not None and self.engine not in ("delta", "batch", "auto"):
            raise SpecError(
                f"RunPolicy.engine must be None, 'delta', 'batch' or 'auto', "
                f"got {self.engine!r}"
            )
        if (
            not isinstance(self.batch_rounds, int)
            or isinstance(self.batch_rounds, bool)
            or self.batch_rounds < 1
        ):
            raise SpecError(
                f"RunPolicy.batch_rounds must be an int >= 1, "
                f"got {self.batch_rounds!r}"
            )
        for flag in ("drain", "record_history", "record_occupancy_vectors", "validate_capacity"):
            if not isinstance(getattr(self, flag), bool):
                raise SpecError(f"RunPolicy.{flag} must be a bool")
        if self.history is not None:
            if self.history not in ("full", "summary", "streaming"):
                raise SpecError(
                    f"RunPolicy.history must be None, 'full', 'summary' or "
                    f"'streaming', got {self.history!r}"
                )
            if (
                self.history != "full"
                and (self.record_history or self.record_occupancy_vectors)
            ):
                raise SpecError(
                    f"record_history/record_occupancy_vectors require "
                    f"history='full', got history={self.history!r}"
                )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunPolicy":
        """Build from a dict, dropping retired keys that hold their old
        default (:data:`RETIRED_POLICY_FIELDS`); any other value of one is a
        :class:`SpecError` naming the field."""
        if isinstance(payload, Mapping):
            payload = dict(payload)
            for name, default in RETIRED_POLICY_FIELDS.items():
                if name not in payload:
                    continue
                value = payload.pop(name)
                if type(value) is not type(default) or value != default:
                    raise SpecError(
                        f"RunPolicy.{name} was retired with sharded-worker "
                        f"recovery; only its old default {default!r} is "
                        f"accepted (and ignored), got {value!r}"
                    )
        return super().from_dict(payload)


@dataclass(frozen=True)
class ScenarioSpec(_SpecBase):
    """The full declarative description of one simulation run."""

    topology: TopologySpec = field(default_factory=TopologySpec)
    algorithm: AlgorithmSpec = field(default_factory=AlgorithmSpec)
    adversary: AdversarySpec = field(default_factory=AdversarySpec)
    policy: RunPolicy = field(default_factory=RunPolicy)
    #: Optional human-readable label used in result tables.
    name: Optional[str] = None

    def __post_init__(self) -> None:
        for attr, expected in (
            ("topology", TopologySpec),
            ("algorithm", AlgorithmSpec),
            ("adversary", AdversarySpec),
            ("policy", RunPolicy),
        ):
            if not isinstance(getattr(self, attr), expected):
                raise SpecError(
                    f"ScenarioSpec.{attr} must be a {expected.__name__}, "
                    f"got {type(getattr(self, attr)).__name__}"
                )
        if self.name is not None:
            _require_str(self.name, "ScenarioSpec.name")

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        _check_keys(payload, {f.name for f in fields(cls)}, "ScenarioSpec")
        data = dict(payload)
        for attr, spec_cls in (
            ("topology", TopologySpec),
            ("algorithm", AlgorithmSpec),
            ("adversary", AdversarySpec),
            ("policy", RunPolicy),
        ):
            if attr in data and isinstance(data[attr], Mapping):
                data[attr] = spec_cls.from_dict(data[attr])
        return cls(**data)

    @property
    def label(self) -> str:
        """The display name: explicit ``name`` or a compact derived one."""
        if self.name is not None:
            return self.name
        return f"{self.topology.kind}/{self.adversary.name}/{self.algorithm.name}"


# @dataclass(frozen=True, eq=True) generates a field-based __hash__ that would
# choke on the dict-valued ``params`` fields; restore the canonical-JSON hash.
for _spec_cls in (TopologySpec, AlgorithmSpec, AdversarySpec, RunPolicy, ScenarioSpec):
    _spec_cls.__hash__ = _SpecBase.__hash__  # type: ignore[method-assign]
del _spec_cls
