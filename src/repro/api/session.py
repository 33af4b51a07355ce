"""The Session runner: build a :class:`ScenarioSpec` and execute it.

A :class:`Session` turns declarative specs into simulations:

* registry lookups resolve the topology / adversary / algorithm names,
* shared topology construction is cached per topology-spec hash (building a
  127-node random tree once per sweep, not once per run),
* every run executes inside a fresh :func:`repro.core.packet.packet_id_scope`,
  so packet ids (and therefore results) are deterministic and independent of
  what ran before,
* results come back as :class:`RunReport` rows carrying the measured maximum
  occupancy next to the algorithm's closed-form bound.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..checkpoint import Checkpoint

from ..analysis.metrics import check_against_bound
from ..analysis.tables import format_table
from ..core.packet import packet_id_scope
from ..core.pseudobuffer import QueueDiscipline
from ..core.scheduler import ForwardingAlgorithm
from ..network.events import SimulationResult
from ..network.simulator import Simulator
from ..network.topology import Topology
from .registry import ADVERSARIES, ALGORITHMS, TOPOLOGIES
from .specs import RunPolicy, ScenarioSpec, SpecError, TopologySpec

__all__ = [
    "Session",
    "RunReport",
    "PreparedRun",
    "build_topology",
    "reports_to_table",
]


@dataclass
class RunReport:
    """One executed scenario: the spec, the result, and the bound comparison."""

    name: str
    algorithm: str
    result: SimulationResult
    bound: Optional[float]
    within_bound: bool
    #: Scenario parameters worth reporting (merged topology/adversary/algorithm).
    params: Dict[str, Any] = field(default_factory=dict)
    #: The originating spec (``None`` for a run of a :class:`PreparedRun`).
    spec: Optional[ScenarioSpec] = None
    #: Engine-routing telemetry: which engine the policy requested
    #: (``"delta"``/``"batch"``/``"auto"``), which one actually ran, the
    #: refusal message when ``"auto"`` fell back to the object engine, and —
    #: for sharded runs — the boundary transport, always ``"shm"`` (the
    #: workers' shared-memory rings).  Engines are bit-identical by
    #: construction, so this exists purely to make silent fallbacks
    #: diagnosable; surfaced in the CLI's ``--json`` rows.
    engine: Optional[Dict[str, Any]] = None

    @property
    def max_occupancy(self) -> int:
        return self.result.max_occupancy

    def as_row(self, extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Flatten to a dict row for the ASCII table formatter / JSON output."""
        row: Dict[str, Any] = {"scenario": self.name, "algorithm": self.algorithm}
        row.update(self.params)
        row.update(
            {
                "max_occupancy": self.result.max_occupancy,
                "bound": None if self.bound is None else round(self.bound, 2),
                "within_bound": self.within_bound,
                "packets": self.result.packets_injected,
                "delivered": self.result.packets_delivered,
                "max_latency": self.result.max_latency,
            }
        )
        if extra:
            row.update(extra)
        return row


@dataclass
class PreparedRun:
    """A scenario with its three ingredients already constructed.

    :meth:`Session.prepare` builds one from a spec; hand-built objects (tests,
    perf tracing) run through :meth:`Session.run` on the same engine.  The
    bound is computed from the adversary's own ``sigma`` attribute.
    """

    topology: Topology
    algorithm: ForwardingAlgorithm
    adversary: Any
    policy: RunPolicy = field(default_factory=RunPolicy)
    name: str = "prepared"
    #: Reporting params merged into the resulting row.
    params: Dict[str, Any] = field(default_factory=dict)


Runnable = Union[ScenarioSpec, PreparedRun]


def _accepts_keyword(callable_obj: Any, keyword: str) -> bool:
    """Whether ``callable_obj`` can take ``keyword`` as a keyword argument."""
    try:
        signature = inspect.signature(callable_obj)
    except (TypeError, ValueError):  # pragma: no cover - builtins
        return False
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            return True
        if parameter.name == keyword and parameter.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            return True
    return False


def _coerce_discipline(params: Dict[str, Any]) -> Dict[str, Any]:
    """Allow ``"FIFO"`` / ``"LIFO"`` strings for the queue-discipline enum in
    JSON specs."""
    discipline = params.get("discipline")
    if isinstance(discipline, str):
        try:
            params = dict(params)
            params["discipline"] = QueueDiscipline[discipline.upper()]
        except KeyError:
            raise SpecError(
                f"unknown queue discipline {discipline!r}; "
                f"expected one of {[d.name for d in QueueDiscipline]}"
            ) from None
    return params


def unsharded(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """A spec payload with ``policy.shards`` dropped.

    Resuming always continues in one process: sharding is outside the
    resume-identity hash (results are proven identical), and restore targets
    one engine.  Dropping it before :meth:`ScenarioSpec.from_dict` also lets
    a checkpoint whose spec combined ``shards > 1`` with
    ``checkpoint_every`` (one the sharded engine used to write) resume.
    """
    payload = dict(payload)
    policy = payload.get("policy")
    if isinstance(policy, Mapping):
        payload["policy"] = {
            key: value for key, value in policy.items() if key != "shards"
        }
    return payload


def build_topology(spec: TopologySpec) -> Topology:
    """Construct the topology described by ``spec`` (uncached)."""
    builder = TOPOLOGIES.get(spec.kind)
    return builder(**spec.params)


class Session:
    """Executes scenario specs, one at a time or as batched sweeps.

    Parameters
    ----------
    cache_topologies:
        Reuse one :class:`Topology` instance per distinct
        :class:`TopologySpec` (topologies are read-only during simulation, so
        sharing across runs is safe).
    """

    def __init__(self, *, cache_topologies: bool = True) -> None:
        self.cache_topologies = cache_topologies
        self._topology_cache: Dict[str, Topology] = {}

    # -- construction -----------------------------------------------------------

    def topology(self, spec: TopologySpec) -> Topology:
        """The (cached) topology for ``spec``."""
        if not self.cache_topologies:
            return build_topology(spec)
        key = spec.spec_hash()
        if key not in self._topology_cache:
            self._topology_cache[key] = build_topology(spec)
        return self._topology_cache[key]

    def prepare(self, spec: ScenarioSpec) -> PreparedRun:
        """Resolve a spec's registry names into live objects.

        Called inside the run's packet-id scope by :meth:`run`; also usable
        directly to inspect what a spec would build.
        """
        topology = self.topology(spec.topology)

        adversary_builder = ADVERSARIES.get(spec.adversary.name)
        adversary_params = dict(spec.adversary.params)
        if (
            spec.policy.seed is not None
            and "seed" not in adversary_params
            and _accepts_keyword(adversary_builder, "seed")
        ):
            adversary_params["seed"] = spec.policy.seed
        adversary = adversary_builder(
            topology,
            rho=spec.adversary.rho,
            sigma=spec.adversary.sigma,
            rounds=spec.adversary.rounds,
            **adversary_params,
        )

        algorithm_builder = ALGORITHMS.get(spec.algorithm.name)
        algorithm = algorithm_builder(
            topology, **_coerce_discipline(spec.algorithm.params)
        )

        params = self._report_params(spec, topology)
        return PreparedRun(
            topology=topology,
            algorithm=algorithm,
            adversary=adversary,
            policy=spec.policy,
            name=spec.label,
            params=params,
        )

    @staticmethod
    def _report_params(spec: ScenarioSpec, topology: Topology) -> Dict[str, Any]:
        """The scenario parameters reported in a run's result row."""
        params: Dict[str, Any] = {"n": topology.num_nodes}
        params.update(spec.topology.params)
        params.pop("num_nodes", None)  # reported as "n"
        params.update(
            {"rho": spec.adversary.rho, "sigma": spec.adversary.sigma,
             "rounds": spec.adversary.rounds}
        )
        params.update(spec.adversary.params)
        params.update(spec.algorithm.params)
        return params

    # -- execution --------------------------------------------------------------

    def run(self, scenario: Runnable) -> RunReport:
        """Execute one scenario and report the measured-vs-bound outcome.

        A spec whose policy sets ``shards > 1`` routes to the sharded batch
        kernel (:mod:`repro.network.sharded`; ``engine`` must be
        ``"batch"`` or ``"auto"``) — the report is built from the merged
        result, which is bit-identical to ``shards=1``.  A sharded run is
        one attempt: a dead worker raises
        :class:`~repro.network.errors.WorkerFailedError`.

        A :class:`PreparedRun` runs once: its algorithm keeps the packets a
        run leaves undelivered, so running it again while any are left
        raises :class:`~repro.network.errors.SpentAlgorithmError` (a run
        that drained them all may run again, to the same result).
        """
        if isinstance(scenario, ScenarioSpec):
            if scenario.policy.shards is not None and scenario.policy.shards > 1:
                return self._run_sharded(scenario)
            with packet_id_scope():
                prepared = self.prepare(scenario)
                return self._execute(prepared, spec=scenario)
        if isinstance(scenario, PreparedRun):
            if (
                scenario.policy.shards is not None
                and scenario.policy.shards > 1
            ):
                from ..network.errors import UnshardableScenarioError

                raise UnshardableScenarioError(
                    "PreparedRun carries live (unpicklable) ingredients that "
                    "cannot be shipped to segment workers; describe the "
                    "scenario as a ScenarioSpec to run with shards > 1"
                )
            # Pre-built ingredients already carry their packet ids; no scope.
            return self._execute(scenario, spec=None)
        raise SpecError(
            f"Session.run expects a ScenarioSpec or PreparedRun, "
            f"got {type(scenario).__name__}"
        )

    def run_many(self, scenarios: Iterable[Runnable]) -> List[RunReport]:
        """Execute a batch of scenarios in order; one report per item.

        Each item runs exactly as :meth:`run` executes it (a spec in its own
        packet-id scope, a :class:`PreparedRun` unscoped on its pre-numbered
        ingredients), sharing this session's topology cache.
        """
        return [self.run(item) for item in scenarios]

    def resume(
        self,
        checkpoint: Union[str, "Checkpoint"],
        spec: Optional[ScenarioSpec] = None,
    ) -> RunReport:
        """Resume a checkpointed run and drive it to completion.

        ``checkpoint`` is a file path (or an already-loaded
        :class:`~repro.checkpoint.Checkpoint`).  The scenario is rebuilt from
        the spec embedded in the snapshot; passing ``spec`` explicitly is
        allowed only when it hashes identically (modulo the checkpoint-policy
        fields) — anything else raises
        :class:`~repro.network.errors.CheckpointSpecMismatchError` rather
        than silently mixing two executions.  The resumed run's
        :class:`RunReport` is bit-identical to what the uninterrupted run
        would have returned.
        """
        from ..checkpoint import Checkpoint, load_checkpoint, verify_spec
        from ..network.errors import CheckpointError

        loaded = (
            checkpoint
            if isinstance(checkpoint, Checkpoint)
            else load_checkpoint(checkpoint)
        )
        payload = loaded.spec
        if spec is not None:
            verify_spec(loaded, spec)
            payload = spec.to_dict()
        elif payload is None:
            raise CheckpointError(
                "checkpoint carries no embedded scenario spec; pass the "
                "originating ScenarioSpec to Session.resume()"
            )
        spec = ScenarioSpec.from_dict(unsharded(payload))
        with packet_id_scope():
            prepared = self.prepare(spec)
            return self._execute(prepared, spec=spec, checkpoint=loaded)

    # -- internals ---------------------------------------------------------------

    def _run_sharded(self, spec: ScenarioSpec) -> RunReport:
        """Execute a spec on the sharded engine and assemble the report.

        The merged :class:`SimulationResult` comes back from the segment
        workers; only the bound comparison needs a local algorithm instance.
        Every algorithm the sharded batch kernel runs has a bound that
        depends on construction parameters alone, so a fresh one suffices.
        """
        from ..network.sharded import run_sharded

        result, extras = run_sharded(spec)
        topology = self.topology(spec.topology)
        algorithm_builder = ALGORITHMS.get(spec.algorithm.name)
        algorithm = algorithm_builder(
            topology, **_coerce_discipline(spec.algorithm.params)
        )
        # Mirror _execute's sigma source exactly: the *built* adversary's
        # declared sigma (workers report it), with no spec fallback — an
        # adversary that claims no envelope gets no bound, sharded or not.
        sigma = extras.get("adversary_sigma")
        bound = (
            algorithm.theoretical_bound(sigma) if sigma is not None else None
        )
        within = check_against_bound(result, bound).satisfied
        return RunReport(
            name=spec.label,
            algorithm=result.algorithm,
            result=result,
            bound=bound,
            within_bound=within,
            params=self._report_params(spec, topology),
            spec=spec,
            # A sharded run always routed (engine="batch"/"auto"), so its
            # routing telemetry always surfaces, as in _execute.
            engine=extras["engine"],
        )

    def _execute(
        self,
        prepared: PreparedRun,
        *,
        spec: Optional[ScenarioSpec],
        checkpoint: Optional["Checkpoint"] = None,
    ) -> RunReport:
        prepared.algorithm.check_unspent("Session.run")
        policy = prepared.policy
        simulator: Optional[Simulator] = None
        engine_info: Optional[Dict[str, Any]] = None
        if policy.engine in ("batch", "auto"):
            from ..network.batch import BatchSimulator
            from ..network.errors import UnbatchableScenarioError

            engine_info = {
                "requested": policy.engine,
                "selected": "batch",
                "fallback_reason": None,
            }
            try:
                simulator = BatchSimulator(
                    prepared.topology,
                    prepared.algorithm,
                    prepared.adversary,
                    batch_rounds=policy.batch_rounds,
                    record_history=policy.record_history,
                    record_occupancy_vectors=policy.record_occupancy_vectors,
                    history=policy.history,
                    validate_capacity=policy.validate_capacity,
                )
            except UnbatchableScenarioError as refusal:
                if policy.engine == "batch":
                    raise
                # engine="auto": the scenario is outside what the batch
                # kernel runs; the object engine computes the same thing.
                engine_info["selected"] = "delta"
                engine_info["fallback_reason"] = str(refusal)
        if simulator is None:
            simulator = Simulator(
                prepared.topology,
                prepared.algorithm,
                prepared.adversary,
                record_history=policy.record_history,
                record_occupancy_vectors=policy.record_occupancy_vectors,
                history=policy.history,
                validate_capacity=policy.validate_capacity,
            )
        if checkpoint is not None:
            from ..checkpoint import restore_into

            restore_into(simulator, checkpoint)
        result = simulator.run(
            policy.rounds,
            drain=policy.drain,
            max_drain_rounds=policy.max_drain_rounds,
            checkpoint_every=policy.checkpoint_every,
            checkpoint_path=policy.checkpoint_path,
            checkpoint_spec=spec,
        )
        sigma = getattr(prepared.adversary, "sigma", None)
        bound = (
            prepared.algorithm.theoretical_bound(sigma) if sigma is not None else None
        )
        within = check_against_bound(result, bound).satisfied
        return RunReport(
            name=prepared.name,
            algorithm=prepared.algorithm.name,
            result=result,
            bound=bound,
            within_bound=within,
            params=dict(prepared.params),
            spec=spec,
            engine=engine_info,
        )


def reports_to_table(
    reports: Iterable[RunReport],
    columns: Optional[List[str]] = None,
    *,
    title: Optional[str] = None,
) -> str:
    """Render run reports with the shared ASCII table formatter."""
    return format_table([report.as_row() for report in reports], columns, title=title)
