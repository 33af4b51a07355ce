"""The Session runner: build a :class:`ScenarioSpec` and execute it.

A :class:`Session` turns declarative specs into simulations:

* registry lookups resolve the topology / adversary / algorithm names,
* shared topology construction is cached per topology-spec hash (building a
  127-node random tree once per sweep, not once per run),
* every run executes inside a fresh :func:`repro.core.packet.packet_id_scope`,
  so packet ids (and therefore results) are deterministic and independent of
  what ran before — which also makes :meth:`Session.run_many`'s process-pool
  fan-out return exactly what running in order does,
* results come back as :class:`RunReport` rows carrying the measured maximum
  occupancy next to the algorithm's closed-form bound.
"""

from __future__ import annotations

import inspect
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..checkpoint import Checkpoint
    from ..network.faults import FaultPlan

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
    #: The originating spec (``None`` for compatibility-layer runs).
    spec: Optional[ScenarioSpec] = None
    #: Recovery telemetry from the sharded supervisor (``None`` for
    #: single-process runs): ``restarts`` counts worker respawns the run
    #: absorbed and ``recovery_time_s`` the wall clock spent restitching
    #: (``None`` unless a clock was injected).  Surfaced in the CLI's
    #: ``--json`` rows so a run that survived faults is distinguishable from
    #: one that never saw any — their results are bit-identical by design.
    recovery: Optional[Dict[str, Any]] = None
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

    The compatibility layer (:func:`repro.experiments.harness.run_workload`,
    hand-built objects in tests) funnels through this so every execution path
    shares one engine: :meth:`Session.run`.
    """

    topology: Topology
    algorithm: ForwardingAlgorithm
    adversary: Any
    policy: RunPolicy = field(default_factory=RunPolicy)
    name: str = "prepared"
    #: Reporting params merged into the resulting row.
    params: Dict[str, Any] = field(default_factory=dict)
    #: Declared burst envelope used for the bound comparison; ``None`` falls
    #: back to the adversary's own ``sigma`` attribute (which equals the
    #: spec-declared value for every registered builder except the
    #: lower-bound construction, which intentionally claims no bound).
    sigma: Optional[float] = None


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


def build_topology(spec: TopologySpec) -> Topology:
    """Construct the topology described by ``spec`` (uncached)."""
    builder = TOPOLOGIES.get(spec.kind)
    return builder(**spec.params)


class Session:
    """Executes scenario specs, one at a time or as batched sweeps.

    Parameters
    ----------
    max_workers:
        Default process-pool width for ``run_many(use_processes=True)``
        (``None`` lets the executor pick, ``0`` runs in order in-process).
    cache_topologies:
        Reuse one :class:`Topology` instance per distinct
        :class:`TopologySpec` (topologies are read-only during simulation, so
        sharing across runs is safe).
    """

    def __init__(
        self,
        *,
        max_workers: Optional[int] = None,
        cache_topologies: bool = True,
    ) -> None:
        self.max_workers = max_workers
        self.cache_topologies = cache_topologies
        self._topology_cache: Dict[str, Topology] = {}
        #: How many topologies this session has actually constructed (cache
        #: misses included, hits excluded).  The process-pool warm-up test
        #: uses this to prove workers stop rebuilding per run.
        self.topology_builds = 0

    # -- construction -----------------------------------------------------------

    def topology(self, spec: TopologySpec) -> Topology:
        """The (cached) topology for ``spec``."""
        if not self.cache_topologies:
            self.topology_builds += 1
            return build_topology(spec)
        key = spec.spec_hash()
        if key not in self._topology_cache:
            self.topology_builds += 1
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

    def run(
        self, scenario: Runnable, *, faults: Optional["FaultPlan"] = None
    ) -> RunReport:
        """Execute one scenario and report the measured-vs-bound outcome.

        A spec whose policy sets ``shards > 1`` routes to the sharded batch
        kernel (:mod:`repro.network.sharded`; ``engine`` must be
        ``"batch"`` or ``"auto"``) — the report is built from the merged
        result, which is bit-identical to ``shards=1``.
        Sharded runs are supervised: worker failures are handled per the
        spec's ``policy.recovery`` / ``max_worker_restarts`` /
        ``heartbeat_timeout`` knobs, and ``faults`` optionally threads a
        deterministic :class:`~repro.network.faults.FaultPlan` through the
        supervisor for reproducible chaos runs (sharded specs only — faults
        describe segment-worker failures, which a single-process run does
        not have).
        """
        if isinstance(scenario, ScenarioSpec):
            if scenario.policy.shards is not None and scenario.policy.shards > 1:
                return self._run_sharded(scenario, faults=faults)
            if faults is not None:
                raise SpecError(
                    "faults describe segment-worker failures and need a "
                    "sharded run; set policy.shards > 1 to use a FaultPlan"
                )
            with packet_id_scope():
                prepared = self.prepare(scenario)
                return self._execute(prepared, spec=scenario)
        if faults is not None:
            raise SpecError(
                "faults require a ScenarioSpec with policy.shards > 1, "
                f"got {type(scenario).__name__}"
            )
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

    def run_many(
        self,
        scenarios: Iterable[Runnable],
        *,
        max_workers: Optional[int] = None,
        use_processes: bool = False,
    ) -> List[RunReport]:
        """Execute a batch of scenarios; results come back in input order.

        By default the items run in order in this process, each exactly as
        :meth:`run` executes it (a spec in its own packet-id scope, a
        :class:`PreparedRun` unscoped on its pre-numbered ingredients).
        Simulations are pure-Python and hold the GIL, so a thread pool would
        only add overhead.

        With ``use_processes=True`` the batch runs on a
        :class:`~concurrent.futures.ProcessPoolExecutor` of ``max_workers``
        processes (default: the session's ``max_workers``; ``0`` runs in
        order in-process), which does scale CPU-bound sweeps across cores.
        Every item must then be a
        :class:`ScenarioSpec` (specs are plain picklable data; live
        :class:`PreparedRun` ingredients stay in-process).  Each worker is
        *warmed once* by a pool initializer: the batch's distinct topology
        specs are pickled a single time into the initializer arguments, and
        every worker builds each topology (plus its next-hop table) exactly
        once into a persistent per-worker :class:`Session` — submitting a
        hundred same-topology runs no longer rebuilds the network a hundred
        times per worker.  Results are identical to the in-order run because
        every run is seeded through its spec and executes in a fresh
        packet-id scope either way.
        """
        items: Sequence[Runnable] = list(scenarios)
        if use_processes:
            for position, item in enumerate(items):
                if not isinstance(item, ScenarioSpec):
                    # A typed, actionable error (SpecError -> ReproError), not
                    # a bare ValueError: live PreparedRun ingredients cannot
                    # cross a process boundary.
                    raise SpecError(
                        f"run_many(use_processes=True) requires every item to "
                        f"be a ScenarioSpec (plain picklable data); item "
                        f"{position} is a {type(item).__name__}.  Describe the "
                        f"scenario declaratively, or drop use_processes to "
                        f"run live PreparedRun objects in-process."
                    )
            workers = self.max_workers if max_workers is None else max_workers
            if workers != 0 and len(items) > 1:
                distinct_topologies: Dict[str, TopologySpec] = {}
                for item in items:
                    distinct_topologies.setdefault(
                        item.topology.spec_hash(), item.topology
                    )
                with ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_warm_worker,
                    initargs=(
                        tuple(distinct_topologies.values()),
                        self.cache_topologies,
                    ),
                ) as pool:
                    return list(pool.map(_run_spec_in_worker, items))
        return [self.run(item) for item in items]

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
        if spec is not None:
            verify_spec(loaded, spec)
        elif loaded.spec is None:
            raise CheckpointError(
                "checkpoint carries no embedded scenario spec; pass the "
                "originating ScenarioSpec to Session.resume()"
            )
        else:
            spec = ScenarioSpec.from_dict(loaded.spec)
        if spec.policy.shards is not None and spec.policy.shards > 1:
            # Resuming always continues in-process: sharding is outside the
            # resume-identity hash (results are proven identical), and
            # restore targets one engine.  A stitched sharded checkpoint
            # therefore resumes exactly like a single-process one.
            payload = spec.to_dict()
            payload["policy"] = dict(payload["policy"], shards=None)
            spec = ScenarioSpec.from_dict(payload)
        with packet_id_scope():
            prepared = self.prepare(spec)
            return self._execute(prepared, spec=spec, checkpoint=loaded)

    # -- internals ---------------------------------------------------------------

    def _run_sharded(
        self, spec: ScenarioSpec, faults: Optional["FaultPlan"] = None
    ) -> RunReport:
        """Execute a spec on the sharded engine and assemble the report.

        The merged :class:`SimulationResult` comes back from the segment
        workers; only the bound comparison needs a local algorithm instance.
        Every algorithm the sharded batch kernel runs has a bound that
        depends on construction parameters alone, so a fresh one suffices.
        """
        from ..network.sharded import run_sharded

        result, extras = run_sharded(spec, faults=faults)
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
            recovery=extras.get("recovery"),
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
        sigma = prepared.sigma
        if sigma is None:
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


#: The per-worker Session installed by :func:`_warm_worker`.  Lives for the
#: whole worker process, so its topology cache persists across submitted runs.
_WORKER_SESSION: Optional[Session] = None


def _warm_worker(
    topology_specs: Tuple[TopologySpec, ...], cache_topologies: bool = True
) -> None:
    """Process-pool initializer: warm one persistent Session per worker.

    Runs once per worker process.  Builds every distinct topology of the
    batch (the specs are pickled once, in the initializer arguments, not per
    submitted run) and precomputes its next-hop table, so the per-run cost in
    the worker is simulation only.  With ``cache_topologies=False`` there is
    nowhere to keep the warm objects, so the pre-build is skipped — each run
    then constructs its own topology, exactly as that configuration asks.
    """
    global _WORKER_SESSION
    session = Session(cache_topologies=cache_topologies)
    if cache_topologies:
        for spec in topology_specs:
            session.topology(spec).next_hop_table()
    _WORKER_SESSION = session


def _run_spec_in_worker(spec: ScenarioSpec, *, cache_topologies: bool = True) -> RunReport:
    """Process-pool entry point: execute one spec in the worker's Session.

    Module-level so it pickles by reference.  Uses the warm per-worker
    session installed by :func:`_warm_worker`; falls back to a throwaway
    Session when called outside a warmed pool.
    """
    session = _WORKER_SESSION
    if session is None:
        session = Session(cache_topologies=cache_topologies)
    return session.run(spec)


def reports_to_table(
    reports: Iterable[RunReport],
    columns: Optional[List[str]] = None,
    *,
    title: Optional[str] = None,
) -> str:
    """Render run reports with the shared ASCII table formatter."""
    return format_table([report.as_row() for report in reports], columns, title=title)
