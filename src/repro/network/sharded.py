"""Sharded execution: one huge line partitioned across worker processes.

The single-process engine tops out at one core.  This module splits a
:class:`~repro.network.topology.LineTopology` scenario into ``k`` contiguous
segments and runs one
:class:`~repro.network.batch_sharded.BatchSegmentSimulator` — the batch
kernel restricted to its segment — per forked worker process, so the
combined execution is **bit-identical** to the single-process run (the
differential suites in ``tests/test_batch_sharded_differential.py`` and
``tests/test_sharded_differential.py`` prove it against the delta oracle).
The batch kernel is the only segment engine, and its segment scans cover
only its regular family.  PPTS and HPTS (the kernel's pseudo-buffer kind),
a scenario the kernel refuses (a custom greedy policy, an adaptive
adversary), or a policy that does not ask for the kernel (``engine``
``None`` or ``"delta"``) raise
:class:`~repro.network.errors.UnshardableScenarioError`; the first and the
last before any worker process or shared-memory ring exists.

Workers free-run ``batch_rounds``-round windows and exchange the per-round
boundary facts with their neighbours through
:class:`~repro.network.shm.BoundaryRing` shared-memory rings (see
``docs/SHARDING.md``).  Each worker drives the *full* injection row stream
through its own packet-id allocator and keeps only its own sources (see
:class:`~repro.adversary.segmented.SegmentFilteredAdversary`).  A host where
the rings cannot be created refuses the run with
:class:`~repro.network.errors.UnshardableScenarioError`: run it with
``shards=1``.

The coordinator mirrors the single-process drain loop (same caps, same
quiescence window, fed by globally summed per-round counters), merges the
per-segment statistics into one :class:`SimulationResult`, and — when the
run policy asks for periodic checkpoints — saves per-segment snapshots and
stitches them into a single global checkpoint file
(:func:`repro.checkpoint.stitch_checkpoints`) that a plain single-process
``Session.resume`` continues bit-identically.

**Supervision and recovery.**  The coordinator doubles as a worker
supervisor: every reply is awaited under ``RunPolicy.heartbeat_timeout``,
sends retry with bounded backoff, and a worker that dies, hangs or stops
answering escalates as the typed
:class:`~repro.network.errors.WorkerFailedError`.  What happens next is
``RunPolicy.recovery``'s call: ``"fail"`` (default) propagates immediately;
``"restart"`` tears every worker down, respawns the full set from the last
consistent per-segment checkpoint cut and replays the windows from that
round; ``"fold"`` merges the orphaned segment into a neighbouring
worker (restitching the pair's snapshots via
:func:`repro.checkpoint.stitch_checkpoints`) and continues on ``k - 1``
segments.  Because recovery always resumes from checkpoints that are proven
bit-identical to the single-process run, a recovered run's results and
checkpoint files are byte-identical to the fault-free run — the differential
recovery suite (``tests/test_recovery_differential.py``) asserts exactly
that, driven by the deterministic fault plans of
:mod:`repro.network.faults`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from collections import deque
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.packet import packet_id_scope
from .batch_sharded import BatchSegmentSimulator, check_segment_scan
from .errors import (
    CheckpointError,
    RecoveryExhaustedError,
    ShardingProtocolError,
    UnbatchableScenarioError,
    UnshardableScenarioError,
    WorkerFailedError,
)
from .events import RoundRecord, SimulationResult
from .faults import FaultInjector, FaultPlan
from .shm import BoundaryRing
from .simulator import DrainStop
from .topology import LineTopology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.specs import ScenarioSpec

__all__ = [
    "plan_segments",
    "run_sharded",
]

#: Hard exit code an injected ``crash`` fault uses in a worker process —
#: ``os._exit`` so the failure looks exactly like a SIGKILL'd/OOM'd worker
#: (no unwind, no pickled traceback, just a dead pipe).
_CRASH_EXIT_CODE = 70

#: The per-round phases a fault plan can name, in round order.  A window
#: merges them into one directive fired at the start of the round.
_WINDOW_PHASES = ("begin", "select", "finish")

#: Bounded retry-with-backoff on supervised sends: attempts past the first
#: before a send that keeps failing marks the worker failed, and the linear
#: backoff step in seconds.
_MAX_RETRIES = 2
_RETRY_BACKOFF = 0.01

#: perfbench/tracing.py reads this name; remove with the next benchmark change.
SegmentSimulator = BatchSegmentSimulator


def plan_segments(num_nodes: int, shards: int) -> List[Tuple[int, int]]:
    """Partition ``0..num_nodes-1`` into ``shards`` contiguous segments.

    Balanced to within one node (the first ``num_nodes % shards`` segments
    take the extra node); inclusive ``(lo, hi)`` bounds, in line order.
    ``shards`` is clamped to ``num_nodes`` so every segment is non-empty.
    """
    if num_nodes < 1:
        raise UnshardableScenarioError(f"cannot shard a {num_nodes}-node line")
    shards = max(1, min(shards, num_nodes))
    base, extra = divmod(num_nodes, shards)
    segments: List[Tuple[int, int]] = []
    lo = 0
    for index in range(shards):
        width = base + (1 if index < extra else 0)
        segments.append((lo, lo + width - 1))
        lo += width
    return segments


# ---------------------------------------------------------------------------
# Worker wrapper
# ---------------------------------------------------------------------------


def _apply_fault(fault: Dict[str, Any]) -> None:
    """Act out an injected fault directive inside a worker process.

    A crash is ``os._exit``, so it looks exactly like a SIGKILL'd worker.
    """
    delay = fault.get("delay", 0.0)
    if delay > 0:
        time.sleep(delay)
    if fault.get("crash"):
        os._exit(_CRASH_EXIT_CODE)


def _no_rings(error: BaseException) -> UnshardableScenarioError:
    """The refusal for a host where the boundary rings cannot be set up."""
    return UnshardableScenarioError(
        f"sharded execution exchanges boundary facts through shared-memory "
        f"rings, which this host cannot provide ({type(error).__name__}: "
        f"{error}); run with shards=1"
    )


class _SegmentWorker:
    """Builds one segment's scenario ingredients and dispatches commands.

    ``restore_path`` (recovery respawns only) points at a per-segment
    checkpoint; the freshly built engine is fast-forwarded through
    :func:`repro.checkpoint.restore_into` before serving commands — the same
    restore machinery the resume differential suites prove bit-identical.
    The worker must be built inside a fresh packet-id scope for the restore
    to renumber correctly (:func:`_process_worker_main` opens one).
    """

    def __init__(
        self,
        spec_payload: Dict[str, Any],
        segment_index: int,
        segments: Sequence[Tuple[int, int]],
        restore_path: Optional[str] = None,
    ) -> None:
        from ..api.session import Session
        from ..api.specs import ScenarioSpec
        from ..adversary.segmented import SegmentFilteredAdversary

        spec = ScenarioSpec.from_dict(spec_payload)
        session = Session(cache_topologies=False)
        prepared = session.prepare(spec)
        topology = prepared.topology
        if not isinstance(topology, LineTopology):
            raise UnshardableScenarioError(
                f"sharded execution needs a LineTopology, got "
                f"{type(topology).__name__}; run with shards=1"
            )
        lo, hi = segments[segment_index]
        adversary = SegmentFilteredAdversary(prepared.adversary, lo, hi)
        policy = spec.policy
        self.spec = spec
        self.base_adversary = prepared.adversary
        try:
            self.simulator = BatchSegmentSimulator(
                topology,
                prepared.algorithm,
                adversary,
                segment_index,
                segments,
                batch_rounds=policy.batch_rounds,
                record_history=policy.record_history,
                record_occupancy_vectors=policy.record_occupancy_vectors,
                history=policy.history,
                validate_capacity=policy.validate_capacity,
            )
        except UnbatchableScenarioError as refusal:
            raise UnshardableScenarioError(
                f"sharded execution runs only the batch kernel, which "
                f"refuses this scenario ({refusal}); run with shards=1"
            ) from refusal
        if restore_path is not None:
            from ..checkpoint import load_checkpoint, restore_into

            restore_into(self.simulator, load_checkpoint(restore_path))
        # Load the flat kernel after any checkpoint restore so it projects
        # the restored object state, not the empty line.
        self.simulator.ensure_kernel()
        #: Shared-memory boundary rings, keyed as in the coordinator's
        #: "rings" payload.
        self._rings: Dict[str, Any] = {}

    def init_info(self) -> Dict[str, Any]:
        return {
            "horizon": self.base_adversary.horizon,
            "needs_reverse_lane": self.simulator.needs_reverse_lane,
        }

    def dispatch(self, command: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        fault = payload.get("fault")
        if fault is not None:
            _apply_fault(fault)
        if command == "window":
            return self._run_window(payload)
        if command == "rings":
            self._attach_rings(payload["names"])
            return {"attached": sorted(self._rings)}
        if command == "truncate":
            self.simulator.truncate_to(payload["round"])
            return {"round": payload["round"]}
        if command == "checkpoint":
            self.simulator.sync_for_snapshot()
            size = self.simulator.save_checkpoint(payload["path"], spec=self.spec)
            return {"bytes": size}
        if command == "status":
            # Queried after a recovery respawn: the restored engines know
            # their pending counts, the (new) coordinator does not.
            self.simulator.sync_for_snapshot()
            return {"pending": self.simulator._pending()}
        if command == "result":
            self.simulator.sync_for_snapshot()
            return self._result_payload()
        raise ShardingProtocolError(f"unknown worker command {command!r}")

    def _attach_rings(self, names: Dict[str, str]) -> None:
        """Attach the coordinator-created boundary rings this worker uses."""
        for key, name in names.items():
            try:
                self._rings[key] = BoundaryRing(name=name)
            except (OSError, ValueError) as error:
                raise _no_rings(error) from error

    def _run_window(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Free-run one k-round window over the shared-memory lanes."""
        rings = self._rings
        return self.simulator.run_window(
            payload["t0"],
            payload["t1"],
            inject=payload["inject"],
            left_in=rings.get("left_in"),
            right_out=rings.get("right_out"),
            right_in=rings.get("right_in"),
            left_out=rings.get("left_out"),
            faults=payload.get("faults"),
            fault_hook=_apply_fault,
            ring_timeout=payload.get("ring_timeout", 60.0),
        )

    def close_rings(self) -> None:
        for ring in self._rings.values():
            try:
                ring.close()
            except (OSError, BufferError):  # pragma: no cover - best-effort
                pass
        self._rings = {}

    def _result_payload(self) -> Dict[str, Any]:
        simulator = self.simulator
        history: List[Tuple] = []
        if simulator.record_history:
            history = [
                (
                    record.round, record.injected, record.forwarded,
                    record.delivered, record.max_occupancy,
                    record.max_occupancy_after_forwarding, record.staged,
                    record.occupancy,
                )
                for record in simulator._history
            ]
        return {
            "round": simulator._round,
            "injected": simulator._injected,
            "delivered": simulator._delivered,
            "latency_sum": simulator._latency_sum,
            "latency_max": simulator._latency_max,
            "pending": simulator._pending(),
            "max_occupancy": simulator._timeline.max_occupancy,
            "max_per_node": simulator._timeline.per_node_maxima(),
            "history": history,
            "algorithm_name": simulator.algorithm.name,
            "adversary_sigma": getattr(self.base_adversary, "sigma", None),
            "handoff_trace": simulator._handoff_trace,
        }


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------


def _process_worker_main(
    connection, spec_payload, segment_index, segments, restore_path=None
) -> None:
    """Worker-process entry point: build the segment engine, serve commands."""
    try:
        with packet_id_scope():
            worker = _SegmentWorker(
                spec_payload, segment_index, segments, restore_path
            )
            connection.send(("ok", worker.init_info()))
            while True:
                try:
                    message = connection.recv()
                except EOFError:
                    return  # coordinator went away
                command, payload = message
                if command == "close":
                    worker.close_rings()
                    return
                connection.send(("ok", worker.dispatch(command, payload)))
    except BaseException as error:  # noqa: BLE001 - forwarded to coordinator
        # The pipe is the only channel out of this process; the coordinator's
        # _ProcessHandle.recv re-raises whatever arrives, so forwarding is not
        # swallowing.  A worker that cannot forward re-raises instead: its
        # nonzero exit code is then reported by _ProcessHandle.close().
        try:
            connection.send(("error", error))
        except (pickle.PicklingError, TypeError, AttributeError, ValueError):
            # The original exception does not pickle — ship a typed summary.
            try:
                connection.send(
                    ("error", ShardingProtocolError(
                        f"segment {segment_index}: {type(error).__name__}: {error}"
                    ))
                )
            except OSError:
                raise error
        except OSError:
            raise error
    finally:
        connection.close()


class _ProcessHandle:
    """One worker process plus its pipe."""

    def __init__(
        self, context, spec_payload, segment_index, segments, restore_path=None
    ) -> None:
        self.segment_index = segment_index
        self._conn, child_conn = context.Pipe(duplex=True)
        self._process = context.Process(
            target=_process_worker_main,
            args=(child_conn, spec_payload, segment_index, segments,
                  restore_path),
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        try:
            self.init_payload = self.recv()
        except BaseException:
            # A worker that refused its scenario has already exited; reap it
            # so a refused run leaves no process behind.
            self.kill()
            raise

    def send(self, command: str, payload: Dict[str, Any]) -> None:
        try:
            self._conn.send((command, payload))
        except (BrokenPipeError, OSError) as error:
            raise WorkerFailedError(
                f"segment worker {self.segment_index} is gone: {error}",
                segment=self.segment_index,
            ) from error

    def recv(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        if timeout is not None:
            try:
                ready = self._conn.poll(timeout)
            except (OSError, EOFError):
                # A dead pipe is "ready": fall through and let recv() below
                # classify the death precisely.
                ready = True
            if not ready:
                raise WorkerFailedError(
                    f"segment worker {self.segment_index} sent no reply "
                    f"within heartbeat_timeout={timeout:g}s; treating it as "
                    f"hung",
                    segment=self.segment_index,
                )
        try:
            status, payload = self._conn.recv()
        except (EOFError, OSError):
            # EOFError for a clean hangup, OSError (ECONNRESET) when the
            # worker died with bytes still in flight — either way the worker
            # is gone and the supervisor owns what happens next.
            raise WorkerFailedError(
                f"segment worker {self.segment_index} died without replying "
                f"(worker process exited; exit code appears in the shutdown "
                f"diagnostics)",
                segment=self.segment_index,
            ) from None
        if status == "error":
            if isinstance(payload, BaseException):
                raise payload
            raise ShardingProtocolError(
                f"segment worker {self.segment_index} failed: {payload}"
            )
        return payload

    def kill(self) -> None:
        """Fast teardown for recovery: no close handshake (the worker may be
        dead or hung), just drop the pipe and make sure the process is gone."""
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - pipe already torn down
            pass
        if self._process.is_alive():
            self._process.terminate()
        self._process.join(timeout=10)

    def close(self) -> Optional[str]:
        """Shut the worker down and report how it went.

        Returns ``None`` on a clean exit, otherwise a diagnostic string.
        Raising here would mask whatever error is already propagating
        through the coordinator's unwind, so the *caller* decides whether a
        dirty shutdown escalates (see ``_ShardedCoordinator._shutdown``).
        """
        problem: Optional[str] = None
        try:
            self._conn.send(("close", {}))
        except OSError as error:
            # Worker hung up first; the exit code below says whether that
            # was a crash or an earlier clean return.
            problem = (
                f"segment worker {self.segment_index} pipe already closed: {error}"
            )
        self._process.join(timeout=10)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
            self._process.join(timeout=10)
            problem = f"segment worker {self.segment_index} had to be terminated"
        elif self._process.exitcode:
            problem = (
                f"segment worker {self.segment_index} exited with code "
                f"{self._process.exitcode}"
            )
        self._conn.close()
        return problem


def _spawn_workers(spec_payload, segments, restore_paths=None):
    if restore_paths is None:
        restore_paths = [None] * len(segments)
    methods = multiprocessing.get_all_start_methods()
    # fork is dramatically cheaper than spawn (no interpreter + import replay
    # per worker) and the coordinator is single-threaded at spawn time.
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    handles = []
    try:
        for index in range(len(segments)):
            handles.append(
                _ProcessHandle(
                    context, spec_payload, index, segments,
                    restore_paths[index],
                )
            )
    except BaseException:
        # A mid-list spawn failure (fd exhaustion, a worker refusing the
        # scenario) must not leak the workers already started.
        for handle in handles:
            handle.close()
        raise
    return handles


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


class _ShardedCoordinator:
    """Drives the window loop, supervises the workers and merges results.

    The coordinator is also the supervisor: every worker command runs
    through :meth:`_send` / :meth:`_recv` (fault directives, bounded retry,
    heartbeat timeout), and :meth:`run` wraps the whole attempt in a
    recovery loop — a :class:`WorkerFailedError` tears all workers down and,
    when ``RunPolicy.recovery`` allows, rewinds to the last consistent
    per-segment checkpoint cut and respawns (``"restart"``) or folds the
    orphaned segment into a neighbour (``"fold"``) before retrying.
    """

    def __init__(
        self,
        spec: "ScenarioSpec",
        shards: int,
        faults: Optional[FaultPlan],
        clock: Optional[Callable[[], float]],
    ) -> None:
        from ..api.registry import ALGORITHMS
        from ..api.session import build_topology

        topology = build_topology(spec.topology)
        if not isinstance(topology, LineTopology):
            raise UnshardableScenarioError(
                f"sharded execution needs a line topology, got "
                f"{spec.topology.kind!r}; run with shards=1"
            )
        if spec.policy.engine not in ("batch", "auto"):
            raise UnshardableScenarioError(
                f"sharded execution runs only the batch kernel, but the "
                f"policy asks for engine={spec.policy.engine!r}; set "
                f"engine='batch' or 'auto', or run with shards=1"
            )
        if spec.algorithm.name in ALGORITHMS:
            check_segment_scan(ALGORITHMS.get(spec.algorithm.name))
        self.spec = spec
        self.num_nodes = topology.num_nodes
        self.segments = plan_segments(self.num_nodes, shards)
        self.handles: List[Any] = []
        self._executed = 0
        # -- ring state -----------------------------------------------------------
        #: Coordinator ends of the shared-memory boundary rings.
        self._rings: List[BoundaryRing] = []
        self._ring_timeout = 60.0
        # -- supervisor configuration ------------------------------------------
        policy = spec.policy
        self._recovery_mode = policy.recovery
        self._max_restarts = policy.max_worker_restarts
        self._heartbeat_timeout = policy.heartbeat_timeout
        self._faults = faults
        self._injector = FaultInjector(faults) if faults else None
        self._clock = clock
        #: ``(round, phase rank, event index)`` of every crash/slow event a
        #: window shipped whose window has not been collected yet.
        self._window_fired: List[Tuple[int, int, int]] = []
        # -- recovery state -----------------------------------------------------
        self._restarts = 0
        self._recovery_seconds = 0.0
        self._resume_round = 0
        self._restore_paths: Optional[List[Optional[str]]] = None
        #: The last *complete* per-segment checkpoint cut: rounds executed
        #: and one restore file per current segment (kept aligned with
        #: ``self.segments`` even across folds).
        self._cut_rounds: Optional[int] = None
        self._cut_paths: List[str] = []
        #: Recovery scaffolding currently on disk (per-segment snapshots and
        #: fold merges); refreshed — and stale members unlinked — at every
        #: successful checkpoint.
        self._disk_paths: set = set()

    # -- lifecycle ---------------------------------------------------------------

    def run(self) -> Tuple[SimulationResult, Dict[str, Any]]:
        while True:
            try:
                return self._run_attempt()
            except WorkerFailedError as failure:
                self._teardown()
                self._rearm_unrun_faults(failure)
                self._plan_recovery(failure)
            except BaseException:
                # An error is already propagating — close best-effort and let
                # it through; shutdown diagnostics must not mask the fault.
                self._teardown()
                raise

    def _run_attempt(self) -> Tuple[SimulationResult, Dict[str, Any]]:
        policy = self.spec.policy
        spec_payload = self.spec.to_dict()
        self.handles = _spawn_workers(
            spec_payload, self.segments, self._restore_paths
        )
        infos = [handle.init_payload for handle in self.handles]
        horizon = infos[0]["horizon"]
        for info in infos[1:]:
            if info["horizon"] != horizon:
                raise ShardingProtocolError(
                    "segment workers disagree on the adversary horizon"
                )
        num_rounds = policy.rounds if policy.rounds is not None else horizon
        self._setup_rings(infos, policy)

        start_round = self._resume_round
        pending = 0
        if start_round:
            # Restored engines know their pending counts; the coordinator's
            # were lost with the failed attempt.  Matters when the cut sits
            # exactly at the horizon (crash during drain): the injection
            # loop below is empty and drain needs real counters.
            status = self._broadcast("status", {}, start_round)
            pending = sum(reply["pending"] for reply in status)
        pending = self._run_windows(start_round, num_rounds, policy, pending)
        drained = (
            self._drain_windows(num_rounds, pending, policy)
            if policy.drain else pending == 0
        )
        result, extras = self._collect(drained)
        # Success path: a worker that crashed or hung at shutdown invalidates
        # the clean-run claim, so close diagnostics escalate.
        self._shutdown(strict=True)
        return result, extras

    def _shutdown(self, *, strict: bool) -> None:
        problems: List[str] = []
        for handle in self.handles:
            problem = handle.close()
            if problem:
                problems.append(problem)
        self.handles = []
        self._release_rings()
        if strict and problems:
            raise ShardingProtocolError(
                "worker shutdown failed after a completed run: "
                + "; ".join(problems)
            )

    def _teardown(self) -> None:
        """Recovery-path shutdown: no close handshake — peers of the failed
        worker may be mid-phase and a handshake could hang on them."""
        for handle in self.handles:
            handle.kill()
        self.handles = []
        self._release_rings()

    # -- windows over the boundary rings ------------------------------------------

    def _release_rings(self) -> None:
        for ring in self._rings:
            ring.destroy()
        self._rings = []

    def _setup_rings(self, infos: List[Dict[str, Any]], policy) -> None:
        """Create the boundary rings and ship their names to the workers.

        One left-to-right ring per segment boundary; the right-to-left lane
        only when some algorithm decision reads suffix facts (downhill's
        neighbour load, work-conserving PTS's any-bad flag).  A host that
        cannot create them refuses the run (:func:`_no_rings`); :meth:`run`
        then tears the spawned workers down.
        """
        boundaries = len(self.handles) - 1
        needs_reverse = any(
            info.get("needs_reverse_lane") for info in infos
        )
        # Capacity covers the maximum producer/consumer skew: two outstanding
        # windows of batch_rounds rounds each, one block per round per lane.
        capacity = 2 * policy.batch_rounds + 8
        forward: List[Optional[BoundaryRing]] = []
        reverse: List[Optional[BoundaryRing]] = []
        try:
            for _ in range(boundaries):
                forward.append(BoundaryRing(capacity=capacity))
                reverse.append(
                    BoundaryRing(capacity=capacity) if needs_reverse else None
                )
        except (OSError, ValueError, ImportError) as error:
            for ring in forward + reverse:
                if ring is not None:
                    ring.destroy()
            raise _no_rings(error) from error
        self._rings = [
            ring for ring in forward + reverse if ring is not None
        ]
        self._ring_timeout = (
            60.0 if self._heartbeat_timeout is None
            else max(5.0, self._heartbeat_timeout * 4)
        )
        for index, handle in enumerate(self.handles):
            names: Dict[str, str] = {}
            if index > 0:
                names["left_in"] = forward[index - 1].name
                if needs_reverse:
                    names["left_out"] = reverse[index - 1].name
            if index < boundaries:
                names["right_out"] = forward[index].name
                if needs_reverse:
                    names["right_in"] = reverse[index].name
            self._send(handle, "rings", {"names": names}, 0)
        for handle in self.handles:
            self._recv(handle, "rings", 0)

    def _window_faults(
        self, t0: int, t1: int, segment: int
    ) -> Optional[Dict[int, Dict[str, Any]]]:
        """Collapse per-phase fault directives into per-round window faults.

        A window has no per-round coordinator messages to piggyback
        directives on, so the rounds' begin/select/finish directives merge
        into one directive applied at the start of the round inside the
        worker: delays add up, a crash in any phase crashes the round.
        """
        if self._injector is None:
            return None
        merged: Dict[int, Dict[str, Any]] = {}
        for round_number in range(t0, t1):
            crash = False
            delay = 0.0
            for rank, phase in enumerate(_WINDOW_PHASES):
                fired: List[int] = []
                directive = self._injector.directives_for(
                    round_number, segment, phase, fired
                )
                self._window_fired.extend(
                    (round_number, rank, index) for index in fired
                )
                if directive is not None:
                    crash = crash or directive.get("crash", False)
                    delay += directive.get("delay", 0.0)
            if crash or delay > 0:
                merged[round_number] = {"crash": crash, "delay": delay}
        return merged or None

    def _retry_drops(self, round_number: int, segment: int, phase: str) -> None:
        """Act out the plan's ``drop`` faults on one send.

        Each matching drop token makes one attempt fail; the supervisor
        retries with linear backoff up to ``_MAX_RETRIES`` times before
        escalating the worker as failed.  (A *real* dead pipe raises
        :class:`WorkerFailedError` from the handle directly — retrying a
        dead worker cannot help, recovery can.)
        """
        attempts = 0
        while self._injector.drop_next_send(round_number, segment, phase):
            attempts += 1
            if attempts > _MAX_RETRIES:
                raise WorkerFailedError(
                    f"send of {phase!r} to segment worker {segment} "
                    f"(round {round_number}) still failing after "
                    f"{_MAX_RETRIES} retries",
                    segment=segment,
                    round_number=round_number,
                    phase=phase,
                )
            time.sleep(_RETRY_BACKOFF * attempts)

    def _send_window(self, t0: int, t1: int, *, inject: bool) -> None:
        for handle in self.handles:
            if self._injector is not None:
                for round_number in range(t0, t1):
                    for phase in _WINDOW_PHASES:
                        self._retry_drops(
                            round_number, handle.segment_index, phase
                        )
            payload: Dict[str, Any] = {
                "t0": t0,
                "t1": t1,
                "inject": inject,
                "ring_timeout": self._ring_timeout,
            }
            faults = self._window_faults(t0, t1, handle.segment_index)
            if faults is not None:
                payload["faults"] = faults
            self._send(handle, "window", payload, t0)

    def _window_replies(self, t0: int) -> List[Dict[str, Any]]:
        """Collect one window reply per worker, blaming failures precisely.

        Workers finish a window in line order but stall on each other's
        rings, so a crashed worker starves its neighbours too.  Receiving in
        fixed order would blame whichever innocent neighbour happens to be
        polled first; instead sweep all pipes and, when nothing progresses,
        look for an actually-dead worker process before declaring a hang.
        """
        count = len(self.handles)
        replies: List[Optional[Dict[str, Any]]] = [None] * count
        waiting = list(range(count))
        # Clock-free supervision: charge each not-ready poll its nominal
        # blocking time against the heartbeat budget instead of reading a
        # wall clock (RPR001 scope).  The effective timeout is a floor on
        # time actually spent blocked, which is exactly what "the worker
        # sent nothing while we waited" means.
        budget = self._heartbeat_timeout
        while waiting:
            progressed = False
            for index in list(waiting):
                handle = self.handles[index]
                try:
                    ready = handle._conn.poll(0.02)
                except (OSError, EOFError):
                    ready = True  # dead pipe: let _recv classify it
                if not ready:
                    if budget is not None:
                        budget -= 0.02
                    continue
                replies[index] = self._recv(handle, "window", t0)
                waiting.remove(index)
                progressed = True
            if progressed or not waiting:
                continue
            for index in waiting:
                if not self.handles[index]._process.is_alive():
                    raise WorkerFailedError(
                        f"segment worker {index} died mid-window at round "
                        f"{t0} (worker process exited)",
                        segment=index,
                        round_number=t0,
                        phase="window",
                    )
            if budget is not None and budget <= 0:
                index = waiting[0]
                raise WorkerFailedError(
                    f"segment worker {index} sent no window reply within "
                    f"heartbeat_timeout={self._heartbeat_timeout:g}s; "
                    f"treating it as hung",
                    segment=index,
                    round_number=t0,
                    phase="window",
                )
        return replies  # type: ignore[return-value]

    def _collect_window(self, t0: int, t1: int) -> Tuple[int, List[int], List[int]]:
        """Await one window from every worker; return global per-round sums."""
        replies = self._window_replies(t0)
        width = t1 - t0
        for index, reply in enumerate(replies):
            if len(reply["forwarded"]) != width:
                raise ShardingProtocolError(
                    f"segment worker {index} executed "
                    f"{len(reply['forwarded'])} rounds of window "
                    f"[{t0}, {t1})"
                )
        forwarded = [
            sum(reply["forwarded"][j] for reply in replies)
            for j in range(width)
        ]
        stored = [
            sum(reply["stored"][j] for reply in replies)
            for j in range(width)
        ]
        self._executed = t1
        self._window_fired = [
            record for record in self._window_fired if record[0] >= t1
        ]
        pending = stored[-1] if stored else 0
        return pending, forwarded, stored

    def _rearm_unrun_faults(self, failure: WorkerFailedError) -> None:
        """Give back the crash/slow events of windows that never ran.

        A window's directives are consumed when the window is sent, up to
        two windows ahead of execution, but the workers stop at the first
        disruptive event: a crash, or a delay that outlasts the heartbeat
        timeout — or earlier, at the failure's own ``(round, phase)`` when
        the supervisor raised it (a send that kept dropping).  Events past
        that point never ran; they are re-armed, so the replay fires them
        and every event of a plan costs its own restart, whatever the window
        length.
        """
        shipped, self._window_fired = self._window_fired, []
        if not shipped:
            return
        events = self._faults.events
        timeout = self._heartbeat_timeout
        stops = [
            (round_number, rank)
            for round_number, rank, index in shipped
            if events[index].kind == "crash"
            or (timeout is not None and events[index].delay >= timeout)
        ]
        if failure.phase in _WINDOW_PHASES and failure.round_number is not None:
            stops.append(
                (failure.round_number, _WINDOW_PHASES.index(failure.phase))
            )
        if stops:
            stop = min(stops)
            self._injector.rearm(
                index for round_number, rank, index in shipped
                if (round_number, rank) > stop
            )

    def _truncate(self, to_round: int) -> None:
        """Rewind every worker's drain overshoot to ``to_round``."""
        for handle in self.handles:
            self._send(handle, "truncate", {"round": to_round}, to_round)
        for handle in self.handles:
            self._recv(handle, "truncate", to_round)
        self._executed = to_round

    def _run_windows(
        self, start_round: int, num_rounds: int, policy, pending: int
    ) -> int:
        """The injection loop in k-round windows, pipelined two deep.

        Windows are clamped to checkpoint cuts, and a cut drains the
        pipeline (a checkpoint needs every worker parked at the same round
        boundary) before the per-segment snapshot protocol runs unchanged.
        """
        every = policy.checkpoint_every
        windows: List[Tuple[int, int]] = []
        t = start_round
        while t < num_rounds:
            t1 = min(num_rounds, t + policy.batch_rounds)
            if every is not None:
                t1 = min(t1, (t // every + 1) * every)
            windows.append((t, t1))
            t = t1
        outstanding: deque = deque()
        for t0, t1 in windows:
            self._send_window(t0, t1, inject=True)
            outstanding.append((t0, t1))
            cut = every is not None and t1 % every == 0
            while outstanding and (cut or len(outstanding) >= 2):
                pending, _forwarded, _stored = self._collect_window(
                    *outstanding.popleft()
                )
            if cut:
                self._checkpoint(policy.checkpoint_path, t1)
        while outstanding:
            pending, _forwarded, _stored = self._collect_window(
                *outstanding.popleft()
            )
        return pending

    def _drain_windows(self, start_round: int, pending: int, policy) -> bool:
        """Window-mode drain: free-run, then replay the global stop rule.

        Workers cannot evaluate the stop conditions (they see only their
        segment), so each drain window runs to completion and the
        coordinator steps the shared :class:`DrainStop` rule over the summed
        per-round counters; a mid-window stop truncates the workers'
        overshoot, which is provably side-effect-free (module docstring of
        :mod:`repro.network.batch_sharded`).  The batch family never stages
        packets, so quiescence degenerates to ``forwarded == 0``.
        """
        rule = DrainStop(self.num_nodes, pending, policy.max_drain_rounds)
        t = start_round
        while pending > 0 and not rule.stopped:
            width = min(policy.batch_rounds, rule.cap - rule.rounds)
            self._send_window(t, t + width, inject=False)
            _last, forwarded, stored = self._collect_window(t, t + width)
            executed = 0
            for j in range(width):
                pending = stored[j]
                executed += 1
                if rule.step(forwarded[j]) or pending == 0:
                    break
            if executed < width:
                self._truncate(t + executed)
            t += executed
        return pending == 0

    # -- recovery ----------------------------------------------------------------

    def _plan_recovery(self, failure: WorkerFailedError) -> None:
        """Decide how the next attempt runs, or re-raise if recovery is off
        the table.  On return, ``self.segments`` / ``self._restore_paths`` /
        ``self._resume_round`` describe the next attempt."""
        if self._recovery_mode == "fail":
            raise failure
        if self._restarts >= self._max_restarts:
            who = (
                f"segment worker {failure.segment}"
                if failure.segment is not None else "a segment worker"
            )
            raise RecoveryExhaustedError(
                f"worker recovery budget exhausted: {self._restarts} "
                f"restart(s) already used and {who} failed again "
                f"(max_worker_restarts={self._max_restarts}).  Last failure: "
                f"{failure}.  Raise RunPolicy.max_worker_restarts, or "
                f"investigate why workers keep dying."
            ) from failure
        if self._recovery_mode == "fold" and len(self.segments) == 1:
            raise RecoveryExhaustedError(
                f"cannot fold after the failure of segment worker "
                f"{failure.segment}: the run is down to a single segment, "
                f"so there is no neighbouring worker to absorb it.  Use "
                f"recovery='restart' or start with more shards."
            ) from failure
        started = self._clock() if self._clock is not None else None
        self._restarts += 1
        cut = self._load_consistent_cut()
        if self._recovery_mode == "fold" and failure.segment is not None:
            self._fold_segment(failure.segment, cut)
        if cut is None:
            # No checkpointing configured, no cut taken yet, or the cut was
            # torn by the failure (e.g. mid-checkpoint crash): replay from
            # round 0 with fresh workers.  Deterministic, just slower.
            self._resume_round = 0
            self._restore_paths = None
            self._executed = 0
        else:
            self._resume_round = self._cut_rounds or 0
            self._restore_paths = list(self._cut_paths)
            self._executed = self._resume_round
        if started is not None:
            self._recovery_seconds += self._clock() - started

    def _load_consistent_cut(self) -> Optional[List[Any]]:
        """Load and validate the last per-segment checkpoint cut.

        Returns the loaded :class:`~repro.checkpoint.Checkpoint` objects (in
        segment order, aligned with ``self.segments``) or ``None`` when no
        usable cut exists.  Validation reuses
        :func:`~repro.checkpoint.stitch_checkpoints`: the files must agree on
        round, spec hash, allocator position and adversary cursor — a
        mismatch (now a typed
        :class:`~repro.network.errors.CheckpointFormatError`) means the
        failure tore the cut, and recovery falls back to round 0 rather than
        resuming from inconsistent state.
        """
        from ..checkpoint import load_checkpoint, stitch_checkpoints

        if self._cut_rounds is None or not self._cut_paths:
            return None
        try:
            checkpoints = [load_checkpoint(path) for path in self._cut_paths]
            stitched = stitch_checkpoints(checkpoints)
        except (OSError, CheckpointError):
            self._forget_cut()
            return None
        if stitched.round != self._cut_rounds:
            self._forget_cut()
            return None
        return checkpoints

    def _forget_cut(self) -> None:
        self._cut_rounds = None
        self._cut_paths = []

    def _fold_segment(self, dead: int, cut: Optional[List[Any]]) -> None:
        """Merge the dead worker's segment into a neighbour (k -> k-1).

        The left neighbour absorbs it (the right one for segment 0).  With a
        usable cut, the pair's snapshots are restitched into one merge file
        the widened worker restores from; without one, the merged plan simply
        replays from round 0.  The cut bookkeeping is updated in the same
        step so it stays aligned with ``self.segments``.
        """
        from ..checkpoint import save_stitched

        if not 0 <= dead < len(self.segments):
            # The failure could not name its segment (or named a stale one);
            # there is nothing to fold, so keep the plan and just respawn.
            return
        neighbour = dead - 1 if dead > 0 else dead + 1
        left, right = sorted((dead, neighbour))
        merged = (self.segments[left][0], self.segments[right][1])
        self.segments = (
            self.segments[:left] + [merged] + self.segments[right + 1:]
        )
        if cut is not None:
            merge_path = (
                f"{self.spec.policy.checkpoint_path}.segfold{self._restarts}"
            )
            save_stitched([cut[left], cut[right]], merge_path)
            self._disk_paths.add(merge_path)
            self._cut_paths = (
                self._cut_paths[:left] + [merge_path]
                + self._cut_paths[right + 1:]
            )

    # -- supervised worker commands ------------------------------------------------

    def _send(
        self,
        handle: Any,
        command: str,
        payload: Dict[str, Any],
        round_number: int,
    ) -> None:
        """One supervised send with the ``checkpoint`` faults of the plan.

        The per-round phases' faults travel inside the window payload
        (:meth:`_send_window`); the periodic snapshot command is the one
        command a plan targets directly.
        """
        if self._injector is not None and command == "checkpoint":
            directive = self._injector.directives_for(
                round_number, handle.segment_index, command
            )
            if directive is not None:
                payload = dict(payload, fault=directive)
            self._retry_drops(round_number, handle.segment_index, command)
        try:
            handle.send(command, payload)
        except WorkerFailedError as error:
            # A dead pipe: attach the (segment, round, phase) coordinate,
            # as _recv() does.
            raise WorkerFailedError(
                f"segment worker {handle.segment_index} failed during "
                f"{command!r} of round {round_number}: {error}",
                segment=handle.segment_index,
                round_number=round_number,
                phase=command,
            ) from error

    def _recv(
        self, handle: Any, command: str, round_number: int
    ) -> Dict[str, Any]:
        """One supervised receive: heartbeat timeout + failure context."""
        try:
            return handle.recv(timeout=self._heartbeat_timeout)
        except WorkerFailedError as error:
            raise WorkerFailedError(
                f"segment worker {handle.segment_index} failed during "
                f"{command!r} of round {round_number}: {error}",
                segment=handle.segment_index,
                round_number=round_number,
                phase=command,
            ) from error

    def _broadcast(
        self, command: str, payload: Dict[str, Any], round_number: int
    ) -> List[Dict[str, Any]]:
        for handle in self.handles:
            self._send(handle, command, payload, round_number)
        return [
            self._recv(handle, command, round_number)
            for handle in self.handles
        ]

    # -- checkpointing ---------------------------------------------------------------

    def _checkpoint(self, path: str, rounds_done: int) -> None:
        from ..checkpoint import load_checkpoint, save_stitched

        keep = self._recovery_mode != "fail"
        round_number = rounds_done - 1  # the round this checkpoint follows
        segment_paths = [
            f"{path}.seg{index}" for index in range(len(self.handles))
        ]
        # Two-phase cut when recovery needs the per-segment files: workers
        # write to *.new staging names, and only after every worker replied
        # does the coordinator rename the whole set into place.  A worker
        # that crashes mid-checkpoint therefore tears the *new* cut, never
        # the previous consistent one.
        write_paths = (
            [f"{p}.new" for p in segment_paths] if keep else segment_paths
        )
        for handle, write_path in zip(self.handles, write_paths):
            self._send(
                handle, "checkpoint", {"path": write_path}, round_number
            )
        for handle in self.handles:
            self._recv(handle, "checkpoint", round_number)
        if keep:
            for write_path, segment_path in zip(write_paths, segment_paths):
                os.replace(write_path, segment_path)
        save_stitched(
            [load_checkpoint(segment_path) for segment_path in segment_paths],
            path,
        )
        if keep:
            # The per-segment snapshots ARE the recovery cut: retain them,
            # record the coordinator state a rewind must restore, and drop
            # whatever scaffolding the previous cut left behind (stale
            # higher-index files after a fold, fold merge files).
            stale = self._disk_paths - set(segment_paths)
            for stale_path in stale:
                try:
                    os.unlink(stale_path)
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
            self._disk_paths = set(segment_paths)
            self._cut_rounds = rounds_done
            self._cut_paths = list(segment_paths)
            return
        # The stitched file is the product; the per-segment snapshots are
        # scaffolding.  Remove them so periodic checkpointing does not k-fold
        # the on-disk footprint (and a later run with fewer shards cannot
        # leave stale higher-index files behind).  Kept only if stitching
        # raised above — then they are the debugging evidence.
        for segment_path in segment_paths:
            try:
                os.unlink(segment_path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    # -- result merge -----------------------------------------------------------------

    def _collect(self, drained: bool) -> Tuple[SimulationResult, Dict[str, Any]]:
        replies = self._broadcast("result", {}, self._executed)
        for reply in replies:
            if reply["round"] != self._executed:
                raise ShardingProtocolError(
                    f"segment engines disagree on the round counter: "
                    f"{reply['round']} != {self._executed}"
                )
        injected = sum(reply["injected"] for reply in replies)
        delivered = sum(reply["delivered"] for reply in replies)
        latency_sum = sum(reply["latency_sum"] for reply in replies)
        latency_maxima = [
            reply["latency_max"] for reply in replies
            if reply["latency_max"] is not None
        ]
        max_per_node: Dict[int, int] = {}
        for reply in replies:
            max_per_node.update(reply["max_per_node"])

        history: List[RoundRecord] = []
        lengths = {len(reply["history"]) for reply in replies}
        if len(lengths) != 1:
            raise ShardingProtocolError(
                f"segment histories disagree on length: {sorted(lengths)}"
            )
        if lengths != {0}:
            for rows in zip(*(reply["history"] for reply in replies)):
                occupancy: Optional[Dict[int, int]] = None
                if any(row[7] is not None for row in rows):
                    occupancy = {}
                    for row in rows:
                        occupancy.update(row[7] or {})
                history.append(
                    RoundRecord(
                        round=rows[0][0],
                        injected=sum(row[1] for row in rows),
                        forwarded=sum(row[2] for row in rows),
                        delivered=sum(row[3] for row in rows),
                        max_occupancy=max(row[4] for row in rows),
                        max_occupancy_after_forwarding=max(row[5] for row in rows),
                        staged=sum(row[6] for row in rows),
                        occupancy=occupancy,
                    )
                )

        result = SimulationResult(
            algorithm=replies[0]["algorithm_name"],
            num_nodes=self.num_nodes,
            rounds_executed=self._executed,
            max_occupancy=max(reply["max_occupancy"] for reply in replies),
            max_occupancy_per_node=max_per_node,
            max_staged=0,  # the batch family never stages packets
            packets_injected=injected,
            packets_delivered=delivered,
            packets_undelivered=injected - delivered,
            max_latency=max(latency_maxima) if latency_maxima else None,
            mean_latency=(latency_sum / delivered) if delivered else None,
            drained=drained,
            history=history,
        )
        extras = {
            "adversary_sigma": replies[0]["adversary_sigma"],
            "segments": list(self.segments),
            "recovery": {
                "restarts": self._restarts,
                "recovery_time_s": (
                    self._recovery_seconds if self._clock is not None else None
                ),
            },
            "engine": {
                "requested": self.spec.policy.engine,
                "selected": "batch",
                "fallback_reason": None,
                "transport": "shm",
            },
            "handoff_traces": [
                reply.get("handoff_trace") for reply in replies
            ],
        }
        return result, extras


def run_sharded(
    spec: "ScenarioSpec",
    *,
    shards: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
    clock: Optional[Callable[[], float]] = None,
) -> Tuple[SimulationResult, Dict[str, Any]]:
    """Execute ``spec`` sharded across segment worker processes.

    ``shards`` defaults to the spec's ``policy.shards`` and is clamped to
    the line length (``shards > n`` runs one node per worker).  Returns the
    merged :class:`SimulationResult` — bit-identical to the ``shards=1``
    run — plus an extras mapping (the adversary's declared sigma, the
    segment plan, the engine-routing record, each segment's hand-off trace,
    and the recovery stats: how many worker restarts the run absorbed and,
    when a ``clock`` was injected, the seconds spent restitching and
    respawning).

    The batch kernel is the only segment engine, so ``spec.policy.engine``
    must be ``"batch"`` or ``"auto"`` and the scenario must be one the
    kernel accepts; anything else — or a host that cannot create the
    shared-memory boundary rings — raises
    :class:`~repro.network.errors.UnshardableScenarioError`.

    ``faults`` threads a deterministic
    :class:`~repro.network.faults.FaultPlan` through the supervisor for
    chaos runs; it never touches the spec, so results and checkpoints stay
    byte-identical to the fault-free run whenever recovery is enabled
    (``spec.policy.recovery``).  ``clock`` is an injectable monotonic time
    source (e.g. ``time.perf_counter``) used only to measure
    ``recovery_time_s``; the engine itself never reads wall-clock time, so
    results stay deterministic with or without one.
    """
    if shards is None:
        shards = spec.policy.shards
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
        raise UnshardableScenarioError(
            f"run_sharded() needs shards >= 1, got {shards!r}"
        )
    if faults is not None and not isinstance(faults, FaultPlan):
        raise UnshardableScenarioError(
            f"faults must be None or a FaultPlan, got {type(faults).__name__}"
        )
    if clock is not None and not callable(clock):
        raise UnshardableScenarioError(
            f"clock must be None or a zero-argument callable returning "
            f"seconds, got {clock!r}"
        )
    return _ShardedCoordinator(spec, shards, faults, clock).run()
