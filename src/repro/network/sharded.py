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
quiescence window, fed by globally summed per-round counters) and merges the
per-segment statistics into one :class:`SimulationResult`.

A sharded run is one attempt.  A worker that dies, or hangs past the ring
time-out, surfaces as the typed
:class:`~repro.network.errors.WorkerFailedError` naming its segment, a
broken window protocol as
:class:`~repro.network.errors.ShardingProtocolError`; either way every
worker and ring is torn down first, and nothing is retried.
"""

from __future__ import annotations

import multiprocessing
import pickle
from collections import deque
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..core.packet import packet_id_scope
from .batch_sharded import BatchSegmentSimulator, check_segment_scan
from .errors import (
    ShardingProtocolError,
    UnbatchableScenarioError,
    UnshardableScenarioError,
    WorkerFailedError,
)
from .events import RoundRecord, SimulationResult
from .shm import RING_TIMEOUT, BoundaryRing
from .simulator import DrainStop
from .topology import LineTopology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.specs import ScenarioSpec

__all__ = [
    "plan_segments",
    "run_sharded",
]

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


def _no_rings(error: BaseException) -> UnshardableScenarioError:
    """The refusal for a host where the boundary rings cannot be set up."""
    return UnshardableScenarioError(
        f"sharded execution exchanges boundary facts through shared-memory "
        f"rings, which this host cannot provide ({type(error).__name__}: "
        f"{error}); run with shards=1"
    )


class _SegmentWorker:
    """Builds one segment's scenario ingredients and dispatches commands.

    The worker must be built inside a fresh packet-id scope, so its ids are
    the single-process run's (:func:`_process_worker_main` opens one).
    """

    def __init__(
        self,
        spec_payload: Dict[str, Any],
        segment_index: int,
        segments: Sequence[Tuple[int, int]],
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
        if command == "window":
            return self._run_window(payload)
        if command == "rings":
            self._attach_rings(payload["names"])
            return {"attached": sorted(self._rings)}
        if command == "truncate":
            self.simulator.truncate_to(payload["round"])
            return {"round": payload["round"]}
        if command == "result":
            self.simulator.sync_for_snapshot()
            return self._result_payload()
        raise ShardingProtocolError(f"unknown worker command {command!r}")

    def _attach_rings(self, names: Dict[str, str]) -> None:
        """Attach the coordinator-created boundary rings this worker uses,
        each labelled with the neighbour at its other end."""
        index = self.simulator.segment_index
        for key, name in names.items():
            peer = index - 1 if key.startswith("left") else index + 1
            try:
                self._rings[key] = BoundaryRing(name=name, peer=peer)
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
    connection, spec_payload, segment_index, segments
) -> None:
    """Worker-process entry point: build the segment engine, serve commands.

    The rings' views are released on every way out, so no ``SharedMemory``
    finalizer meets an exported buffer as the process exits.
    """
    worker: Optional[_SegmentWorker] = None
    try:
        with packet_id_scope():
            worker = _SegmentWorker(spec_payload, segment_index, segments)
            connection.send(("ok", worker.init_info()))
            while True:
                try:
                    message = connection.recv()
                except EOFError:
                    return  # coordinator went away
                command, payload = message
                if command == "close":
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
        if worker is not None:
            worker.close_rings()
        connection.close()


class _ProcessHandle:
    """One worker process plus its pipe."""

    def __init__(self, context, spec_payload, segment_index, segments) -> None:
        self.segment_index = segment_index
        self._conn, child_conn = context.Pipe(duplex=True)
        self._process = context.Process(
            target=_process_worker_main,
            args=(child_conn, spec_payload, segment_index, segments),
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

    def ready(self, timeout: float) -> bool:
        """Whether the pipe holds a reply, or the end-of-file of a dead
        worker, within ``timeout`` seconds."""
        try:
            return self._conn.poll(timeout)
        except (OSError, EOFError):
            return True  # dead pipe: recv() classifies it

    def recv(self) -> Dict[str, Any]:
        try:
            status, payload = self._conn.recv()
        except (EOFError, OSError):
            # EOFError for a clean hangup, OSError (ECONNRESET) when the
            # worker died with bytes still in flight — either way the worker
            # is gone.
            raise WorkerFailedError(
                f"segment worker {self.segment_index} died without replying "
                f"(worker process exited)",
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
        """Fast teardown after a failure: no close handshake (the worker may
        be dead or blocked on a ring), just drop the pipe and make sure the
        process is gone."""
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


def _spawn_workers(spec_payload, segments):
    methods = multiprocessing.get_all_start_methods()
    # fork is dramatically cheaper than spawn (no interpreter + import replay
    # per worker) and the coordinator is single-threaded at spawn time.
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    handles = []
    try:
        for index in range(len(segments)):
            handles.append(
                _ProcessHandle(context, spec_payload, index, segments)
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
    """Drives the window loop over the workers and merges their results.

    :meth:`run` is one attempt: any failure tears every worker and ring
    down and propagates.
    """

    def __init__(self, spec: "ScenarioSpec", shards: int) -> None:
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
        #: Coordinator ends of the shared-memory boundary rings.
        self._rings: List[BoundaryRing] = []

    # -- lifecycle ---------------------------------------------------------------

    def run(self) -> Tuple[SimulationResult, Dict[str, Any]]:
        policy = self.spec.policy
        try:
            self.handles = _spawn_workers(self.spec.to_dict(), self.segments)
            infos = [handle.init_payload for handle in self.handles]
            horizon = infos[0]["horizon"]
            for info in infos[1:]:
                if info["horizon"] != horizon:
                    raise ShardingProtocolError(
                        "segment workers disagree on the adversary horizon"
                    )
            num_rounds = policy.rounds if policy.rounds is not None else horizon
            self._setup_rings(infos, policy)
            pending = self._run_windows(num_rounds, policy)
            drained = (
                self._drain_windows(num_rounds, pending, policy)
                if policy.drain else pending == 0
            )
            result, extras = self._collect(drained)
            self._shutdown()
        except BaseException:
            # An error is already propagating — close best-effort and let
            # it through; shutdown diagnostics must not mask the fault.
            self._teardown()
            raise
        return result, extras

    def _shutdown(self) -> None:
        """Success-path shutdown: a worker that crashed or hung at close
        invalidates the clean-run claim, so close diagnostics escalate."""
        problems: List[str] = []
        for handle in self.handles:
            problem = handle.close()
            if problem:
                problems.append(problem)
        self.handles = []
        self._release_rings()
        if problems:
            raise ShardingProtocolError(
                "worker shutdown failed after a completed run: "
                + "; ".join(problems)
            )

    def _teardown(self) -> None:
        """Failure-path shutdown: no close handshake — peers of a failed
        worker may be blocked on a ring and a handshake could hang on them."""
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

    def _send_window(self, t0: int, t1: int, *, inject: bool) -> None:
        for handle in self.handles:
            self._send(
                handle, "window", {"t0": t0, "t1": t1, "inject": inject}, t0
            )

    def _window_replies(self, t0: int) -> List[Dict[str, Any]]:
        """Collect one window reply per worker, blaming failures precisely.

        Workers finish a window in line order but stall on each other's
        rings, so a crashed worker starves its neighbours too.  Receiving in
        fixed order would blame whichever innocent neighbour happens to be
        polled first; instead sweep all pipes and read whatever arrives.  A
        dead worker's pipe reads as end-of-file, and a neighbour's forwarded
        ring time-out names the segment it waited on (:meth:`_recv`), so
        the pipes alone say who failed.  Once every other worker has
        replied, no neighbour may be left to time out on the last one
        (greedy's left segment never reads from its right neighbour), so
        :meth:`_await_last` gives it the ring time-out.
        """
        count = len(self.handles)
        replies: List[Optional[Dict[str, Any]]] = [None] * count
        waiting = list(range(count))
        while len(waiting) > 1:
            for index in list(waiting):
                handle = self.handles[index]
                if handle.ready(0.02):
                    replies[index] = self._recv(handle, "window", t0)
                    waiting.remove(index)
        for index in waiting:
            self._await_last(self.handles[index], t0)
            replies[index] = self._recv(self.handles[index], "window", t0)
        return replies  # type: ignore[return-value]

    def _await_last(self, handle: Any, t0: int) -> None:
        """Wait for the last reply of a window, for at most the ring time-out.

        A healthy worker replies within the first blocking poll; only a
        silent one goes on to the rings' own clock-free wait (through the
        :class:`BoundaryRing` of this coordinator), after which it is
        reported failed and :meth:`run` tears it down.
        """
        if handle.ready(1.0):
            return
        try:
            self._rings[0]._wait(
                lambda: handle.ready(0), RING_TIMEOUT,
                "no window reply after every other worker replied",
            )
        except WorkerFailedError:
            raise WorkerFailedError(
                f"segment worker {handle.segment_index} timed out in the "
                f"window at round {t0}: no reply within the ring time-out "
                f"after every other worker replied",
                segment=handle.segment_index,
                round_number=t0,
                phase="window",
            ) from None

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
        pending = stored[-1] if stored else 0
        return pending, forwarded, stored

    def _truncate(self, to_round: int) -> None:
        """Rewind every worker's drain overshoot to ``to_round``."""
        for handle in self.handles:
            self._send(handle, "truncate", {"round": to_round}, to_round)
        for handle in self.handles:
            self._recv(handle, "truncate", to_round)
        self._executed = to_round

    def _run_windows(self, num_rounds: int, policy) -> int:
        """The injection loop in k-round windows, pipelined two deep."""
        pending = 0
        outstanding: deque = deque()
        for t0 in range(0, num_rounds, policy.batch_rounds):
            t1 = min(num_rounds, t0 + policy.batch_rounds)
            self._send_window(t0, t1, inject=True)
            outstanding.append((t0, t1))
            if len(outstanding) >= 2:
                pending, _forwarded, _stored = self._collect_window(
                    *outstanding.popleft()
                )
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

    # -- worker commands -------------------------------------------------------------

    def _send(
        self,
        handle: Any,
        command: str,
        payload: Dict[str, Any],
        round_number: int,
    ) -> None:
        """One send; a dead pipe names the segment, round and command."""
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
        """One receive; a dead worker names the segment, round and command.

        A worker that forwards its ring time-out reports the neighbour it
        waited on, and that neighbour is the one named.
        """
        try:
            return handle.recv()
        except WorkerFailedError as error:
            segment = handle.segment_index
            reporter = ""
            if error.segment is not None and error.segment != segment:
                segment = error.segment
                reporter = f" (reported by segment worker {handle.segment_index})"
            raise WorkerFailedError(
                f"segment worker {segment} failed during {command!r} of "
                f"round {round_number}{reporter}: {error}",
                segment=segment,
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
    spec: "ScenarioSpec", *, shards: Optional[int] = None
) -> Tuple[SimulationResult, Dict[str, Any]]:
    """Execute ``spec`` sharded across segment worker processes.

    ``shards`` defaults to the spec's ``policy.shards`` and is clamped to
    the line length (``shards > n`` runs one node per worker).  Returns the
    merged :class:`SimulationResult` — bit-identical to the ``shards=1``
    run — plus an extras mapping (the adversary's declared sigma, the
    segment plan, the engine-routing record and each segment's hand-off
    trace).

    The batch kernel is the only segment engine, so ``spec.policy.engine``
    must be ``"batch"`` or ``"auto"`` and the scenario must be one the
    kernel accepts; anything else — or a host that cannot create the
    shared-memory boundary rings — raises
    :class:`~repro.network.errors.UnshardableScenarioError`.  A worker that
    dies raises :class:`~repro.network.errors.WorkerFailedError` after every
    worker and ring is gone.
    """
    if shards is None:
        shards = spec.policy.shards
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
        raise UnshardableScenarioError(
            f"run_sharded() needs shards >= 1, got {shards!r}"
        )
    return _ShardedCoordinator(spec, shards).run()
