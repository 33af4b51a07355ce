"""Lease-based worker processes: one supervised process per running job.

The server (:class:`~repro.service.server.JobService`) leases a job to a
fresh worker process.  The worker:

1. starts a daemon heartbeat thread that touches the job's heartbeat file
   every ``heartbeat_interval`` seconds — the server declares the lease
   expired (and kills + retries the job) when the file goes stale for
   longer than ``lease_seconds``,
2. runs the job's :class:`~repro.api.specs.ScenarioSpec` through
   :class:`~repro.api.Session` with ``checkpoint_every`` periodic snapshots
   (``Session.resume`` when a checkpoint from an earlier attempt exists, so
   a retry continues from the last durable round boundary instead of from
   scratch — and always inside a fresh packet-id scope, never a stale one),
3. atomically writes the canonical result row (done) or a typed error
   payload (deterministic logic failure) and exits with a disciplined code:

   * ``0``  — done; the result file is durable,
   * ``3``  — the simulation raised a typed :class:`ReproError`; retrying
     would deterministically recur, so the server fails the job immediately
     with the original error type preserved,
   * anything else / signal death — worker crash; the server retries with
     backoff from the last checkpoint until the budget runs out.

Deterministic chaos (the ``directive`` payload, derived from a
:class:`~repro.network.faults.FaultPlan` by the server) is installed
in-process and never leaks outside the worker: ``slow`` delays the worker
*before* heartbeats start (exercising lease expiry), ``crash`` at phase
``"running"`` kills the process right after its first durable checkpoint
commit, and ``crash`` at phase ``"checkpointing"`` kills it just *before*
the first save would happen (so recovery falls back to a clean round-0
replay).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Optional

from ..checkpoint import _atomic_write

__all__ = ["worker_entry", "WorkerHandle", "canonical_result_row"]

#: Worker exit code for a typed, deterministic simulation failure.
LOGIC_FAILURE_EXIT = 3
#: Worker exit code used by injected crash faults (distinguishable in logs).
_CHAOS_EXIT = 11


def canonical_result_row(report: Any) -> Dict[str, Any]:
    """The result row stored for a done job (canonical, JSON-safe).

    This is the same row the CLI's ``--json`` output prints, which is what
    the differential crash suite compares byte-for-byte between a faulted
    run and its crash-free twin.
    """
    return report.as_row()


def _atomic_json(path: str, payload: Dict[str, Any]) -> None:
    """Durably publish a JSON payload (two-phase write, then rename)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    _atomic_write(path, blob.encode("utf-8"))


def _load_json(path: str) -> Optional[Dict[str, Any]]:
    """Read a JSON payload written by :func:`_atomic_json`, or ``None``.

    Atomic publication means the file either exists complete or not at all;
    a parse failure therefore means foreign damage and reads as absent.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def _start_heartbeat(path: str, interval: float) -> None:
    """Touch ``path`` every ``interval`` seconds from a daemon thread."""

    def beat() -> None:
        while True:
            try:
                with open(path, "a", encoding="utf-8"):
                    pass
                os.utime(path, None)
            except OSError:
                return  # the server cleaned the file up: the lease is over
            time.sleep(interval)

    thread = threading.Thread(target=beat, name="job-heartbeat", daemon=True)
    thread.start()


def _install_checkpoint_crash(phase: str) -> None:
    """Arm a deterministic in-process crash around the first checkpoint save.

    Patches ``Simulator.save_checkpoint`` *in this worker process only* —
    the server and sibling workers are unaffected.  Phase ``"checkpointing"``
    dies before any bytes are written (the previous snapshot, if any, stays
    intact thanks to the two-phase checkpoint write); phase ``"running"``
    dies immediately after the first durable commit.
    """
    from ..network.simulator import Simulator

    original = Simulator.save_checkpoint

    def crashing(self: Any, path: str, *, spec: Optional[object] = None) -> int:
        if phase == "checkpointing":
            os._exit(_CHAOS_EXIT)
        written = original(self, path, spec=spec)
        os._exit(_CHAOS_EXIT)
        return written  # pragma: no cover - unreachable

    Simulator.save_checkpoint = crashing  # type: ignore[method-assign]


def worker_entry(payload: Dict[str, Any]) -> None:
    """Process entry point: execute one leased job (see module docstring)."""
    from ..api import ScenarioSpec, Session
    from ..api.builder import Scenario
    from ..network.errors import ReproError

    directive = payload.get("directive") or {}
    delay = directive.get("delay", 0.0)
    if delay:
        # A stalled worker: no heartbeats yet, so a delay longer than the
        # lease exercises the expiry -> kill -> resume path.
        time.sleep(delay)
    _start_heartbeat(payload["heartbeat_path"], payload["heartbeat_interval"])
    crash_phase = directive.get("crash_phase")
    if crash_phase is not None:
        _install_checkpoint_crash(crash_phase)

    def log(message: str) -> None:
        with open(payload["log_path"], "a", encoding="utf-8") as handle:
            handle.write(f"[worker pid={os.getpid()}] {message}\n")

    checkpoint_path = payload["checkpoint_path"]
    try:
        spec = ScenarioSpec.from_dict(payload["spec"])
        spec = (
            Scenario.from_spec(spec)
            .policy(
                checkpoint_every=payload["checkpoint_every"],
                checkpoint_path=checkpoint_path,
            )
            .build()
        )
        if os.path.exists(checkpoint_path):
            log(f"resuming from checkpoint {os.path.basename(checkpoint_path)}")
            report = Session().resume(checkpoint_path, spec=spec)
        else:
            log("starting from round 0")
            report = Session().run(spec)
    except ReproError as error:
        # Deterministic logic failure: record the typed error and exit with
        # the disciplined code so the server fails the job without retrying.
        log(f"typed failure: {type(error).__name__}: {error}")
        _atomic_json(
            payload["error_path"],
            {"type": type(error).__name__, "message": str(error)},
        )
        os._exit(LOGIC_FAILURE_EXIT)
    _atomic_json(payload["result_path"], canonical_result_row(report))
    log(f"done: max_occupancy={report.max_occupancy}")


class WorkerHandle:
    """Server-side view of one leased worker process."""

    __slots__ = (
        "job_id", "process", "heartbeat_path", "lease_seconds", "started",
    )

    def __init__(
        self,
        job_id: str,
        process: Any,
        heartbeat_path: str,
        lease_seconds: float,
    ) -> None:
        self.job_id = job_id
        self.process = process
        self.heartbeat_path = heartbeat_path
        self.lease_seconds = lease_seconds
        self.started = time.time()

    def alive(self) -> bool:
        return bool(self.process.is_alive())

    @property
    def exitcode(self) -> Optional[int]:
        return self.process.exitcode

    def last_heartbeat(self) -> float:
        """Wall-clock time of the last sign of life (spawn counts as one)."""
        try:
            beat = os.path.getmtime(self.heartbeat_path)
        except OSError:
            beat = self.started
        return max(self.started, beat)

    def lease_expired(self, now: Optional[float] = None) -> bool:
        reference = time.time() if now is None else now
        return (reference - self.last_heartbeat()) > self.lease_seconds

    def kill(self) -> None:
        """Hard-stop the worker and reap it (idempotent)."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=10.0)
