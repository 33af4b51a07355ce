"""The crash-safe simulation job service.

:class:`JobService` is a long-running asyncio server whose headline property
is that **no accepted job is ever lost and no failure mode is untyped**:

* every lifecycle transition is written ahead to the durable journal
  (:mod:`repro.service.journal`), so ``kill -9`` of the server recovers every
  job to its exact lifecycle state on restart (:meth:`JobService.recover`),
* each running job holds a heartbeat lease in a supervised worker process
  (:mod:`repro.service.workers`); a dead worker or expired lease triggers
  bounded retry-with-backoff that resumes from the job's last durable
  checkpoint — never from a stale packet-id scope — and exhausting the
  budget lands the job in the typed terminal
  :class:`~repro.service.errors.JobFailedError` state,
* admission is bounded and fair (:mod:`repro.service.scheduler`): a full
  queue rejects with :class:`~repro.service.errors.ServiceOverloadedError`
  instead of growing without bound, and per-tenant fair share plus priority
  decide who runs next,
* ``SIGTERM`` drains gracefully: admission stops, running jobs are requeued
  at their last checkpoint, the journal is flushed, and a later ``serve``
  on the same data directory picks every job back up.

Deterministic service-level chaos reuses
:class:`~repro.network.faults.FaultPlan`: events target
``(round=attempt, segment=admission index, phase)`` with the service phases
``queued`` / ``running`` / ``checkpointing`` / ``draining`` (see
docs/SERVICE.md for the exact semantics of each (kind, phase) pair).

Protocol: one JSON-line request/response per Unix-socket connection; the
typed thin client lives in :mod:`repro.service.client`.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import socket as socket_module
import threading
import time
from typing import Any, Dict, List, Optional

from ..api.specs import ScenarioSpec, SpecError
from ..network.errors import ReproError
from ..network.faults import FaultInjector, FaultPlan
from .errors import (
    JobNotFoundError,
    ServiceError,
    ServiceUnavailableError,
    error_to_wire,
)
from .jobs import LEGAL_TRANSITIONS, JobRecord
from .journal import Journal
from .scheduler import check_admission, select_next
from .workers import WorkerHandle, _load_json, worker_entry

__all__ = ["JobService"]

#: Fields a job's auxiliary files use, keyed by suffix.
_JOB_SUFFIXES = (".ckpt", ".result.json", ".error.json", ".log", ".hb")


class JobService:
    """Durable job queue + lease-based worker pool over one data directory.

    Parameters
    ----------
    data_dir:
        Everything durable lives here: ``journal/`` (the write-ahead log)
        and ``jobs/`` (per-job checkpoint / result / error / log files).
        Restarting a service on the same directory recovers every job.
    socket_path:
        Unix socket to serve on (default ``<data_dir>/service.sock``).
    max_running:
        Worker-pool width — concurrent leases.
    max_queue_depth:
        Admission bound on *queued* jobs (typed rejection past it).
    lease_seconds:
        Heartbeat staleness after which a worker is declared dead.
    heartbeat_interval:
        How often workers touch their heartbeat file.
    poll_interval:
        Supervisor cadence (reap / lease-check / launch).
    retry_backoff:
        Base of the exponential requeue delay after a worker failure.
    default_max_retries / default_checkpoint_every:
        Per-job defaults when a submission does not pin its own.
    faults:
        Optional :class:`FaultPlan` of deterministic service-level chaos.
    fsync:
        Fsync journal appends (disable only in throwaway tests).
    crash_mode:
        What an injected server crash does: ``"abort"`` (default) stops the
        event loop abruptly in-process — the test half of the differential
        crash suite; ``"exit"`` calls ``os._exit(1)`` for real, which is
        what ``repro service serve`` uses so an external ``kill -9`` and an
        injected crash are indistinguishable.
    """

    def __init__(
        self,
        data_dir: str,
        *,
        socket_path: Optional[str] = None,
        max_running: int = 2,
        max_queue_depth: int = 64,
        lease_seconds: float = 30.0,
        heartbeat_interval: float = 0.5,
        poll_interval: float = 0.05,
        retry_backoff: float = 0.05,
        default_max_retries: int = 3,
        default_checkpoint_every: int = 20,
        faults: Optional[FaultPlan] = None,
        fsync: bool = True,
        crash_mode: str = "abort",
    ) -> None:
        if max_running < 1:
            raise ServiceError(f"max_running must be >= 1, got {max_running}")
        if max_queue_depth < 1:
            raise ServiceError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        if crash_mode not in ("abort", "exit"):
            raise ServiceError(
                f"crash_mode must be 'abort' or 'exit', got {crash_mode!r}"
            )
        self.data_dir = os.path.abspath(data_dir)
        self.jobs_dir = os.path.join(self.data_dir, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)
        self.socket_path = socket_path or os.path.join(self.data_dir, "service.sock")
        self.max_running = max_running
        self.max_queue_depth = max_queue_depth
        self.lease_seconds = lease_seconds
        self.heartbeat_interval = heartbeat_interval
        self.poll_interval = poll_interval
        self.retry_backoff = retry_backoff
        self.default_max_retries = default_max_retries
        self.default_checkpoint_every = default_checkpoint_every
        self.crash_mode = crash_mode
        self.journal = Journal(os.path.join(self.data_dir, "journal"), fsync=fsync)
        self._injector = FaultInjector(faults) if faults is not None else None
        self._mp = multiprocessing.get_context("spawn")

        self._jobs: Dict[str, JobRecord] = {}
        self._workers: Dict[str, WorkerHandle] = {}
        #: Earliest wall-clock time a requeued job may be leased again.
        self._ready_at: Dict[str, float] = {}
        self._counter = 0
        self._draining = False
        self._crashed = False

        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self, timeout: float = 30.0) -> "JobService":
        """Recover, bind the socket, and serve from a background thread."""
        if self._thread is not None:
            raise ServiceError("JobService.start() called twice")
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-job-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ServiceError(
                f"job service did not come up within {timeout}s "
                f"(data_dir={self.data_dir})"
            )
        if self._failure is not None:
            failure = self._failure
            self._thread.join(timeout=5.0)
            raise ServiceError(f"job service failed to start: {failure}") from failure
        return self

    def stop(self, timeout: float = 60.0) -> None:
        """Graceful drain: stop admitting, requeue running jobs, flush, exit."""
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError:
                pass  # the loop finished between the check and the call
        self.join(timeout)

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for the serving thread; re-raise an unexpected server bug."""
        if self._thread is not None:
            self._thread.join(timeout)
        if self._failure is not None and not self._crashed:
            raise ServiceError(
                f"job service died unexpectedly: {self._failure}"
            ) from self._failure

    def is_alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def crashed(self) -> bool:
        """Whether an injected fault (or :meth:`crash`) took the server down."""
        return self._crashed

    def crash(self) -> None:
        """Chaos/testing surface: die like ``kill -9`` (no drain, no flush).

        Everything already journalled is durable; everything else is lost —
        exactly the contract :meth:`recover` is tested against.
        """
        self._crashed = True
        self._kill_all_workers()
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError:
                pass

    # -- recovery (also the stale-job cleanup pass) ------------------------------

    def recover(self) -> Dict[str, str]:
        """Rebuild the job table from the journal and clean up stale leases.

        Returns ``{job_id: action}`` describing what recovery did:
        ``"completed"`` (the worker's result landed but the old server died
        before recording it), ``"failed"`` (likewise for a typed worker
        error), or ``"requeued"`` (stale lease — the job resumes from its
        last checkpoint).  Orphaned files of unknown jobs are removed.
        """
        table: Dict[str, JobRecord] = {}
        for record in self.journal.replay():
            rtype = record.get("type")
            if rtype == "submit":
                job = JobRecord.from_dict(record["job"])
                table[job.job_id] = job
            elif rtype == "state":
                job = table.get(record["job"])
                if job is None:
                    raise ServiceError(
                        f"journal names unknown job {record.get('job')!r} in a "
                        f"state record — the journal directory was truncated "
                        f"or mixed between services"
                    )
                job.state = record["state"]
                job.attempts = record.get("attempts", job.attempts)
                if record.get("error_type") is not None:
                    job.error_type = record["error_type"]
                    job.error_message = record.get("error_message")
            elif rtype == "snapshot":
                table = {
                    payload["job_id"]: JobRecord.from_dict(payload)
                    for payload in record["jobs"]
                }
            elif rtype == "purge":
                table.pop(record["job"], None)
            # drain markers and unknown (newer) record types replay as no-ops

        self._jobs = table
        self._counter = 1 + max((job.index for job in table.values()), default=-1)
        actions: Dict[str, str] = {}
        for job_id in sorted(table, key=lambda jid: table[jid].index):
            job = table[job_id]
            if job.state == "done" and job.result is None:
                job.result = _load_json(self._job_path(job_id, ".result.json"))
            if job.state != "running":
                continue
            # Stale lease: the previous server died while this job held one.
            result = _load_json(self._job_path(job_id, ".result.json"))
            error = _load_json(self._job_path(job_id, ".error.json"))
            if result is not None:
                self._set_state(job, "done", result=result)
                actions[job_id] = "completed"
            elif error is not None:
                self._set_state(
                    job, "failed",
                    error_type=error.get("type", "JobFailedError"),
                    error_message=error.get("message", "worker failed"),
                )
                actions[job_id] = "failed"
            else:
                self._set_state(job, "queued")
                self._log(job, "stale lease: requeued at last checkpoint")
                actions[job_id] = "requeued"
        self._sweep_orphan_files()
        return actions

    def _sweep_orphan_files(self) -> None:
        """Remove job files that no live job owns (stale-job cleanup)."""
        known = set(self._jobs)
        for name in sorted(os.listdir(self.jobs_dir)):
            for suffix in _JOB_SUFFIXES:
                if name.endswith(suffix):
                    job_id = name[: -len(suffix)]
                    if job_id not in known:
                        os.unlink(os.path.join(self.jobs_dir, name))
                    break

    # -- the serving thread ------------------------------------------------------

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._serve_main())
        except BaseException as failure:  # surfaced by join(); never swallowed
            self._failure = failure
            self._ready.set()
            if not isinstance(failure, Exception):
                raise

    async def _serve_main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.recover()
        self._clear_stale_socket()
        server = await asyncio.start_unix_server(
            self._handle, path=self.socket_path, limit=1 << 20
        )
        self._ready.set()
        supervisor = asyncio.create_task(self._supervise())
        try:
            await self._stop_event.wait()
        finally:
            supervisor.cancel()
            try:
                await supervisor
            except asyncio.CancelledError:
                pass
            server.close()
            await server.wait_closed()
            if self._crashed:
                self._kill_all_workers()
            else:
                self._drain_running()
                self._remove_socket()
                self.journal.close()

    def _clear_stale_socket(self) -> None:
        if not os.path.exists(self.socket_path):
            return
        probe = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
        try:
            probe.settimeout(1.0)
            probe.connect(self.socket_path)
        except OSError:
            os.unlink(self.socket_path)  # stale leftover from a dead server
        else:
            probe.close()
            raise ServiceError(
                f"another job service is already serving on {self.socket_path}"
            )
        finally:
            probe.close()

    def _remove_socket(self) -> None:
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass

    # -- supervision -------------------------------------------------------------

    async def _supervise(self) -> None:
        while True:
            await asyncio.sleep(self.poll_interval)
            if self._crashed or self._draining:
                continue
            now = time.time()
            self._reap(now)
            self._launch(now)
            self._maybe_rotate()

    def _reap(self, now: float) -> None:
        for job_id in sorted(self._workers):
            handle = self._workers[job_id]
            job = self._jobs[job_id]
            if handle.alive():
                if handle.lease_expired(now):
                    handle.kill()
                    self._workers.pop(job_id)
                    stale = now - handle.last_heartbeat()
                    self._worker_failed(
                        job,
                        f"lease expired: no heartbeat for {stale:.2f}s "
                        f"(lease_seconds={self.lease_seconds})",
                        now,
                    )
                continue
            handle.kill()  # reap the exit status
            self._workers.pop(job_id)
            exitcode = handle.exitcode
            if exitcode == 0:
                result = _load_json(self._job_path(job_id, ".result.json"))
                if result is not None:
                    self._set_state(job, "done", result=result)
                    self._log(job, "done")
                    continue
                self._worker_failed(
                    job, "worker exited 0 without publishing a result", now
                )
            elif exitcode == 3:
                error = _load_json(self._job_path(job_id, ".error.json")) or {}
                self._set_state(
                    job, "failed",
                    error_type=error.get("type", "JobFailedError"),
                    error_message=error.get("message", "worker logic failure"),
                )
                self._log(
                    job,
                    f"failed (typed, not retried): {job.error_type}: "
                    f"{job.error_message}",
                )
            else:
                self._worker_failed(
                    job, f"worker died with exit code {exitcode}", now
                )

    def _worker_failed(self, job: JobRecord, reason: str, now: float) -> None:
        job.attempts += 1
        if job.attempts > job.max_retries:
            message = (
                f"retry budget exhausted for {job.job_id}: {job.attempts} "
                f"worker failure(s), max_retries={job.max_retries}.  Last "
                f"failure: {reason}.  Raise max_retries on the submission, "
                f"or inspect 'repro service logs {job.job_id}'."
            )
            self._set_state(
                job, "failed",
                error_type="JobFailedError", error_message=message,
            )
            self._log(job, f"failed: {message}")
            return
        backoff = self.retry_backoff * (2 ** (job.attempts - 1))
        self._ready_at[job.job_id] = now + backoff
        self._set_state(job, "queued")
        self._log(
            job,
            f"worker failure ({reason}); retry {job.attempts}/"
            f"{job.max_retries} in {backoff:.2f}s from last checkpoint",
        )

    def _launch(self, now: float) -> None:
        while len(self._workers) < self.max_running:
            runnable = [
                job
                for job in self._jobs.values()
                if job.state == "queued"
                and self._ready_at.get(job.job_id, 0.0) <= now
            ]
            running_by_tenant: Dict[str, int] = {}
            for job_id in self._workers:
                tenant = self._jobs[job_id].tenant
                running_by_tenant[tenant] = running_by_tenant.get(tenant, 0) + 1
            job = select_next(runnable, running_by_tenant)
            if job is None:
                return
            directive = self._worker_directive(job)
            self._set_state(job, "running")
            payload = {
                "spec": job.spec,
                "checkpoint_every": job.checkpoint_every,
                "checkpoint_path": self._job_path(job.job_id, ".ckpt"),
                "result_path": self._job_path(job.job_id, ".result.json"),
                "error_path": self._job_path(job.job_id, ".error.json"),
                "log_path": self._job_path(job.job_id, ".log"),
                "heartbeat_path": self._job_path(job.job_id, ".hb"),
                "heartbeat_interval": self.heartbeat_interval,
                "directive": directive,
            }
            process = self._mp.Process(
                target=worker_entry, args=(payload,), name=f"job-{job.job_id}"
            )
            process.start()
            self._workers[job.job_id] = WorkerHandle(
                job.job_id,
                process,
                payload["heartbeat_path"],
                self.lease_seconds,
            )
            self._log(
                job,
                f"lease granted (attempt {job.attempts + 1}, pid {process.pid})"
                + (f", chaos directive {directive}" if directive else ""),
            )

    def _worker_directive(self, job: JobRecord) -> Optional[Dict[str, Any]]:
        """Worker-bound chaos for this (attempt, job) lease, if any."""
        if self._injector is None:
            return None
        directive: Dict[str, Any] = {}
        for phase in ("running", "checkpointing"):
            fired = self._injector.directives_for(job.attempts, job.index, phase)
            if fired is None:
                continue
            if fired.get("crash") and "crash_phase" not in directive:
                directive["crash_phase"] = phase
            if fired.get("delay"):
                directive["delay"] = directive.get("delay", 0.0) + fired["delay"]
        return directive or None

    def _maybe_rotate(self) -> None:
        if self.journal.active_size <= self.journal.max_segment_bytes:
            return
        snapshot = {
            "type": "snapshot",
            "jobs": [
                self._jobs[job_id].to_dict()
                for job_id in sorted(self._jobs, key=lambda jid: self._jobs[jid].index)
            ],
        }
        self.journal.rotate([snapshot])

    def _kill_all_workers(self) -> None:
        for job_id in sorted(self._workers):
            self._workers[job_id].kill()
        self._workers.clear()

    def _drain_running(self) -> None:
        """Graceful drain: checkpoint-requeue every running job, flush, stop."""
        self._draining = True
        self.journal.append({"type": "drain", "event": "begin"})
        for job_id in sorted(self._workers):
            handle = self._workers.pop(job_id)
            handle.kill()
            job = self._jobs[job_id]
            self._set_state(job, "queued")
            self._log(job, "drained: requeued at last checkpoint")
            if self._maybe_server_crash("draining", job.index, job.attempts):
                return
        self.journal.append({"type": "drain", "event": "end"})

    # -- durable transitions -----------------------------------------------------

    def _job_path(self, job_id: str, suffix: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}{suffix}")

    def _set_state(
        self,
        job: JobRecord,
        state: str,
        *,
        error_type: Optional[str] = None,
        error_message: Optional[str] = None,
        result: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Write-ahead transition: journal first, then apply in memory."""
        if state not in LEGAL_TRANSITIONS[job.state]:
            # advance() would raise the same; check before the journal write
            # so an illegal transition never reaches the durable log.
            job.advance(state)
        self.journal.append(
            {
                "type": "state",
                "job": job.job_id,
                "state": state,
                "attempts": job.attempts,
                "error_type": error_type,
                "error_message": error_message,
            }
        )
        job.advance(
            state,
            error_type=error_type,
            error_message=error_message,
            result=result,
        )

    def _log(self, job: JobRecord, message: str) -> None:
        with open(self._job_path(job.job_id, ".log"), "a", encoding="utf-8") as handle:
            handle.write(f"[service] {job.job_id} {message}\n")

    def _maybe_server_crash(self, phase: str, index: int, attempt: int) -> bool:
        """Fire a server-side fault, if the plan has one at this coordinate."""
        if self._injector is None:
            return False
        fired = self._injector.directives_for(attempt, index, phase)
        if fired is None:
            return False
        if fired.get("delay"):
            time.sleep(fired["delay"])  # a stalled server: blocks the loop
        if fired.get("crash"):
            if self.crash_mode == "exit":
                self._kill_all_workers()
                os._exit(1)
            self.crash()
            return True
        return False

    # -- request handling --------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        response: Optional[Dict[str, Any]] = None
        request: Optional[Dict[str, Any]] = None
        stop_after_reply = False
        try:
            line = await asyncio.wait_for(reader.readline(), timeout=30.0)
        except asyncio.TimeoutError:
            writer.close()
            return
        try:
            decoded = json.loads(line.decode("utf-8"))
            if not isinstance(decoded, dict):
                raise SpecError("request must be a JSON object")
            request = decoded
            op = request.get("op")
            if op == "drain":
                self._draining = True
                response = {"ok": True, "draining": True}
                stop_after_reply = True
            else:
                response = {"ok": True, **self._dispatch(op, request)}
        except ReproError as error:
            response = {"ok": False, "error": error_to_wire(error)}
        except json.JSONDecodeError as error:
            response = {
                "ok": False,
                "error": {"type": "ServiceError", "message": f"bad request: {error}"},
            }

        if self._crashed:
            writer.close()  # the server "died" before replying
            return
        if self._should_drop_reply(request, response):
            writer.close()
            return
        writer.write((json.dumps(response, sort_keys=True) + "\n").encode("utf-8"))
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass  # client went away; its retry will re-ask
        if stop_after_reply and self._stop_event is not None:
            self._stop_event.set()

    def _should_drop_reply(
        self,
        request: Optional[Dict[str, Any]],
        response: Optional[Dict[str, Any]],
    ) -> bool:
        """A ``drop`` fault at phase ``queued``: lose the submit reply."""
        if (
            self._injector is None
            or request is None
            or response is None
            or request.get("op") != "submit"
            or not response.get("ok")
        ):
            return False
        job = self._jobs.get(response.get("job", ""))
        if job is None:
            return False
        return self._injector.drop_next_send(0, job.index, "queued")

    def _dispatch(self, op: Optional[str], request: Dict[str, Any]) -> Dict[str, Any]:
        if op == "submit":
            return self._op_submit(request)
        if op == "ls":
            return self._op_ls()
        if op == "info":
            return self._op_info(self._require_job(request))
        if op == "logs":
            return self._op_logs(self._require_job(request))
        if op == "cancel":
            return self._op_cancel(self._require_job(request))
        if op == "stats":
            return self._op_stats()
        if op == "cleanup":
            return self._op_cleanup()
        raise ServiceError(
            f"unknown op {op!r}; expected submit/ls/info/logs/cancel/"
            f"stats/cleanup/drain"
        )

    def _require_job(self, request: Dict[str, Any]) -> JobRecord:
        job_id = request.get("job")
        if not isinstance(job_id, str) or not job_id:
            raise ServiceError("request needs a 'job' id string")
        job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(job_id)
        return job

    # -- operations --------------------------------------------------------------

    def _op_submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self._draining:
            raise ServiceUnavailableError(
                "the service is draining and no longer admits jobs; "
                "resubmit after the next 'repro service serve'"
            )
        submit_key = request.get("submit_key")
        if submit_key is not None and not isinstance(submit_key, str):
            raise SpecError(f"submit_key must be a string, got {submit_key!r}")
        if submit_key:
            for job in self._jobs.values():
                if job.submit_key == submit_key:
                    return {"job": job.job_id, "state": job.state, "duplicate": True}
        spec_payload = request.get("spec")
        if not isinstance(spec_payload, dict):
            raise SpecError(
                f"submit needs a 'spec' JSON object (a ScenarioSpec), got "
                f"{type(spec_payload).__name__}"
            )
        spec = ScenarioSpec.from_dict(spec_payload)  # typed validation before admission
        if spec.policy.shards is not None and spec.policy.shards > 1:
            raise SpecError(
                f"RunPolicy.shards={spec.policy.shards}: the service "
                f"checkpoints every job and a sharded run writes no "
                f"checkpoints; submit the spec with shards=1"
            )
        tenant = request.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise SpecError(f"tenant must be a non-empty string, got {tenant!r}")
        priority = request.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise SpecError(f"priority must be an int, got {priority!r}")
        queued = sum(1 for job in self._jobs.values() if job.state == "queued")
        check_admission(queued, self.max_queue_depth)
        index = self._counter
        self._counter += 1
        job = JobRecord(
            job_id=f"job-{index:06d}",
            index=index,
            tenant=tenant,
            priority=priority,
            spec=spec_payload,
            submit_key=submit_key or None,
            max_retries=request.get("max_retries", self.default_max_retries),
            checkpoint_every=request.get(
                "checkpoint_every", self.default_checkpoint_every
            ),
        )
        self.journal.append({"type": "submit", "job": job.to_dict()})
        self._jobs[job.job_id] = job
        self._log(job, f"queued (tenant={tenant}, priority={priority})")
        self._maybe_server_crash("queued", job.index, 0)
        return {"job": job.job_id, "state": job.state}

    def _op_ls(self) -> Dict[str, Any]:
        rows = [
            {
                "job": job.job_id,
                "tenant": job.tenant,
                "priority": job.priority,
                "state": job.state,
                "attempts": job.attempts,
                "scenario": (job.spec or {}).get("name"),
            }
            for job in sorted(self._jobs.values(), key=lambda j: j.index)
        ]
        return {"jobs": rows}

    def _op_info(self, job: JobRecord) -> Dict[str, Any]:
        return {"info": job.public_view()}

    def _op_logs(self, job: JobRecord) -> Dict[str, Any]:
        path = self._job_path(job.job_id, ".log")
        text = ""
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        return {"text": text}

    def _op_cancel(self, job: JobRecord) -> Dict[str, Any]:
        if job.terminal:
            return {"job": job.job_id, "state": job.state, "already_terminal": True}
        handle = self._workers.pop(job.job_id, None)
        if handle is not None:
            handle.kill()
        self._set_state(job, "cancelled")
        self._log(job, "cancelled")
        return {"job": job.job_id, "state": job.state}

    def _op_stats(self) -> Dict[str, Any]:
        by_state: Dict[str, int] = {}
        for job in self._jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
        return {
            "jobs": len(self._jobs),
            "by_state": by_state,
            "running_leases": len(self._workers),
            "draining": self._draining,
            "worker_failures": sum(job.attempts for job in self._jobs.values()),
        }

    def _op_cleanup(self) -> Dict[str, Any]:
        """Purge terminal jobs and their files (the stale-job cleanup verb)."""
        purged: List[str] = []
        for job_id in sorted(self._jobs, key=lambda jid: self._jobs[jid].index):
            job = self._jobs[job_id]
            if not job.terminal:
                continue
            self.journal.append({"type": "purge", "job": job_id})
            self._jobs.pop(job_id)
            for suffix in _JOB_SUFFIXES:
                path = self._job_path(job_id, suffix)
                if os.path.exists(path):
                    os.unlink(path)
            purged.append(job_id)
        return {"purged": purged}
