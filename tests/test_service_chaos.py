"""The differential crash suite for the job service.

The headline contract under test: with deterministic crash / slow / drop
faults injected at every job lifecycle phase (``queued``, ``running``,
``checkpointing``, ``draining``), every accepted job either ends ``done``
with a result row **bit-identical** to its fault-free twin, or lands in a
typed terminal failure — never orphaned, never re-run in a stale packet-id
scope.

Fault coordinates follow docs/SERVICE.md: ``segment`` is the job's
admission index, ``round`` the attempt number.  Fault-free twin rows are
computed in-process through :class:`Session` (the worker's result row is
``RunReport.as_row()`` — same canonical form).
"""

from __future__ import annotations

import time

import pytest

from repro.api import ScenarioSpec, Session
from repro.network.faults import SERVICE_FAULT_PHASES, FaultEvent, FaultPlan
from repro.service import JobService, ServiceClient
from repro.service.errors import ServiceError, ServiceUnavailableError

N_JOBS = 2
#: ~0.5 s of simulation: the drain starts within one poll of the lease grant,
#: while the spawned worker is still starting, so the job is running when
#: the drain requeues it (the draining cases assert that it was).
LONG_ROUNDS = 20_000


def chaos_spec(seed, rounds=60):
    return {
        "name": f"chaos-{seed}",
        "topology": {"kind": "line", "params": {"num_nodes": 5 + seed}},
        "adversary": {"name": "single", "rho": 0.5, "sigma": 2.0,
                      "rounds": rounds},
        "algorithm": {"name": "greedy", "params": {}},
        "policy": {"seed": seed},
    }


@pytest.fixture(scope="module")
def twin_rows():
    """Fault-free canonical rows, computed once per distinct spec."""
    cache = {}

    def rows_for(rounds=60):
        if rounds not in cache:
            session = Session()
            cache[rounds] = {
                seed: session.run(
                    ScenarioSpec.from_dict(chaos_spec(seed, rounds))
                ).as_row()
                for seed in range(N_JOBS)
            }
        return cache[rounds]

    return rows_for


def make_service(tmp_path, plan, **kwargs):
    kwargs.setdefault("poll_interval", 0.02)
    kwargs.setdefault("retry_backoff", 0.02)
    kwargs.setdefault("heartbeat_interval", 0.1)
    kwargs.setdefault("fsync", False)
    return JobService(str(tmp_path / "data"), faults=plan, **kwargs)


def run_under_plan(tmp_path, plan, *, rounds=60, drain_midway=False,
                   checkpoint_every=20, **svc_kwargs):
    """Submit N_JOBS under ``plan``, surviving server deaths, and return
    ``{seed: terminal info view}``.

    The submit loop retries with the same ``submit_key`` on transport
    failure (restarting the server if the fault killed it), exactly as a
    real client should; restarted servers run fault-free — the chaos
    already happened.
    """
    service = make_service(tmp_path, plan, **svc_kwargs).start()
    client = ServiceClient(service.socket_path)

    def revive():
        nonlocal service, client
        if not service.is_alive():
            service = make_service(tmp_path, None, **svc_kwargs).start()
            client = ServiceClient(service.socket_path)

    ids = {}
    for seed in range(N_JOBS):
        for _ in range(4):
            try:
                ids[seed] = client.submit(
                    chaos_spec(seed, rounds),
                    submit_key=f"key-{seed}",
                    checkpoint_every=checkpoint_every,
                )["job"]
                break
            except ServiceUnavailableError:
                time.sleep(0.05)
                revive()
        else:  # pragma: no cover - diagnostic
            pytest.fail(f"could not submit job {seed} under {plan}")

    if drain_midway:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if any(
                client.info(job_id)["state"] == "running"
                for job_id in ids.values()
            ):
                break
            time.sleep(0.02)
        service.stop()  # graceful drain; a draining-phase fault may crash it
        revive()

    views = {}
    for seed, job_id in ids.items():
        for _ in range(4):
            try:
                views[seed] = client.wait(job_id, timeout=180)
                break
            except ServiceError:
                time.sleep(0.05)
                revive()
        else:  # pragma: no cover - diagnostic
            pytest.fail(f"job {job_id} never reached a terminal state")
    service.stop()
    return views


def assert_contract(views, twins):
    """Every job: done + bit-identical row, or typed terminal failure."""
    for seed, view in views.items():
        if view["state"] == "done":
            assert view["result"] == twins[seed], (
                f"job {seed} survived faults but its result row diverged"
            )
        else:
            assert view["state"] in ("failed", "cancelled")
            assert view["error_type"], f"untyped terminal failure: {view}"


class TestDifferentialMatrix:
    """Every (kind, phase) combination upholds the contract."""

    @pytest.mark.parametrize("phase", SERVICE_FAULT_PHASES)
    @pytest.mark.parametrize("kind", ("crash", "slow", "drop"))
    def test_fault_matrix(self, tmp_path, twin_rows, kind, phase):
        event_kwargs = {"delay": 3.0} if kind == "slow" else {}
        plan = FaultPlan(events=(
            FaultEvent(kind=kind, round=0, segment=0, phase=phase,
                       **event_kwargs),
        ))
        svc_kwargs = {}
        if kind == "slow" and phase == "running":
            # The stall must outlive the lease to exercise expiry -> retry,
            # but the lease must still dwarf worker-spawn time (interpreter
            # startup easily exceeds 0.5 s on a loaded box).
            svc_kwargs["lease_seconds"] = 1.0
        drain = phase == "draining"
        views = run_under_plan(
            tmp_path, plan,
            rounds=LONG_ROUNDS if drain else 60,
            checkpoint_every=20_000 if drain else 20,
            drain_midway=drain,
            **svc_kwargs,
        )
        assert_contract(views, twin_rows(LONG_ROUNDS if drain else 60))
        if drain:
            # The fault targets job 0's drain: it must have been running.
            log = tmp_path / "data" / "jobs" / f"{views[0]['job_id']}.log"
            assert "drained: requeued" in log.read_text(), (
                "job 0 finished before the drain, so the draining fault "
                "never fired"
            )


class TestFaultSemantics:
    """The interesting paths actually fire (not vacuous matrix passes)."""

    def test_worker_crash_after_checkpoint_resumes_midrun(self, tmp_path, twin_rows):
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", round=0, segment=0, phase="running"),
        ))
        views = run_under_plan(tmp_path, plan)
        assert views[0]["state"] == "done"
        assert views[0]["attempts"] == 1  # one crash absorbed
        assert_contract(views, twin_rows())

    def test_worker_crash_before_checkpoint_replays_from_zero(self, tmp_path, twin_rows):
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", round=0, segment=1, phase="checkpointing"),
        ))
        views = run_under_plan(tmp_path, plan)
        assert views[1]["state"] == "done"
        assert views[1]["attempts"] == 1
        assert_contract(views, twin_rows())

    def test_lease_expiry_kills_and_retries(self, tmp_path, twin_rows):
        plan = FaultPlan(events=(
            FaultEvent(kind="slow", round=0, segment=0, phase="running",
                       delay=3.0),
        ))
        views = run_under_plan(tmp_path, plan, lease_seconds=1.0)
        assert views[0]["state"] == "done"
        assert views[0]["attempts"] >= 1  # the expired lease burned at least one
        assert_contract(views, twin_rows())

    def test_dropped_submit_reply_resubmits_exactly_once(self, tmp_path, twin_rows):
        plan = FaultPlan(events=(
            FaultEvent(kind="drop", round=0, segment=0, phase="queued"),
        ))
        service = make_service(tmp_path, plan).start()
        try:
            client = ServiceClient(service.socket_path)
            with pytest.raises(ServiceUnavailableError, match="submit_key"):
                client.submit(chaos_spec(0), submit_key="once")
            retry = client.submit(chaos_spec(0), submit_key="once")
            assert retry["duplicate"] is True  # admitted exactly once
            view = client.wait(retry["job"], timeout=120)
            assert view["state"] == "done"
            assert view["result"] == twin_rows()[0]
            assert len(client.ls()) == 1
        finally:
            service.stop()

    def test_server_crash_at_admission_keeps_the_job(self, tmp_path, twin_rows):
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", round=0, segment=0, phase="queued"),
        ))
        service = make_service(tmp_path, plan, fsync=True).start()
        with pytest.raises(ServiceUnavailableError):
            ServiceClient(service.socket_path).submit(
                chaos_spec(0), submit_key="k"
            )
        service.join()
        assert service.crashed

        recovered = make_service(tmp_path, None).start()
        try:
            client = ServiceClient(recovered.socket_path)
            # The journal committed the admission before the crash: the
            # job exists, and the idempotent resubmission proves it.
            assert len(client.ls()) == 1
            again = client.submit(chaos_spec(0), submit_key="k")
            assert again["duplicate"] is True
            view = client.wait(again["job"], timeout=120)
            assert view["state"] == "done"
            assert view["result"] == twin_rows()[0]
        finally:
            recovered.stop()

    def test_retry_budget_exhaustion_is_typed_terminal(self, tmp_path):
        # Crash the worker after its first checkpoint of attempts 0, 1 and
        # 2; with max_retries=2 the third crash exhausts the budget.
        plan = FaultPlan(events=tuple(
            FaultEvent(kind="crash", round=attempt, segment=0, phase="running")
            for attempt in range(3)
        ))
        service = make_service(tmp_path, plan).start()
        try:
            client = ServiceClient(service.socket_path)
            job_id = client.submit(
                chaos_spec(0, rounds=200), max_retries=2, checkpoint_every=10
            )["job"]
            view = client.wait(job_id, timeout=120)
            assert view["state"] == "failed"
            assert view["error_type"] == "JobFailedError"
            assert view["attempts"] == 3
            message = view["error_message"]
            assert "max_retries=2" in message       # names the knob
            assert "service logs" in message        # names the next step
            log_text = client.logs(job_id)
            assert log_text.count("retry") >= 2     # each retry was recorded
        finally:
            service.stop()

    def test_attempts_resume_from_checkpoints_not_stale_scopes(self, tmp_path, twin_rows):
        """A twice-crashed job still produces the bit-identical row: every
        resume went through a fresh packet-id scope + checkpoint restore."""
        plan = FaultPlan(events=tuple(
            FaultEvent(kind="crash", round=attempt, segment=0, phase="running")
            for attempt in range(2)
        ))
        views = run_under_plan(tmp_path, plan, rounds=60)
        assert views[0]["state"] == "done"
        assert views[0]["attempts"] == 2
        assert views[0]["result"] == twin_rows()[0]
