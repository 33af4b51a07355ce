"""Integration tests for the job service server and client.

These drive a real :class:`JobService` (asyncio server in a background
thread, spawn-context worker processes) through the typed client, covering
the submit/ls/info/logs/cancel surface, admission control, idempotent
submission, typed worker failures, crash recovery and graceful drain.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.service import JobService, ServiceClient
from repro.service.errors import (
    JobNotFoundError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)


def tiny_spec(seed=0, name="tiny", rounds=30, nodes=5):
    return {
        "name": name,
        "topology": {"kind": "line", "params": {"num_nodes": nodes}},
        "adversary": {"name": "single", "rho": 0.5, "sigma": 2.0,
                      "rounds": rounds},
        "algorithm": {"name": "greedy", "params": {}},
        "policy": {"seed": seed},
    }


def make_service(tmp_path, **kwargs):
    kwargs.setdefault("poll_interval", 0.02)
    kwargs.setdefault("retry_backoff", 0.02)
    kwargs.setdefault("fsync", False)
    return JobService(str(tmp_path / "data"), **kwargs)


class TestLifecycle:
    def test_submit_runs_to_done_with_canonical_result(self, tmp_path):
        service = make_service(tmp_path).start()
        try:
            client = ServiceClient(service.socket_path)
            reply = client.submit(tiny_spec())
            assert reply["state"] == "queued"
            view = client.wait(reply["job"], timeout=90)
            assert view["state"] == "done"
            row = view["result"]
            assert row["scenario"] == "tiny"
            assert row["max_occupancy"] >= 1
            assert "within_bound" in row
        finally:
            service.stop()

    def test_ls_info_logs_cancel(self, tmp_path):
        service = make_service(tmp_path).start()
        try:
            client = ServiceClient(service.socket_path)
            done = client.submit(tiny_spec(seed=1))["job"]
            client.wait(done, timeout=90)
            # a job with a huge horizon stays running long enough to cancel
            slow = client.submit(tiny_spec(seed=2, rounds=2_000_000))["job"]
            rows = client.ls()
            assert [row["job"] for row in rows] == [done, slow]
            assert rows[0]["state"] == "done"

            info = client.info(done)
            assert info["state"] == "done"
            assert "spec" not in info and info["spec_name"] == "tiny"

            log_text = client.logs(done)
            assert "queued" in log_text and "done" in log_text

            cancelled = client.cancel(slow)
            assert cancelled["state"] == "cancelled"
            assert client.cancel(slow)["already_terminal"] is True

            with pytest.raises(JobNotFoundError, match="service ls"):
                client.info("job-999999")
        finally:
            service.stop()

    def test_cleanup_purges_terminal_jobs_and_files(self, tmp_path):
        service = make_service(tmp_path).start()
        try:
            client = ServiceClient(service.socket_path)
            job_id = client.submit(tiny_spec())["job"]
            client.wait(job_id, timeout=90)
            result_path = os.path.join(
                service.jobs_dir, f"{job_id}.result.json"
            )
            assert os.path.exists(result_path)
            assert client.cleanup() == [job_id]
            assert not os.path.exists(result_path)
            assert client.ls() == []
            with pytest.raises(JobNotFoundError):
                client.info(job_id)
        finally:
            service.stop()


class TestAdmission:
    def test_bounded_queue_rejects_typed(self, tmp_path):
        # A slow poll keeps everything queued; depth 2 admits two, rejects
        # the third with the actionable overload error.
        service = make_service(
            tmp_path, poll_interval=5.0, max_queue_depth=2
        ).start()
        try:
            client = ServiceClient(service.socket_path)
            client.submit(tiny_spec(seed=1))
            client.submit(tiny_spec(seed=2))
            with pytest.raises(ServiceOverloadedError, match="queue is full"):
                client.submit(tiny_spec(seed=3))
        finally:
            service.stop()

    def test_submit_key_is_idempotent(self, tmp_path):
        service = make_service(tmp_path, poll_interval=5.0).start()
        try:
            client = ServiceClient(service.socket_path)
            first = client.submit(tiny_spec(), submit_key="once")
            second = client.submit(tiny_spec(), submit_key="once")
            assert second["job"] == first["job"]
            assert second["duplicate"] is True
            assert len(client.ls()) == 1
        finally:
            service.stop()

    def test_garbage_spec_is_rejected_before_admission(self, tmp_path):
        from repro.api.specs import SpecError

        service = make_service(tmp_path).start()
        try:
            client = ServiceClient(service.socket_path)
            with pytest.raises(SpecError):
                client.submit({"name": "x", "surprise_key": 1})
            assert client.ls() == []
        finally:
            service.stop()

    def test_retired_policy_keys_at_their_defaults_run(self, tmp_path):
        """A spec written while RunPolicy had recovery knobs is journaled
        as submitted and still runs: the worker drops the retired keys."""
        from repro.api.specs import RETIRED_POLICY_FIELDS

        spec = tiny_spec(name="legacy")
        spec["policy"].update(RETIRED_POLICY_FIELDS)
        service = make_service(tmp_path).start()
        try:
            client = ServiceClient(service.socket_path)
            view = client.wait(client.submit(spec)["job"], timeout=90)
            assert view["state"] == "done"
            assert view["result"]["scenario"] == "legacy"
        finally:
            service.stop()

    def test_sharded_spec_is_rejected_before_admission(self, tmp_path):
        """Every job checkpoints and a sharded run writes no checkpoints."""
        from repro.api.specs import SpecError

        spec = tiny_spec()
        spec["policy"]["shards"] = 2
        service = make_service(tmp_path).start()
        try:
            client = ServiceClient(service.socket_path)
            with pytest.raises(SpecError, match="shards=1"):
                client.submit(spec)
            assert client.ls() == []
        finally:
            service.stop()


class TestTypedWorkerFailure:
    def test_deterministic_failure_is_not_retried(self, tmp_path):
        # An unknown algorithm passes spec *syntax* validation but fails
        # registry resolution inside the worker: a typed ReproError, exit 3,
        # failed immediately with zero retries burned.
        spec = tiny_spec()
        spec["algorithm"] = {"name": "no-such-algorithm", "params": {}}
        service = make_service(tmp_path).start()
        try:
            client = ServiceClient(service.socket_path)
            job_id = client.submit(spec)["job"]
            view = client.wait(job_id, timeout=90)
            assert view["state"] == "failed"
            assert view["attempts"] == 0
            assert "no-such-algorithm" in view["error_message"]
            assert "not retried" in client.logs(job_id)
        finally:
            service.stop()


class TestCrashRecovery:
    def test_kill_dash_nine_loses_no_jobs(self, tmp_path):
        service = make_service(tmp_path, fsync=True, max_running=2).start()
        client = ServiceClient(service.socket_path)
        ids = [
            client.submit(tiny_spec(seed=i, rounds=400), submit_key=f"k{i}")["job"]
            for i in range(4)
        ]
        # Crash abruptly: no drain, no flush beyond what's already durable.
        service.crash()
        service.join()
        assert service.crashed

        recovered = make_service(tmp_path, max_running=2).start()
        try:
            client2 = ServiceClient(recovered.socket_path)
            for job_id in ids:
                assert client2.wait(job_id, timeout=120)["state"] == "done"
            # submit_key dedup survives the crash too
            again = client2.submit(tiny_spec(seed=0, rounds=400), submit_key="k0")
            assert again["job"] == ids[0] and again["duplicate"] is True
        finally:
            recovered.stop()

    def test_results_identical_across_crash(self, tmp_path):
        service = make_service(tmp_path / "a", fsync=True).start()
        client = ServiceClient(service.socket_path)
        job_id = client.submit(tiny_spec(seed=5))["job"]
        service.crash()
        service.join()
        recovered = make_service(tmp_path / "a").start()
        twin_service = make_service(tmp_path / "b").start()
        try:
            crashed_row = ServiceClient(recovered.socket_path).wait(
                job_id, timeout=120
            )["result"]
            twin_client = ServiceClient(twin_service.socket_path)
            twin_id = twin_client.submit(tiny_spec(seed=5))["job"]
            twin_row = twin_client.wait(twin_id, timeout=120)["result"]
            assert crashed_row == twin_row
        finally:
            recovered.stop()
            twin_service.stop()


class TestDrain:
    def test_drain_requeues_running_jobs_for_the_next_serve(self, tmp_path):
        service = make_service(tmp_path, fsync=True).start()
        client = ServiceClient(service.socket_path)
        job_id = client.submit(tiny_spec(rounds=2_000_000))["job"]
        # wait until the job actually holds a lease
        for _ in range(500):
            if client.info(job_id)["state"] == "running":
                break
            time.sleep(0.02)
        else:  # pragma: no cover - diagnostic
            pytest.fail("job never started running")
        service.stop()  # graceful drain

        # After the drain the socket is gone and submissions say so, typed.
        with pytest.raises(ServiceUnavailableError, match="serve"):
            client.submit(tiny_spec(seed=9))

        resumed = make_service(tmp_path).start()
        try:
            view = ServiceClient(resumed.socket_path).info(job_id)
            # Requeued with its budget intact (drain is not a failure).
            assert view["state"] in ("queued", "running")
            assert view["attempts"] == 0
            log_text = ServiceClient(resumed.socket_path).logs(job_id)
            assert "drained" in log_text
        finally:
            resumed.stop()

    def test_draining_service_refuses_new_work(self, tmp_path):
        service = make_service(tmp_path).start()
        client = ServiceClient(service.socket_path)
        client.drain()
        service.join(timeout=30)
        assert not service.is_alive()
