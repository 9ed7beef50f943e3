"""The campaign service end to end: HTTP API, queue, auth, streaming.

Everything runs against a real :class:`CampaignServer` on a loopback port
through the bundled :class:`CampaignClient` — the same pairing the CI
service-smoke lane uses — with tiny single-stage campaigns so the whole
module stays fast.
"""

import threading

import numpy as np
import pytest

from repro.campaign import run_campaign, verify_report
from repro.service import (
    CampaignClient,
    CampaignServer,
    CampaignSubmission,
    JobManager,
    QueueFull,
    ServiceError,
    TenantCacheStore,
)

TINY_SAT = {"profile": "tiny", "stages": "SAT"}


def deterministic_report(report) -> dict:
    """A report's backend-invariant content: everything but wall clock.

    ``runtime_seconds`` is the one field that legitimately varies between
    two executions of the same campaign; controllers never read it, so the
    decision log stays inside the deterministic part.
    """
    payload = report.as_dict()
    for stage in payload["stages"]:
        for record in stage["stream"]:
            record.pop("runtime_seconds")
    return payload


@pytest.fixture
def service(tmp_path):
    """A running server + client (token-authenticated, bounded queue)."""
    store = TenantCacheStore(tmp_path / "cache")
    manager = JobManager(backend="serial", store=store, max_queue=2)
    server = CampaignServer(manager, token="api-secret")
    server.start()
    client = CampaignClient(server.url, token="api-secret")
    try:
        yield server, client, store
    finally:
        server.stop()


class TestSubmitAndReport:
    def test_http_campaign_matches_in_process_run(self, service):
        """The service is a transport, not a semantic layer: the fetched
        report's observations and decision log are byte-identical to an
        in-process run_campaign of the same submission."""
        server, client, _ = service
        submission = CampaignSubmission.from_dict(TINY_SAT)
        job_id = client.submit(submission)
        snapshot = client.wait(job_id, timeout=120.0)
        assert snapshot["state"] == "done"
        via_http = client.report(job_id)

        reference = run_campaign(submission.build_stages(), controller="off")
        assert deterministic_report(via_http) == deterministic_report(reference)
        assert verify_report(via_http) >= 1

    def test_adaptive_controller_over_http(self, service):
        server, client, _ = service
        submission = CampaignSubmission.from_dict({**TINY_SAT, "controller": "adaptive"})
        job_id = client.submit(submission)
        assert client.wait(job_id, timeout=120.0)["state"] == "done"
        report = client.report(job_id)
        assert report.controller == "adaptive"
        assert verify_report(report) == len(report.decisions)

    def test_dry_run_executes_nothing(self, service):
        server, client, _ = service
        job_id = client.submit({**TINY_SAT, "dry_run": True})
        assert client.wait(job_id, timeout=30.0)["state"] == "done"
        report = client.report(job_id)
        assert report.dry_run and all(s.n_issued == 0 for s in report.stages)

    def test_status_snapshot_shape(self, service):
        server, client, _ = service
        job_id = client.submit(TINY_SAT)
        snapshot = client.wait(job_id, timeout=120.0)
        assert snapshot["job_id"] == job_id
        assert snapshot["tenant"] == "default"
        assert snapshot["summary"]["issued"] == 30
        assert job_id in [j["job_id"] for j in client.list_jobs()]

    def test_report_before_completion_is_409(self):
        manager = JobManager(backend="serial", max_queue=2)
        gate = threading.Event()
        original = JobManager._execute

        def blocked_execute(self, job):
            gate.wait(timeout=60.0)
            original(self, job)

        manager._execute = blocked_execute.__get__(manager)
        server = CampaignServer(manager, token="t")
        server.start()
        client = CampaignClient(server.url, token="t")
        try:
            job_id = client.submit({**TINY_SAT, "dry_run": True})
            with pytest.raises(ServiceError) as exc:
                client.report(job_id)
            assert exc.value.status == 409
            gate.set()
            client.wait(job_id, timeout=30.0)
            assert client.report(job_id).dry_run
        finally:
            gate.set()
            server.stop()

    def test_invalid_submission_is_400(self, service):
        server, client, _ = service
        with pytest.raises(ServiceError) as exc:
            client.submit({"profile": "huge"})
        assert exc.value.status == 400
        assert "unknown profile" in exc.value.detail

    def test_unknown_job_is_404(self, service):
        server, client, _ = service
        with pytest.raises(ServiceError) as exc:
            client.status("deadbeef")
        assert exc.value.status == 404


class TestAuth:
    def test_wrong_token_is_401(self, service):
        server, _, _ = service
        bad = CampaignClient(server.url, token="wrong")
        with pytest.raises(ServiceError) as exc:
            bad.list_jobs()
        assert exc.value.status == 401

    def test_missing_token_is_401(self, service):
        server, _, _ = service
        anon = CampaignClient(server.url)
        with pytest.raises(ServiceError) as exc:
            anon.submit(TINY_SAT)
        assert exc.value.status == 401

    def test_healthz_is_open(self, service):
        server, _, store = service
        anon = CampaignClient(server.url)
        health = anon.health()
        assert health["status"] == "ok"
        assert health["cache"]["objects"] == store.stats()["objects"]

    def test_tokenless_server_needs_no_auth(self, tmp_path):
        manager = JobManager(backend="serial", max_queue=1)
        with CampaignServer(manager) as server:
            client = CampaignClient(server.url)
            assert client.list_jobs() == []


class TestBackpressure:
    def test_full_queue_is_429_with_retry_after(self, tmp_path):
        """ISSUE-9 acceptance: submissions beyond the queue bound answer
        429 + Retry-After instead of buffering unboundedly."""
        manager = JobManager(backend="serial", max_queue=1, retry_after=7.5)
        # Wedge the executor so queued jobs stay queued.  The wedged job is
        # marked running first: only *waiting* jobs count against the bound.
        gate = threading.Event()
        original = JobManager._execute

        def blocked_execute(self, job):
            job.transition("running")
            gate.wait(timeout=60.0)
            original(self, job)

        manager._execute = blocked_execute.__get__(manager)
        server = CampaignServer(manager, token="t")
        server.start()
        client = CampaignClient(server.url, token="t")
        try:
            first = client.submit({**TINY_SAT, "dry_run": True})  # runs (wedged)
            second = client.submit({**TINY_SAT, "dry_run": True})  # queued: 1/1
            with pytest.raises(ServiceError) as exc:
                client.submit({**TINY_SAT, "dry_run": True})
            assert exc.value.status == 429
            assert exc.value.retry_after == 7.5
            gate.set()
            assert client.wait(first, timeout=30.0)["state"] == "done"
            assert client.wait(second, timeout=30.0)["state"] == "done"
        finally:
            gate.set()
            server.stop()

    def test_queue_full_carries_hint_in_process(self):
        manager = JobManager(backend="serial", max_queue=1, retry_after=3.0)
        manager.stop()
        with pytest.raises(QueueFull) as exc:
            manager.submit(CampaignSubmission.from_dict({**TINY_SAT, "dry_run": True}))
        assert exc.value.retry_after == 3.0


class TestEventStream:
    def test_stream_carries_observations_and_terminal_state(self, service):
        server, client, _ = service
        job_id = client.submit(TINY_SAT)
        events = list(client.stream_events(job_id))
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "state"
        observations = [e for e in events if e["kind"] == "observation"]
        assert len(observations) == 30
        assert sorted(e["index"] for e in observations) == list(range(30))
        assert events[-1]["kind"] == "state" and events[-1]["state"] == "done"

    def test_stream_decisions_match_report(self, service):
        server, client, _ = service
        job_id = client.submit({**TINY_SAT, "controller": "adaptive"})
        events = list(client.stream_events(job_id))
        streamed = [e["decision"] for e in events if e["kind"] == "decision"]
        report = client.report(job_id)
        assert streamed == report.decision_dicts()

    def test_stream_resumes_from_since(self, service):
        server, client, _ = service
        job_id = client.submit(TINY_SAT)
        all_events = list(client.stream_events(job_id))
        tail = list(client.stream_events(job_id, since=len(all_events) - 2))
        assert tail == all_events[-2:]

    def test_events_are_seq_numbered(self, service):
        server, client, _ = service
        job_id = client.submit({**TINY_SAT, "dry_run": True})
        events = list(client.stream_events(job_id))
        assert [e["seq"] for e in events] == list(range(len(events)))


class TestCancellation:
    def test_cancel_queued_job(self, tmp_path):
        manager = JobManager(backend="serial", max_queue=2)
        gate = threading.Event()
        original = JobManager._execute

        def blocked_execute(self, job):
            gate.wait(timeout=60.0)
            original(self, job)

        manager._execute = blocked_execute.__get__(manager)
        server = CampaignServer(manager, token="t")
        server.start()
        client = CampaignClient(server.url, token="t")
        try:
            running = client.submit({**TINY_SAT, "dry_run": True})
            queued = client.submit({**TINY_SAT, "dry_run": True})
            snapshot = client.cancel(queued)
            assert snapshot["state"] == "cancelled"
            gate.set()
            assert client.wait(running, timeout=30.0)["state"] == "done"
            # The cancelled job never ran.
            assert client.status(queued)["state"] == "cancelled"
        finally:
            gate.set()
            server.stop()

    def test_cancel_running_job_interrupts_at_observation_boundary(self, service):
        server, client, _ = service
        # A larger stage gives the cancel time to land mid-campaign.
        job_id = client.submit(
            {"profile": "tiny", "stages": "SAT", "config": {"n_sequential_runs": 30}}
        )
        for event in client.stream_events(job_id):
            if event["kind"] == "observation":
                client.cancel(job_id)
                break
        snapshot = client.wait(job_id, timeout=60.0)
        assert snapshot["state"] in ("cancelled", "done")  # may already have finished

    def test_cancel_unknown_job_is_404(self, service):
        server, client, _ = service
        with pytest.raises(ServiceError) as exc:
            client.cancel("deadbeef")
        assert exc.value.status == 404


class TestCacheIntegration:
    def test_resubmission_hits_the_tenant_store(self, service):
        server, client, store = service
        first = client.submit(TINY_SAT)
        client.wait(first, timeout=120.0)
        second = client.submit(TINY_SAT)
        client.wait(second, timeout=60.0)
        stats = store.stats()
        assert stats["stores"] == 1 and stats["hits"] >= 1
        r1, r2 = client.report(first), client.report(second)
        np.testing.assert_array_equal(
            r1.stage("SAT").observations().iterations,
            r2.stage("SAT").observations().iterations,
        )

    def test_second_tenant_served_cross_tenant(self, service):
        server, client, store = service
        a = client.submit({**TINY_SAT, "tenant": "alpha"})
        client.wait(a, timeout=120.0)
        b = client.submit({**TINY_SAT, "tenant": "beta"})
        client.wait(b, timeout=60.0)
        assert store.stats()["cross_tenant_hits"] >= 1
        assert store.stats()["stores"] == 1  # computed once, served twice
