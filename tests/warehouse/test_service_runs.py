"""Service integration: auto-ingest of finished jobs + ``GET /api/v1/runs``."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments import get_scenario
from repro.service import JobQueue, make_server
from repro.warehouse import Warehouse


def _wait_done(job, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if job.state in ("done", "failed"):
            return
        time.sleep(0.02)
    raise AssertionError(f"job stuck in state {job.state!r}")


@pytest.fixture
def service(tmp_path):
    warehouse = Warehouse(tmp_path / "data" / "warehouse.sqlite")
    queue = JobQueue(tmp_path / "data", max_workers=1, warehouse=warehouse)
    server = make_server("127.0.0.1", 0, queue)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield base, queue, warehouse
    finally:
        server.shutdown()
        server.server_close()
        queue.shutdown(wait=True)
        thread.join(timeout=5)


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.load(response)


class TestAutoIngest:
    def test_done_job_is_queryable_via_the_runs_endpoint(self, service):
        base, queue, warehouse = service
        job, _ = queue.submit(get_scenario("platform-energy").spec)
        _wait_done(job)

        payload = _get(f"{base}/api/v1/runs?scenario=platform-energy")
        assert payload["count"] == 1
        (run,) = payload["runs"]
        assert run["source"] == "service"
        assert run["scenario"] == "platform-energy"
        assert run["num_trials"] == job.spec.num_trials
        # and the same warehouse answers directly, off-HTTP
        assert len(warehouse.runs(source="service")) == 1

    def test_scenario_filter_excludes_other_scenarios(self, service):
        base, queue, _ = service
        job, _ = queue.submit(get_scenario("platform-energy").spec)
        _wait_done(job)
        assert _get(f"{base}/api/v1/runs?scenario=no-such-scenario")["count"] == 0
        assert _get(f"{base}/api/v1/runs")["count"] == 1

    def test_no_poll_sees_done_before_the_run_is_listed(self, service, monkeypatch):
        base, queue, _ = service
        ingest = JobQueue._ingest

        def slow_ingest(self, job):
            time.sleep(0.3)  # widen the window between artefacts and index
            ingest(self, job)

        monkeypatch.setattr(JobQueue, "_ingest", slow_ingest)
        job, _ = queue.submit(get_scenario("platform-energy").spec)
        states = []
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            state = _get(f"{base}/api/v1/jobs/{job.job_id}")["state"]
            states.append(state)
            if state == "done":
                listed = _get(f"{base}/api/v1/runs?scenario=platform-energy")
                assert listed["count"] == 1, "a poll saw DONE before the run was queryable"
            if state in ("done", "failed"):
                break
            time.sleep(0.005)
        assert states[-1] == "done"
        # the delayed ingest was observed as a not-yet-done job
        assert "running" in states

    def test_ingest_failure_does_not_fail_the_job(self, service, tmp_path):
        _, queue, warehouse = service
        # poison the warehouse path so every ingest raises
        warehouse.path = tmp_path / "data"  # a directory, not a database file
        job, _ = queue.submit(get_scenario("platform-energy").spec)
        _wait_done(job)
        assert job.state == "done"
        assert job.error is None


class TestWarehouseDisabled:
    def test_runs_endpoint_is_404_without_a_warehouse(self, tmp_path):
        queue = JobQueue(tmp_path / "data", max_workers=1)  # no warehouse
        server = make_server("127.0.0.1", 0, queue)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"{base}/api/v1/runs")
            assert excinfo.value.code == 404
            assert "warehouse is disabled" in json.load(excinfo.value)["error"]
        finally:
            server.shutdown()
            server.server_close()
            queue.shutdown(wait=True)
            thread.join(timeout=5)
