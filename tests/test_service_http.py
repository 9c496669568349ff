"""The control plane over real HTTP: jobs, SSE records, metrics, cache.

Each test talks to an in-process :class:`ControlPlane` (see
``conftest.py``) through the blocking :class:`ServiceClient`, exercising
the same loop, parser, and worker pool as ``python -m repro serve``.
"""

import pytest

from repro.service import ServiceError

# Small enough to finish in well under a second, large enough to flag
# flows and send probes — i.e. to emit records worth streaming.
QUICKSTART = {"scenario": "quickstart", "overrides": {"connections": 8}}


def test_index_and_healthz(service):
    _, client = service
    assert client.healthz() == {"status": "ok"}
    info = client.info()
    assert info["service"] == "repro-control-plane"
    assert "quickstart" in info["scenarios"]
    assert "POST /jobs" in info["endpoints"]


def test_submit_runs_to_done_with_result(service):
    _, client = service
    job = client.submit(QUICKSTART)
    assert job["state"] in ("pending", "running")
    assert job["id"].startswith("j")
    done = client.wait(job["id"])
    assert done["state"] == "done"
    assert done["records"]["forwarded"] > 0
    merged = done["result"]
    assert merged["scenario"] == "quickstart"
    assert merged["params"]["connections"] == 8
    assert merged["runs"][0]["payload"]["probes"] > 0
    listed = {doc["id"] for doc in client.jobs()}
    assert job["id"] in listed


def test_records_stream_live_then_end(service):
    _, client = service
    job = client.submit(QUICKSTART)
    events = list(client.records(job["id"]))
    names = [name for name, _ in events]
    assert names[-1] == "end"
    records = [data for name, data in events if name == "record"]
    assert records, "no records streamed"
    kinds = {record["kind"] for record in records}
    assert kinds & {"flow.flagged", "probe", "probe.result", "verdict"}
    end = events[-1][1]
    assert end["state"] == "done"
    assert end["streamed"] == len(records)
    assert end["dropped"] == 0
    # The job doc agrees with the stream accounting.
    assert client.wait(job["id"])["records"]["forwarded"] == len(records)


def test_late_subscriber_gets_replay(service):
    _, client = service
    job = client.submit(QUICKSTART)
    client.wait(job["id"])  # job fully finished before we subscribe
    events = list(client.records(job["id"]))
    assert [name for name, _ in events][-1] == "end"
    assert sum(1 for name, _ in events if name == "record") > 0


def test_repeat_submission_hits_shared_cache(service):
    _, client = service
    first = client.submit(QUICKSTART)
    done_first = client.wait(first["id"])
    assert done_first["cache_hits"] == 0
    second = client.submit(QUICKSTART)
    done_second = client.wait(second["id"])
    assert done_second["cache_hits"] == 1
    assert done_second["result"] == done_first["result"]
    metrics = client.metrics()
    assert "repro_cache_hits_total 1" in metrics
    assert 'repro_jobs_total{state="done"} 2' in metrics
    assert 'repro_http_requests_total{route="jobs.submit",status="202"} 2' \
        in metrics


def test_unknown_scenario_fails_cleanly(service):
    _, client = service
    job = client.submit({"scenario": "no-such-scenario"})
    done = client.wait(job["id"], raise_on_failure=False)
    assert done["state"] == "failed"
    assert "no-such-scenario" in done["error"]


@pytest.mark.parametrize("bad_body", [
    {"overrides": {"connections": 8}},            # missing scenario
    {"scenario": "quickstart", "sedes": 2},       # typo'd key
    {"scenario": "quickstart", "seeds": 0},       # invalid sweep
    {"scenario": "quickstart", "seed_start": "x"},  # non-int seed start
])
def test_malformed_spec_is_rejected_with_400(service, bad_body):
    _, client = service
    with pytest.raises(ServiceError) as excinfo:
        client.submit(bad_body)
    assert excinfo.value.status == 400


def test_unknown_job_and_route_return_404(service):
    _, client = service
    for method, path in (("GET", "/jobs/nope"), ("DELETE", "/jobs/nope"),
                         ("GET", "/jobs/nope/records"), ("GET", "/bogus")):
        status, _ = client._request(method, path)
        assert status == 404, f"{method} {path} -> {status}"


def test_cancel_pending_job_never_runs(service_factory):
    # One worker: the first (slower) job occupies it, the second stays
    # queued and must cancel exactly — state cancelled, no result.
    _, client = service_factory(workers=1)
    slow = client.submit({"scenario": "quickstart",
                          "overrides": {"connections": 300}})
    queued = client.submit(QUICKSTART)
    cancelled = client.cancel(queued["id"])
    assert cancelled["state"] == "cancelled"
    done = client.wait(queued["id"], raise_on_failure=False)
    assert done["state"] == "cancelled"
    assert done.get("result") is None
    # The occupying job is unaffected.
    assert client.wait(slow["id"])["state"] == "done"
    metrics = client.metrics()
    assert 'repro_jobs_total{state="cancelled"} 1' in metrics
    assert 'repro_jobs_total{state="done"} 1' in metrics


def test_queue_full_returns_503(service_factory):
    _, client = service_factory(workers=1, queue_size=1)
    client.submit({"scenario": "quickstart",
                   "overrides": {"connections": 300}})
    accepted = [client.submit(QUICKSTART)]  # sits in the queue
    with pytest.raises(ServiceError) as excinfo:
        for _ in range(8):  # the dispatcher may drain one slot
            accepted.append(client.submit(QUICKSTART))
    assert excinfo.value.status == 503
    for job in accepted:
        client.wait(job["id"], raise_on_failure=False)


def test_multi_seed_and_sharded_specs_run_to_done(service):
    _, client = service
    multi = client.submit({"scenario": "quickstart", "seeds": [0, 1],
                           "overrides": {"connections": 6}})
    doc = client.wait(multi["id"])
    assert doc["result"]["seeds"] == [0, 1]
    sharded = client.submit({"scenario": "impairment-matrix", "shards": 2,
                             "overrides": {"loss_rates": [0.0, 0.01],
                                           "reorder_rates": [0.0],
                                           "connections": 5,
                                           "duration": 1800.0}})
    doc = client.wait(sharded["id"])
    assert doc["state"] == "done"
    assert doc["result"]["params"]["shards"]["count"] == 2
