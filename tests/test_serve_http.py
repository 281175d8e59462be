"""HTTP layer and in-process server integration tests.

The parsing/routing units run against hand-fed byte streams; the
integration tests boot a real :class:`ServerThread` on an ephemeral
port and drive it with :class:`ServeClient` — including the
byte-identity check between a served result and the same flow run
directly, and the 429 + ``Retry-After`` contract of a rate-limited
client.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.errors import RateLimited, ServeError
from repro.flows.full_flow import run_full_flow
from repro.serve import (
    ServeClient,
    ServerConfig,
    ServerThread,
    flow_result_payload,
    render_result,
)
from repro.serve.http import (
    HttpRequest,
    HttpResponse,
    Router,
    read_request,
)
from repro.serve.job import JobSpec
from repro.serve.server import CampaignServer

#: A spec small enough that a full flow finishes in well under a
#: second — integration tests run real flows, not mocks.
FAST = dict(circuit="s27", tgen_max_len=256, compaction_sims=8, l_g=64)


def fast_spec(seed=1, **overrides):
    return JobSpec(**{**FAST, "seed": seed, **overrides})


# -- request parsing ---------------------------------------------------------


def parse(raw: bytes):
    async def feed_and_read():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(feed_and_read())


def test_read_request_parses_method_path_headers_body():
    request = parse(
        b"POST /jobs?x=1 HTTP/1.1\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: 2\r\n\r\n{}"
    )
    assert request.method == "POST"
    assert request.path == "/jobs"  # query string stripped
    assert request.headers["content-type"] == "application/json"
    assert request.json() == {}


def test_read_request_empty_connection_is_none():
    assert parse(b"") is None


@pytest.mark.parametrize(
    "raw",
    [
        b"NONSENSE\r\n\r\n",  # malformed request line
        b"GET /jobs SPDY/3\r\n\r\n",  # not HTTP/1.x
        b"GET /jobs HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        b"GET /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        b"POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
        b"GET /jobs HTT",  # truncated head
    ],
    ids=["line", "version", "length-nan", "length-neg", "body", "head"],
)
def test_read_request_rejects_malformed_framing(raw):
    with pytest.raises(ServeError):
        parse(raw)


def test_request_json_rejects_garbage_body():
    request = HttpRequest(
        method="POST", path="/jobs", headers={}, body=b"{nope"
    )
    with pytest.raises(ServeError):
        request.json()


# -- responses ---------------------------------------------------------------


def test_error_response_carries_retry_after_header_and_field():
    response = HttpResponse.error(429, "slow down", retry_after_s=0.3)
    assert response.headers["Retry-After"] == "1"  # delta-seconds, ceiled
    payload = json.loads(response.body)
    assert payload["retry_after_s"] == 0.3  # precise value in the body
    rendered = response.render()
    assert rendered.startswith(b"HTTP/1.1 429 Too Many Requests\r\n")
    assert b"Retry-After: 1\r\n" in rendered
    assert b"Connection: close\r\n" in rendered


def test_router_distinguishes_404_from_405():
    router = Router()

    async def handler(request):
        return HttpResponse.json(200, {"key": request.params["key"]})

    router.add("GET", "/jobs/{key}", handler)
    found, params, known = router.resolve("GET", "/jobs/abc123")
    assert found is not None and params == {"key": "abc123"} and known
    missing, _, known = router.resolve("GET", "/nowhere")
    assert missing is None and not known  # 404
    wrong_method, _, known = router.resolve("PUT", "/jobs/abc123")
    assert wrong_method is None and known  # 405


# -- handlers without a socket ----------------------------------------------


def _call(server, handler, path="/", method="GET", body=b"", params=None):
    request = HttpRequest(method=method, path=path, headers={}, body=body)
    request.params = params or {}
    return asyncio.run(handler(request))


def test_handlers_cover_cancel_conflict_and_404(tmp_path):
    server = CampaignServer(ServerConfig(state_dir=tmp_path))
    # Scheduler is deliberately not started: the queue holds still.
    body = json.dumps(fast_spec(seed=1, priority=2).to_dict()).encode()
    accepted = _call(server, server._post_jobs, method="POST", body=body)
    assert accepted.status == 202
    key = json.loads(accepted.body)["key"]

    assert _call(server, server._get_job, params={"key": key}).status == 200
    assert (
        _call(server, server._get_job, params={"key": "feed"}).status == 404
    )
    # A queued job has no result yet.
    conflict = _call(server, server._get_result, params={"key": key})
    assert conflict.status == 409

    cancelled = _call(
        server, server._delete_job, method="DELETE", params={"key": key}
    )
    assert cancelled.status == 200
    again = _call(
        server, server._delete_job, method="DELETE", params={"key": key}
    )
    assert again.status == 409  # already terminal

    bad = json.dumps({"circuit": "s27", "bogus_field": 1}).encode()
    with pytest.raises(ServeError):
        _call(server, server._post_jobs, method="POST", body=bad)
    server.scheduler.runtime.close()


# -- live server -------------------------------------------------------------


def test_server_round_trip_result_bytes_identical(tmp_path):
    config = ServerConfig(state_dir=tmp_path / "state", port=0)
    with ServerThread(config) as url:
        client = ServeClient(url)
        health = client.healthz()
        assert health["status"] == "ok"

        spec = fast_spec(seed=11)
        record = client.submit(spec)
        assert record["created"] is True and record["state"] == "queued"
        key = record["key"]

        done = client.wait(key, timeout_s=60.0)
        assert done["state"] == "done"
        assert done["stats"]["full_simulations"] > 0

        served = client.result_bytes(key)
        flow = run_full_flow(spec.circuit, spec.flow_config())
        assert served == render_result(flow_result_payload(flow))

        # Resubmit: dedup onto the finished job, result still there.
        dup = client.submit(spec)
        assert dup["created"] is False and dup["state"] == "done"

        trace = json.loads(client.trace_bytes(key))
        assert set(trace) == {"spans", "events"}

        def span_names(node):
            yield node["name"]
            for child in node.get("children", ()):
                yield from span_names(child)

        names = set(span_names(trace["spans"]))
        assert "job" in names and "full_flow" in names

        listed = client.jobs()
        assert [j["key"] for j in listed] == [key]

        metrics = client.metrics()
        assert metrics["counters"]["completed"] == 1
        assert metrics["latency"]["submit_to_complete"]["count"] == 1
        assert metrics["queue"]["jobs"] == {"done": 1}


@pytest.mark.parametrize("workers", [1, 2])
def test_cache_off_server_writes_no_cache_entry(tmp_path, workers):
    state = tmp_path / "state"
    config = ServerConfig(
        state_dir=state, port=0, workers=workers, enable_cache=False
    )
    with ServerThread(config) as url:
        client = ServeClient(url)
        spec = fast_spec(seed=12)
        key = client.submit(spec)["key"]
        assert client.wait(key, timeout_s=120.0)["state"] == "done"
        flow = run_full_flow(spec.circuit, spec.flow_config())
        assert client.result_bytes(key) == render_result(
            flow_result_payload(flow)
        )
    cache = state / "cache"
    assert not cache.exists() or list(cache.rglob("*")) == []


def test_rate_limited_client_sees_429_with_retry_after(tmp_path):
    config = ServerConfig(
        state_dir=tmp_path / "state", port=0, rate_per_s=0.5, burst=1
    )
    with ServerThread(config) as url:
        client = ServeClient(url, client_id="chatty")
        client.submit(fast_spec(seed=1))
        with pytest.raises(RateLimited) as info:
            client.submit(fast_spec(seed=2))
        assert info.value.status == 429
        assert info.value.retry_after_s > 0.0

        # The raw response carries the machine-readable header too.
        status, headers, _body = client._request(
            "POST", "/jobs", fast_spec(seed=3, client="chatty").to_dict()
        )
        assert status == 429
        assert int(headers["retry-after"]) >= 1

        # An independent client is not punished for chatty's burst.
        other = ServeClient(url, client_id="quiet")
        assert other.submit(fast_spec(seed=2))["created"] is True


def test_drain_gate_refuses_new_submissions_while_finishing(tmp_path):
    config = ServerConfig(state_dir=tmp_path / "state", port=0)
    thread = ServerThread(config)
    url = thread.start().url
    # Short timeout: if the drain wins the race against the probe
    # requests below, the test should fail fast, not after 30 s.
    client = ServeClient(url, timeout_s=3.0)
    key = client.submit(fast_spec(seed=21))["key"]
    thread.server.request_drain()
    # While draining, the listener still answers: health says so and
    # new submissions bounce with 503.  (If the drain outraces these
    # requests the connection is refused instead — equally correct.)
    try:
        health = client.healthz()
        assert health["status"] == "draining"
        with pytest.raises(RateLimited) as info:
            client.submit_with_backoff(fast_spec(seed=22), max_wait_s=0.0)
        assert info.value.status == 503
    except ServeError:
        pass
    thread.stop()
    # The accepted job was finished (or persisted queued) — never lost.
    from repro.serve.queue import JobQueue

    queue = JobQueue(tmp_path / "state" / "queue" / "journal.json")
    job = queue.get(key)
    assert job is not None
    assert job.state in ("done", "queued")
