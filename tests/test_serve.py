"""Tests for the scheduling service (``repro.serve``).

Async scenarios run through ``asyncio.run`` inside synchronous test
functions (no pytest-asyncio dependency).  Integration tests bind real
sockets on 127.0.0.1 with port 0 (ephemeral), so they exercise the exact
wire path of a remote client.

The coalescing and backpressure tests use the server's ``run_batch_fn``
injection point with a gate: the batch thread blocks until the test
releases it, making "two submissions while the first is in flight" and
"the queue is full" deterministic instead of racy.
"""

import asyncio
import threading
import time

import pytest

from repro.exec.cache import point_digest
from repro.exec.serialize import run_result_from_dict
from repro.experiments import ExperimentConfig
from repro.serve import (
    SchedulingServer,
    ServerConfig,
    parse_point,
    parse_tenant,
)
from repro.serve.http import (
    HttpClient,
    HttpError,
    HttpRequest,
    read_request,
)

TINY = ExperimentConfig(workload_scale=0.05)


# ----------------------------------------------------------------------
# HTTP framing units
# ----------------------------------------------------------------------
async def _parse(payload: bytes):
    # StreamReader needs a running loop (3.11), so build it in here.
    reader = asyncio.StreamReader()
    reader.feed_data(payload)
    reader.feed_eof()
    return await read_request(reader)


class TestReadRequest:
    def test_parses_method_path_query_headers_body(self):
        req = asyncio.run(
            _parse(
                b"POST /v1/submit?wait=2&x=a%20b HTTP/1.1\r\n"
                b"Host: h\r\n"
                b"X-Repro-Tenant: alice\r\n"
                b"Content-Length: 2\r\n"
                b"\r\n{}"
            )
        )
        assert req.method == "POST"
        assert req.path == "/v1/submit"
        assert req.query == {"wait": "2", "x": "a b"}
        assert req.headers["x-repro-tenant"] == "alice"
        assert req.json() == {}

    def test_clean_eof_returns_none(self):
        assert asyncio.run(_parse(b"")) is None

    @pytest.mark.parametrize(
        "payload",
        [
            b"NOT-HTTP\r\n\r\n",
            b"GET / HTTP/1.1\r\nBroken-Header-No-Colon\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: zebra\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
        ],
    )
    def test_malformed_raises_http_error(self, payload):
        with pytest.raises(HttpError):
            asyncio.run(_parse(payload))

    def test_oversized_body_rejected_before_buffering(self):
        with pytest.raises(HttpError) as exc_info:
            asyncio.run(
                _parse(b"POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
            )
        assert exc_info.value.status == 413

    def test_garbage_json_body_is_400(self):
        async def scenario():
            req = await _parse(
                b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\n{oop"
            )
            return req.json()

        with pytest.raises(HttpError) as exc_info:
            asyncio.run(scenario())
        assert exc_info.value.status == 400


# ----------------------------------------------------------------------
# Submission parsing units
# ----------------------------------------------------------------------
class TestParsePoint:
    def test_minimal_submission(self):
        point = parse_point({"workload": "sar"}, TINY)
        assert (point.workload, point.policy, point.scheme) == (
            "sar", "default", False,
        )
        assert point.config == TINY

    def test_full_submission_with_overrides(self):
        point = parse_point(
            {
                "workload": "hf",
                "policy": "history",
                "scheme": True,
                "config": {"delta": 40, "theta": 6},
            },
            TINY,
        )
        assert point.config.delta == 40
        assert point.config.theta == 6
        assert point.config.workload_scale == TINY.workload_scale

    def test_fault_plan_override(self):
        doc = {
            "workload": "sar",
            "config": {
                "fault_plan": {
                    "seed": 7,
                    "events": [
                        {
                            "kind": "node.straggle",
                            "target": "node0",
                            "time": 10.0,
                            "duration": 50.0,
                            "factor": 2.0,
                        }
                    ],
                }
            },
        }
        point = parse_point(doc, TINY)
        assert point.config.fault_plan is not None

    @pytest.mark.parametrize(
        "doc",
        [
            "not a dict",
            {"workload": "nonsense"},
            {"workload": "sar", "policy": "nonsense"},
            {"workload": "sar", "scheme": "yes"},
            {"workload": "sar", "config": {"no_such_field": 1}},
            {"workload": "sar", "config": {"kernel": "warp-drive"}},
            {"workload": "sar", "config": "not a dict"},
            {"workload": "sar", "config": {"fault_plan": {"bogus": True}}},
        ],
    )
    def test_bad_submissions_are_400(self, doc):
        with pytest.raises(HttpError) as exc_info:
            parse_point(doc, TINY)
        assert exc_info.value.status == 400

    def test_kernel_is_an_unknown_config_field(self):
        with pytest.raises(HttpError) as exc_info:
            parse_point({"workload": "sar", "config": {"kernel": "heap"}}, TINY)
        assert exc_info.value.status == 400
        assert "unknown config field" in str(exc_info.value)


class TestParseTenant:
    def _request(self, headers=None, query=None):
        return HttpRequest(
            method="POST", path="/v1/submit",
            query=query or {}, headers=headers or {},
        )

    def test_default(self):
        assert parse_tenant(self._request()) == "default"

    def test_header_wins_over_body(self):
        req = self._request(headers={"x-repro-tenant": "alice"})
        assert parse_tenant(req, {"tenant": "bob"}) == "alice"

    def test_body_and_query_fallbacks(self):
        assert parse_tenant(self._request(), {"tenant": "bob"}) == "bob"
        assert parse_tenant(self._request(query={"tenant": "eve"})) == "eve"

    @pytest.mark.parametrize(
        "tenant", [".hidden", "a/b", "", "x" * 65, "sp ace", "aé"]
    )
    def test_bad_tenants_rejected(self, tenant):
        req = self._request(headers={"x-repro-tenant": tenant})
        with pytest.raises(HttpError) as exc_info:
            parse_tenant(req)
        assert exc_info.value.status == 400


# ----------------------------------------------------------------------
# Integration harness
# ----------------------------------------------------------------------
class Harness:
    """One ephemeral-port server + one client, torn down cleanly."""

    def __init__(self, tmp_path, run_batch_fn=None, **overrides):
        overrides.setdefault("port", 0)
        overrides.setdefault("cache_root", tmp_path / "cache")
        overrides.setdefault("base_config", TINY)
        self.server = SchedulingServer(
            ServerConfig(**overrides), run_batch_fn=run_batch_fn
        )
        self.client: HttpClient = None

    async def __aenter__(self):
        await self.server.start()
        self.client = HttpClient("127.0.0.1", self.server.port)
        return self

    async def __aexit__(self, *_exc):
        await self.client.close()
        await self.server.stop()

    async def submit(self, doc, tenant=None):
        headers = {"X-Repro-Tenant": tenant} if tenant else None
        return await self.client.request(
            "POST", "/v1/submit", doc=doc, headers=headers
        )

    async def await_job(self, job_id, tenant=None, wait=30):
        headers = {"X-Repro-Tenant": tenant} if tenant else None
        deadline = 20
        for _ in range(deadline):
            status, _h, body = await self.client.request(
                "GET", f"/v1/jobs/{job_id}?wait={wait}", headers=headers
            )
            assert status == 200
            if body["job"]["state"] in ("done", "failed"):
                return body["job"]
        raise AssertionError(f"job {job_id} never reached a terminal state")

    async def metrics(self):
        _s, _h, body = await self.client.request("GET", "/v1/metrics")
        return body


SUBMIT_SAR = {"workload": "sar", "policy": "simple", "scheme": False}


class TestServerIntegration:
    def test_submit_poll_fetch_round_trip(self, tmp_path):
        async def scenario():
            async with Harness(tmp_path) as h:
                status, _h2, body = await h.submit(SUBMIT_SAR)
                assert status == 202
                job = body["job"]
                assert job["state"] in ("queued", "running")
                assert job["coalesced"] is False
                done = await h.await_job(job["id"])
                assert done["state"] == "done"
                result = run_result_from_dict(done["result"])
                assert result.energy_joules > 0

                # The result is addressable by digest, per tenant.
                status, _h3, fetched = await h.client.request(
                    "GET", f"/v1/results/{job['digest']}"
                )
                assert status == 200
                assert run_result_from_dict(fetched["result"]) == result

                # Resubmission after completion: a cache hit, not a sim.
                status, _h4, body2 = await h.submit(SUBMIT_SAR)
                assert status == 202
                done2 = await h.await_job(body2["job"]["id"])
                assert run_result_from_dict(done2["result"]) == result
                snap = await h.metrics()
                assert snap["counters"]["server.simulated"] == 1
                assert snap["counters"]["server.cache_hits"] == 1

        asyncio.run(scenario())

    def test_health_status_metrics_endpoints(self, tmp_path):
        async def scenario():
            async with Harness(tmp_path) as h:
                status, _h2, body = await h.client.request("GET", "/healthz")
                assert (status, body["status"]) == (200, "ok")
                assert body["draining"] is False
                status, _h3, doc = await h.client.request("GET", "/v1/status")
                assert status == 200
                assert doc["queue_limit"] == h.server.config.queue_limit
                snap = await h.metrics()
                assert "server.requests" in snap["counters"]

        asyncio.run(scenario())

    def test_error_codes(self, tmp_path):
        async def scenario():
            async with Harness(tmp_path) as h:
                status, _a, _b = await h.submit({"workload": "nope"})
                assert status == 400
                status, _a, _b = await h.client.request(
                    "GET", "/v1/jobs/j999999-cafecafecafe"
                )
                assert status == 404
                status, _a, _b = await h.client.request("GET", "/nope")
                assert status == 404
                status, _a, _b = await h.client.request("DELETE", "/healthz")
                assert status == 405
                status, _a, _b = await h.client.request(
                    "GET", "/v1/results/nothex"
                )
                assert status == 400
                digest = "0" * 64
                status, _a, _b = await h.client.request(
                    "GET", f"/v1/results/{digest}"
                )
                assert status == 404

        asyncio.run(scenario())

    def test_coalescing_two_identical_submissions_one_simulation(
        self, tmp_path
    ):
        """The acceptance criterion: two identical concurrent submissions
        of the same point trigger exactly one simulation."""
        gate = threading.Event()
        holder = {}

        def gated(tenant, points):
            gate.wait(30)
            return holder["server"]._run_batch(tenant, points)

        async def scenario():
            async with Harness(tmp_path, run_batch_fn=gated) as h:
                holder["server"] = h.server
                _s1, _h1, first = await h.submit(SUBMIT_SAR)
                _s2, _h2, second = await h.submit(SUBMIT_SAR)
                # Same job, second submission coalesced onto it.
                assert second["job"]["id"] == first["job"]["id"]
                assert second["job"]["coalesced"] is True
                assert second["job"]["submissions"] == 2
                gate.set()
                done = await h.await_job(first["job"]["id"])
                assert done["state"] == "done"
                snap = await h.metrics()
                assert snap["counters"]["server.submissions"] == 2
                assert snap["counters"]["server.batched"] == 1
                assert snap["counters"]["server.enqueued"] == 1
                # Exactly one simulation, zero cache involvement.
                assert snap["counters"]["server.simulated"] == 1

        asyncio.run(scenario())

    def test_tenant_namespaces_isolate_caches(self, tmp_path):
        """The same point under two tenants simulates twice into two
        disjoint cache roots — digests stay tenant-agnostic, entries
        stay private."""
        async def scenario():
            async with Harness(tmp_path) as h:
                _s, _h2, a = await h.submit(SUBMIT_SAR, tenant="alice")
                done_a = await h.await_job(a["job"]["id"], tenant="alice")
                _s, _h3, b = await h.submit(SUBMIT_SAR, tenant="bob")
                done_b = await h.await_job(b["job"]["id"], tenant="bob")
                assert done_a["digest"] == done_b["digest"]  # same content
                snap = await h.metrics()
                assert snap["counters"]["server.simulated"] == 2
                assert snap["counters"]["server.cache_hits"] == 0

                digest = done_a["digest"]
                root = tmp_path / "cache"
                for tenant in ("alice", "bob"):
                    entry = root / tenant / digest[:2] / f"{digest}.json"
                    assert entry.is_file()

                # Cross-tenant fetch of an uncomputed namespace: 404.
                status, _h4, _body = await h.client.request(
                    "GET", f"/v1/results/{digest}?tenant=carol"
                )
                assert status == 404

        asyncio.run(scenario())

    def test_backpressure_429_with_retry_after(self, tmp_path):
        gate = threading.Event()
        holder = {}

        def gated(tenant, points):
            gate.wait(30)
            return holder["server"]._run_batch(tenant, points)

        async def scenario():
            async with Harness(
                tmp_path, run_batch_fn=gated,
                workers=1, queue_limit=1, batch_max=1,
            ) as h:
                holder["server"] = h.server
                # First submission: the lone worker picks it up and stalls.
                _s, _h2, first = await h.submit(SUBMIT_SAR)
                for _ in range(100):
                    _s2, _h3, status_doc = await h.client.request(
                        "GET", "/v1/status"
                    )
                    if status_doc["queue_depth"] == 0:
                        break
                    await asyncio.sleep(0.01)
                else:
                    raise AssertionError("worker never picked up the job")
                # Second (distinct) submission fills the queue.
                _s, _h4, _second = await h.submit(
                    {"workload": "hf", "policy": "simple"}
                )
                # Third bounces with 429 + Retry-After.
                status, headers, body = await h.submit(
                    {"workload": "astro", "policy": "simple"}
                )
                assert status == 429
                assert int(headers["retry-after"]) >= 1
                assert "error" in body
                snap = await h.metrics()
                assert snap["counters"]["server.rejected"] == 1
                gate.set()
                done = await h.await_job(first["job"]["id"])
                assert done["state"] == "done"

        asyncio.run(scenario())

    def test_graceful_drain_finishes_queued_work(self, tmp_path):
        async def scenario():
            async with Harness(tmp_path) as h:
                _s, _h2, body = await h.submit(SUBMIT_SAR)
                h.server.request_shutdown()
                # New work is refused while draining...
                status, _h3, refused = await h.client.request(
                    "POST", "/v1/submit",
                    doc={"workload": "hf", "policy": "simple"},
                )
                assert status == 503
                assert "draining" in refused["error"]
                # ...but the accepted job still completes.
                await asyncio.wait_for(h.server.wait_stopped(), timeout=60)
                job = h.server._jobs[body["job"]["id"]]
                assert job.state == "done"

        asyncio.run(scenario())

    def test_grid_submission(self, tmp_path):
        async def scenario():
            async with Harness(tmp_path) as h:
                status, _h2, body = await h.client.request(
                    "POST", "/v1/grid", doc={"figure": "table3"}
                )
                assert status == 202
                assert body["count"] == len(body["jobs"]) > 0
                for job in body["jobs"]:
                    done = await h.await_job(job["id"])
                    assert done["state"] == "done"
                status, _h3, _b = await h.client.request(
                    "POST", "/v1/grid", doc={"figure": "fig99z"}
                )
                assert status == 400

        asyncio.run(scenario())

    def test_events_stream_reaches_terminal_state(self, tmp_path):
        """The chunked JSONL stream ends with a terminal-state line."""
        import json as json_mod

        async def scenario():
            async with Harness(tmp_path) as h:
                _s, _h2, body = await h.submit(SUBMIT_SAR)
                job_id = body["job"]["id"]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", h.server.port
                )
                try:
                    writer.write(
                        f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
                        f"Host: x\r\n\r\n".encode()
                    )
                    await writer.drain()
                    raw = await asyncio.wait_for(reader.read(-1), timeout=60)
                finally:
                    writer.close()
                    await writer.wait_closed()
                text = raw.decode("utf-8")
                assert "Transfer-Encoding: chunked" in text
                states = []
                for line in text.splitlines():
                    if line.startswith("{"):
                        states.append(json_mod.loads(line)["state"])
                assert states[-1] in ("done", "failed")

        asyncio.run(scenario())

    def test_failed_point_reports_error_not_hang(self, tmp_path):
        """A batch that raises marks its jobs failed; the server lives."""
        def exploding(tenant, points):
            raise RuntimeError("batch runner exploded")

        async def scenario():
            async with Harness(tmp_path, run_batch_fn=exploding) as h:
                _s, _h2, body = await h.submit(SUBMIT_SAR)
                done = await h.await_job(body["job"]["id"])
                assert done["state"] == "failed"
                assert "exploded" in done["error"]
                snap = await h.metrics()
                assert snap["counters"]["server.failed"] == 1
                # The server still answers.
                status, _h3, _b = await h.client.request("GET", "/healthz")
                assert status == 200

        asyncio.run(scenario())


class TestIdleTimeout:
    """Long-polls and event streams are bounded by ``idle_timeout`` —
    a stalled or absent state change can't pin a connection forever."""

    def test_long_poll_bounded_by_idle_timeout(self, tmp_path):
        gate = threading.Event()
        holder = {}

        def gated(tenant, points):
            gate.wait(30)
            return holder["server"]._run_batch(tenant, points)

        async def scenario():
            async with Harness(
                tmp_path, run_batch_fn=gated, idle_timeout=0.2
            ) as h:
                holder["server"] = h.server
                _s, _h2, body = await h.submit(SUBMIT_SAR)
                job_id = body["job"]["id"]
                started = time.monotonic()
                status, _h3, body = await h.client.request(
                    "GET", f"/v1/jobs/{job_id}?wait=30"
                )
                elapsed = time.monotonic() - started
                # The 30 s ask was clamped to the 0.2 s idle timeout and
                # answered with the still-queued snapshot.
                assert status == 200
                assert body["job"]["state"] in ("queued", "running")
                assert 0.1 <= elapsed < 5.0
                gate.set()
                done = await h.await_job(job_id)
                assert done["state"] == "done"

        asyncio.run(scenario())

    def test_event_stream_closes_cleanly_on_idle(self, tmp_path):
        gate = threading.Event()
        holder = {}

        def gated(tenant, points):
            gate.wait(30)
            return holder["server"]._run_batch(tenant, points)

        async def scenario():
            async with Harness(
                tmp_path, run_batch_fn=gated, idle_timeout=0.2
            ) as h:
                holder["server"] = h.server
                _s, _h2, body = await h.submit(SUBMIT_SAR)
                job_id = body["job"]["id"]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", h.server.port
                )
                try:
                    writer.write(
                        f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
                        f"Host: x\r\n\r\n".encode()
                    )
                    await writer.drain()
                    # No state change is coming (the batch is gated):
                    # the server must close the stream, not hold it.
                    raw = await asyncio.wait_for(reader.read(-1), timeout=10)
                finally:
                    writer.close()
                    await writer.wait_closed()
                text = raw.decode("utf-8")
                assert "Transfer-Encoding: chunked" in text
                # Clean chunked termination, snapshot only.
                assert text.endswith("0\r\n\r\n")
                states = [
                    line for line in text.splitlines()
                    if line.startswith("{")
                ]
                assert len(states) == 1
                gate.set()
                done = await h.await_job(job_id)
                assert done["state"] == "done"

        asyncio.run(scenario())


class TestServerConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"jobs": 0},
            {"workers": 0},
            {"queue_limit": 0},
            {"batch_max": 0},
            {"idle_timeout": 0},
        ],
    )
    def test_bad_knobs_rejected(self, overrides):
        with pytest.raises(ValueError):
            ServerConfig(**overrides)


class TestDigestTenantAgnosticism:
    def test_digest_never_sees_the_tenant(self):
        """The content address is a function of the point alone — the
        tenant only picks the cache root (DESIGN.md §16)."""
        digest = point_digest(TINY, "sar", "simple", False)
        assert len(digest) == 64
        point = parse_point(dict(SUBMIT_SAR), TINY)
        assert point_digest(
            point.config, point.workload, point.policy, point.scheme
        ) == digest
