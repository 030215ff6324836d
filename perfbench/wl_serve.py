"""serve-mixed: ``repro serve`` under an open loop of mostly-hot traffic.

The server runs as a subprocess with its admission WAL and result cache on
the real filesystem, ``--scale 0.025``, verify on, default workers and a
two-process pool that only the warm-up's multi-point batches use.
Set-up starts it (the median of several cold starts is reported) and warms
a hot pool of 48 points (6 apps x 4 paper policies x scheme off/on)
through the server itself.  The timed phase is an open loop at ``RATE``
requests per second for ``--seconds``: points are drawn by a seeded Zipf
over the hot pool, and every ``COLD_EVERY``-th request (from a seeded phase)
is ``COLD_POINT`` with a seeded, never-seen ``simple_timeout`` override, so
the server compiles and simulates it behind a fresh per-batch runner.

Traffic comes from this one asyncio process over two keep-alive
connections: one submits, one watches for completions.  Latency runs from
each request's due time to the moment the watcher sees it done, so a late
generator shows in the latency as well as in its own lateness figure; it is
reported at the reference host speed from probes the generator takes (see
``calibrate.py``).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from harness import (
    BENCH_DIR,
    RUN_DIR,
    SETUP_PROBES,
    Checker,
    OpTimes,
    env_with_src,
    log,
    proc_peak_rss_mb,
    quantile,
    result_digest,
)
from calibrate import REFERENCE_S, SpeedClock

SCALE = 0.025
RATE = 20.0
COLD_EVERY = 40
#: Every cold request is a never-seen variant of this point: the paper's
#: heaviest app with the compiler on, so a cold request compiles, verifies
#: and simulates.  One fixed point keeps the cold work identical across
#: seeds; its policy ignores the ``simple_timeout`` override, so the served
#: result must still equal the warmed one byte for byte.
COLD_POINT = {"workload": "madbench2", "policy": "history", "scheme": True}
ZIPF_S = 1.0
LATENCY_LIMIT_S = 1.0
#: How long the watcher waits for admitted requests after the last send.
DRAIN_TIMEOUT_S = 60.0
STATUS_SAMPLE_S = 0.25
START_TIMEOUT_S = 60.0
#: Server process-pool width.  It only matters for batches with two or
#: more misses, i.e. the warm-up: a cold request is a one-point batch and
#: runs in the worker thread either way.
WARM_JOBS = 2
#: The profiled server's open loop is cut to this: the profile is for the
#: warm pool's and the cold points' layer split, not for latency.
PROFILE_SECONDS = 5.0


class Conn:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, port: int):
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def request(self, method: str, target: str,
                      doc: Any = None) -> tuple[int, Any]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                "127.0.0.1", self.port)
        body = b"" if doc is None else json.dumps(doc).encode("utf-8")
        head = (f"{method} {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status = int((await self.reader.readuntil(b"\r\n")).split()[1])
        length = 0
        while True:
            line = await self.reader.readuntil(b"\r\n")
            if line == b"\r\n":
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = await self.reader.readexactly(length) if length else b""
        return status, json.loads(payload) if payload else None

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.writer = None


def hot_pool() -> list[dict]:
    from repro.experiments import APPS, POLICIES

    return [
        {"workload": app, "policy": policy, "scheme": scheme}
        for app in APPS for policy in POLICIES for scheme in (False, True)
    ]


def label_of(doc: dict) -> str:
    tag = "scheme" if doc["scheme"] else "plain"
    return f"{doc['workload']}/{doc['policy']}/{tag}"


@dataclass
class Req:
    index: int
    doc: dict
    base: str  # label of the hot-pool point the request derives from
    cold: bool
    due: float = 0.0
    sent: float = 0.0
    admitted: float = 0.0
    done: float = 0.0
    job: str = ""
    ok: bool = False
    problem: str = ""


def request_plan(seed: int, n: int) -> list[Req]:
    """The seeded request stream: Zipf over the pool in its fixed order,
    and every COLD_EVERY-th request, from a seeded phase, cold with a
    seeded never-seen timeout."""
    from repro.experiments import ExperimentConfig

    rng = random.Random(seed)
    pool = hot_pool()
    cum = list(itertools.accumulate(
        1.0 / (rank ** ZIPF_S) for rank in range(1, len(pool) + 1)))
    # Evenly spaced, at a seeded phase: cold points never pile up on each
    # other, so the run measures serving, not a burst.
    phase = rng.randrange(COLD_EVERY)
    cold_at = set(range(phase, n, COLD_EVERY))
    base_timeout = ExperimentConfig().simple_timeout
    salt = (seed % 1000 + 1) * 1e-3
    plan, colds = [], 0
    for i in range(n):
        base = rng.choices(pool, cum_weights=cum)[0]
        doc = dict(base)
        if i in cold_at:
            colds += 1
            base = COLD_POINT
            doc = dict(base, config={
                "simple_timeout": base_timeout + salt + colds * 1e-7})
        plan.append(Req(i, doc, label_of(base), i in cold_at))
    return plan


def start_server(workdir: Path, scale: float,
                 launch_args: list[str]) -> tuple[subprocess.Popen, int, float]:
    """Start the server; returns (process, port, seconds until it listens)."""
    workdir.mkdir(parents=True, exist_ok=True)
    log_path = workdir / "server.log"
    cmd = [
        sys.executable, str(BENCH_DIR / "serve_launch.py"), *launch_args,
        "--", "--port", "0", "--scale", f"{scale:g}",
        "--wal", str(workdir / "wal.jsonl"),
        "--cache-dir", str(workdir / "cache"), "--jobs", str(WARM_JOBS),
    ]
    start = time.perf_counter()
    with open(log_path, "w") as log_fh:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                stderr=log_fh, env=env_with_src())
    deadline = start + START_TIMEOUT_S
    while time.perf_counter() < deadline:
        text = log_path.read_text()
        if "listening on http://" in text:
            address = text.split("listening on http://", 1)[1].split()[0]
            return proc, int(address.rsplit(":", 1)[1]), \
                time.perf_counter() - start
        if proc.poll() is not None:
            break
        time.sleep(0.005)
    stop_server(proc)
    raise RuntimeError(f"server did not start: {log_path.read_text()}")


def stop_server(proc: subprocess.Popen) -> None:
    """SIGTERM (graceful drain), then wait; kill if it hangs."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


class LoadClient:
    """Warm-up and the timed open loop against one live server."""

    def __init__(self, port: int, checker: Checker):
        self.port = port
        self.checker = checker
        self.warm: dict[str, str] = {}  # label -> digest served at warm-up
        self.depth_peak = 0

    def check_result(self, req: Req, job: dict) -> None:
        result = job.get("result")
        if job.get("state") != "done" or not isinstance(result, dict):
            req.problem = f"{req.base}: {job.get('state')} {job.get('error')}"
            return
        digest = result_digest(result)
        # Hot requests, and cold ones (whose policy ignores the override),
        # must match the warmed, pinned result exactly.
        req.ok = digest == self.warm.get(req.base)
        if not req.ok:
            req.problem = f"{req.base} cold={req.cold}: digest {digest}"

    async def warm_pool(self) -> float:
        conn = Conn(self.port)
        start = time.perf_counter()
        jobs = {}
        try:
            for doc in hot_pool():
                status, body = await conn.request("POST", "/v1/submit", doc)
                if status == 202:
                    jobs[label_of(doc)] = body["job"]["id"]
                else:
                    self.checker.op(False, f"warm {label_of(doc)}: {status}")
            for label, job_id in jobs.items():
                job = await self.wait_done(conn, job_id)
                result = job.get("result")
                if job.get("state") != "done" or result is None:
                    self.checker.op(False, f"warm {label}: {job}")
                    continue
                digest = result_digest(result)
                self.warm[label] = digest
                self.checker.op(self.checker.digest(label, digest),
                                f"warm {label}: digest {digest}")
        finally:
            await conn.close()
        return time.perf_counter() - start

    @staticmethod
    async def wait_done(conn: Conn, job_id: str) -> dict:
        while True:
            _, body = await conn.request("GET", f"/v1/jobs/{job_id}?wait=30")
            job = body["job"]
            if job["state"] in ("done", "failed"):
                return job

    async def metrics(self) -> dict:
        conn = Conn(self.port)
        try:
            _, body = await conn.request("GET", "/v1/metrics")
        finally:
            await conn.close()
        return body

    async def open_loop(self, plan: list[Req]) -> None:
        submit, watch = Conn(self.port), Conn(self.port)
        # Duplicates of an in-flight point coalesce onto its job id.
        outstanding: dict[str, list[Req]] = {}
        arrived = asyncio.Event()
        sending = True
        t0 = time.perf_counter() + 0.05
        for req in plan:
            req.due = t0 + req.index / RATE

        async def sender() -> None:
            nonlocal sending
            try:
                for req in plan:
                    delay = req.due - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    req.sent = time.perf_counter()
                    status, body = await submit.request(
                        "POST", "/v1/submit", req.doc)
                    req.admitted = time.perf_counter()
                    if status == 202:
                        req.job = body["job"]["id"]
                        outstanding.setdefault(req.job, []).append(req)
                        arrived.set()
                    else:
                        req.problem = f"{req.base}: refused {status}"
            finally:
                sending = False
                arrived.set()

        async def poll(job_id: str, wait: float) -> None:
            suffix = f"?wait={wait:g}" if wait else ""
            _, body = await watch.request("GET", f"/v1/jobs/{job_id}{suffix}")
            job = body["job"]
            if job["state"] in ("done", "failed"):
                done = time.perf_counter()
                for req in outstanding.pop(job_id, []):
                    req.done = done
                    self.check_result(req, job)

        async def watcher() -> None:
            deadline = None
            next_sample = 0.0
            while sending or outstanding:
                now = time.perf_counter()
                if now >= next_sample:
                    _, status = await watch.request("GET", "/v1/status")
                    self.depth_peak = max(self.depth_peak,
                                          status["queue_depth"])
                    next_sample = now + STATUS_SAMPLE_S
                if not outstanding:
                    arrived.clear()
                    try:
                        await asyncio.wait_for(arrived.wait(),
                                               STATUS_SAMPLE_S)
                    except asyncio.TimeoutError:
                        pass
                    continue
                if not sending:
                    deadline = deadline or now + DRAIN_TIMEOUT_S
                    if now > deadline:
                        return  # whatever is still outstanding is lost
                # Long-poll a hot request (done within milliseconds unless
                # queued behind cold ones); cold ones are swept briefly.
                waiting = list(outstanding)
                hot = [j for j in waiting
                       if not all(r.cold for r in outstanding[j])]
                target = hot[0] if hot else waiting[0]
                await poll(target, 2.0 if hot else 0.02)
                for job_id in waiting:
                    if job_id != target and job_id in outstanding:
                        await poll(job_id, 0)

        try:
            await asyncio.gather(sender(), watcher())
        finally:
            await submit.close()
            await watch.close()


def histogram_p50(before: dict, after: dict) -> float:
    """Median of what a server histogram observed between two snapshots,
    interpolated within its bucket."""
    if not after:
        return 0.0
    bounds = after["bounds"]
    old = (before or {}).get("counts") or [0] * len(after["counts"])
    counts = [a - b for a, b in zip(after["counts"], old)]
    total = sum(counts)
    if not total:
        return 0.0
    seen, lower = 0, 0.0
    for i, count in enumerate(counts):
        upper = bounds[i] if i < len(bounds) else bounds[-1]
        if seen + count >= total / 2 and count:
            return lower + (upper - lower) * (total / 2 - seen) / count
        seen += count
        lower = upper
    return bounds[-1]


def run_serve(seed: int, seconds: float, scale: float, checker: Checker,
              mode: str = "plain", probes: int = SETUP_PROBES) -> dict:
    """One serve-mixed run.  ``mode`` is ``plain``, ``spans`` (the live
    server records layer spans) or ``profile`` (its batches run under
    cProfile).  Returns the measured figures."""
    workdir = RUN_DIR / f"serve-{os.getpid()}-{mode}"
    shutil.rmtree(workdir, ignore_errors=True)
    extra_out = workdir / f"{mode}.json"
    launch = {"plain": [], "spans": ["--spans-out", str(extra_out)],
              "profile": ["--profile-out", str(extra_out)]}[mode]
    try:
        starts = []
        for i in range(probes - 1):
            proc, _, secs = start_server(workdir / f"probe{i}", scale, [])
            stop_server(proc)
            starts.append(secs)
        proc, port, secs = start_server(workdir / "live", scale, launch)
        starts.append(secs)
        try:
            client = LoadClient(port, checker)
            plan = request_plan(seed, int(round(seconds * RATE)))
            figures = asyncio.run(_drive(client, plan))
            figures["rss_mb"] = proc_peak_rss_mb(proc.pid)
        finally:
            stop_server(proc)
        if proc.returncode != 0:
            checker.fail(f"server exited with {proc.returncode}")
        figures["extra"] = (json.loads(extra_out.read_text())
                            if extra_out.is_file() else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Set-up is rescaled by the median probe of the open loop that follows
    # it: the generator idles through set-up (the warm-up keeps both cores
    # busy with pool workers), so probes taken then would read the
    # contention, not the host.
    host_setup = statistics.median(starts) + figures["warm_s"]
    figures["setup_s"] = host_setup * REFERENCE_S / figures["probe_s"]
    log(f"[serve-mixed] host setup {host_setup:.3f} s, at reference speed "
        f"{figures['setup_s']:.3f} s")
    return figures


async def _drive(client: LoadClient, plan: list[Req]) -> dict:
    checker = client.checker
    warm_s = await client.warm_pool()
    before = await client.metrics()
    with SpeedClock() as clock:
        await client.open_loop(plan)
    after = await client.metrics()

    t0 = plan[0].due
    latencies, host, lost = [], [], 0
    for req in plan:
        if req.job and not req.done:
            lost += 1
            req.problem = f"{req.base}: admitted as {req.job}, never done"
        checker.op(req.ok, req.problem)
        # A failed, refused or lost request misses any latency limit.
        latencies.append(clock.span_s(req.due, req.done) if req.ok
                         else DRAIN_TIMEOUT_S)
        host.append(req.done - req.due if req.ok else DRAIN_TIMEOUT_S)
    wall = max((r.done for r in plan if r.done), default=t0) - t0

    def diff(name: str) -> float:
        return (after["counters"].get(name, 0)
                - before["counters"].get(name, 0))

    admit = [r.admitted - r.sent for r in plan if r.job]
    late = [r.sent - r.due for r in plan]
    hist = "server.job_latency_s"
    layer = {
        "serve.admit_p50_s": quantile(admit, 0.5),
        "serve.admit_p99_s": quantile(admit, 0.99),
        "serve.gen_late_p99_s": quantile(late, 0.99),
        "serve.cache_hits": diff("server.cache_hits"),
        "serve.simulated": diff("server.simulated"),
        "serve.coalesced": diff("server.batched"),
        "serve.rejected": diff("server.rejected"),
        "serve.wal_appends": diff("server.wal.appends"),
        "serve.queue_depth_peak": client.depth_peak,
        "serve.job_latency_p50_s": histogram_p50(
            before["histograms"].get(hist), after["histograms"].get(hist)),
        "serve.lost": lost,
    }
    colds = sum(r.cold for r in plan)
    log(f"[serve-mixed] {len(plan)} requests ({colds} cold) at {RATE:g}/s; "
        f"lost {lost}; generator late p99 {layer['serve.gen_late_p99_s']:.4f}s")
    log(f"[serve-mixed] host time p50 {quantile(host, 0.5):.6f} s, at "
        f"reference speed {quantile(latencies, 0.5):.6f} s (probe median "
        f"{clock.probe_median_s():.6f} s)")
    return {
        "warm_s": warm_s,
        "probe_s": clock.probe_median_s(),
        "wall_s": wall,
        "ops": OpTimes(latencies, LATENCY_LIMIT_S),
        "layer": layer,
    }
