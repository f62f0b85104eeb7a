"""``serve-warm``: every table and figure, served from a warm study cache.

Set-up puts the full seed-0 study into the run's study cache.  Each
round starts an in-process daemon (process execution, one job worker,
``jobs=1``); one client submits a study job for all 17 registered
artifacts, polls it to done and fetches each artifact (``job_s``).
Then a closed loop of two clients issues a fixed mix of plain and
``If-None-Match`` GETs cycling over the artifacts, twice per round
(``followup_cpu_s``: the CPU this process spends serving and issuing one
loop's requests; each loop's wall time is printed as ``followup_wall_s``).
The daemon is drained after every round, because a resubmitted job
would coalesce onto the finished one instead of running again.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import random
import statistics
import threading
import time
from pathlib import Path

import checks
import layers
import oracle
from harness import Run, Tracer, Wrapping, check, cpu_seconds, percentile

#: Interval between job-status polls.
POLL_S = 0.02

#: Closed-loop clients, and GETs each issues per loop: 36 passes over
#: the 17 artifacts, alternating plain and conditional requests.
LOOP_CLIENTS = 2
LOOP_REQUESTS = 17 * 36

#: Closed loops per round, each one sample of ``followup_cpu_s``: the
#: loop is short beside the job, so a run gets more of its samples.
LOOPS_PER_ROUND = 2


class Daemon:
    """``repro.service.daemon.serve`` on an ephemeral port, in a thread."""

    def __init__(self, cache_root: Path) -> None:
        from repro.service.daemon import ServiceConfig

        self.config = ServiceConfig(
            host="127.0.0.1",
            port=0,
            workers=1,
            execution="process",
            jobs=1,
            cache_dir=str(cache_root),
        )
        self._box: dict = {}
        self._thread: threading.Thread | None = None

    def start(self) -> int:
        from repro.service.daemon import serve
        from repro.util.parallel import warm_pool

        # Fork the job worker here, from the quiet main thread; serve()
        # then finds the pool already warm, as ``ddoscovery serve`` does
        # when it boots on its main thread.
        warm_pool(self.config.workers)
        ready = threading.Event()

        def on_ready(handle) -> None:
            self._box["handle"] = handle
            self._box["loop"] = asyncio.get_running_loop()
            ready.set()

        def main() -> None:
            try:
                asyncio.run(serve(self.config, ready=on_ready, install_signal_handlers=False))
            except Exception as error:  # reported by start() and stop()
                self._box["error"] = error
                ready.set()

        self._thread = threading.Thread(target=main, name="daemon", daemon=True)
        self._thread.start()
        check(ready.wait(60), "daemon did not come up within 60s")
        check("error" not in self._box, f"daemon failed: {self._box.get('error')!r}")
        return self._box["handle"].port

    def stop(self) -> None:
        self._box["loop"].call_soon_threadsafe(self._box["handle"].request_stop)
        assert self._thread is not None
        self._thread.join(60)
        check(not self._thread.is_alive(), "daemon did not drain within 60s")
        check("error" not in self._box, f"daemon failed: {self._box.get('error')!r}")


class Client:
    """One-request-per-connection HTTP client that counts and times."""

    def __init__(self, run: Run, port: int, tracer: Tracer | None) -> None:
        self.run = run
        self.port = port
        self.tracer = tracer
        self.lock = threading.Lock()

    def request(self, kind: str, method: str, path: str, body: bytes | None = None,
                headers: dict | None = None):
        span = self.tracer.span(f"service.{kind}") if self.tracer else contextlib.nullcontext()
        with span:
            started = time.perf_counter()
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
            try:
                connection.request(method, path, body=body, headers=headers or {})
                response = connection.getresponse()
                data = response.read()
            finally:
                connection.close()
            elapsed = time.perf_counter() - started
        with self.lock:
            self.run.attempted += 1
            if response.status not in (200, 202, 304):
                self.run.failed += 1
        return response.status, response.getheader("ETag"), data, elapsed


def _job_round(client: Client, names: list[str]) -> dict:
    """Submit the 17-artifact study job, poll it to done, fetch all."""
    submit = json.dumps({"kind": "study", "config": {"seed": 0}, "artifacts": names}).encode()
    started = time.perf_counter()
    status, _, data, submit_s = client.request(
        "submit", "POST", "/v1/jobs", submit, {"Content-Type": "application/json"}
    )
    check(status == 202, f"submit answered {status}: {data[:200]!r}")
    job_id = json.loads(data)["id"]
    polls = []
    while True:
        status, _, data, poll_s = client.request("poll", "GET", f"/v1/jobs/{job_id}")
        seen_s = time.time()
        polls.append(poll_s)
        document = json.loads(data)
        if document["status"] == "done":
            break
        check(document["status"] in ("queued", "running"), f"job ended {document['status']}: {document.get('error')}")
        time.sleep(POLL_S)
    bodies, etags = {}, {}
    for name in names:
        status, etag, body, _ = client.request(
            "fetch", "GET", f"/v1/jobs/{job_id}/artifacts/{name}"
        )
        check(status == 200 and etag, f"fetch {name} answered {status}")
        bodies[name], etags[name] = body, etag
    job_s = time.perf_counter() - started
    return {
        "job_s": job_s,
        "job_id": job_id,
        "bodies": bodies,
        "etags": etags,
        "submit_s": submit_s,
        "polls": polls,
        "queue_s": document["started_s"] - document["submitted_s"],
        "run_s": document["finished_s"] - document["started_s"],
        "notify_s": seen_s - document["finished_s"],
    }


def _closed_loop(run: Run, client: Client, job: dict, names: list[str]) -> dict:
    """Two clients, each a fixed seeded sequence of plain/conditional GETs."""
    barrier = threading.Barrier(LOOP_CLIENTS + 1)
    results: list[list[tuple]] = [[] for _ in range(LOOP_CLIENTS)]
    errors: list[Exception] = []

    def client_loop(index: int) -> None:
        order = list(names)
        random.Random(run.seed * 1000 + index).shuffle(order)
        barrier.wait()
        try:
            for i in range(LOOP_REQUESTS):
                name = order[i % len(order)]
                conditional = i % 2 == 1
                headers = {"If-None-Match": job["etags"][name]} if conditional else {}
                status, etag, body, elapsed = client.request(
                    "loop304" if conditional else "loop",
                    "GET",
                    f"/v1/jobs/{job['job_id']}/artifacts/{name}",
                    headers=headers,
                )
                results[index].append((name, conditional, status, etag, body, elapsed))
        except Exception as error:  # reported by the main thread
            errors.append(error)

    threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(LOOP_CLIENTS)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join(120)
    wall_s = time.perf_counter() - started
    check(not errors, f"closed-loop client failed: {errors[:1]!r}")
    check(not any(t.is_alive() for t in threads), "closed-loop client hung")

    plain, conditional = [], []
    for per_client in results:
        check(len(per_client) == LOOP_REQUESTS, "closed-loop client stopped early")
        for name, is_conditional, status, etag, body, elapsed in per_client:
            check(etag == job["etags"][name], f"{name}: ETag changed under load")
            if is_conditional:
                check(status == 304 and body == b"", f"{name}: conditional GET answered {status} with {len(body)} bytes")
                conditional.append(elapsed)
            else:
                check(status == 200 and body == job["bodies"][name], f"{name}: plain GET answered {status} or other bytes")
                plain.append(elapsed)
    return {"wall_s": wall_s, "plain": plain, "conditional": conditional}


def _check_once(run: Run, job: dict, cache_root: Path) -> None:
    """Schemas, ETags and the oracle figures, on the first round's bytes.

    Also checks the full study itself: its weekly series and the served
    Table 1 against the oracle, and the 27 baseline conformance checks.
    """
    from repro import Study, StudyConfig
    from repro.core.cache import StudyCache, config_fingerprint
    from repro.core.validate import validate_artifact

    for name, body in job["bodies"].items():
        errors = validate_artifact(json.loads(body))
        check(not errors, f"{name} fails its schema: {errors[:3]}")
        check(job["etags"][name] == oracle.etag(body), f"{name}: ETag is not sha256(body)[:32]")
    config = StudyConfig(seed=0)
    loaded = StudyCache(cache_root).load(config_fingerprint(config))
    check(loaded is not None, "set-up left no study in the cache")
    checks.check_artifacts(loaded[0], config.calendar.n_weeks, job["bodies"])

    study = Study(config, jobs=1, cache_dir=cache_root)
    weekly = checks.oracle_weekly(loaded[0], config.calendar.n_weeks)
    checks.check_weekly(study, weekly)
    symbols = checks.check_table1(json.loads(job["bodies"]["table1"]), weekly)
    report = study.conformance()
    check(report.n_pass == 27 and len(report.results) == 27, "not all 27 conformance checks pass")
    run.notes.append(f"Table 1 symbols checked against the oracle: {symbols}")


def _traced_job(run: Run, tracer: Tracer, cache_root: Path, job: dict, names: list[str]) -> None:
    """The job body re-enacted in-process: cache load, build, encode."""
    from repro import Study, StudyConfig

    since = len(tracer.spans)
    with Wrapping(tracer) as wrapping:
        layers.wrap_core_and_cache(wrapping)
        started = time.perf_counter()
        with tracer.span("serve-warm.job"):
            study = Study(StudyConfig(seed=0), jobs=1, cache_dir=cache_root)
            study.observations  # noqa: B018 - the cache load
            bodies = {name: layers.build_and_encode(study, name, tracer) for name in names}
        traced_s = time.perf_counter() - started
    for name in names:
        check(bodies[name] == job["bodies"][name], f"re-enacted {name} bytes differ from the served bytes")
    metrics = layers.core_metrics(tracer, since)
    metrics.update(layers.cache_metrics(tracer, since))
    metrics.update(layers.artifact_metrics(tracer, since, bodies))
    metrics["cache.entry_mb"] = layers.entry_mb(cache_root)
    metrics["trace.overhead_s"] = traced_s - job["job_s"]
    for name, value in metrics.items():
        run.record(name, value)


def measure(run: Run, tracer: Tracer | None, cache_root: Path) -> None:
    from repro.core.artifacts import artifact_names
    from repro.core.cache import StudyCache

    names = artifact_names()
    check(len(names) == 17, f"expected 17 registered artifacts, found {len(names)}")
    first: dict = {}

    def one_round(_: int) -> None:
        before = StudyCache(cache_root).stats()
        _, kids0 = cpu_seconds()
        daemon = Daemon(cache_root)
        client = Client(run, daemon.start(), tracer)
        own0, _ = cpu_seconds()
        job = _job_round(client, names)
        own1, _ = cpu_seconds()
        loops = []
        for _ in range(LOOPS_PER_ROUND):
            loop_cpu0, _ = cpu_seconds()
            loops.append(_closed_loop(run, client, job, names))
            loop_cpu1, _ = cpu_seconds()
            run.record("followup_cpu_s", loop_cpu1 - loop_cpu0)
        daemon.stop()  # drains and reaps the job worker
        _, kids1 = cpu_seconds()
        after = StudyCache(cache_root).stats()
        check(
            after["misses"] == before["misses"] and after["hits"] == before["hits"] + 1,
            f"served job was not exactly one cache hit: {before} -> {after}",
        )
        if not first:
            first.update(job)
        else:
            check(job["bodies"] == first["bodies"], "served bytes changed between rounds")

        run.record("job_s", job["job_s"])
        run.record("job_cpu_s", (own1 - own0) + (kids1 - kids0))
        run.record("cache.hits", after["hits"] - before["hits"])
        for loop in loops:
            run.record("followup_wall_s", loop["wall_s"])
            requests = loop["plain"] + loop["conditional"]
            run.record("service.fetch_rps", len(requests) / loop["wall_s"])
            run.record("service.fetch_p99_ms", 1000 * percentile(requests, 99))
            run.record("service.fetch_ms", 1000 * statistics.median(loop["plain"]))
            run.record("service.fetch304_ms", 1000 * statistics.median(loop["conditional"]))
        run.record("service.submit_ms", 1000 * job["submit_s"])
        run.record("service.poll_ms", 1000 * statistics.median(job["polls"]))
        run.record("service.job_queue_s", job["queue_s"])
        run.record("service.job_run_s", job["run_s"])
        run.record("service.job_notify_s", job["notify_s"])
        if tracer is not None:
            _traced_job(run, tracer, cache_root, job, names)

    run.rounds(one_round)
    _check_once(run, first, cache_root)
