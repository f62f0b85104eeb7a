"""The dist coordinator: leases over the sweep task.

One :class:`DistCoordinator` lives inside a ``--role coordinator``
daemon.  The cell bookkeeping — resume, the pending queue, the
exactly-once ledger merge, abandon — is the ordinary
:class:`~repro.sweep.task.SweepTask` that :func:`repro.sweep.run_sweep`
drives; the coordinator adds only what remote execution needs: worker
registration, **leases** (one cell each, pulled over ``/v1/dist/*``)
with a TTL, heartbeats, and eviction.  Sweep and what-if job bodies call
``run_sweep``/``run_whatif`` with :meth:`DistCoordinator.executor`, which
registers their task here; completions merge through the task, so the
report built from the ledger is byte-identical to a serial run.

Failure model (pinned by ``tests/test_dist_coordinator.py``):

* **lease expiry** — a lease not renewed within its TTL returns its
  cell to the front of the queue; the next acquire re-dispatches it
  (``service.dist.leases.expired`` / ``.retried``).
* **heartbeat loss** — a worker silent past the heartbeat timeout is
  evicted and all its leases expire immediately
  (``service.dist.workers.evicted``).
* **stale completion** — a result arriving under an expired or evicted
  lease is rejected with a structured ``stale-lease`` error; the
  re-dispatched lease recomputes the (deterministic) cell.
* **hash mismatch** — an upload whose canonical-bytes sha256 does not
  match its payload is rejected (``result-hash-mismatch``) and the cell
  re-queued.

Everything is guarded by one lock: handlers run on the daemon's event
loop thread while job bodies wait on their task from manager worker
threads.  Expiry and eviction are *lazy* — :meth:`tick` runs at the top
of every dist request and every job-body wait, so no background timer
thread exists to leak or race during drain.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro import obs
from repro.service.dist.protocol import (
    DIST_CAPABILITIES,
    DIST_PROTOCOL_VERSION,
    ProtocolError,
    check_protocol,
    resolve_spec,
    result_sha256,
)
from repro.sweep.spec import ScenarioSpec, sweep_id
from repro.sweep.task import SweepTask


@dataclass
class _Worker:
    """One registered worker's liveness and accounting state."""

    worker_id: str
    capabilities: tuple[str, ...]
    last_seen: float
    completed: int = 0
    heartbeats: int = 0


@dataclass
class _Lease:
    """One in-flight cell assignment."""

    lease_id: str
    task: SweepTask
    cell_index: int
    worker_id: str
    deadline: float


class DistCoordinator:
    """Thread-safe lease coordinator for one daemon process."""

    def __init__(
        self,
        *,
        sweep_dir: str | Path | None = None,
        lease_ttl_s: float = 60.0,
        heartbeat_interval_s: float = 5.0,
        heartbeat_timeout_s: float = 15.0,
        poll_interval_s: float = 0.2,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_ttl_s <= 0 or heartbeat_timeout_s <= 0:
            raise ValueError("lease TTL and heartbeat timeout must be > 0")
        self.sweep_dir = sweep_dir
        self.lease_ttl_s = float(lease_ttl_s)
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.poll_interval_s = float(poll_interval_s)
        self._clock = clock
        self._lock = threading.RLock()
        self._workers: dict[str, _Worker] = {}
        self._tasks: dict[str, SweepTask] = {}
        #: task id -> the preset descriptor workers re-expand.
        self._descriptors: dict[str, dict[str, Any]] = {}
        #: (task, cell index) pairs leased at least once.
        self._dispatched: set[tuple[SweepTask, int]] = set()
        self._leases: dict[str, _Lease] = {}
        self._lease_ids = itertools.count(1)
        self.draining = False

    # -- worker lifecycle --------------------------------------------------------

    def register(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Admit one worker after the protocol/capability handshake."""
        check_protocol(payload)
        worker_id = payload["worker_id"]
        with self._lock:
            self.tick()
            if self.draining:
                raise ProtocolError(
                    503, "draining", "coordinator is draining; not admitting"
                )
            self._workers[worker_id] = _Worker(
                worker_id=worker_id,
                capabilities=tuple(payload["capabilities"]),
                last_seen=self._clock(),
            )
        obs.counter("service.dist.workers.registered").inc()
        return {
            "protocol": DIST_PROTOCOL_VERSION,
            "worker_id": worker_id,
            "capabilities": list(DIST_CAPABILITIES),
            "lease_ttl_s": self.lease_ttl_s,
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "poll_interval_s": self.poll_interval_s,
        }

    def deregister(self, worker_id: str) -> dict[str, Any]:
        """Graceful worker exit: drop it and re-queue its leases."""
        with self._lock:
            worker = self._workers.pop(worker_id, None)
            if worker is None:
                raise self._unknown_worker(worker_id)
            self._expire_worker_leases(worker_id)
            return {"worker_id": worker_id, "completed": worker.completed}

    def heartbeat(self, worker_id: str) -> dict[str, Any]:
        with self._lock:
            self.tick()
            worker = self._workers.get(worker_id)
            if worker is None:
                raise self._unknown_worker(worker_id)
            worker.last_seen = self._clock()
            worker.heartbeats += 1
        obs.counter("service.dist.heartbeats").inc()
        return {"worker_id": worker_id, "draining": self.draining}

    # -- leases ------------------------------------------------------------------

    def acquire(self, worker_id: str) -> dict[str, Any]:
        """Grant the next pending cell to ``worker_id`` (or say idle)."""
        with self._lock:
            self.tick()
            worker = self._workers.get(worker_id)
            if worker is None:
                raise self._unknown_worker(worker_id)
            worker.last_seen = self._clock()
            idle = {
                "lease_id": None,
                "task_id": None,
                "ttl_s": self.lease_ttl_s,
                "retry_after_s": self.poll_interval_s,
                "draining": self.draining,
                "cell": None,
                "task": None,
            }
            if self.draining:
                return idle
            for task in self._tasks.values():
                cell = task.take()
                if cell is None:
                    continue
                lease = _Lease(
                    lease_id=f"lease-{next(self._lease_ids)}",
                    task=task,
                    cell_index=cell.index,
                    worker_id=worker_id,
                    deadline=self._clock() + self.lease_ttl_s,
                )
                self._leases[lease.lease_id] = lease
                obs.counter("service.dist.leases.granted").inc()
                if (task, cell.index) in self._dispatched:
                    obs.counter("service.dist.leases.retried").inc()
                self._dispatched.add((task, cell.index))
                return {
                    **idle,
                    "lease_id": lease.lease_id,
                    "task_id": task.task_id,
                    "cell": {
                        "index": cell.index,
                        "cell_id": cell.cell_id,
                        "config_fingerprint": cell.config_fingerprint,
                    },
                    "task": dict(self._descriptors[task.task_id]),
                }
            return idle

    def renew(self, lease_id: str, worker_id: str) -> dict[str, Any]:
        """Extend one lease's deadline (long cells renew mid-flight)."""
        with self._lock:
            self.tick()
            lease = self._current_lease(lease_id, worker_id)
            lease.deadline = self._clock() + self.lease_ttl_s
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.last_seen = self._clock()
            return {"lease_id": lease_id, "ttl_s": self.lease_ttl_s}

    def complete(
        self, lease_id: str, worker_id: str, payload: dict[str, Any]
    ) -> dict[str, Any]:
        """Verify and merge one completed cell into the ledger."""
        with self._lock:
            self.tick()
            lease = self._current_lease(lease_id, worker_id)
            task = lease.task
            result = payload["result"]
            digest = result_sha256(result)
            if digest != payload["result_sha256"]:
                # Corrupt upload: drop the lease and put the cell back.
                self._drop_lease(lease)
                task.requeue(lease.cell_index)
                obs.counter("service.dist.completions.rejected").inc()
                raise ProtocolError(
                    400,
                    "result-hash-mismatch",
                    f"cell {lease.cell_index} upload hashes to {digest}, "
                    f"worker claimed {payload['result_sha256']}; cell "
                    "re-queued",
                    expected=payload["result_sha256"],
                    got=digest,
                )
            with obs.span("service.dist.merge"):
                task.complete(
                    lease.cell_index,
                    elapsed_s=float(payload["elapsed_s"]),
                    result=result,
                )
            self._drop_lease(lease)
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.completed += 1
                worker.last_seen = self._clock()
            obs.counter("service.dist.leases.completed").inc()
            return {
                "lease_id": lease_id,
                "cell_index": lease.cell_index,
                "task_done": task.done,
            }

    def fail(
        self, lease_id: str, worker_id: str, message: str
    ) -> dict[str, Any]:
        """A worker could not run its cell; re-queue it for another try."""
        with self._lock:
            self.tick()
            lease = self._current_lease(lease_id, worker_id)
            self._drop_lease(lease)
            lease.task.requeue(lease.cell_index)
            obs.counter("service.dist.leases.failed").inc()
            return {"lease_id": lease_id, "requeued": lease.cell_index}

    # -- tasks (registered by in-daemon job bodies) ------------------------------

    def executor(self, descriptor: dict[str, Any]):
        """A ``run_sweep`` executor that finishes cells by remote leases.

        ``descriptor`` names the preset workers re-expand.  The task is
        registered here (or joins the live task of the same sweep), and
        each step of the driving thread waits for completions.
        """
        return lambda spec, *, root, resume: (
            self._open(spec, descriptor, root=root, resume=resume),
            self._wait,
        )

    def submit(self, descriptor: dict[str, Any], *, resume: bool = True) -> str:
        """Register one preset descriptor's task; returns the task id."""
        spec = resolve_spec(descriptor)
        return self._open(
            spec, descriptor, root=self.sweep_dir, resume=resume
        ).task_id

    def task_status(self, task_id: str) -> dict[str, Any]:
        """Progress snapshot for one task."""
        with self._lock:
            self.tick()
            task = self._tasks.get(task_id)
            if task is None:
                raise ProtocolError(
                    404, "unknown-task", f"no such dist task: {task_id}"
                )
            return {**self._task_view(task), "n_workers": len(self._workers)}

    def abandon(self, task_id: str) -> None:
        """Stop dispatching a task (job cancelled); leases go stale."""
        with self._lock:
            task = self._tasks.get(task_id)
            if task is not None:
                task.abandon()
                self.tick()

    # -- liveness ----------------------------------------------------------------

    def tick(self) -> None:
        """Lazy expiry scan: evict silent workers, re-queue dead leases."""
        with self._lock:
            now = self._clock()
            for worker_id, worker in list(self._workers.items()):
                if now - worker.last_seen > self.heartbeat_timeout_s:
                    del self._workers[worker_id]
                    self._expire_worker_leases(worker_id)
                    obs.counter("service.dist.workers.evicted").inc()
            for lease in list(self._leases.values()):
                if lease.task.abandoned:
                    self._drop_lease(lease)
                elif now > lease.deadline:
                    self._expire_lease(lease)

    def drain(self) -> None:
        """Stop granting leases; in-flight completions still merge."""
        with self._lock:
            self.draining = True

    def status(self) -> dict[str, Any]:
        """The operator view served at ``GET /v1/dist/status``."""
        with self._lock:
            self.tick()
            return {
                "protocol": DIST_PROTOCOL_VERSION,
                "draining": self.draining,
                "workers": [
                    {
                        "worker_id": worker.worker_id,
                        "completed": worker.completed,
                        "heartbeats": worker.heartbeats,
                    }
                    for worker in sorted(
                        self._workers.values(), key=lambda w: w.worker_id
                    )
                ],
                "tasks": [self._task_view(task) for task in self._tasks.values()],
                "leases": len(self._leases),
            }

    # -- internals ---------------------------------------------------------------

    def _unknown_worker(self, worker_id: str) -> ProtocolError:
        return ProtocolError(
            404,
            "unknown-worker",
            f"worker {worker_id!r} is not registered (evicted or never "
            "registered); register again",
        )

    def _current_lease(self, lease_id: str, worker_id: str) -> _Lease:
        lease = self._leases.get(lease_id)
        if lease is None or lease.worker_id != worker_id:
            obs.counter("service.dist.completions.stale").inc()
            raise ProtocolError(
                409,
                "stale-lease",
                f"lease {lease_id} is not current for worker {worker_id!r} "
                "(expired, evicted, or completed elsewhere)",
            )
        return lease

    def _open(
        self,
        spec: ScenarioSpec,
        descriptor: dict[str, Any],
        *,
        root: str | Path | None,
        resume: bool,
    ) -> SweepTask:
        """The live task of ``spec``'s sweep, or a new one registered.

        Idempotent per sweep id: a sweep already in flight keeps its one
        task — and its one ledger writer — whatever ``resume`` says.
        """
        with obs.span("service.dist.submit"), self._lock:
            existing = self._tasks.get(sweep_id(spec))
            if existing is not None and not existing.done:
                return existing
            task = SweepTask(spec, root=root, resume=resume)
            self._tasks[task.task_id] = task
            self._descriptors[task.task_id] = dict(descriptor)
            obs.gauge("service.dist.tasks").set(len(self._tasks))
            return task

    def _wait(self, task: SweepTask) -> None:
        """One step of a leased run: expire what is due, await a merge."""
        self.tick()
        task.wait(self.poll_interval_s)

    def _task_view(self, task: SweepTask) -> dict[str, Any]:
        leased = [lease for lease in self._leases.values() if lease.task is task]
        return {"task_id": task.task_id, **task.status(), "n_leased": len(leased)}

    def _drop_lease(self, lease: _Lease) -> None:
        self._leases.pop(lease.lease_id, None)

    def _expire_lease(self, lease: _Lease) -> None:
        self._drop_lease(lease)
        lease.task.requeue(lease.cell_index)
        obs.counter("service.dist.leases.expired").inc()

    def _expire_worker_leases(self, worker_id: str) -> None:
        for lease in list(self._leases.values()):
            if lease.worker_id == worker_id:
                self._expire_lease(lease)
