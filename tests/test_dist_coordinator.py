"""Coordinator failure-model tests: the dist tier without a socket.

Everything here drives :class:`repro.service.dist.DistCoordinator`
directly with a fake monotonic clock, so lease expiry, heartbeat
eviction, stale completions, and hash-mismatch re-queues are pinned
deterministically — no sleeps, no threads, no ports.  The wire-level
behaviour of the same code paths is covered by ``tests/test_service.py``
and the SIGKILL determinism test in ``tests/test_dist_determinism.py``.
"""

from __future__ import annotations

import pytest

from repro.service.dist import (
    DistCoordinator,
    ProtocolError,
    result_sha256,
)
from repro.service.dist.protocol import (
    DIST_PROTOCOL_VERSION,
    check_protocol,
    protocol_descriptor,
    resolve_spec,
    validate_message,
)
from repro.sweep.ledger import SweepLedger
from repro.sweep.presets import preset
from repro.sweep.spec import spec_fingerprint


class FakeClock:
    """A hand-advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 1_000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def preset_descriptor(name: str) -> dict:
    return {
        "spec_kind": "sweep-preset",
        "preset": name,
        "strength": None,
        "spec_fingerprint": spec_fingerprint(preset(name)),
    }


def smoke_descriptor() -> dict:
    return preset_descriptor("smoke")


def make_coordinator(tmp_path, clock, **kwargs) -> DistCoordinator:
    kwargs.setdefault("lease_ttl_s", 10.0)
    kwargs.setdefault("heartbeat_timeout_s", 30.0)
    return DistCoordinator(sweep_dir=tmp_path, clock=clock, **kwargs)


def register(coordinator, worker_id="w1") -> dict:
    return coordinator.register(
        {
            "protocol": DIST_PROTOCOL_VERSION,
            "worker_id": worker_id,
            "capabilities": ["sweep-preset"],
        }
    )


def completion(worker_id: str, index: int) -> dict:
    result = {"cell": index, "ok": True}
    return {
        "worker_id": worker_id,
        "result": result,
        "result_sha256": result_sha256(result),
        "elapsed_s": 0.1,
    }


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def coordinator(tmp_path, clock):
    return make_coordinator(tmp_path, clock)


class TestHandshake:
    def test_descriptor_names_version_and_schemas(self):
        document = protocol_descriptor()
        assert document["protocol"] == DIST_PROTOCOL_VERSION
        assert "sweep-preset" in document["capabilities"]
        assert "register_request" in document["schemas"]

    def test_register_returns_lease_and_heartbeat_config(self, coordinator):
        response = register(coordinator, "w1")
        assert response["protocol"] == DIST_PROTOCOL_VERSION
        assert response["worker_id"] == "w1"
        assert response["lease_ttl_s"] == 10.0
        assert response["heartbeat_interval_s"] > 0

    def test_protocol_mismatch_is_structured_409(self, coordinator):
        with pytest.raises(ProtocolError) as caught:
            coordinator.register(
                {"protocol": 999, "worker_id": "w1", "capabilities": []}
            )
        error = caught.value
        assert error.status == 409
        assert error.code == "protocol-mismatch"
        assert error.document() == {
            "code": "protocol-mismatch",
            "expected": DIST_PROTOCOL_VERSION,
            "got": 999,
        }

    def test_unknown_capability_rejected(self):
        with pytest.raises(ProtocolError) as caught:
            check_protocol(
                {
                    "protocol": DIST_PROTOCOL_VERSION,
                    "worker_id": "w1",
                    "capabilities": ["teleport"],
                }
            )
        assert caught.value.status == 409
        assert caught.value.code == "unknown-capability"

    def test_draining_coordinator_admits_nobody(self, coordinator):
        coordinator.drain()
        with pytest.raises(ProtocolError) as caught:
            register(coordinator, "late")
        assert caught.value.status == 503
        assert caught.value.code == "draining"

    def test_invalid_message_lists_schema_violations(self):
        with pytest.raises(ProtocolError) as caught:
            validate_message("register_request", {"protocol": "one"})
        assert caught.value.code == "invalid-message"
        assert "worker_id" in str(caught.value)


class TestSpecResolution:
    def test_descriptor_round_trips_to_the_preset_spec(self):
        spec = resolve_spec(smoke_descriptor())
        assert spec.name == "smoke"

    def test_fingerprint_drift_is_refused(self):
        descriptor = dict(smoke_descriptor(), spec_fingerprint="drifted")
        with pytest.raises(ProtocolError) as caught:
            resolve_spec(descriptor)
        assert caught.value.status == 409
        assert caught.value.code == "spec-mismatch"

    def test_unknown_preset_and_kind_are_400s(self):
        bad_preset = dict(smoke_descriptor(), preset="nope")
        with pytest.raises(ProtocolError) as caught:
            resolve_spec(bad_preset)
        assert caught.value.code == "unknown-preset"
        bad_kind = dict(smoke_descriptor(), spec_kind="teleport")
        with pytest.raises(ProtocolError) as caught:
            resolve_spec(bad_kind)
        assert caught.value.code == "unknown-capability"

    def test_result_hash_ignores_key_order(self):
        assert result_sha256({"a": 1, "b": [1.5, 2]}) == result_sha256(
            {"b": [1.5, 2], "a": 1}
        )


class TestLeaseLifecycle:
    def test_cells_dispatch_in_index_order_then_idle(self, coordinator):
        register(coordinator, "w1")
        task_id = coordinator.submit(smoke_descriptor())
        seen = []
        while True:
            lease = coordinator.acquire("w1")
            if lease["lease_id"] is None:
                break
            seen.append(lease["cell"]["index"])
            assert lease["task_id"] == task_id
            assert lease["task"]["preset"] == "smoke"
            coordinator.complete(
                lease["lease_id"], "w1", completion("w1", lease["cell"]["index"])
            )
        assert seen == sorted(seen) and len(seen) == 4
        status = coordinator.task_status(task_id)
        assert status["done"] and status["executed"] == 4
        assert status["ledger_hits"] == 0

    def test_acquire_without_work_is_idle_not_error(self, coordinator):
        register(coordinator, "w1")
        lease = coordinator.acquire("w1")
        assert lease["lease_id"] is None
        assert lease["retry_after_s"] > 0

    def test_unregistered_worker_is_told_to_register(self, coordinator):
        with pytest.raises(ProtocolError) as caught:
            coordinator.acquire("ghost")
        assert caught.value.status == 404
        assert caught.value.code == "unknown-worker"

    def test_submit_is_idempotent_per_sweep(self, coordinator):
        register(coordinator, "w1")
        first = coordinator.submit(smoke_descriptor())
        lease = coordinator.acquire("w1")
        assert coordinator.submit(smoke_descriptor()) == first
        # resubmission must not have reset in-flight lease state
        coordinator.complete(
            lease["lease_id"], "w1", completion("w1", lease["cell"]["index"])
        )

    def test_fail_requeues_the_cell_first(self, coordinator):
        register(coordinator, "w1")
        coordinator.submit(smoke_descriptor())
        lease = coordinator.acquire("w1")
        index = lease["cell"]["index"]
        coordinator.fail(lease["lease_id"], "w1", "spec drift")
        assert coordinator.acquire("w1")["cell"]["index"] == index

    def test_drain_stops_granting_but_reports_it(self, coordinator):
        register(coordinator, "w1")
        coordinator.submit(smoke_descriptor())
        coordinator.drain()
        lease = coordinator.acquire("w1")
        assert lease["lease_id"] is None
        assert lease["draining"] is True

    def test_abandon_marks_done_and_stops_dispatch(self, coordinator):
        register(coordinator, "w1")
        task_id = coordinator.submit(smoke_descriptor())
        coordinator.acquire("w1")
        coordinator.abandon(task_id)
        status = coordinator.task_status(task_id)
        assert status["abandoned"] and status["done"]
        assert coordinator.acquire("w1")["lease_id"] is None


class TestFailureModel:
    def test_expired_lease_redispatches_same_cell(self, coordinator, clock):
        register(coordinator, "w1")
        register(coordinator, "w2")
        coordinator.submit(smoke_descriptor())
        first = coordinator.acquire("w1")
        clock.advance(11.0)  # past the 10 s TTL, within heartbeat timeout
        coordinator.heartbeat("w1")
        retry = coordinator.acquire("w2")
        assert retry["cell"]["index"] == first["cell"]["index"]
        assert retry["lease_id"] != first["lease_id"]

    def test_stale_completion_is_rejected_and_result_kept_once(
        self, coordinator, clock, tmp_path
    ):
        register(coordinator, "w1")
        register(coordinator, "w2")
        task_id = coordinator.submit(smoke_descriptor())
        dead = coordinator.acquire("w1")
        index = dead["cell"]["index"]
        clock.advance(11.0)
        coordinator.heartbeat("w1")
        live = coordinator.acquire("w2")
        coordinator.complete(live["lease_id"], "w2", completion("w2", index))
        with pytest.raises(ProtocolError) as caught:
            coordinator.complete(dead["lease_id"], "w1", completion("w1", index))
        assert caught.value.status == 409
        assert caught.value.code == "stale-lease"
        state = SweepLedger(preset("smoke"), root=tmp_path).read()
        assert sorted(state.cells) == [index]
        assert coordinator.task_status(task_id)["n_done"] == 1

    def test_renew_keeps_a_long_cell_alive(self, coordinator, clock):
        register(coordinator, "w1")
        coordinator.submit(smoke_descriptor())
        lease = coordinator.acquire("w1")
        for _ in range(3):
            clock.advance(8.0)  # would expire without the renew
            coordinator.renew(lease["lease_id"], "w1")
        coordinator.complete(
            lease["lease_id"], "w1", completion("w1", lease["cell"]["index"])
        )

    def test_silent_worker_is_evicted_and_leases_requeued(
        self, coordinator, clock
    ):
        register(coordinator, "w1")
        register(coordinator, "w2")
        coordinator.submit(smoke_descriptor())
        lost = coordinator.acquire("w1")
        clock.advance(20.0)
        coordinator.heartbeat("w2")  # w2 stays live; w1 goes silent
        clock.advance(11.0)  # w1 is now 31 s silent, past the 30 s timeout
        retry = coordinator.acquire("w2")  # tick() evicts w1 first
        assert retry["cell"]["index"] == lost["cell"]["index"]
        with pytest.raises(ProtocolError) as caught:
            coordinator.heartbeat("w1")
        assert caught.value.code == "unknown-worker"
        # the worker's recovery path: register again, keep pulling work
        register(coordinator, "w1")
        assert coordinator.acquire("w1")["lease_id"] is not None

    def test_hash_mismatch_requeues_and_never_merges(
        self, coordinator, tmp_path
    ):
        register(coordinator, "w1")
        coordinator.submit(smoke_descriptor())
        lease = coordinator.acquire("w1")
        index = lease["cell"]["index"]
        corrupt = completion("w1", index)
        corrupt["result_sha256"] = "0" * 64
        with pytest.raises(ProtocolError) as caught:
            coordinator.complete(lease["lease_id"], "w1", corrupt)
        assert caught.value.status == 400
        assert caught.value.code == "result-hash-mismatch"
        assert SweepLedger(preset("smoke"), root=tmp_path).read().cells == {}
        retry = coordinator.acquire("w1")
        assert retry["cell"]["index"] == index
        coordinator.complete(retry["lease_id"], "w1", completion("w1", index))
        state = SweepLedger(preset("smoke"), root=tmp_path).read()
        assert sorted(state.cells) == [index]

    def test_deregister_requeues_in_flight_work(self, coordinator):
        register(coordinator, "w1")
        register(coordinator, "w2")
        coordinator.submit(smoke_descriptor())
        lease = coordinator.acquire("w1")
        farewell = coordinator.deregister("w1")
        assert farewell["worker_id"] == "w1"
        assert coordinator.acquire("w2")["cell"]["index"] == lease["cell"]["index"]


class TestResume:
    def test_ledger_cells_count_as_hits_not_work(self, tmp_path, clock):
        first = make_coordinator(tmp_path, clock)
        register(first, "w1")
        task_id = first.submit(smoke_descriptor())
        for _ in range(2):
            lease = first.acquire("w1")
            first.complete(
                lease["lease_id"], "w1", completion("w1", lease["cell"]["index"])
            )
        # a fresh coordinator process over the same sweep dir
        second = make_coordinator(tmp_path, clock)
        register(second, "w1")
        assert second.submit(smoke_descriptor()) == task_id
        status = second.task_status(task_id)
        assert status["ledger_hits"] == 2
        assert status["n_pending"] == 2
        remaining = set()
        while (lease := second.acquire("w1"))["lease_id"] is not None:
            remaining.add(lease["cell"]["index"])
            second.complete(
                lease["lease_id"], "w1", completion("w1", lease["cell"]["index"])
            )
        assert len(remaining) == 2
        final = second.task_status(task_id)
        assert final["done"] and final["executed"] == 2


class TestRetention:
    def run_to_completion(self, coordinator, worker_id="w1") -> None:
        while (lease := coordinator.acquire(worker_id))["lease_id"] is not None:
            coordinator.complete(
                lease["lease_id"],
                worker_id,
                completion(worker_id, lease["cell"]["index"]),
            )

    def test_finished_task_is_dropped_when_the_next_opens(self, coordinator):
        register(coordinator, "w1")
        first = coordinator.submit(smoke_descriptor())
        self.run_to_completion(coordinator)
        assert coordinator.task_status(first)["done"]
        second = coordinator.submit(preset_descriptor("seed0-small"))
        assert [task["task_id"] for task in coordinator.status()["tasks"]] == [
            second
        ]
        assert {task.task_id for task, _ in coordinator._dispatched} <= {second}
        with pytest.raises(ProtocolError) as caught:
            coordinator.task_status(first)
        assert caught.value.code == "unknown-task"

    def test_abandoned_task_is_dropped_when_the_next_opens(self, coordinator):
        register(coordinator, "w1")
        first = coordinator.submit(smoke_descriptor())
        coordinator.acquire("w1")
        coordinator.abandon(first)
        second = coordinator.submit(preset_descriptor("seed0-small"))
        assert [task["task_id"] for task in coordinator.status()["tasks"]] == [
            second
        ]
        assert coordinator._dispatched == set()

    def test_in_flight_task_is_kept(self, coordinator):
        register(coordinator, "w1")
        first = coordinator.submit(smoke_descriptor())
        lease = coordinator.acquire("w1")
        second = coordinator.submit(preset_descriptor("seed0-small"))
        assert [task["task_id"] for task in coordinator.status()["tasks"]] == [
            first,
            second,
        ]
        coordinator.complete(
            lease["lease_id"], "w1", completion("w1", lease["cell"]["index"])
        )
        assert coordinator.task_status(first)["n_done"] == 1
