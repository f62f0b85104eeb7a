"""The shared sweep task: one scheduler for inline and leased execution.

:class:`repro.sweep.task.SweepTask` owns resume, the pending queue, the
exactly-once ledger merge, stop, and status.  These tests pin its
contract through both executors — ``run_sweep``'s inline one and the
dist coordinator's leases — and the service's one body per job kind on
both daemon roles.
"""

from __future__ import annotations

import asyncio
import datetime as dt
import json
import threading

import pytest

from repro.core.artifacts import artifact_json_bytes
from repro.service.dist import DistCoordinator, WorkerConfig, run_worker
from repro.service.dist.protocol import DIST_PROTOCOL_VERSION, result_sha256
from repro.sweep import SweepLedger, load_report, preset, run_sweep
from repro.sweep.scheduler import report_document, run_cell
from repro.sweep.spec import expand, spec_fingerprint
from repro.sweep.task import SweepTask

from tests.test_service import poll_until, request, request_json, run_daemon
from tests.test_sweep_run import SPEC2, SPEC4


def _make_stale(spec, root, index: int) -> dict:
    """Rewrite one ledger record's config fingerprint; returns the original."""
    ledger = SweepLedger(spec, root=root)
    lines = ledger.path.read_text(encoding="utf-8").splitlines()
    original = None
    for position, line in enumerate(lines):
        record = json.loads(line)
        if record.get("kind") == "cell" and record["index"] == index:
            original = dict(record)
            record["config_fingerprint"] = "0" * 16
            record["result"] = {**record["result"], "seed": -1}
            lines[position] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    ledger.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return original


class TestStaleRecords:
    def test_inline_path_recomputes_a_stale_record(self, tmp_path):
        first = run_sweep(SPEC2, jobs=1, sweep_dir=tmp_path)
        original = _make_stale(SPEC2, tmp_path, 1)

        resumed = run_sweep(SPEC2, jobs=1, sweep_dir=tmp_path)
        assert resumed.ledger_hits == [0]
        assert resumed.executed == [1]
        # the stale record is gone; the recomputed one is what the
        # report (and the next resume) reads
        record = SweepLedger(SPEC2, root=tmp_path).read().cells[1]
        assert record["config_fingerprint"] == original["config_fingerprint"]
        assert record["result"] == original["result"]
        assert resumed.report.render() == first.report.render()
        again = run_sweep(SPEC2, jobs=1, sweep_dir=tmp_path)
        assert again.ledger_hits == [0, 1] and again.executed == []

    def test_leased_path_recomputes_a_stale_record(self, tmp_path):
        spec = preset("smoke")
        run_sweep(spec, jobs=1, sweep_dir=tmp_path, cache=False)
        _make_stale(spec, tmp_path, 2)

        coordinator = DistCoordinator(sweep_dir=tmp_path)
        coordinator.register(
            {
                "protocol": DIST_PROTOCOL_VERSION,
                "worker_id": "w1",
                "capabilities": ["sweep-preset"],
            }
        )
        task_id = coordinator.submit(
            {
                "spec_kind": "sweep-preset",
                "preset": "smoke",
                "strength": None,
                "spec_fingerprint": spec_fingerprint(spec),
            }
        )
        status = coordinator.task_status(task_id)
        assert status["ledger_hits"] == 3
        assert status["n_pending"] == 1
        lease = coordinator.acquire("w1")
        assert lease["cell"]["index"] == 2
        assert coordinator.acquire("w1")["lease_id"] is None


class TestExactlyOnceMerge:
    def test_duplicate_completion_merges_once(self, tmp_path):
        task = SweepTask(SPEC2, root=tmp_path)
        cell = task.take()
        assert task.complete(cell.index, elapsed_s=0.1, result={"a": 1})
        assert not task.complete(cell.index, elapsed_s=0.2, result={"a": 2})
        text = SweepLedger(SPEC2, root=tmp_path).path.read_text(encoding="utf-8")
        assert sum('"kind":"cell"' in line for line in text.splitlines()) == 1
        assert task.status()["executed"] == 1
        # a handed-back cell that already merged never re-queues
        task.requeue(cell.index)
        assert task.take().index != cell.index

    def test_abandoned_task_merges_nothing(self, tmp_path):
        task = SweepTask(SPEC2, root=tmp_path)
        cell = task.take()
        task.abandon()
        assert not task.complete(cell.index, elapsed_s=0.1, result={})
        assert SweepLedger(SPEC2, root=tmp_path).read().cells == {}
        assert task.done and task.take() is None


class TestStopAfterK:
    @pytest.mark.parametrize("k", [1, 3])
    def test_stop_after_k_cells_then_resume_is_identical(self, tmp_path, k):
        answers = iter([False] * k + [True])
        stopped = run_sweep(
            SPEC4, jobs=1, sweep_dir=tmp_path / "a", should_stop=lambda: next(answers)
        )
        assert stopped.stopped and stopped.executed == list(range(k))
        assert sorted(SweepLedger(SPEC4, root=tmp_path / "a").read().cells) == list(
            range(k)
        )

        resumed = run_sweep(SPEC4, jobs=1, sweep_dir=tmp_path / "a")
        assert resumed.ledger_hits == list(range(k))
        assert resumed.executed == list(range(k, 4))
        straight = run_sweep(SPEC4, jobs=1, sweep_dir=tmp_path / "b")
        assert artifact_json_bytes(
            report_document("kill-test", resumed)
        ) == artifact_json_bytes(report_document("kill-test", straight))
        assert load_report(SPEC4, sweep_dir=tmp_path / "a").render() == (
            straight.report.render()
        )


# -- one body per job kind, on both daemon roles --------------------------------


@pytest.fixture()
def tiny_whatif(monkeypatch):
    """A fast 2-cell pairing injected into the what-if preset registry."""
    from repro.core.study import StudyConfig
    from repro.counterfactual import InterventionSpec, WhatifPreset, scale_op
    from repro.counterfactual.presets import WHATIF_PRESETS
    from repro.net.plan import PlanConfig
    from repro.util.calendar import StudyCalendar

    def base():
        start = dt.date(2019, 1, 1)
        return StudyConfig(
            seed=0,
            calendar=StudyCalendar(start, start + dt.timedelta(days=16 * 7)),
            dp_per_day=12.0,
            ra_per_day=9.0,
            plan=PlanConfig(seed=0, tail_as_count=60),
        )

    intervention = InterventionSpec(
        name="tiny-role-floor",
        title="Netscout floor tripled (role parity test)",
        anchor="paper §5",
        description="test-size severity floor shift",
        ops=(scale_op("tuning.netscout_severity_floor_scale", 3.0),),
    )
    monkeypatch.setitem(
        WHATIF_PRESETS,
        "tiny-role-floor",
        lambda: WhatifPreset(intervention=intervention, base=base, seeds=(0,)),
    )
    return {"kind": "whatif", "preset": "tiny-role-floor"}


def _run_job(payload: dict, artifact: str, *, workers: int, **daemon) -> dict:
    """Submit one job to a fresh daemon; returns its document and bytes."""
    seen: dict = {}

    async def scenario(handle):
        port = handle.port
        stop = threading.Event()
        threads = [
            threading.Thread(
                target=run_worker,
                args=(
                    WorkerConfig(
                        coordinator=f"http://127.0.0.1:{port}",
                        worker_id=f"worker-{i}",
                        cache=False,
                    ),
                ),
                kwargs={"stop": stop},
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in threads:
            thread.start()
        try:
            _, submitted = await request_json(port, "POST", "/v1/jobs", payload)
            document = await poll_until(
                port, submitted["id"], "done", "failed", tries=3000
            )
            assert document["status"] == "done", document["error"]
            status, raw = await request(
                port, "GET", f"/v1/jobs/{submitted['id']}/artifacts/{artifact}"
            )
            assert status == 200
            seen.update(document=document, raw=raw)
        finally:
            stop.set()
            await asyncio.to_thread(lambda: [t.join(timeout=15) for t in threads])

    run_daemon(scenario, **daemon)
    return seen


@pytest.mark.parametrize(
    "kind, artifact",
    [("sweep", "report"), ("whatif", "detection")],
)
def test_coordinator_role_matches_the_local_body(
    tmp_path, tiny_whatif, kind, artifact
):
    payload = tiny_whatif if kind == "whatif" else {"kind": "sweep", "preset": "smoke"}
    local = _run_job(payload, artifact, workers=0, cache_dir=str(tmp_path / "local"))
    leased = _run_job(
        payload,
        artifact,
        workers=2,
        role="coordinator",
        sweep_dir=tmp_path / "dist",
        cache=False,
    )
    assert leased["raw"] == local["raw"]
    progress = leased["document"]["progress"]
    assert progress == local["document"]["progress"]
    assert progress["cells_done"] == progress["n_cells"] == progress["executed"]
    assert progress["ledger_hits"] == 0
    if kind == "whatif":
        assert progress["divergence"]["paired_seeds"] == [0]
    for key in ("executed", "ledger_hits", "stopped"):
        assert leased["document"]["summary"][key] == local["document"]["summary"][key]


def test_remote_completion_fires_on_cell_and_stop_abandons(tmp_path):
    """A leased run reports each merge and honours ``should_stop``."""
    spec = preset("smoke")
    coordinator = DistCoordinator(sweep_dir=tmp_path, poll_interval_s=0.01)
    coordinator.register(
        {
            "protocol": DIST_PROTOCOL_VERSION,
            "worker_id": "w1",
            "capabilities": ["sweep-preset"],
        }
    )
    descriptor = {
        "spec_kind": "sweep-preset",
        "preset": "smoke",
        "strength": None,
        "spec_fingerprint": spec_fingerprint(spec),
    }
    events: list[tuple[int, str]] = []
    merged = threading.Event()

    def remote_worker() -> None:
        # complete exactly one cell, then hold a second lease
        lease = None
        while lease is None or lease["lease_id"] is None:
            lease = coordinator.acquire("w1")
        result = run_cell(expand(spec)[lease["cell"]["index"]], cache=False).to_dict()
        coordinator.complete(
            lease["lease_id"],
            "w1",
            {
                "result": result,
                "result_sha256": result_sha256(result),
                "elapsed_s": 0.0,
            },
        )
        coordinator.acquire("w1")
        merged.set()

    thread = threading.Thread(target=remote_worker, daemon=True)
    thread.start()
    outcome = run_sweep(
        spec,
        sweep_dir=tmp_path,
        executor=coordinator.executor(descriptor),
        on_cell=lambda cell, how: events.append((cell.index, how)),
        should_stop=lambda: merged.is_set() and bool(events),
    )
    thread.join(timeout=10)
    assert events == [(0, "executed")]
    assert outcome.stopped and outcome.executed == [0]
    assert sorted(SweepLedger(spec, root=tmp_path).read().cells) == [0]
    overview = coordinator.status()
    assert overview["leases"] == 0  # the held lease went stale with the stop


def test_concurrent_completions_merge_each_cell_once(tmp_path):
    """More completing threads than cores, each also re-reporting cells
    another thread finished: every cell settles and merges exactly once."""
    import sys

    from repro.sweep import ScenarioSpec, seed_axis

    spec = ScenarioSpec(
        name="stress", base=SPEC2.base, axes=(seed_axis(tuple(range(24))),)
    )
    task = SweepTask(spec, root=tmp_path)
    events: list[int] = []

    def finisher() -> None:
        while (cell := task.take()) is not None:
            for index in (cell.index, max(0, cell.index - 1)):
                task.complete(index, elapsed_s=0.0, result={"index": index})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=finisher, daemon=True) for _ in range(8)]
        for thread in threads:
            thread.start()
        stopped = task.drive(
            lambda t: t.wait(0.01), on_cell=lambda cell, how: events.append(cell.index)
        )
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not stopped
    assert sorted(events) == list(range(24))
    lines = SweepLedger(spec, root=tmp_path).path.read_text(encoding="utf-8")
    indices = [json.loads(line)["index"] for line in lines.splitlines()[1:]]
    assert sorted(indices) == list(range(24))
