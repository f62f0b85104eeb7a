"""The sweep scheduler: expand, resume, execute, aggregate.

:func:`run_sweep` is the one entry point: it builds the sweep's
:class:`~repro.sweep.task.SweepTask` (ledger resume, pending queue,
exactly-once merge) and drives it to the end.  By default each missing
cell runs inline, in cell order — a :class:`~repro.core.study.Study` on
the sharded executor (``jobs`` workers) behind the content-addressed
study cache — and reaches the ledger before the next cell starts, so a
kill at any point loses at most the in-flight cell.  Each inline cell
runs in its own collection context, absorbed into the caller's and
written as a per-cell run manifest carrying sweep provenance.

Determinism contract: cell order, cell ids, per-cell simulation output,
and the rendered :class:`~repro.sweep.report.SweepReport` are identical
for any ``--jobs`` value, any executor, and any interrupt/resume
history, because the report is always built from ledger payloads alone.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro import obs
from repro.core.study import Study
from repro.sweep.ledger import SweepLedger
from repro.sweep.report import CellResult, SweepReport, extract_cell
from repro.sweep.spec import ScenarioSpec, SweepCell, expand
from repro.sweep.task import EXECUTED, LEDGER_HIT, SweepTask
from repro.util.parallel import effective_jobs

Log = Callable[[str], None]


def _silent(_: str) -> None:
    return None


@dataclass
class SweepOutcome:
    """What one ``run_sweep`` invocation did."""

    sweep_id: str
    ledger: SweepLedger
    report: SweepReport | None = None
    executed: list[int] = field(default_factory=list)
    ledger_hits: list[int] = field(default_factory=list)
    #: ``True`` when a ``should_stop`` hook ended the run early; the
    #: ledger stays resumable (re-run with ``resume=True`` to finish).
    stopped: bool = False

    @property
    def n_cells(self) -> int:
        return len(self.executed) + len(self.ledger_hits)


def sweep_provenance(
    spec_or_ledger: ScenarioSpec | SweepLedger, cell_index: int | None = None
) -> dict:
    """The manifest provenance block: sweep id, cell index, spec print."""
    ledger = (
        spec_or_ledger
        if isinstance(spec_or_ledger, SweepLedger)
        else SweepLedger(spec_or_ledger)
    )
    return {
        "sweep_id": ledger.sweep_id,
        "cell_index": cell_index,
        "spec_fingerprint": ledger.spec_fingerprint,
    }


def run_cell(
    cell: SweepCell,
    *,
    jobs: int | None = 1,
    cache: bool | None = None,
    cache_dir: str | Path | None = None,
) -> CellResult:
    """Execute one cell: simulate, extract."""
    study = Study(cell.config, jobs=jobs, cache=cache, cache_dir=cache_dir)
    study.observations
    return extract_cell(study, cell)


def _execute_inline(
    task: SweepTask,
    *,
    jobs: int | None,
    cache: bool | None,
    cache_dir: str | Path | None,
    write_manifests: bool,
    log: Log,
) -> None:
    """The inline executor's step: run the next cell in this thread."""
    cell = task.take()
    if cell is None:
        return
    started = time.perf_counter()
    with obs.collecting() as registry, obs.tracing() as tracer:
        with obs.span("sweep.cell"):
            result = run_cell(cell, jobs=jobs, cache=cache, cache_dir=cache_dir)
        snapshot, tree = registry.snapshot(), tracer.tree()
    obs.absorb(snapshot, tree)
    elapsed = time.perf_counter() - started
    if write_manifests:
        manifest = obs.build_manifest(
            "sweep-cell",
            config=cell.config,
            registry=registry,
            tracer=tracer,
            sweep=sweep_provenance(task.ledger, cell.index),
        )
        task.ledger.cells_dir.mkdir(parents=True, exist_ok=True)
        obs.write_manifest(task.ledger.manifest_path(cell.index), manifest)
    task.complete(cell.index, elapsed_s=elapsed, result=result.to_dict())
    log(f"cell {cell.index} [{cell.describe()}]: simulated in {elapsed:.1f}s")


def run_sweep(
    spec: ScenarioSpec,
    *,
    jobs: int | None = 1,
    resume: bool = True,
    cache: bool | None = None,
    cache_dir: str | Path | None = None,
    sweep_dir: str | Path | None = None,
    write_manifests: bool = True,
    should_stop: Callable[[], bool] | None = None,
    on_cell: Callable[[SweepCell, str], None] | None = None,
    log: Log = _silent,
    executor=None,
) -> SweepOutcome:
    """Run (or resume) a sweep to completion and aggregate it.

    ``resume=True`` replays completed cells from the ledger without
    recomputation; ``resume=False`` resets the ledger first.  ``jobs``
    shards each cell's simulation; ``cache``/``cache_dir`` are forwarded
    to each cell's :class:`~repro.core.study.Study`; ``sweep_dir``
    overrides where the ledger lives (default: the study cache root).

    ``on_cell(cell, "ledger-hit" | "executed")`` fires for every settled
    cell (ledger hits first) and ``should_stop`` is polled before each
    cell still to run — ``True`` ends the run with ``outcome.stopped``
    set and the ledger resumable (:meth:`SweepTask.drive`).

    ``executor(spec, root=..., resume=...)``, if given, returns the task
    and the ``step(task)`` that advances it in place of running cells
    inline — a dist coordinator's
    :meth:`~repro.service.dist.DistCoordinator.executor` finishes them
    by remote leases.
    """
    root = sweep_dir if sweep_dir is not None else cache_dir
    if executor is None:
        task = SweepTask(spec, root=root, resume=resume, log=log)
        step = functools.partial(
            _execute_inline,
            jobs=jobs,
            cache=cache,
            cache_dir=cache_dir,
            write_manifests=write_manifests,
            log=log,
        )
    else:
        task, step = executor(spec, root=root, resume=resume)
    log(
        f"sweep {task.task_id}: {len(task.cells)} cells, "
        f"{len(task.completed)} already in ledger, "
        f"jobs {effective_jobs(jobs, None)}"
    )
    with obs.span("sweep.run"):
        obs.gauge("sweep.cells").set(len(task.cells))
        stopped = task.drive(step, should_stop=should_stop, on_cell=on_cell)
    if stopped:
        log(f"sweep {task.task_id}: stop requested")
    return SweepOutcome(
        sweep_id=task.task_id,
        ledger=task.ledger,
        report=load_report(spec, sweep_dir=root),
        executed=task.indices(EXECUTED),
        ledger_hits=task.indices(LEDGER_HIT),
        stopped=stopped,
    )


def report_document(preset_name: str, outcome: SweepOutcome) -> dict:
    """The ``sweep-report`` document a preset sweep is served as."""
    return {
        "kind": "sweep-report",
        "preset": preset_name,
        "sweep_id": outcome.sweep_id,
        "spec_fingerprint": outcome.ledger.spec_fingerprint,
        "n_cells": outcome.report.n_cells,
        "n_done": len(outcome.report.cells),
        "stopped": outcome.stopped,
        "rendered": outcome.report.render(),
    }


def sweep_status(
    spec: ScenarioSpec, *, sweep_dir: str | Path | None = None
) -> dict:
    """Ledger-only progress view (never simulates)."""
    cells = expand(spec)
    ledger = SweepLedger(spec, root=sweep_dir)
    state = ledger.read()
    done = sorted(index for index in state.completed if index < len(cells))
    pending = [cell.index for cell in cells if cell.index not in state.completed]
    return {
        "sweep_id": ledger.sweep_id,
        "spec_fingerprint": ledger.spec_fingerprint,
        "ledger_path": str(ledger.path),
        "n_cells": len(cells),
        "done": done,
        "pending": pending,
        "cells": [
            {
                "index": cell.index,
                "cell_id": cell.cell_id,
                "labels": cell.label_map,
                "status": "done" if cell.index in state.completed else "pending",
                "elapsed_s": state.cells.get(cell.index, {}).get("elapsed_s"),
            }
            for cell in cells
        ],
    }


def load_report(
    spec: ScenarioSpec, *, sweep_dir: str | Path | None = None
) -> SweepReport:
    """Build the sweep report from the ledger alone.

    Every report — mid-flight, post-resume, or after an uninterrupted
    run — comes through here, which is what makes the rendered output
    independent of how the sweep reached completion.
    """
    cells = expand(spec)
    ledger = SweepLedger(spec, root=sweep_dir)
    state = ledger.read()
    results = [
        CellResult.from_dict(state.cells[cell.index]["result"])
        for cell in cells
        if cell.index in state.cells
    ]
    return SweepReport(
        name=spec.name,
        sweep_id=ledger.sweep_id,
        spec_fingerprint=ledger.spec_fingerprint,
        n_cells=len(cells),
        cells=results,
    )
