"""The sweep task: the one scheduler state every sweep executor drives.

A :class:`SweepTask` owns one sweep's cell bookkeeping over its run
ledger: resume (fingerprint-checked ledger hits; a stale record is
dropped and its cell recomputed), the pending queue in index order, the
exactly-once ledger merge, abandon, and the status snapshot.

Executors differ only in who finishes cells: :func:`~repro.sweep.
scheduler.run_sweep` runs them inline in the driving thread, a dist
coordinator hands them to remote workers as leases.  Either way
:meth:`SweepTask.drive` fires ``on_cell`` and polls ``should_stop`` in
the driving thread, so progress and cancellation behave the same.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Callable

from repro import obs
from repro.sweep.ledger import SweepLedger
from repro.sweep.spec import ScenarioSpec, SweepCell, expand

EXECUTED = "executed"
LEDGER_HIT = "ledger-hit"
_COUNTERS = {EXECUTED: "sweep.cells.executed", LEDGER_HIT: "sweep.cells.ledger_hits"}

Log = Callable[[str], None]


def _silent(_: str) -> None:
    return None


class SweepTask:
    """One sweep's cells: thread-safe, so a coordinator can merge
    completions while the driving thread waits on them."""

    def __init__(
        self,
        spec: ScenarioSpec,
        *,
        root: str | Path | None = None,
        resume: bool = True,
        log: Log = _silent,
    ) -> None:
        self.ledger = SweepLedger(spec, root=root)
        self.cells: dict[int, SweepCell] = {cell.index: cell for cell in expand(spec)}
        if not resume:
            self.ledger.reset()
        state = self.ledger.read()
        if state.header is None:
            self.ledger.write_header(len(self.cells))
        records = {i: r for i, r in state.cells.items() if i in self.cells}
        stale = {
            index
            for index, record in records.items()
            if record.get("config_fingerprint") != self.cells[index].config_fingerprint
        }
        if stale:
            # The header matched, so a per-cell mismatch means an edited
            # ledger; drop those records so the recomputed ones are read.
            log(f"cells {sorted(stale)}: ledger records stale, re-running")
            self.ledger.discard(stale)
        self.completed = set(records) - stale
        self.pending = [i for i in sorted(self.cells) if i not in self.completed]
        #: (index, how) per settled cell, in settling order.
        self.settled = [(index, LEDGER_HIT) for index in sorted(self.completed)]
        self.abandoned = False
        self._cond = threading.Condition(threading.RLock())

    @property
    def task_id(self) -> str:
        return self.ledger.sweep_id

    @property
    def done(self) -> bool:
        return self.abandoned or len(self.completed) == len(self.cells)

    def indices(self, how: str) -> list[int]:
        """Cell indices settled as ``how`` (executed or ledger-hit), in order."""
        with self._cond:
            return [index for index, settled in self.settled if settled == how]

    # -- the queue ---------------------------------------------------------------

    def take(self) -> SweepCell | None:
        """The next pending cell (removed from the queue), or ``None``."""
        with self._cond:
            if self.abandoned or not self.pending:
                return None
            return self.cells[self.pending.pop(0)]

    def requeue(self, index: int) -> None:
        """Hand a taken cell back; it is the next one taken."""
        with self._cond:
            if not (self.abandoned or index in self.completed or index in self.pending):
                self.pending.insert(0, index)

    def complete(self, index: int, *, elapsed_s: float, result: dict[str, Any]) -> bool:
        """Merge one finished cell into the ledger, exactly once.

        Returns ``False`` (and writes nothing) when the cell is already
        in the ledger or the task was abandoned.
        """
        with self._cond:
            if self.abandoned or index in self.completed:
                return False
            cell = self.cells[index]
            self.ledger.append_cell(
                index=cell.index,
                cell_id=cell.cell_id,
                labels=cell.label_map,
                config_fingerprint=cell.config_fingerprint,
                elapsed_s=elapsed_s,
                result=result,
            )
            self.completed.add(index)
            self.settled.append((index, EXECUTED))
            self._cond.notify_all()
            return True

    def abandon(self) -> None:
        """Stop dispatching; merged cells stay in the ledger."""
        with self._cond:
            self.abandoned = True
            self.pending.clear()
            self._cond.notify_all()

    def wait(self, timeout: float) -> None:
        """Block until a cell settles, the task ends, or ``timeout``."""
        with self._cond:
            if not self.done:
                self._cond.wait(timeout)

    def status(self) -> dict[str, Any]:
        with self._cond:
            return {
                "done": self.done,
                "abandoned": self.abandoned,
                "n_cells": len(self.cells),
                "n_done": len(self.completed),
                "n_pending": len(self.pending),
                "executed": len(self.indices(EXECUTED)),
                "ledger_hits": len(self.indices(LEDGER_HIT)),
            }

    # -- the driving thread ------------------------------------------------------

    def drive(
        self,
        step: Callable[["SweepTask"], None],
        *,
        should_stop: Callable[[], bool] | None = None,
        on_cell: Callable[[SweepCell, str], None] | None = None,
    ) -> bool:
        """Run ``step`` until every cell settled; ``True`` if stopped.

        Before each step every newly settled cell fires ``on_cell``
        (ledger hits first, in index order), then ``should_stop`` is
        polled; ``True`` abandons the task.  Hook failures propagate.
        """
        seen = 0
        while True:
            with self._cond:
                fresh = self.settled[seen:]
                finished = self.done
            seen += len(fresh)
            for index, how in fresh:
                obs.counter(_COUNTERS[how]).inc()
                if on_cell is not None:
                    on_cell(self.cells[index], how)
            if finished:
                return self.abandoned
            if should_stop is not None and should_stop():
                self.abandon()
                return True
            step(self)
