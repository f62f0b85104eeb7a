"""Shared pieces of the benchmark: run context, rounds, spans, wrapping.

A run measures whole *rounds* of one workload for a fixed time budget
and reports medians over the rounds.  The traced mode records its own
spans (name, start, end, parent, run id) around calls into the
program's public functions, keeps them in memory and writes them out
once at the end of the run.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"

#: Environment knobs that would change what a run measures: a warm
#: cache, a disabled cache or tracer, or a benchmark-only stall.
ISOLATED_ENV = (
    "REPRO_SWEEP_CELL_STALL_S",
    "REPRO_NO_CACHE",
    "REPRO_NO_OBS",
    "REPRO_DIST_CELL_DELAY_S",
)


class CheckFailed(AssertionError):
    """A correctness check of the benchmark did not hold."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Run:
    """One benchmark invocation: workload, seed, budget, scratch root."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    root: Path
    attempted: int = 0
    failed: int = 0
    #: per-round samples: metric name -> list of values
    samples: dict[str, list[float]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def record(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def median(self, name: str, default: float = 0.0) -> float:
        values = self.samples.get(name)
        return statistics.median(values) if values else default

    def scratch(self, prefix: str) -> Path:
        """A fresh, empty directory under the run root."""
        import tempfile

        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.root))

    def rounds(self, body: Callable[[int], None]) -> int:
        """Run ``body(i)`` in whole rounds until ``seconds`` have elapsed.

        A round that starts within the budget runs to its end, so a run
        measures at least ``seconds`` and never cuts a round short.
        """
        started = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - started < self.seconds:
            body(index)
            index += 1
        return index


def isolate_environment(root: Path) -> None:
    """Point every cache and temp path at the run root; drop knobs."""
    import tempfile

    for name in ISOLATED_ENV:
        os.environ.pop(name, None)
    cache = root / "cache"
    tmp = root / "tmp"
    cache.mkdir(parents=True, exist_ok=True)
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None  # re-read TMPDIR on next use
    os.environ["PYTHONPATH"] = str(SRC) + (
        os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""
    )


def setup_probe(run: Run, task: str, *args: str) -> float:
    """Time one fresh interpreter doing a workload's set-up task.

    ``setup_probe.py`` imports the program and prepares the workload's
    on-disk state; its wall time, interpreter start included, is one
    sample of ``setup_s``.
    """
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), task, *args],
        cwd=CHECKOUT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    elapsed = time.perf_counter() - started
    if completed.returncode != 0:
        raise CheckFailed(f"set-up probe {task!r} failed:\n{completed.stderr}")
    return elapsed


def cpu_seconds() -> tuple[float, float]:
    """(this process, reaped children) user+system CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]


# -- spans ---------------------------------------------------------------------


class Tracer:
    """In-memory span recorder, safe to use from several threads."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        record: dict[str, Any] = {
            "id": span_id,
            "name": name,
            "parent": stack[-1] if stack else None,
            "run": self.run_id,
            **attrs,
        }
        stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def durations(self, name: str, since: int = 0) -> list[float]:
        """Durations of every span called ``name`` recorded after ``since``."""
        return [
            s["end"] - s["start"]
            for s in self.spans[since:]
            if s["name"] == name
        ]

    def total(self, name: str, since: int = 0) -> float:
        return sum(self.durations(name, since))

    def count(self, name: str, since: int = 0) -> int:
        return len(self.durations(name, since))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run": self.run_id, "spans": self.spans}, handle)


class Wrapping:
    """Replaces program functions with span-recording wrappers; undoable.

    ``function`` swaps every binding of a module-level function in the
    loaded ``repro`` modules (callers that imported it by name included);
    ``method`` swaps one class or instance attribute.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object, bool]] = []

    def _wrapper(self, original: Callable, name: str, describe: Callable | None) -> Callable:
        tracer = self.tracer

        def wrapped(*args, **kwargs):
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
                if describe is not None:
                    record.update(describe(result))
                return result

        return wrapped

    def _swap(self, owner: object, attr: str, replacement: object) -> None:
        had_own = attr in vars(owner)  # False: an instance shadowing its class
        self._undo.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, replacement)

    def function(self, original: Callable, name: str) -> None:
        wrapped = self._wrapper(original, name, None)
        bound = 0
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._swap(module, attr, wrapped)
                    bound += 1
        if not bound:
            raise CheckFailed(f"no binding of {original.__qualname__} to wrap")

    def method(
        self, owner: object, attr: str, name: str, describe: Callable | None = None
    ) -> None:
        """Wrap one attribute; ``describe(result)`` adds fields to its span."""
        self._swap(owner, attr, self._wrapper(getattr(owner, attr), name, describe))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Wrapping":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()
