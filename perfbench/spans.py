"""Spans around calls into the program's layers, with Spark's own counters.

A span records a name, start, end and parent span, held in memory and
written out when the run ends. With tracing on, each span also records
deltas of Spark's counters, read from outside the program:

- ``jobs``: highest job id seen by the status tracker, plus one;
- ``tasks`` and ``shuffle_bytes``: totals over ``statusStore().executorList``
  (tasks finished, shuffle bytes written);
- ``storage_bytes``: storage memory held by cached and checkpointed blocks.

The listener bus is drained before every read, so a read taken after an
action sees all of that action's tasks. With tracing off, ``span`` only
yields, so end-to-end timings carry no tracing cost.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

MB = 1 << 20


class SparkCounters:
    """Reads job, task, shuffle and storage counters of one SparkContext."""

    def __init__(self, spark):
        self._tracker = spark.sparkContext.statusTracker()
        self._jsc = spark.sparkContext._jsc.sc()

    def read(self) -> dict[str, int]:
        self._jsc.listenerBus().waitUntilEmpty()
        execs = self._jsc.statusStore().executorList(True)
        tasks = shuffle = storage = 0
        for i in range(execs.size()):
            e = execs.apply(i)
            tasks += e.totalTasks()
            shuffle += e.totalShuffleWrite()
            storage += e.memoryUsed()
        jobs = max(self._tracker.getJobIdsForGroup(None), default=-1) + 1
        return {
            "jobs": jobs,
            "tasks": tasks,
            "shuffle_bytes": shuffle,
            "storage_bytes": storage,
        }


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans when ``enabled``; otherwise every call is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._counters: SparkCounters | None = None

    def attach(self, spark) -> None:
        """Read counters from ``spark`` (called again after a restart)."""
        if self.enabled:
            self._counters = SparkCounters(spark)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        before = self._counters.read()
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), parent)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            after = self._counters.read()
            sp.counters = {k: after[k] - before[k] for k in before}

    def counters(self) -> dict[str, int]:
        return self._counters.read()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
