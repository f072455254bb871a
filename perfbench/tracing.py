"""Span tracing from outside the runtime: wrap each layer's public functions.

:class:`SpanTracer` replaces the public methods listed in :data:`LAYERS` on
their classes with wrappers that record one span per call — name, wall
start and end, parent span, and the burst index (virtual ``now_ns`` //
burst gap) as the identifier spans of one burst share.  Patching the class
before the runtime is built means bound methods the runtime caches in
locals also go through the wrappers.  Nothing inside ``src/`` changes.

Self time is accumulated online: a span's duration minus the part of it its
direct children cover.  Calls are synchronous and single-threaded, so the
spans nest properly and the self times of every span inside ``run()`` plus
``run()``'s own self time (the glue: private tick, deliver, wake and GC
code) add up to ``run()``'s wall time exactly.
"""

from __future__ import annotations

import gzip
import json
import os
from array import array
from time import perf_counter_ns
from typing import Dict, List, Tuple

from repro.core.queues import CircularFFSQueue
from repro.runtime import ShardedRuntime
from repro.runtime.backend import ParallelBackend
from repro.runtime.flowstate import FlowTable, PacingTable
from repro.runtime.ingress import IngressCore
from repro.runtime.mailbox import Mailbox
from repro.runtime.sharder import FlowSharder, ShardRebalancer
from repro.runtime.shm import ShmRing
from repro.runtime.worker import ShardWorker

#: layer -> (class, method) pairs whose calls are spans of that layer.
LAYERS: Dict[str, List[Tuple[type, str]]] = {
    "runtime": [(ShardedRuntime, "submit_batch"), (ShardedRuntime, "run")],
    "sharder": [
        (FlowSharder, "shard_for"),
        (FlowSharder, "record"),
        (FlowSharder, "loan_shard"),
    ],
    "rebalance": [(ShardRebalancer, "plan")],
    "flowstate": [
        (FlowTable, "ensure"),
        (FlowTable, "lookup"),
        (FlowTable, "remove"),
        (PacingTable, "touch"),
        (PacingTable, "stamp"),
    ],
    "mailbox": [(Mailbox, "push_batch"), (Mailbox, "drain")],
    "worker": [
        (ShardWorker, "tick"),
        (ShardWorker, "ingest"),
        (ShardWorker, "drain_due"),
    ],
    "queues": [(CircularFFSQueue, "enqueue_batch"), (CircularFFSQueue, "extract_due")],
    "ingress": [(IngressCore, "offer"), (IngressCore, "pull")],
    "stealing": [
        (ShardWorker, "grant_lease"),
        (ShardWorker, "accept_lease"),
        (ShardWorker, "end_lease"),
    ],
    "backend": [(ParallelBackend, "run"), (ShmRing, "push")],
}

def span_name(cls: type, method: str) -> str:
    return f"{cls.__name__}.{method}"


class SpanTracer:
    """Records spans for the wrapped calls while installed.

    Each span is six integers in one flat ``array('q')`` — entry index,
    name id, wall start and end, parent entry index (-1 at the root) and
    virtual ``now_ns`` at entry — appended when the span closes, so the
    per-call cost stays small and the recording holds no objects the
    garbage collector has to scan.  ``calls`` / ``self_ns`` / ``total_ns``
    accumulate per span name until :meth:`reset`.
    """

    def __init__(self, burst_gap_ns: int) -> None:
        self.burst_gap_ns = burst_gap_ns
        self.names: List[str] = []
        self._acc: Dict[str, List[int]] = {}
        self.spans = array("q")
        # Parallel stacks of the open spans: entry index, child-covered ns.
        self._open_index: List[int] = []
        self._open_child: List[int] = []
        self._entries = [0]
        #: The episode's simulator, read for ``now_ns``; None records -1.
        self.simulator = None
        self._saved: List[Tuple[type, str, object]] = []
        self._forked_hook = False

    def reset(self) -> None:
        del self.spans[:]
        self._entries[0] = 0
        for acc in self._acc.values():
            acc[:] = [0, 0, 0]

    @property
    def calls(self) -> Dict[str, int]:
        return {name: acc[0] for name, acc in self._acc.items() if acc[0]}

    @property
    def self_ns(self) -> Dict[str, int]:
        return {name: acc[1] for name, acc in self._acc.items() if acc[0]}

    @property
    def total_ns(self) -> Dict[str, int]:
        return {name: acc[2] for name, acc in self._acc.items() if acc[0]}

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, original):
        """``original`` wrapped to record one span named ``name`` per call."""
        name_id = len(self.names)
        self.names.append(name)
        acc = self._acc[name] = [0, 0, 0]
        extend = self.spans.extend
        open_index = self._open_index
        open_child = self._open_child
        entries = self._entries
        tracer = self

        # One closure, no helper calls: the wrapper's own cost lands in the
        # self time of whatever it wraps, so it is kept as small as possible.
        def traced(*args, **kwargs):
            index = entries[0]
            entries[0] = index + 1
            parent = open_index[-1] if open_index else -1
            simulator = tracer.simulator
            now_ns = -1 if simulator is None else simulator.now_ns
            open_index.append(index)
            open_child.append(0)
            start = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                open_index.pop()
                duration = end - start
                acc[1] += duration - open_child.pop()
                if open_child:
                    open_child[-1] += duration
                acc[0] += 1
                acc[2] += duration
                extend((index, name_id, start, end, parent, now_ns))

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every method in :data:`LAYERS` (before building the runtime)."""
        if self._saved:
            return
        for pairs in LAYERS.values():
            for cls, method in pairs:
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self.wrap(span_name(cls, method), original))
        if not self._forked_hook:
            # Forked shard workers replay untraced: their spans could never
            # reach this process, and wrappers would only slow them down.
            os.register_at_fork(after_in_child=self.uninstall)
            self._forked_hook = True

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()

    # -- reading -----------------------------------------------------------

    def rows(self) -> List[Tuple[int, int, int, int, int]]:
        """``(name_id, start, end, parent, now_ns)`` per span, in entry order."""
        flat = self.spans
        spans = sorted(tuple(flat[i : i + 6]) for i in range(0, len(flat), 6))
        return [span[1:] for span in spans]

    def run_accounting(self) -> Tuple[int, int]:
        """``(run() wall ns, self ns of run() and every span inside it)``.

        Recomputed from the span rows — independent of the online sums — so
        comparing the two checks the recording.
        """
        run_id = self.names.index(span_name(ShardedRuntime, "run"))
        rows = self.rows()
        # A parent always opens before its children, so one forward pass
        # finds each span's root and the time its direct children cover.
        root_of = [0] * len(rows)
        child_cover = [0] * len(rows)
        for index, (_name, start, end, parent, _now) in enumerate(rows):
            if parent < 0:
                root_of[index] = index
            else:
                root_of[index] = root_of[parent]
                child_cover[parent] += end - start
        inside = 0
        wall = 0
        for index, (name_id, start, end, _parent, _now) in enumerate(rows):
            if rows[root_of[index]][0] == run_id:
                inside += end - start - child_cover[index]
            if name_id == run_id:
                wall += end - start
        return wall, inside

    def write(self, path: str) -> None:
        """Write the recorded spans as gzipped JSON."""
        gap = self.burst_gap_ns
        spans = [
            [name_id, start, end, parent, now_ns // gap if now_ns >= 0 else -1]
            for name_id, start, end, parent, now_ns in self.rows()
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump(
                {
                    "columns": ["name", "start_ns", "end_ns", "parent", "burst"],
                    "names": self.names,
                    "spans": spans,
                },
                handle,
                separators=(",", ":"),
            )
