"""Execution backends: who drives the shard tick loops, and on what clock.

Everything the sharded runtime models — per-shard tick loops, batched
mailbox drains, deadline sleeps — was designed as one worker loop per CPU
core, then multiplexed onto a single :class:`~repro.netsim.simulator.Simulator`
because a simulation only has one thread.  This module extracts that choice
into an object.  :class:`~repro.runtime.runtime.ShardedRuntime` now drives
its workers through an :class:`ExecutionBackend`:

* :class:`SimulatedBackend` (the default) reproduces the historical
  behaviour bit-for-bit: every shard's tick events interleave on the shared
  simulated clock, and the differential suite pins the equivalence.
* :class:`ProcessBackend` runs **one OS process per shard**.  The ingress
  handoff that the simulated path models with the in-process SPSC
  :class:`~repro.runtime.mailbox.Mailbox` crosses the address-space boundary
  over a :class:`~repro.runtime.shm.ShmRing` (a shared-memory SPSC byte
  ring); each child replays its shard's arrival schedule against a *private*
  virtual clock using :class:`ShardClockDriver`, so the modelled results are
  identical to the simulated run while the interpreter work — stamping,
  bitmap scans, batch drains — executes in parallel on real cores.

Why per-shard replay is exact
-----------------------------

With work stealing, rebalancing, ingress cores, flow-state GC and transmit
callbacks disabled (the runtime enforces this for parallel backends), a
shard's entire evolution is a deterministic function of its own arrival
schedule: routing is the static RSS hash, every tick reads only shard-local
state, and the tick-timer policy (:meth:`ShardWorker.next_wake_ns
<repro.runtime.worker.ShardWorker.next_wake_ns>`) is pure.  The driver
below re-creates the exact event sequence the shared simulator would have
produced for that shard — including the "arrival beats the tick at equal
timestamps" tie rule that pre-scheduled submissions enjoy on the shared
heap — so per-flow packet sequences, departure times, queue counters and
cycle accounts all match the simulated backend exactly.  The differential
suite (``tests/runtime/test_backend_differential.py``) asserts this.

Cross-shard *wall-clock* interleaving is of course not deterministic — that
is the point of running on real cores — so the only backend-defined order
is the tie order of same-nanosecond departures across different shards.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from .faults import FaultPlan
from .mailbox import MailboxStats
from .observability import LogHistogram
from .shm import RING_EMPTY, ShmFrameCorrupt, ShmRing
from .worker import ShardWorker, ShardWorkerStats
from ..core.model.packet import Packet
from ..core.queues import QueueStats
from ..netsim.simulator import EventHandle, Simulator

#: One timed submission: every packet of the burst arrives at ``when_ns``.
Burst = Tuple[int, List[Packet]]


@dataclass
class WorkerSpec:
    """Everything needed to rebuild one shard's scheduling loop elsewhere.

    ``worker_kwargs`` are the :class:`~repro.runtime.worker.ShardWorker`
    constructor arguments, per-tick budget included, so a child's
    :meth:`~repro.runtime.worker.ShardWorker.tick` is the runtime's own;
    the remaining fields are the driver's timer and transmit-log knobs.
    """

    shard_id: int
    worker_kwargs: Dict[str, Any]
    quantum_ns: int
    record_transmits: bool = True


@dataclass
class ShardResult:
    """Picklable end-of-run snapshot one shard driver hands back on join.

    Every field is either a plain value or a counter dataclass whose
    :class:`~repro.core.queues.base.CounterStatsMixin` makes it pickle
    cleanly despite ``__slots__`` — this is the "telemetry crosses the
    process boundary" half of the backend refactor.
    """

    shard_id: int
    stats: ShardWorkerStats
    queue_stats: QueueStats
    mailbox: MailboxStats
    cycles: float
    cost_breakdown: Dict[str, float]
    transmits: List[Tuple[int, Packet]]
    drops: int
    end_ns: int
    events_processed: int
    #: End-of-run gauges of the shard's array-backed pacing table (see
    #: :mod:`repro.runtime.flowstate`): flows still holding pacing state and
    #: the measured bytes of the columns — the per-shard halves of the
    #: runtime's ``flow_state`` telemetry block on parallel backends.
    pacing_live_flows: int = 0
    pacing_memory_bytes: int = 0
    #: Per-seam latency histograms (``None`` unless the runtime armed
    #: ``latency_histograms``) — merged across shards on join exactly like
    #: the counter snapshots above (the histogram is picklable through the
    #: same ``__getstate__`` wire-format discipline).
    mailbox_wait: Optional[LogHistogram] = None
    queue_wait: Optional[LogHistogram] = None
    e2e_latency: Optional[LogHistogram] = None


@dataclass
class _ChildError:
    """A child's formatted traceback, shipped in place of its result."""

    shard_id: int
    message: str


class ShardClockDriver:
    """Replays one shard's arrival schedule on a private virtual clock.

    This is :meth:`ShardedRuntime._wake_shard` / ``_tick`` /
    ``_schedule_next_tick`` for exactly one shard, against a simulator no
    other shard shares.  Arrivals must be fed in nondecreasing ``when_ns``
    order (the backend sorts submissions before partitioning).

    The equal-timestamp tie rule deserves a note: on the shared simulator,
    submissions are scheduled *before* the run starts, so at equal times
    they carry lower sequence numbers than any runtime-armed tick and fire
    first.  The driver preserves that by replaying events strictly *before*
    each arrival instant (``run(until_ns=when - 1)``), applying the arrival
    by direct call, and only then letting a tick armed at that same instant
    fire — arrivals always precede same-time ticks, as on the shared heap.
    """

    __slots__ = (
        "worker",
        "spec",
        "simulator",
        "transmits",
        "drops",
        "_handle",
        "_e2e",
    )

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.worker = ShardWorker(spec.shard_id, **spec.worker_kwargs)
        self.simulator = Simulator()
        self.transmits: List[Tuple[int, Packet]] = []
        self.drops = 0
        self._handle: Optional[EventHandle] = None
        # The driver plays ShardedRuntime's role for the e2e seam too: one
        # submit→transmit histogram per shard, merged on join.
        self._e2e: Optional[LogHistogram] = (
            LogHistogram() if spec.worker_kwargs.get("latency_histograms") else None
        )

    # -- the arrival side --------------------------------------------------

    def on_arrival(self, when_ns: int, packets: List[Packet]) -> None:
        """Apply one burst at ``when_ns``, replaying the clock up to it."""
        if when_ns > 0:
            self.simulator.run(until_ns=when_ns - 1)
        mailbox = self.worker.mailbox
        before = len(mailbox)
        if self._e2e is not None:
            # Same stamps ShardedRuntime.submit_batch writes on the shared
            # clock: arrival instant for both the e2e and the mailbox seam.
            for packet in packets:
                packet.metadata["e2e_ns"] = when_ns
                packet.metadata["mbox_ns"] = when_ns
        taken = mailbox.push_batch(packets)
        self.drops += len(packets) - taken
        if taken or before:
            self._wake(when_ns)

    def _wake(self, now_ns: int) -> None:
        # Mirrors ShardedRuntime._wake_shard: an armed tick within one
        # quantum is soon enough; a far-off deadline sleep is pulled forward.
        handle = self._handle
        if handle is not None and handle.active:
            if handle.time_ns <= now_ns + self.spec.quantum_ns:
                return
            handle.cancel()
        self._handle = self.simulator.schedule_at(now_ns, self._tick)

    # -- the tick side -----------------------------------------------------

    def _tick(self) -> None:
        self._handle = None
        now = self.simulator.now_ns
        worker = self.worker
        spec = self.spec
        released = worker.tick(now)
        if released:
            record = self.transmits.append if spec.record_transmits else None
            e2e = self._e2e
            for packet in released:
                packet.departure_ns = now
                if e2e is not None:
                    submitted_ns = packet.metadata.pop("e2e_ns", None)
                    if submitted_ns is not None:
                        e2e.record(now - submitted_ns)
                if record is not None:
                    record((now, packet))
        next_ns = worker.next_wake_ns(now, spec.quantum_ns)
        if next_ns is not None:
            self._handle = self.simulator.schedule_at(next_ns, self._tick)

    # -- completion --------------------------------------------------------

    def finish(self) -> ShardResult:
        """Drain the shard to quiescence and snapshot its accounting."""
        self.simulator.run()
        worker = self.worker
        return ShardResult(
            shard_id=worker.shard_id,
            stats=worker.stats.snapshot(),
            queue_stats=worker.queue_stats_snapshot(),
            mailbox=worker.mailbox.stats.snapshot(),
            cycles=worker.cost.total_cycles,
            cost_breakdown=worker.cost.breakdown(),
            transmits=self.transmits,
            drops=self.drops,
            end_ns=self.simulator.now_ns,
            events_processed=self.simulator.processed_events,
            pacing_live_flows=len(worker.pacing),
            pacing_memory_bytes=worker.pacing.memory_bytes(),
            mailbox_wait=(
                worker.mailbox_wait.snapshot()
                if worker.mailbox_wait is not None
                else None
            ),
            queue_wait=(
                worker.queue_wait.snapshot() if worker.queue_wait is not None else None
            ),
            e2e_latency=self._e2e.snapshot() if self._e2e is not None else None,
        )


class ExecutionBackend(abc.ABC):
    """The seam between :class:`ShardedRuntime` and whatever runs its loops.

    A backend receives timed submissions (:meth:`submit_at`) and, on
    :meth:`run`, executes the whole workload.  ``parallel`` distinguishes
    the two families: the simulated backend shares one clock with the
    runtime's own event wiring, parallel backends buffer the schedule and
    fan it out to real cores at run time.
    """

    #: True for backends that execute shards on real OS cores.
    parallel: bool = False

    def bind(self, runtime) -> None:
        """Attach the owning runtime (called once from its constructor)."""
        self._runtime = runtime

    @abc.abstractmethod
    def submit_at(self, when_ns: int, packets: Sequence[Packet]) -> None:
        """Arrange for ``packets`` to arrive at absolute time ``when_ns``."""

    @abc.abstractmethod
    def run(
        self, until_ns: Optional[int] = None, max_events: Optional[int] = None
    ) -> int:
        """Execute the workload; returns events processed across all clocks."""


class SimulatedBackend(ExecutionBackend):
    """The historical single-clock execution: all shards on one simulator.

    Thin by design — the runtime keeps talking to ``self.simulator``
    directly for its event wiring, so this backend's existence changes
    nothing about the simulated schedule (the golden-equivalence guarantee:
    committed ``BENCH_hotpath.json`` / ``BENCH_sharding.json`` modelled
    numbers are reproduced exactly).
    """

    parallel = False

    def __init__(self, simulator: Optional[Simulator] = None) -> None:
        self.simulator = simulator or Simulator()

    def submit_at(self, when_ns: int, packets: Sequence[Packet]) -> None:
        """Schedule the burst as a simulator event (pre-run ties beat ticks)."""
        batch = list(packets)
        self.simulator.schedule_at(
            when_ns, lambda: self._runtime.submit_batch(batch)
        )

    def run(
        self, until_ns: Optional[int] = None, max_events: Optional[int] = None
    ) -> int:
        return self.simulator.run(until_ns=until_ns, max_events=max_events)


class ParallelBackend(ExecutionBackend):
    """Shared machinery of the real-core backends: buffer, partition, fan out.

    Submissions are buffered until :meth:`run`, then stable-sorted by time
    (preserving submission order at equal instants, the shared simulator's
    tie rule) and partitioned per shard with the runtime's static hash.
    Concrete backends implement :meth:`_execute` over the per-shard
    schedules and return one :class:`ShardResult` per shard.
    """

    parallel = True

    def __init__(self) -> None:
        self._bursts: List[Burst] = []
        #: Per-shard end-of-run snapshots, populated by :meth:`run`.
        self.results: Optional[List[ShardResult]] = None

    @property
    def pending_submitted(self) -> int:
        """Packets buffered for a run that has not started yet."""
        return sum(len(packets) for _when, packets in self._bursts)

    def submit_at(self, when_ns: int, packets: Sequence[Packet]) -> None:
        if when_ns < 0:
            raise ValueError("when_ns must be non-negative")
        if self.results is not None:
            raise RuntimeError(
                "parallel backends execute one buffered schedule per run(); "
                "create a fresh runtime for another workload"
            )
        batch = list(packets)
        if batch:
            self._bursts.append((when_ns, batch))

    def run(
        self, until_ns: Optional[int] = None, max_events: Optional[int] = None
    ) -> int:
        if until_ns is not None or max_events is not None:
            raise ValueError(
                "parallel backends run the buffered schedule to completion; "
                "until_ns/max_events apply only to the simulated backend"
            )
        if self.results is not None:
            return 0  # idempotent: the schedule already ran
        runtime = self._runtime
        bursts = sorted(self._bursts, key=lambda burst: burst[0])  # stable
        self._bursts = []
        schedules: List[List[Burst]] = [[] for _ in range(runtime.num_shards)]
        place_batch = runtime.sharder.place_batch
        for when_ns, packets in bursts:
            groups: Dict[int, List[Packet]] = {}
            shards = place_batch([packet.flow_id for packet in packets])
            for packet, shard in zip(packets, shards):
                groups.setdefault(shard, []).append(packet)
            for shard, group in groups.items():
                schedules[shard].append((when_ns, group))
        specs = [runtime._worker_spec(shard) for shard in range(runtime.num_shards)]
        self.results = self._execute(specs, schedules)
        return sum(result.events_processed for result in self.results)

    @abc.abstractmethod
    def _execute(
        self, specs: List[WorkerSpec], schedules: List[List[Burst]]
    ) -> List[ShardResult]:
        """Run every shard's schedule to completion; one result per shard."""


#: Exit code of a child that popped a corrupt shared-memory frame.
EXIT_FRAME_CORRUPT = 70
#: Exit code of a child killed by an armed ``child_crash`` fault.
EXIT_FAULT_CRASH = 71


def _shard_worker_main(
    spec: WorkerSpec,
    ring_name: str,
    conn,
    ack_every: int = 1,
    fault: Optional[Tuple[str, int]] = None,
) -> None:
    """Child-process entry point: drain the shm ring into a clock driver.

    Records are ``(when_ns, [packets])`` bursts in nondecreasing time order;
    the ``None`` sentinel is end-of-schedule.  After every ``ack_every``
    consumed bursts the child sends ``("ack", bursts_done)`` over ``conn`` —
    the progress watermark the parent's supervision uses for hang detection
    and restart telemetry.  The result (or a formatted traceback) returns
    over the same pipe; the ring mapping is always detached.

    Failure semantics: a corrupt shared-memory frame means the transport
    itself is compromised, so the child dies abruptly with
    :data:`EXIT_FRAME_CORRUPT` rather than report over a channel it can no
    longer trust — the parent restarts it on a fresh ring.  An armed
    ``child_crash``/``child_hang`` fault (deterministic injection, keyed to
    the burst ordinal) likewise bypasses the clean ``_ChildError`` path:
    those faults exist to exercise the parent's death/hang supervision.
    """
    ring = ShmRing(name=ring_name)
    fault_kind, fault_at = fault if fault is not None else (None, 0)
    try:
        try:
            driver = ShardClockDriver(spec)
            bursts_done = 0
            empty_polls = 0
            while True:
                try:
                    record = ring.pop()
                except ShmFrameCorrupt:
                    os._exit(EXIT_FRAME_CORRUPT)
                if record is RING_EMPTY:
                    # The producer is still feeding: spin briefly (the ring
                    # is usually refilled within microseconds), then back off
                    # so a slow feeder does not see a core burned on polling.
                    empty_polls += 1
                    time.sleep(0 if empty_polls < 200 else 0.0005)
                    continue
                empty_polls = 0
                if record is None:
                    break
                bursts_done += 1
                if fault_at == bursts_done:
                    if fault_kind == "child_crash":
                        os._exit(EXIT_FAULT_CRASH)
                    if fault_kind == "child_hang":
                        while True:  # wedged forever; parent escalates
                            time.sleep(3600)
                when_ns, packets = record
                driver.on_arrival(when_ns, packets)
                if bursts_done % ack_every == 0:
                    conn.send(("ack", bursts_done))
            conn.send(driver.finish())
        except BaseException:
            conn.send(_ChildError(spec.shard_id, traceback.format_exc()))
        finally:
            conn.close()
    finally:
        ring.close()


@dataclass
class _ChildState:
    """Supervision record for one shard's child process (one incarnation)."""

    spec: WorkerSpec
    schedule: List[Burst]
    proc: Any = None
    ring: Optional[ShmRing] = None
    conn: Any = None
    #: Remaining records to feed this incarnation (bursts + ``None`` EOF).
    queue: Deque[Optional[Burst]] = field(default_factory=deque)
    #: Bursts made visible in the ring this incarnation.
    bursts_pushed: int = 0
    #: The child's acknowledged-consumption watermark (this incarnation).
    acked: int = 0
    #: Incarnations started so far (1 = the original child).
    attempts: int = 1
    result: Optional[ShardResult] = None
    #: ``monotonic()`` of the last feed/ack progress, for hang detection.
    last_progress: float = 0.0
    #: One-shot armed process fault ``(kind, at_burst)`` — first child only.
    fault: Optional[Tuple[str, int]] = None
    #: Burst ordinal after which the parent corrupts the ring frame (one-shot).
    corrupt_at: Optional[int] = None


class ProcessBackend(ParallelBackend):
    """One OS process per shard, fed over shared-memory SPSC rings.

    The parent plays the ingress core: it streams each shard's timed bursts
    into that shard's :class:`~repro.runtime.shm.ShmRing` (single producer —
    the parent; single consumer — the child), interleaving across rings so
    no child starves while another's ring is full.  Children replay their
    schedules on private virtual clocks (:class:`ShardClockDriver`) and
    return picklable :class:`ShardResult` snapshots over a pipe.

    **Supervision and restart.**  Each child acknowledges consumed bursts
    over its pipe; the parent drains those acks on every pump pass (keeping
    the pipe from filling and deadlocking the child) and maintains a
    per-shard progress watermark.  A child that dies without delivering a
    result — or stops advancing its watermark for ``hang_timeout_s`` — is
    killed and restarted on a **fresh ring and pipe** with bounded
    exponential backoff, up to ``max_restarts`` times.  Because a shard
    child is a pure function of its arrival schedule (the invariant the
    whole parallel seam rests on), the restart simply re-feeds the buffered
    schedule from burst zero and the replay is exact; the dead incarnation's
    acked watermark is recorded in :attr:`restart_log`.  A child that
    *reports* a failure (a pickled traceback over the pipe) is a
    deterministic application error and is raised immediately — restarting
    it would fail identically.

    Teardown is unconditional: whatever interrupts the pump —
    ``KeyboardInterrupt`` included — live children are terminated (with
    ``terminate()`` → ``kill()`` escalation) and every shared-memory segment
    ever created is unlinked before the exception propagates.

    Args:
        ring_capacity: byte capacity of each per-shard ring (must hold at
            least one full pickled burst; 1 MiB comfortably fits the
            benchmark's 128-packet bursts).
        result_timeout_s: how long to wait for one child's result after its
            last observed progress, before declaring the run wedged.
        max_restarts: restarts allowed per shard before giving up (0 turns
            the supervisor into detect-and-raise).
        restart_backoff_s: sleep before the first restart of a shard;
            doubles on each further attempt of the same shard.
        hang_timeout_s: declare a live child hung (and restart it) when its
            watermark stalls this long; ``None`` disables hang restarts and
            leaves only the ``result_timeout_s`` backstop.
        ack_every: child acks every N consumed bursts (1 = tightest
            watermark; larger values trade supervision lag for pipe traffic).
        faults: armed process faults — a :class:`~repro.runtime.faults.FaultPlan`
            (its ``child_crash``/``child_hang``/``shm_corrupt`` events) or a
            mapping ``{shard: (kind, at_burst)}``.  Faults are one-shot: a
            restarted child runs clean.
    """

    def __init__(
        self,
        ring_capacity: int = 1 << 20,
        result_timeout_s: float = 300.0,
        *,
        max_restarts: int = 2,
        restart_backoff_s: float = 0.05,
        hang_timeout_s: Optional[float] = None,
        ack_every: int = 1,
        faults: "Optional[FaultPlan | Mapping[int, Tuple[str, int]]]" = None,
    ) -> None:
        super().__init__()
        if max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if restart_backoff_s < 0:
            raise ValueError("restart_backoff_s must be non-negative")
        if hang_timeout_s is not None and hang_timeout_s <= 0:
            raise ValueError("hang_timeout_s must be positive (or None)")
        if ack_every <= 0:
            raise ValueError("ack_every must be positive")
        self.ring_capacity = ring_capacity
        self.result_timeout_s = result_timeout_s
        self.max_restarts = max_restarts
        self.restart_backoff_s = restart_backoff_s
        self.hang_timeout_s = hang_timeout_s
        self.ack_every = ack_every
        self._faults = faults
        #: One dict per restart: shard, attempt, reason, exit code, the dead
        #: incarnation's acked watermark, and the backoff slept before it.
        self.restart_log: List[dict] = []

    def _fault_for(self, shard: int) -> Optional[Tuple[str, int]]:
        if self._faults is None:
            return None
        if isinstance(self._faults, FaultPlan):
            return self._faults.process_fault(shard)
        return self._faults.get(shard)

    def _feed_hook(self) -> None:
        """Called once per pump-loop pass (test seam for interrupt injection)."""

    # -- child lifecycle ---------------------------------------------------

    def _spawn(self, ctx, state: _ChildState, all_rings: List[ShmRing]) -> None:
        """Start a fresh incarnation: new ring, new pipe, full re-feed."""
        state.ring = ShmRing(capacity=self.ring_capacity)
        all_rings.append(state.ring)
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        state.conn = parent_conn
        state.queue = deque(state.schedule)
        state.queue.append(None)
        state.bursts_pushed = 0
        state.acked = 0
        fault = state.fault
        if fault is not None and fault[0] == "shm_corrupt":
            state.corrupt_at = fault[1]
            fault = None
        state.fault = None  # one-shot: a restarted child runs clean
        state.proc = ctx.Process(
            target=_shard_worker_main,
            args=(state.spec, state.ring.name, child_conn, self.ack_every, fault),
            daemon=True,
            name=f"repro-shard-{state.spec.shard_id}",
        )
        state.proc.start()
        child_conn.close()  # parent's copy; the child holds the write end
        state.last_progress = time.monotonic()

    def _reap(self, proc, shard: int) -> None:
        """Join a child, escalating terminate() → kill() if it lingers."""
        if proc is None:
            return
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=10.0)
                if proc.is_alive():
                    raise RuntimeError(
                        f"shard {shard} worker (pid {proc.pid}) survived both "
                        f"terminate() and kill(); exit code {proc.exitcode}"
                    )
        else:
            proc.join(timeout=10.0)

    def _restart(self, ctx, state: _ChildState, all_rings: List[ShmRing], reason: str) -> None:
        """Replace a dead/hung child, or raise when the retry budget is spent."""
        shard = state.spec.shard_id
        self._reap(state.proc, shard)
        exit_code = state.proc.exitcode
        state.conn.close()
        state.ring.close()
        state.ring.unlink()
        if state.attempts > self.max_restarts:
            if reason == "died" and state.queue:
                raise RuntimeError(
                    f"shard {shard} worker died before consuming its schedule "
                    f"(exit code {exit_code}, attempt {state.attempts})"
                )
            if reason == "died":
                raise RuntimeError(
                    f"shard {shard} worker exited without a result "
                    f"(exit code {exit_code}, attempt {state.attempts})"
                )
            raise RuntimeError(
                f"shard {shard} worker hung (no progress past burst "
                f"{state.acked} for {self.hang_timeout_s}s, exit code "
                f"{exit_code}, attempt {state.attempts})"
            )
        backoff = self.restart_backoff_s * (2 ** (state.attempts - 1))
        if backoff:
            time.sleep(backoff)
        self.restart_log.append(
            {
                "shard": shard,
                "attempt": state.attempts,
                "reason": reason,
                "exit_code": exit_code,
                "acked_bursts": state.acked,
                "backoff_s": backoff,
            }
        )
        state.attempts += 1
        self._spawn(ctx, state, all_rings)

    # -- the supervised pump ----------------------------------------------

    def _execute(
        self, specs: List[WorkerSpec], schedules: List[List[Burst]]
    ) -> List[ShardResult]:
        # fork start method: WorkerSpec (with its possibly-closure
        # queue_factory) is inherited by the child, not pickled; only the
        # packet stream crosses via the shm rings.
        ctx = multiprocessing.get_context("fork")
        states = [
            _ChildState(
                spec=specs[shard],
                schedule=schedules[shard],
                fault=self._fault_for(shard),
            )
            for shard in range(len(specs))
        ]
        all_rings: List[ShmRing] = []
        try:
            for state in states:
                self._spawn(ctx, state, all_rings)
            self._pump(ctx, states, all_rings)
            return [state.result for state in states]  # type: ignore[misc]
        finally:
            for state in states:
                if state.conn is not None:
                    state.conn.close()
            for state in states:
                self._reap(state.proc, state.spec.shard_id)
            for ring in all_rings:
                ring.close()
                ring.unlink()

    def _drain_pipe(self, state: _ChildState) -> bool:
        """Consume acks/result/error waiting on a child's pipe; True on any."""
        shard = state.spec.shard_id
        progressed = False
        while state.result is None and state.conn.poll(0):
            try:
                message = state.conn.recv()
            except EOFError:
                break  # child closed its end; death handling decides next
            progressed = True
            state.last_progress = time.monotonic()
            if isinstance(message, tuple) and message and message[0] == "ack":
                state.acked = message[1]
            elif isinstance(message, _ChildError):
                raise RuntimeError(f"shard {shard} worker failed:\n{message.message}")
            else:
                state.result = message
        return progressed

    def _pump(self, ctx, states: List[_ChildState], all_rings: List[ShmRing]) -> None:
        """Feed, supervise, and collect every shard until all results land.

        One loop does all three jobs so no pipe goes undrained while a ring
        is being fed (a full pipe blocks the child's ack ``send``, a blocked
        child stops popping its ring, and the feed would deadlock).
        """
        while any(state.result is None for state in states):
            progressed = False
            for state in states:
                if state.result is not None:
                    continue
                shard = state.spec.shard_id
                if self._drain_pipe(state):
                    progressed = True
                if state.result is not None:
                    continue
                ring = state.ring
                while state.queue:
                    record = state.queue[0]
                    corrupt = (
                        record is not None
                        and state.corrupt_at == state.bursts_pushed + 1
                    )
                    pushed = (
                        ring.push_corrupted(record) if corrupt else ring.push(record)
                    )
                    if not pushed:
                        break
                    state.queue.popleft()
                    if record is not None:
                        state.bursts_pushed += 1
                        if corrupt:
                            state.corrupt_at = None  # one-shot
                    state.last_progress = time.monotonic()
                    progressed = True
                if not state.proc.is_alive():
                    # Drain any message that raced the death: a clean result
                    # or a reported failure beats the restart path.
                    if self._drain_pipe(state):
                        progressed = True
                    if state.result is not None:
                        continue
                    self._restart(ctx, state, all_rings, reason="died")
                    progressed = True
                    continue
                stalled_s = time.monotonic() - state.last_progress
                if (
                    self.hang_timeout_s is not None
                    and stalled_s > self.hang_timeout_s
                ):
                    self._restart(ctx, state, all_rings, reason="hung")
                    progressed = True
                elif stalled_s > self.result_timeout_s:
                    raise RuntimeError(
                        f"shard {shard} produced no result within "
                        f"{self.result_timeout_s:.0f}s (exit code "
                        f"{state.proc.exitcode})"
                    )
            self._feed_hook()
            if not progressed:
                time.sleep(0.0002)


def resolve_backend(
    backend: "str | ExecutionBackend", simulator: Optional[Simulator]
) -> ExecutionBackend:
    """Normalise a runtime's ``backend=`` argument into a backend instance.

    Accepts ``"simulated"`` / ``"process"`` or a ready instance.
    ``simulator`` only composes with the simulated backend — a shared clock
    has no meaning for shards running on their own cores.
    """
    if isinstance(backend, str):
        if backend == "simulated":
            return SimulatedBackend(simulator)
        if backend != "process":
            raise ValueError(
                f"unknown backend {backend!r}; choose from 'simulated', 'process'"
            )
        resolved: ExecutionBackend = ProcessBackend()
    elif isinstance(backend, ExecutionBackend):
        resolved = backend
    else:
        raise TypeError(f"backend must be a name or ExecutionBackend, got {backend!r}")
    if simulator is not None and not isinstance(resolved, SimulatedBackend):
        raise ValueError("simulator= applies only to the simulated backend")
    return resolved


__all__ = [
    "Burst",
    "ExecutionBackend",
    "ParallelBackend",
    "ProcessBackend",
    "ShardClockDriver",
    "ShardResult",
    "SimulatedBackend",
    "WorkerSpec",
    "resolve_backend",
]
