"""The benchmark's workloads and the episode that drives one of them.

Every workload is an open loop in *virtual* time: a NIC burst of
``BURST_PACKETS`` packets arrives every ``BURST_GAP_NS`` of simulated time
(1.6 Mpps offered) whatever the backlog, and one process drives the
simulation to drain as fast as it can in wall time.  Inputs (flow ids and
packet sizes) are drawn once per invocation from ``--seed``; the runtime
only ever receives the generated packets.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.core.model.packet import Packet
from repro.runtime import ShardedRuntime
from repro.traffic import ZipfFlowSampler

BURST_PACKETS = 128
BURST_GAP_NS = 80_000
QUANTUM_NS = 10_000
BATCH_PER_QUANTUM = 64


@dataclass(frozen=True)
class Workload:
    """One named traffic mix plus the runtime configuration it runs on.

    Why each workload exists is recorded with it in BENCHMARK.json.
    """

    name: str
    #: Packets offered per episode: at least 240 bursts, so the burst tail
    #: has 10 bursts beyond a percentile of 95 or more.
    packets: int
    runtime_kwargs: Dict[str, object]
    #: ``(rng, count) -> (flow_ids, sizes)``
    traffic: Callable[[random.Random, int], "tuple[List[int], List[int]]"]
    #: The same traffic on the process backend, measured in the traced run.
    process_variant: Optional["Workload"] = None


def _uniform_1500(rng: random.Random, count: int):
    return [rng.randrange(256) for _ in range(count)], [1500] * count


def _zipf64_mixed_sizes(rng: random.Random, count: int):
    sampler = ZipfFlowSampler(64, skew=1.1, rng=rng)
    flows = sampler.sample_flows(count)
    sizes = [rng.choice((64, 576, 1500)) for _ in range(count)]
    return flows, sizes


def _zipf_churn_64(rng: random.Random, count: int):
    sampler = ZipfFlowSampler(1_200_000, skew=1.1, rng=rng)
    return sampler.sample_flows(count), [64] * count


_UNIFORM_PACED = dict(
    num_shards=2,
    default_rate_bps=10e9,
    gc_interval_packets=None,
)

#: uniform_paced on the process backend with 2 forked workers.  Not a
#: workload of its own: on a shared 2-core host its wall time swings too
#: far between runs to bound, so uniform_paced's traced run
#: measures it for the backend/shm rows and the speedup over the simulated
#: backend.  8192 packets keep each shard's schedule inside its 1 MiB
#: shared-memory ring, so the parent never retries a push.
UNIFORM_PACED_PROC = Workload(
    name="uniform_paced_proc",
    packets=8_192,
    runtime_kwargs=dict(_UNIFORM_PACED, backend="process"),
    traffic=_uniform_1500,
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="uniform_paced",
            packets=40_960,
            runtime_kwargs=_UNIFORM_PACED,
            traffic=_uniform_1500,
            process_variant=UNIFORM_PACED_PROC,
        ),
        Workload(
            name="zipf_rx_steal",
            packets=30_720,
            runtime_kwargs=dict(
                num_shards=4,
                default_rate_bps=5e9,
                ingress_cores=2,
                admission=None,
                mailbox_capacity=96,
                rx_burst=64,
                rx_ring_capacity=256,
                steal_enabled=True,
                rebalance_interval_ns=200_000,
            ),
            traffic=_zipf64_mixed_sizes,
        ),
        Workload(
            name="churn_unpaced",
            packets=30_720,
            runtime_kwargs=dict(
                num_shards=4,
                default_rate_bps=None,
                gc_interval_packets=256,
                gc_sweep_limit=512,
            ),
            traffic=_zipf_churn_64,
        ),
    )
}


def make_inputs(workload: Workload, seed: int) -> "tuple[List[int], List[int]]":
    """The workload's flow ids and packet sizes for ``seed`` (deterministic)."""
    rng = random.Random(f"{workload.name}:{seed}")
    return workload.traffic(rng, workload.packets)


#: Bursts of virtual time per ``run(until_ns=...)`` chunk of a simulated
#: episode; the host probe runs between chunks.
CHUNK_BURSTS = 8
PROBE_ITERATIONS = 2_000
#: Probe speed (wall ns per iteration) that normalised timings are scaled
#: to: a timing ``t`` measured next to a probe reading ``p`` reports as
#: ``t * (REFERENCE_PROBE_NS / p) ** PROBE_EXPONENT``.
REFERENCE_PROBE_NS = 500.0
#: How the runtime's wall time scales with the probe's under host
#: contention: fitted over 64 ten-second runs of the three workloads on a
#: shared 2-vCPU host (log-log slope 0.74-0.88, r = -0.9); the runtime
#: slows less than the probe, so a full (exponent 1) correction overshoots.
PROBE_EXPONENT = 0.75


class _ProbeItem:
    __slots__ = ("key", "value")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = key + 1

    def combine(self, other: int) -> int:
        return self.value + other


def host_probe_ns() -> float:
    """Wall ns per iteration of a fixed pure-Python loop (host drift).

    The loop mixes what the runtime's interpreter time is made of — small
    ``__slots__`` objects, dict stores and probes, method calls, list
    appends — so that when a shared host slows down, the probe slows down
    by about the same factor and the two can be told apart from a change
    to the code.  It calls nothing from the repository.
    """
    start = time.perf_counter_ns()
    table: Dict[int, _ProbeItem] = {}
    out: List[int] = []
    append = out.append
    for i in range(PROBE_ITERATIONS):
        item = _ProbeItem(i)
        table[i & 1023] = item
        other = table.get((i * 7) & 1023)
        append(item.combine(i) if other is None else other.combine(i))
        if len(out) > 64:
            out.clear()
    return (time.perf_counter_ns() - start) / PROBE_ITERATIONS


@dataclass
class Episode:
    """One construction + run of the runtime over the workload's inputs.

    Raw wall times sit next to their host-normalised counterparts: each
    chunk of ``run()`` is scaled by ``REFERENCE_PROBE_NS`` over the mean of
    the probe readings taken just before and after it, to the power
    ``PROBE_EXPONENT``.
    """

    runtime: ShardedRuntime
    bursts: int
    setup_s: float = 0.0
    setup_norm_s: float = 0.0
    run_s: float = 0.0
    run_norm_s: float = 0.0
    #: Simulator events ``run()`` processed (summed over shard workers).
    events: int = 0
    #: Start of every offer on a clock that stops while the probe runs,
    #: and the chunk it fell in (simulated workloads only).
    offer_starts: List[float] = field(default_factory=list)
    offer_chunks: List[int] = field(default_factory=list)
    chunk_factors: List[float] = field(default_factory=list)
    probes: List[float] = field(default_factory=list)
    paused_s: float = 0.0
    chunk: int = 0
    # Filled in by the checks after the run (see measure.Run.episode).
    telemetry: object = None
    transmitted: int = 0
    ledger: Optional[Dict[str, float]] = None
    key: Optional[dict] = None
    accounted: float = 0.0


def _bursts(count: int):
    """``(offer_ns, lo, hi)`` of each burst over ``count`` packets."""
    for index, start in enumerate(range(0, count, BURST_PACKETS)):
        yield index * BURST_GAP_NS, start, min(start + BURST_PACKETS, count)


def build_episode(
    workload: Workload, flows: List[int], sizes: List[int], packet_maker=None
) -> Episode:
    """Construct the runtime and schedule the whole workload (timed as set-up).

    On the simulated backend each burst is an offer event on the runtime's
    clock that builds its packets and calls ``submit_batch``; the offer
    records when it started, so consecutive offers bound one burst's wall
    time.  On the process backend the packets are built up front and
    buffered with ``submit_at``.  ``packet_maker`` replaces
    :func:`make_packets` (the traced run passes a wrapped one).
    """
    make = packet_maker or make_packets
    probe = host_probe_ns()
    start = time.perf_counter()
    runtime = ShardedRuntime(
        quantum_ns=QUANTUM_NS,
        batch_per_quantum=BATCH_PER_QUANTUM,
        record_transmits=True,
        **workload.runtime_kwargs,
    )
    episode = Episode(runtime=runtime, bursts=math.ceil(len(flows) / BURST_PACKETS))
    if runtime.backend.parallel:
        for when_ns, lo, hi in _bursts(len(flows)):
            runtime.submit_at(when_ns, make(flows, sizes, lo, hi, when_ns))
    else:
        simulator = runtime.simulator
        starts = episode.offer_starts
        chunks = episode.offer_chunks
        clock = time.perf_counter

        def offer(when_ns: int, lo: int, hi: int) -> None:
            starts.append(clock() - episode.paused_s)
            chunks.append(episode.chunk)
            runtime.submit_batch(make(flows, sizes, lo, hi, when_ns))

        for when_ns, lo, hi in _bursts(len(flows)):
            simulator.schedule_at(when_ns, partial(offer, when_ns, lo, hi))
    episode.setup_s = time.perf_counter() - start
    episode.setup_norm_s = episode.setup_s * _factor(runtime, probe, probe)
    episode.probes.append(probe)
    return episode


def make_packets(
    flows: List[int], sizes: List[int], lo: int, hi: int, when_ns: int
) -> List[Packet]:
    # packet_id is the offer index, so per-flow FIFO and the transmit order
    # compare across episodes (the default id counter is process-global).
    return [
        Packet(flow_id=flows[i], size_bytes=sizes[i], arrival_ns=when_ns, packet_id=i)
        for i in range(lo, hi)
    ]


def _factor(runtime: ShardedRuntime, before: float, after: float) -> float:
    """Host-normalisation factor for a timing taken between two probes.

    A parallel backend's forked workers occupy every core, so no probe in
    this process can stand for the speed they ran at: its timings stay raw.
    """
    if runtime.backend.parallel:
        return 1.0
    return (REFERENCE_PROBE_NS * 2 / (before + after)) ** PROBE_EXPONENT


def run_episode(episode: Episode) -> Episode:
    """Drive the runtime until it drains, probing the host around each chunk.

    A simulated episode runs in ``run(until_ns=...)`` chunks of
    ``CHUNK_BURSTS`` bursts, each ending just before the next chunk's
    first offer, which processes the same events in the same order as one
    ``run()``.  A parallel backend runs its whole schedule in one call.
    """
    runtime = episode.runtime
    clock = time.perf_counter
    before = host_probe_ns()
    episode.probes.append(before)
    end_burst = CHUNK_BURSTS
    while True:
        last = runtime.backend.parallel or end_burst >= episode.bursts
        start = clock()
        episode.events += runtime.run(
            until_ns=None if last else end_burst * BURST_GAP_NS - 1
        )
        end = clock()
        wall = end - start
        after = host_probe_ns()
        episode.probes.append(after)
        factor = _factor(runtime, before, after)
        episode.chunk_factors.append(factor)
        episode.run_s += wall
        episode.run_norm_s += wall * factor
        if last:
            return episode
        before = after
        end_burst += CHUNK_BURSTS
        episode.chunk += 1
        episode.paused_s += clock() - end


def burst_samples_us(episode: Episode) -> List[float]:
    """Host-normalised wall time from each offer to the next (no drain tail)."""
    starts = episode.offer_starts
    factors = episode.chunk_factors
    return [
        (b - a) * 1e6 * factors[chunk]
        for a, b, chunk in zip(starts, starts[1:], episode.offer_chunks)
    ]

