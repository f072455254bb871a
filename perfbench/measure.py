"""Measuring one workload: checked episodes, end-to-end and per-layer metrics.

A run repeats *episodes* — build the runtime and schedule the seeded
workload (set-up), then ``run()`` it until it drains — after one warm-up
episode that is also the reference every later episode must repeat exactly.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from checks import STAGES, output_failures, sojourn_p99_us, stage_ledger, transmit_order
from tracing import LAYERS, SpanTracer, span_name
from workloads import (
    BURST_GAP_NS,
    Workload,
    build_episode,
    burst_samples_us,
    make_inputs,
    make_packets,
    run_episode,
)

from repro.runtime import ShardedRuntime
from repro.runtime.backend import ParallelBackend
from repro.runtime.sharder import ShardRebalancer

#: (name, unit) of every end-to-end metric, as listed in BENCHMARK.json.
END_TO_END = [
    ("pkts_per_s", "pkt/s"),
    ("burst_p50_us", "us"),
    ("burst_tail_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("modelled_mpps", "Mpps"),
]

COUNTED_LAYERS = (*LAYERS, "bench")

#: (name, unit) of every per-layer metric, as listed in BENCHMARK.json.
PER_LAYER = [
    ("runtime.submit_ns_per_pkt", "ns/pkt"),
    ("runtime.glue_ns_per_pkt", "ns/pkt"),
    ("sharder.calls_per_pkt", "calls/pkt"),
    ("sharder.ns_per_pkt", "ns/pkt"),
    ("rebalance.plans", "count"),
    ("rebalance.ns_per_plan", "ns/plan"),
    ("rebalance.migrations", "count"),
    ("flowstate.calls_per_pkt", "calls/pkt"),
    ("flowstate.ns_per_pkt", "ns/pkt"),
    ("flowstate.bytes", "bytes"),
    ("flowstate.gc_reclaimed_per_examined", "ratio"),
    ("mailbox.calls_per_pkt", "calls/pkt"),
    ("mailbox.ns_per_pkt", "ns/pkt"),
    ("mailbox.pauses", "count"),
    ("worker.tick_ns_per_pkt", "ns/pkt"),
    ("worker.ingest_ns_per_pkt", "ns/pkt"),
    ("worker.drain_ns_per_pkt", "ns/pkt"),
    ("worker.ticks_per_pkt", "ticks/pkt"),
    ("worker.busy_tick_frac", "ratio"),
    ("queues.calls_per_pkt", "calls/pkt"),
    ("queues.enqueue_ns_per_pkt", "ns/pkt"),
    ("queues.extract_ns_per_pkt", "ns/pkt"),
    ("ingress.calls_per_pkt", "calls/pkt"),
    ("ingress.ns_per_pkt", "ns/pkt"),
    ("ingress.ring_peak", "count"),
    ("ingress.rx_sojourn_p99_us", "us"),
    ("steal.success_frac", "ratio"),
    ("steal.stolen_frac", "ratio"),
    ("steal.ns_per_lease", "ns/lease"),
    ("sim.events_per_pkt", "events/pkt"),
    ("sim.sojourn_p99_us", "us"),
    *[(f"cycles.{stage}_per_pkt", "cycles/pkt") for stage in STAGES],
    ("backend.run_s", "s"),
    ("backend.ring_push_ns_per_pkt", "ns/pkt"),
    ("backend.absorb_ns_per_pkt", "ns/pkt"),
    ("backend.speedup_vs_simulated", "x"),
    ("backend.process_pkts_per_s", "pkt/s"),
    ("backend.simulated_pkts_per_s", "pkt/s"),
    ("bench.gen_ns_per_pkt", "ns/pkt"),
    ("trace.overhead_x", "x"),
    ("trace.untraced_pkts_per_s", "pkt/s"),
    ("trace.traced_pkts_per_s", "pkt/s"),
    ("trace.accounted_frac", "ratio"),
    ("host.probe_ns_per_iter", "ns"),
    ("count.packets", "count"),
    ("count.sim_events", "count"),
    ("count.leases", "count"),
    ("count.packets_stolen", "count"),
    ("count.migrations", "count"),
    ("count.gc_reclaimed", "count"),
    *[(f"count.calls.{layer}", "count") for layer in COUNTED_LAYERS],
]

#: Span name of the benchmark's own packet construction inside offers.
GEN_SPAN = "bench.gen"
#: Fewest episodes whose burst times a run takes the median of.
MIN_EPISODES = 5
#: Bursts beyond the burst-tail percentile.
TAIL_BEYOND = 10
TRACE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".perfbench")


def pkts_per_s(episode, normalised: bool = True) -> float:
    run_s = episode.run_norm_s if normalised else episode.run_s
    return episode.transmitted / run_s


@dataclass
class TraceTotals:
    """Span sums over the traced episodes of one workload."""

    episodes: list = field(default_factory=list)
    calls: Optional[Dict[str, int]] = None
    self_ns: Dict[str, int] = field(default_factory=dict)
    total_ns: Dict[str, int] = field(default_factory=dict)

    def layer_ns_per_pkt(self, layer: str, methods=None) -> float:
        names = [span_name(c, m) for c, m in LAYERS[layer] if methods is None or m in methods]
        return sum(self.self_ns.get(name, 0) for name in names) / self.packets

    def layer_calls(self, layer: str) -> int:
        if layer == "bench":
            return self.calls.get(GEN_SPAN, 0)
        return sum(self.calls.get(span_name(c, m), 0) for c, m in LAYERS[layer])

    @property
    def packets(self) -> int:
        return sum(e.transmitted for e in self.episodes)


class Run:
    """Everything one invocation measures and checks for one workload."""

    def __init__(self, workload: Workload, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.flows, self.sizes = make_inputs(workload, seed)
        self.attempted = 0
        self.failures: Dict[str, int] = {}
        self.notes: List[str] = []
        self.probes: List[float] = []

    def fail(self, kind: str, count: int = 1) -> None:
        if count:
            self.failures[kind] = self.failures.get(kind, 0) + count

    # -- episodes ------------------------------------------------------------

    def episode(self, tracer: Optional[SpanTracer] = None, packet_maker=None):
        """Build and run one episode, then check its outputs."""
        episode = build_episode(self.workload, self.flows, self.sizes, packet_maker)
        if tracer is not None:
            tracer.reset()
            tracer.simulator = episode.runtime.simulator
        run_episode(episode)
        if tracer is not None:
            tracer.simulator = None
        self.probes.extend(episode.probes)
        offered = len(self.flows)
        self.attempted += offered
        runtime = episode.runtime
        for kind, count in output_failures(runtime, offered).items():
            self.fail(kind, count)
        try:
            episode.ledger = stage_ledger(runtime)
        except ValueError as exc:
            self.fail("stage_ledger")
            self.notes.append(f"stage ledger: {exc}")
            episode.ledger = {}
        telemetry = runtime.telemetry()
        episode.telemetry = telemetry
        episode.transmitted = telemetry.transmitted
        # Outputs and counts that must repeat exactly for one seed.
        episode.key = {
            "transmit_order": transmit_order(runtime),
            "total_cycles": telemetry.total_cycles,
            "stage_ledger": episode.ledger,
            "sim_events": episode.events,
            "leases": telemetry.steals_succeeded,
            "packets_stolen": telemetry.packets_stolen,
            "migrations": telemetry.migrations_applied,
            "gc_reclaimed": telemetry.flow_state["gc_reclaimed"],
        }
        return episode

    def check_repeats(self, reference, episode) -> None:
        for name, value in reference.key.items():
            if episode.key[name] != value:
                self.fail(f"not_repeated.{name}")
        # Keep only what the metrics need: transmit logs are large.
        episode.key = None
        episode.runtime = None

    def repeat(self, budget_s: float, min_episodes: int, reference) -> list:
        """Untraced episodes for ``budget_s`` (at least ``min_episodes``)."""
        episodes = []
        start = time.perf_counter()
        while len(episodes) < min_episodes or time.perf_counter() - start < budget_s:
            episode = self.episode()
            self.check_repeats(reference, episode)
            episodes.append(episode)
        return episodes

    def traced(self, tracer: SpanTracer, maker, budget_s: float, reference) -> TraceTotals:
        """Traced episodes for ``budget_s`` (at least two, to compare counts)."""
        totals = TraceTotals()
        start = time.perf_counter()
        while len(totals.episodes) < 2 or time.perf_counter() - start < budget_s:
            episode = self.episode(tracer, maker)
            wall, inside = tracer.run_accounting()
            self_ns = tracer.self_ns
            online = sum(self_ns.values())
            if inside != online:
                self.fail("trace_accounting")
            episode.accounted = online / wall
            calls = tracer.calls
            if totals.calls is None:
                totals.calls = calls
            elif calls != totals.calls:
                self.fail("not_repeated.calls")
            for name, value in self_ns.items():
                totals.self_ns[name] = totals.self_ns.get(name, 0) + value
            for name, value in tracer.total_ns.items():
                totals.total_ns[name] = totals.total_ns.get(name, 0) + value
            self.check_repeats(reference, episode)
            totals.episodes.append(episode)
        return totals

    def absorb(self, other: "Run") -> None:
        """Fold another run's checks into this one's."""
        self.attempted += other.attempted
        for kind, count in other.failures.items():
            self.fail(kind, count)
        self.notes.extend(other.notes)
        self.probes.extend(other.probes)

    # -- end-to-end ----------------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        reference = self.episode()
        sojourn_p99 = sojourn_p99_us(reference.runtime)
        reference.runtime = None  # its transmit log would only slow the GC
        episodes = self.repeat(self.seconds, MIN_EPISODES, reference)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Every episode replays the same bursts: a burst's wall time is its
        # median over the episodes, which keeps host noise out of the tail
        # while the bursts the workload makes expensive stay in it.
        per_burst = [statistics.median(s) for s in zip(*map(burst_samples_us, episodes))]
        telemetry = reference.telemetry
        self.notes += [
            f"burst times are medians over {len(episodes)} episodes; burst_tail_us "
            f"is their p{100 * (1 - TAIL_BEYOND / len(per_burst)):.1f} "
            f"({TAIL_BEYOND} of {len(per_burst)} bursts beyond it)",
            "timings are host-normalised; raw wall medians: pkts_per_s "
            f"{statistics.median(pkts_per_s(e, False) for e in episodes):.1f}, "
            f"setup_s {statistics.median(e.setup_s for e in episodes):.6f}",
            f"sim_sojourn_p99_us {sojourn_p99:.3f} us "
            "(virtual, deterministic)",
        ]
        return {
            "pkts_per_s": statistics.median(pkts_per_s(e) for e in episodes),
            "burst_p50_us": statistics.median(per_burst),
            "burst_tail_us": sorted(per_burst)[-TAIL_BEYOND - 1],
            "setup_s": statistics.median(e.setup_norm_s for e in episodes),
            "peak_rss_mb": rss_mb,
            "modelled_mpps": telemetry.transmitted * 3e9 / telemetry.bottleneck_cycles / 1e6,
        }

    # -- per-layer -----------------------------------------------------------

    def per_layer(self) -> Dict[str, float]:
        variant = self.workload.process_variant
        share = 0.15 if variant is not None else 0.0
        reference = self.episode()
        sojourn_p99 = sojourn_p99_us(reference.runtime)
        reference.runtime = None
        untraced = self.repeat((0.35 - share) * self.seconds, 3, reference)
        proc = proc_untraced = proc_traced = None
        if variant is not None:
            # The process backend is judged against the simulated one on the
            # same host and traffic: its timings are raw wall (its forked
            # workers occupy every core), so the comparison uses raw too.
            proc = Run(variant, self.seed, self.seconds)
            proc_reference = proc.episode()
            proc_untraced = proc.repeat(share * self.seconds, 3, proc_reference)

        tracer = SpanTracer(BURST_GAP_NS)
        maker = tracer.wrap(GEN_SPAN, make_packets)
        tracer.install()
        try:
            traced = self.traced(tracer, maker, (0.5 - share) * self.seconds, reference)
            path = os.path.join(TRACE_DIR, f"trace-{self.workload.name}-seed{self.seed}.json.gz")
            tracer.write(path)
            self.notes.append(f"spans of the last traced episode: {path}")
            if proc is not None:
                proc_traced = proc.traced(tracer, None, share * self.seconds, proc_reference)
        finally:
            tracer.uninstall()

        packets = len(self.flows)
        untraced_pps = statistics.median(pkts_per_s(e) for e in untraced)
        traced_pps = statistics.median(pkts_per_s(e) for e in traced.episodes)
        telemetry = reference.telemetry
        shards = telemetry.shards
        ticks = sum(s.ticks for s in shards)
        idle = sum(s.idle_ticks for s in shards)
        flow_state = telemetry.flow_state
        rx = telemetry.latency.get("rx_sojourn")
        plans = traced.calls.get(span_name(ShardRebalancer, "plan"), 0)
        leases = telemetry.steals_succeeded
        key = reference.key
        metrics = {
            "runtime.submit_ns_per_pkt": traced.layer_ns_per_pkt("runtime", ["submit_batch"]),
            "runtime.glue_ns_per_pkt": traced.layer_ns_per_pkt("runtime", ["run"]),
            "sharder.calls_per_pkt": traced.layer_calls("sharder") / packets,
            "sharder.ns_per_pkt": traced.layer_ns_per_pkt("sharder"),
            "rebalance.plans": plans,
            "rebalance.ns_per_plan": (
                traced.layer_ns_per_pkt("rebalance") * packets / plans if plans else 0.0
            ),
            "rebalance.migrations": telemetry.migrations_applied,
            "flowstate.calls_per_pkt": traced.layer_calls("flowstate") / packets,
            "flowstate.ns_per_pkt": traced.layer_ns_per_pkt("flowstate"),
            "flowstate.bytes": flow_state["memory_bytes"],
            "flowstate.gc_reclaimed_per_examined": (
                flow_state["gc_reclaimed"] / flow_state["gc_examined"]
                if flow_state["gc_examined"]
                else 0.0
            ),
            "mailbox.calls_per_pkt": traced.layer_calls("mailbox") / packets,
            "mailbox.ns_per_pkt": traced.layer_ns_per_pkt("mailbox"),
            "mailbox.pauses": sum(s.mailbox.stalls for s in shards),
            "worker.tick_ns_per_pkt": traced.layer_ns_per_pkt("worker", ["tick"]),
            "worker.ingest_ns_per_pkt": traced.layer_ns_per_pkt("worker", ["ingest"]),
            "worker.drain_ns_per_pkt": traced.layer_ns_per_pkt("worker", ["drain_due"]),
            "worker.ticks_per_pkt": ticks / packets,
            "worker.busy_tick_frac": (ticks - idle) / ticks if ticks else 0.0,
            "queues.calls_per_pkt": traced.layer_calls("queues") / packets,
            "queues.enqueue_ns_per_pkt": traced.layer_ns_per_pkt("queues", ["enqueue_batch"]),
            "queues.extract_ns_per_pkt": traced.layer_ns_per_pkt("queues", ["extract_due"]),
            "ingress.calls_per_pkt": traced.layer_calls("ingress") / packets,
            "ingress.ns_per_pkt": traced.layer_ns_per_pkt("ingress"),
            "ingress.ring_peak": max((c.ring_peak for c in telemetry.ingress), default=0),
            "ingress.rx_sojourn_p99_us": rx.quantile(0.99) / 1e3 if rx is not None else 0.0,
            "steal.success_frac": (
                leases / telemetry.steals_attempted if telemetry.steals_attempted else 0.0
            ),
            "steal.stolen_frac": telemetry.packets_stolen / packets,
            "steal.ns_per_lease": (
                traced.layer_ns_per_pkt("stealing") * packets / leases if leases else 0.0
            ),
            "sim.events_per_pkt": key["sim_events"] / packets,
            "sim.sojourn_p99_us": sojourn_p99,
            **{
                f"cycles.{stage}_per_pkt": reference.ledger.get(stage, 0.0) / packets
                for stage in STAGES
            },
            **self.backend_metrics(proc_untraced, proc_traced, untraced),
            "bench.gen_ns_per_pkt": traced.self_ns.get(GEN_SPAN, 0) / traced.packets,
            "trace.overhead_x": untraced_pps / traced_pps,
            "trace.untraced_pkts_per_s": untraced_pps,
            "trace.traced_pkts_per_s": traced_pps,
            "trace.accounted_frac": statistics.median(e.accounted for e in traced.episodes),
            "host.probe_ns_per_iter": statistics.median(self.probes),
            "count.packets": packets,
            "count.sim_events": key["sim_events"],
            "count.leases": key["leases"],
            "count.packets_stolen": key["packets_stolen"],
            "count.migrations": key["migrations"],
            "count.gc_reclaimed": key["gc_reclaimed"],
            **{f"count.calls.{layer}": traced.layer_calls(layer) for layer in COUNTED_LAYERS},
        }
        if proc is not None:
            metrics["count.calls.backend"] = proc_traced.layer_calls("backend")
            self.absorb(proc)
        self.notes.append(
            f"trace overhead {metrics['trace.overhead_x']:.3f}x = {untraced_pps:.0f} pkt/s "
            f"untraced / {traced_pps:.0f} pkt/s traced ({len(traced.episodes)} traced episodes)"
        )
        return metrics

    def backend_metrics(self, proc_untraced, proc_traced, simulated) -> Dict[str, float]:
        """The process-backend rows (zero on workloads without a variant)."""
        if proc_traced is None:
            return {name: 0.0 for name, _unit in PER_LAYER if name.startswith("backend.")}
        backend_run = span_name(ParallelBackend, "run")
        runtime_run = span_name(ShardedRuntime, "run")
        totals = proc_traced.total_ns
        process_pps = statistics.median(pkts_per_s(e, False) for e in proc_untraced)
        simulated_pps = statistics.median(pkts_per_s(e, False) for e in simulated)
        self.notes.append(
            f"backend.speedup_vs_simulated = {process_pps:.0f} pkt/s "
            f"({proc_traced.episodes[0].telemetry.transmitted} pkts, process backend) / "
            f"{simulated_pps:.0f} pkt/s ({self.workload.name}), raw wall"
        )
        return {
            "backend.run_s": totals.get(backend_run, 0) / len(proc_traced.episodes) / 1e9,
            "backend.ring_push_ns_per_pkt": proc_traced.layer_ns_per_pkt("backend", ["push"]),
            "backend.absorb_ns_per_pkt": (
                (totals.get(runtime_run, 0) - totals.get(backend_run, 0)) / proc_traced.packets
            ),
            "backend.speedup_vs_simulated": process_pps / simulated_pps,
            "backend.process_pkts_per_s": process_pps,
            "backend.simulated_pkts_per_s": simulated_pps,
        }
