"""Fault injection and recovery: every fault kind, injected and survived.

Each test arms one seam of the deterministic fault plane
(:mod:`repro.runtime.faults`) and asserts the recovery contract: the run
completes, every packet is either delivered or attributed to a counted
loss, recovered flows keep per-flow FIFO, and nothing is stranded after
drain.  The process-backend half exercises the supervised child restart
(death, hang, and shared-memory frame corruption) end-to-end.
"""

import multiprocessing
import time

import pytest

from repro.core.model.packet import Packet
from repro.runtime import FaultEvent, FaultPlan, FaultStats, ShardedRuntime
from repro.runtime.backend import (
    EXIT_FAULT_CRASH,
    EXIT_FRAME_CORRUPT,
    ProcessBackend,
)
from repro.runtime.sharder import FlowSharder

#: Slow pacing so shards tick many times (fault trigger ordinals exist).
RATE_BPS = 8e6
PACKET_BYTES = 100


def _reap_children(deadline_s=5.0):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        children = multiprocessing.active_children()
        if not children:
            return []
        time.sleep(0.05)
    return multiprocessing.active_children()


def _packets(flow_ids, size_bytes=PACKET_BYTES):
    return [Packet(flow_id=flow_id, size_bytes=size_bytes) for flow_id in flow_ids]


def _assert_flow_fifo(runtime):
    sequences = {}
    for _now, packet in runtime.transmit_log:
        sequences.setdefault(packet.flow_id, []).append(packet.packet_id)
    for flow_id, sequence in sequences.items():
        assert sequence == sorted(sequence), f"flow {flow_id} reordered"


def _assert_residual_clean(runtime):
    residual = runtime.residual_state()
    assert all(value == 0 for value in residual.values()), residual


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("meteor_strike")

    @pytest.mark.parametrize(
        "kwargs",
        [dict(target=-1), dict(at=0), dict(count=0)],
    )
    def test_bad_event_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultEvent("shard_crash", **kwargs)

    def test_from_seed_is_deterministic(self):
        draw = lambda: FaultPlan.from_seed(  # noqa: E731
            99, num_shards=4, events=6, ingress_lanes=2, kinds=None or
            ("shard_crash", "shard_stall", "handoff_drop", "ingress_wedge"),
        )
        assert draw().describe() == draw().describe()

    def test_from_seed_rejects_wedge_without_lanes(self):
        with pytest.raises(ValueError, match="ingress_lanes"):
            FaultPlan.from_seed(1, num_shards=2, kinds=("ingress_wedge",))

    def test_shard_events_fire_once_in_tick_order(self):
        plan = FaultPlan(
            [
                FaultEvent("shard_stall", target=0, at=2),
                FaultEvent("shard_crash", target=0, at=4),
            ]
        )
        fired = [plan.next_shard_action(0) for _ in range(6)]
        assert fired == [None, "shard_stall", None, "shard_crash", None, None]

    def test_handoff_budget_is_consumed_across_calls(self):
        plan = FaultPlan([FaultEvent("handoff_drop", target=1, count=5)])
        assert plan.take_handoff_drops(1, 3) == 3
        assert plan.take_handoff_drops(1, 3) == 2
        assert plan.take_handoff_drops(1, 3) == 0
        assert plan.take_handoff_drops(0, 3) == 0  # other shards untouched

    def test_runtime_rejects_out_of_range_targets(self):
        plan = FaultPlan([FaultEvent("shard_crash", target=7)])
        with pytest.raises(ValueError, match="targets shard 7"):
            ShardedRuntime(2, fault_plan=plan)
        wedge = FaultPlan([FaultEvent("ingress_wedge", target=3)])
        with pytest.raises(ValueError, match="ingress lane 3"):
            ShardedRuntime(2, ingress_cores=1, fault_plan=wedge)


class TestShardCrashRecovery:
    def _run(self, at, num_shards=2, packets=60, flows=6):
        runtime = ShardedRuntime(
            num_shards,
            default_rate_bps=RATE_BPS,
            record_transmits=True,
            fault_plan=FaultPlan([FaultEvent("shard_crash", target=0, at=at)]),
        )
        for i in range(packets):
            runtime.submit(Packet(flow_id=i % flows, size_bytes=PACKET_BYTES))
        runtime.run()
        return runtime

    def test_every_packet_accounted_and_fifo_preserved(self):
        runtime = self._run(at=2)
        faults = runtime.fault_stats
        assert faults.crashes_injected == 1
        assert faults.shards_recovered == 1
        # The crash-loss ledger balances: delivered + lost == offered.
        assert runtime.transmitted + faults.packets_lost == 60
        _assert_flow_fifo(runtime)
        _assert_residual_clean(runtime)

    def test_mailbox_survives_as_salvage(self):
        # Crash before the first tick: everything still sits in the
        # producer-owned mailbox, so nothing is lost — only salvaged.
        runtime = self._run(at=1)
        faults = runtime.fault_stats
        assert faults.packets_lost == 0
        assert faults.packets_salvaged > 0
        assert runtime.transmitted == 60

    def test_recovery_log_and_telemetry_block(self):
        runtime = self._run(at=2)
        telemetry = runtime.telemetry()
        assert telemetry.faults["crashes_injected"] == 1
        (entry,) = [
            e for e in telemetry.faults["recovery_log"] if e["kind"] == "shard_crash"
        ]
        assert entry["shard"] == 0
        assert entry["recovered_at_ns"] > entry["failed_at_ns"]
        assert telemetry.as_dict()["faults"]["shards_recovered"] == 1
        # Retired incarnations stay in the per-shard telemetry merge.
        assert sum(shard.ingested for shard in telemetry.shards) >= runtime.transmitted

    def test_disarmed_runtime_reports_no_faults(self):
        runtime = ShardedRuntime(2, default_rate_bps=RATE_BPS, record_transmits=True)
        for i in range(20):
            runtime.submit(Packet(flow_id=i % 4, size_bytes=PACKET_BYTES))
        runtime.run()
        assert runtime.fault_stats.as_dict() == FaultStats().as_dict()
        assert runtime.telemetry().faults["recovery_log"] == []


class TestCrashKeepsFutureShapers:
    """A crash must not reset the pacing of a flow that is idle but paced ahead.

    Flow 7 sends at 0 and 60 us at 50 Mb/s, so its second 1500 B packet is
    due 240 us after the first.  A packet of another flow at 5 us gives the
    target shard its second tick, where it crashes; recovery runs before
    the second packet arrives with flow 7 homed on the dead shard and
    nothing in flight.
    """

    FLOW = 7
    SPACING_NS = 240_000  # 1500 B at 50 Mb/s

    def _run(self, crash_target, pin=None):
        sharder = FlowSharder(2)
        if pin is not None:
            sharder.pin(self.FLOW, pin)
        runtime = ShardedRuntime(
            2,
            sharder=sharder,
            quantum_ns=10_000,
            default_rate_bps=50e6,
            fault_plan=FaultPlan([FaultEvent("shard_crash", target=crash_target, at=2)]),
        )
        other = next(
            flow for flow in range(100, 200)
            if FlowSharder(2).shard_for(flow) == crash_target
        )
        schedule = runtime.simulator.schedule_at
        for when_ns, flow_id in ((0, self.FLOW), (5_000, other), (60_000, self.FLOW)):
            schedule(
                when_ns,
                lambda flow_id=flow_id: runtime.submit(Packet(flow_id=flow_id, size_bytes=1500)),
            )
        runtime.run()
        return runtime

    def _assert_paced_through_the_crash(self, runtime):
        first, second = [
            now for now, packet in runtime.transmit_log if packet.flow_id == self.FLOW
        ]
        assert second - first >= self.SPACING_NS
        assert runtime.fault_stats.shards_recovered == 1
        assert runtime.fault_stats.shapers_recovered == 1
        _assert_residual_clean(runtime)

    def test_crash_of_the_flows_hash_shard(self):
        home = FlowSharder(2).shard_for(self.FLOW)
        self._assert_paced_through_the_crash(self._run(crash_target=home))

    def test_crash_of_the_pinned_shard_reroutes_by_hash(self):
        # The pin dies with the crash, so packet 1 routes to the hash shard
        # and the carried shaper must move there with it.
        pinned = 1 - FlowSharder(2).shard_for(self.FLOW)
        runtime = self._run(crash_target=pinned, pin=pinned)
        self._assert_paced_through_the_crash(runtime)
        assert runtime.sharder.pinned_shard(self.FLOW) is None
        assert runtime.migrations_applied == 1


class TestShardStall:
    def test_stall_is_cleared_and_nothing_is_lost(self):
        runtime = ShardedRuntime(
            2,
            default_rate_bps=RATE_BPS,
            record_transmits=True,
            fault_plan=FaultPlan([FaultEvent("shard_stall", target=1, at=2)]),
        )
        for i in range(40):
            runtime.submit(Packet(flow_id=i % 8, size_bytes=PACKET_BYTES))
        runtime.run()
        faults = runtime.fault_stats
        assert faults.stalls_injected == 1
        assert faults.stalls_cleared == 1
        assert runtime.transmitted == 40
        _assert_flow_fifo(runtime)
        _assert_residual_clean(runtime)


class TestIngressWedge:
    def test_wedged_lane_is_unwedged_and_ring_drains(self):
        runtime = ShardedRuntime(
            2,
            ingress_cores=1,
            default_rate_bps=RATE_BPS,
            record_transmits=True,
            fault_plan=FaultPlan([FaultEvent("ingress_wedge", target=0, at=1)]),
        )
        for start in range(0, 40, 8):
            runtime.submit_batch(_packets([i % 8 for i in range(start, start + 8)]))
        runtime.run()
        faults = runtime.fault_stats
        assert faults.wedges_injected == 1
        assert faults.wedges_cleared == 1
        assert runtime.transmitted == 40
        _assert_flow_fifo(runtime)
        _assert_residual_clean(runtime)


class TestHandoffDrops:
    def test_drops_are_counted_not_committed(self):
        runtime = ShardedRuntime(
            1,
            default_rate_bps=RATE_BPS,
            record_transmits=True,
            fault_plan=FaultPlan([FaultEvent("handoff_drop", target=0, count=3)]),
        )
        accepted = sum(
            1
            for i in range(20)
            if runtime.submit(Packet(flow_id=i % 4, size_bytes=PACKET_BYTES))
        )
        runtime.run()
        faults = runtime.fault_stats
        assert faults.handoff_drops == 3
        assert accepted == 17
        assert runtime.transmitted == 17
        # The dropped packets never became pending anywhere.
        _assert_residual_clean(runtime)
        _assert_flow_fifo(runtime)


class TestLeaseDeadlineEscalation:
    def test_overdue_lease_is_escalated_and_reclaimed(self):
        # One elephant flow pinned to shard 0: shard 1 is a pure thief whose
        # lease stays out far past a 1 ns deadline — the supervision sweep
        # escalates the overdue thief to a crash-and-recover and the lease
        # is reclaimed through the victim.
        sharder = FlowSharder(2)
        sharder.pin(5, 0)
        runtime = ShardedRuntime(
            2,
            sharder=sharder,
            default_rate_bps=10e9,  # 1500 B => 1.2 us spacing
            quantum_ns=10_000,
            record_transmits=True,
            steal_enabled=True,
            steal_min_backlog=1,
            lease_deadline_ns=1,
            supervise_interval_ns=20_000,
        )
        runtime.submit_batch(_packets([5] * 40, size_bytes=1500))
        runtime.run()
        faults = runtime.fault_stats
        assert faults.deadline_escalations >= 1
        assert faults.leases_reclaimed >= 1
        assert runtime.transmitted + faults.packets_lost == 40
        _assert_flow_fifo(runtime)
        _assert_residual_clean(runtime)


class TestProcessFaultRecovery:
    def _run(self, backend, num_shards=2, bursts=6, per_burst=8):
        runtime = ShardedRuntime(
            num_shards,
            default_rate_bps=1e9,
            quantum_ns=10_000,
            backend=backend,
        )
        offered = 0
        for t in range(bursts):
            runtime.submit_at(t * 50_000, _packets(range(per_burst), size_bytes=1500))
            offered += per_burst
        runtime.run()
        return runtime, offered

    def test_child_crash_is_restarted_and_replayed(self):
        backend = ProcessBackend(restart_backoff_s=0.01, faults={0: ("child_crash", 2)})
        runtime, offered = self._run(backend)
        assert runtime.transmitted == offered
        (entry,) = backend.restart_log
        assert entry["shard"] == 0
        assert entry["reason"] == "died"
        assert entry["exit_code"] == EXIT_FAULT_CRASH
        _assert_flow_fifo(runtime)
        assert _reap_children() == []

    def test_shm_corruption_kills_and_restarts_on_fresh_ring(self):
        backend = ProcessBackend(restart_backoff_s=0.01, faults={1: ("shm_corrupt", 2)})
        runtime, offered = self._run(backend)
        assert runtime.transmitted == offered
        (entry,) = backend.restart_log
        assert entry["shard"] == 1
        assert entry["exit_code"] == EXIT_FRAME_CORRUPT
        assert _reap_children() == []

    def test_hung_child_is_detected_by_watermark_and_restarted(self):
        backend = ProcessBackend(
            restart_backoff_s=0.01,
            hang_timeout_s=0.3,
            faults={0: ("child_hang", 2)},
        )
        runtime, offered = self._run(backend)
        assert runtime.transmitted == offered
        (entry,) = backend.restart_log
        assert entry["reason"] == "hung"
        assert entry["acked_bursts"] == 1  # watermark froze after burst 1
        assert _reap_children() == []

    def test_faults_accept_a_fault_plan(self):
        plan = FaultPlan([FaultEvent("child_crash", target=0, at=1)])
        backend = ProcessBackend(restart_backoff_s=0.01, faults=plan)
        runtime, offered = self._run(backend)
        assert runtime.transmitted == offered
        assert backend.restart_log[0]["exit_code"] == EXIT_FAULT_CRASH

    def test_restart_budget_exhaustion_names_shard_and_exit_code(self):
        backend = ProcessBackend(
            restart_backoff_s=0.01, max_restarts=0, faults={0: ("child_crash", 1)}
        )
        runtime = ShardedRuntime(
            1, default_rate_bps=1e9, quantum_ns=10_000, backend=backend
        )
        runtime.submit_batch(_packets(range(8), size_bytes=1500))
        with pytest.raises(RuntimeError, match=rf"shard 0 .*exit code {EXIT_FAULT_CRASH}"):
            runtime.run()
        assert _reap_children() == []

    def test_constructor_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="max_restarts"):
            ProcessBackend(max_restarts=-1)
        with pytest.raises(ValueError, match="hang_timeout_s"):
            ProcessBackend(hang_timeout_s=0)
        with pytest.raises(ValueError, match="ack_every"):
            ProcessBackend(ack_every=0)
