"""One handoff path: ``submit`` per packet equals one-packet ``submit_batch``.

Every packet reaches a shard mailbox through the same seam — the direct
path, the ingress pull and the fault plane's handoff drops alike — so
offering a workload one packet at a time through either entry point must
leave the runtime in exactly the same state.
"""

import random

import pytest

from repro.core.model.packet import Packet
from repro.runtime import FaultEvent, FaultPlan, ShardedRuntime

QUANTUM_NS = 10_000
BURSTS = 24
BURST_PACKETS = 24
BURST_GAP_NS = 15_000


def _no_ingress():
    return dict(num_shards=3, mailbox_capacity=6, steal_enabled=True, steal_min_backlog=4)


def _two_ingress_cores():
    return dict(num_shards=3, ingress_cores=2, mailbox_capacity=4)


def _handoff_drops():
    plan = FaultPlan(
        [
            FaultEvent("handoff_drop", target=0, count=5),
            FaultEvent("handoff_drop", target=2, count=3),
            FaultEvent("shard_crash", target=1, at=3),
        ]
    )
    return dict(num_shards=3, fault_plan=plan, rebalance_interval_ns=8 * QUANTUM_NS)


def _run(config, single: bool):
    runtime = ShardedRuntime(
        default_rate_bps=2e9,
        quantum_ns=QUANTUM_NS,
        latency_histograms=True,
        **config(),
    )
    rng = random.Random(13)
    for burst in range(BURSTS):
        packets = [
            Packet(flow_id=rng.randrange(12), size_bytes=rng.choice((64, 700, 1500)))
            .annotate(seq=burst * BURST_PACKETS + index)
            for index in range(BURST_PACKETS)
        ]

        def offer(packets=packets):
            for packet in packets:
                if single:
                    runtime.submit(packet)
                else:
                    runtime.submit_batch([packet])

        runtime.simulator.schedule_at(burst * BURST_GAP_NS, offer)
    runtime.run()
    return runtime


@pytest.mark.parametrize(
    "config", [_no_ingress, _two_ingress_cores, _handoff_drops], ids=lambda c: c.__name__
)
def test_submit_equals_single_packet_batches(config):
    one = _run(config, single=True)
    batched = _run(config, single=False)
    assert one.transmitted > 0
    assert [(now, p.metadata["seq"]) for now, p in one.transmit_log] == [
        (now, p.metadata["seq"]) for now, p in batched.transmit_log
    ]
    assert one.telemetry().as_dict() == batched.telemetry().as_dict()
    assert one.fault_stats.as_dict() == batched.fault_stats.as_dict()
    assert one.recovery_log == batched.recovery_log
