"""Flow-state work on the datapath, as deterministic call counts per batch.

A burst is routed with one flow-table batch lookup and one sharder
placement call, and each shard's accepted group gets its new flows' slots
from one batch insert; a tick stamps its whole ingest with one
``PacingTable.stamp_batch`` and settles delivery with one batch lookup.  So
calls into the flow tables and the sharder are bounded per burst and per
tick, never per packet.  The counts are interpreter calls, so they are
exact on every host.
"""

import random

import pytest

from repro.core.model.packet import Packet
from repro.runtime import FlowSharder, FlowTable, PacingTable, ShardedRuntime

FLOWSTATE = [
    (FlowTable, "lookup"),
    (FlowTable, "ensure"),
    (FlowTable, "remove"),
    (FlowTable, "lookup_batch"),
    (FlowTable, "ensure_batch"),
    (PacingTable, "touch"),
    (PacingTable, "stamp"),
    (PacingTable, "stamp_batch"),
]
SHARDER = [
    (FlowSharder, "shard_for"),
    (FlowSharder, "record"),
    (FlowSharder, "loan_shard"),
    (FlowSharder, "place_batch"),
    (FlowSharder, "record_batch"),
    (FlowSharder, "loan_shards"),
]

BURSTS = 32
BURST_PACKETS = 128
BURST_GAP_NS = 80_000


def _count(monkeypatch, pairs, counts, layer):
    for cls, name in pairs:
        original = cls.__dict__[name]

        def counted(*args, _original=original, **kwargs):
            counts[layer] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)


def _drive(runtime, rng):
    for index in range(BURSTS):
        packets = [
            Packet(flow_id=rng.randrange(256), size_bytes=1500)
            for _ in range(BURST_PACKETS)
        ]
        runtime.simulator.schedule_at(
            index * BURST_GAP_NS, lambda packets=packets: runtime.submit_batch(packets)
        )
    runtime.run()


@pytest.fixture
def counts(monkeypatch):
    counts = {"flowstate": 0, "sharder": 0}
    _count(monkeypatch, FLOWSTATE, counts, "flowstate")
    _count(monkeypatch, SHARDER, counts, "sharder")
    return counts


def test_uniform_paced_probe_budget(counts):
    runtime = ShardedRuntime(
        2, default_rate_bps=10e9, quantum_ns=10_000, gc_interval_packets=None
    )
    _drive(runtime, random.Random(1))
    packets = BURSTS * BURST_PACKETS
    assert runtime.transmitted == packets
    assert runtime.flows_in_flight() == 0
    ticks = sum(worker.stats.ticks for worker in runtime.workers)
    assert ticks < BURSTS * BURST_PACKETS / 8  # the bound below is not per packet
    # Per burst: one route lookup plus one slot insert per shard group;
    # per tick: one stamp batch plus one delivery lookup.  One call per
    # packet (or per flow) anywhere on the path breaks the budget.
    assert counts["flowstate"] <= (1 + runtime.num_shards) * BURSTS + 2 * ticks
    # One placement call per burst: no per-flow placement, no loan probe
    # while nothing is on loan, no load-window record without a rebalancer.
    assert counts["sharder"] <= BURSTS


def test_dropped_new_flow_leaves_no_state():
    runtime = ShardedRuntime(1, quantum_ns=10_000, mailbox_capacity=2)
    packets = [Packet(flow_id=flow, size_bytes=1500) for flow in (1, 1, 2, 3, 2)]
    assert runtime.submit_batch(packets) == 2
    # Only the accepted prefix commits; flows 2 and 3 never registered.
    assert sorted(flow for flow, _slot in runtime.flows.items()) == [1]
    assert runtime.flows_in_flight() == 2
    runtime.run()
    assert runtime.transmitted == 2
    assert runtime.flows_in_flight() == 0
