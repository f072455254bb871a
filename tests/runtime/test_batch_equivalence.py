"""The batch flow-state calls are the single-packet calls, batched.

``PacingTable.stamp_batch`` must stamp exactly what one ``touch`` per packet
stamps, which in turn is ``ShapingTransaction.stamp``; ``lookup_batch`` /
``ensure_batch`` must grant and find the slots the sequential calls would;
the sharder's ``place_batch`` / ``record_batch`` must leave placement and
the load window as per-flow calls leave them.  Each example starts from a
table with removed flows (tombstones in the index, slots on the free list)
and a batch whose new flows can cross the rehash threshold mid-batch.
"""

from hypothesis import given, settings, strategies as st

from repro.core.model.packet import Packet
from repro.core.model.transactions import RateLimit, ShapingTransaction
from repro.runtime import FlowSharder, FlowTable, PacingTable

FLOW_IDS = st.integers(min_value=0, max_value=120)
SIZES = st.sampled_from([64, 576, 1500, 9000])
RATES = st.sampled_from([1e3, 5e6, 1e9, 10e9])


@st.composite
def prior_state(draw):
    """Flows touched once at time 0, then a subset removed again."""
    flows = draw(st.lists(FLOW_IDS, unique=True, max_size=60))
    removed = [flow for flow in flows if draw(st.booleans())]
    return flows, removed


@st.composite
def runs(draw):
    """A batch as runs of one flow's packets (flows may recur across runs)."""
    batch = []
    for flow_id, length in draw(
        st.lists(st.tuples(FLOW_IDS, st.integers(min_value=1, max_value=4)), max_size=40)
    ):
        batch += [Packet(flow_id=flow_id, size_bytes=draw(SIZES)) for _ in range(length)]
    return batch


@given(
    prior=prior_state(),
    batches=st.lists(runs(), min_size=1, max_size=3),
    rates=st.dictionaries(FLOW_IDS, RATES, max_size=20),
    default_rate=st.one_of(st.none(), RATES),
    gap_ns=st.integers(min_value=0, max_value=2_000_000),
)
@settings(max_examples=150, deadline=None)
def test_stamp_batch_is_sequential_touch_is_shaping_transaction(
    prior, batches, rates, default_rate, gap_ns
):
    flows, removed = prior
    batched = PacingTable(shard_id=0)
    sequential = PacingTable(shard_id=0)
    reference = {}
    for flow_id in flows:
        for table in (batched, sequential):
            table.touch(flow_id, 1e9, 1500, 0)
        reference[flow_id] = ShapingTransaction("ref", RateLimit(1e9))
        reference[flow_id].stamp(Packet(flow_id=flow_id, size_bytes=1500), 0)
    for flow_id in removed:
        for table in (batched, sequential):
            assert table.remove(flow_id)
        del reference[flow_id]
    now_ns = 0
    for batch in batches:
        now_ns += gap_ns
        pairs = batched.stamp_batch(batch, now_ns, rates, default_rate)
        assert [packet for _send_at, packet in pairs] == batch
        for send_at, packet in pairs:
            rate = rates.get(packet.flow_id, default_rate)
            if rate is None:
                assert send_at == now_ns
                continue
            assert send_at == sequential.touch(packet.flow_id, rate, packet.size_bytes, now_ns)
            shaper = reference.get(packet.flow_id)
            if shaper is None:
                shaper = reference[packet.flow_id] = ShapingTransaction("ref", RateLimit(rate))
            assert send_at == shaper.stamp(packet, now_ns)
    assert sorted(batched.live_flows()) == sorted(reference)
    for flow_id, shaper in reference.items():
        assert batched.next_free_ns(flow_id) == shaper.next_free_ns
        assert batched.lookup(flow_id) == sequential.lookup(flow_id)
    assert batched.stats.as_dict() == sequential.stats.as_dict()


def test_stamp_batch_survives_a_rehash_mid_batch():
    pacing = PacingTable(shard_id=0)
    sequential = PacingTable(shard_id=0)
    batch = [Packet(flow_id=flow_id, size_bytes=1500) for flow_id in range(200)]
    pairs = pacing.stamp_batch(batch * 2, 0, {}, 1e9)
    stamps = [sequential.touch(p.flow_id, 1e9, p.size_bytes, 0) for p in batch * 2]
    assert pacing.stats.rehashes >= 2
    assert [send_at for send_at, _packet in pairs] == stamps


@given(
    prior=prior_state(),
    flow_ids=st.lists(FLOW_IDS, max_size=80),
)
@settings(max_examples=150, deadline=None)
def test_lookup_and_ensure_batch_are_the_sequential_calls(prior, flow_ids):
    flows, removed = prior
    batched = FlowTable()
    sequential = FlowTable()
    for table in (batched, sequential):
        for flow_id in flows:
            table.ensure(flow_id)
        for flow_id in removed:
            table.remove(flow_id)
    assert batched.lookup_batch(flow_ids) == [sequential.lookup(f) for f in flow_ids]
    assert batched.ensure_batch(flow_ids) == [sequential.ensure(f) for f in flow_ids]
    assert list(batched.items()) == list(sequential.items())
    assert batched.stats.as_dict() == sequential.stats.as_dict()
    assert batched.lookup_batch(flow_ids) == [sequential.lookup(f) for f in flow_ids]


@given(
    policy=st.sampled_from(FlowSharder.POLICIES),
    pins=st.dictionaries(FLOW_IDS, st.integers(min_value=0, max_value=3), max_size=8),
    flow_ids=st.lists(FLOW_IDS, max_size=60),
    window_limit=st.integers(min_value=1, max_value=80),
)
@settings(max_examples=150, deadline=None)
def test_sharder_batches_are_the_per_flow_calls(policy, pins, flow_ids, window_limit):
    batched = FlowSharder(4, policy=policy, window_limit=window_limit)
    sequential = FlowSharder(4, policy=policy, window_limit=window_limit)
    for sharder in (batched, sequential):
        for flow_id, shard in pins.items():
            sharder.pin(flow_id, shard)
    # Repeats within one batch must see the placement made earlier in it.
    assert batched.place_batch(flow_ids) == [sequential.shard_for(f) for f in flow_ids]
    distinct = list(dict.fromkeys(flow_ids))
    batched.record_batch(flow_ids, 2)
    for flow_id in flow_ids:
        sequential.record(flow_id, 2)
    assert batched.flow_loads() == sequential.flow_loads()
    assert batched.shard_loads() == sequential.shard_loads()
    assert batched.stats.as_dict() == sequential.stats.as_dict()
    for sharder in (batched, sequential):
        sharder.lend(distinct[0] if distinct else 0, 1)
    assert batched.loan_shards(distinct) == [
        -1 if sequential.loan_shard(f) is None else sequential.loan_shard(f) for f in distinct
    ]
