"""One tick budget: the worker owns its per-quantum ingest and drain limits.

``ShardWorker.tick(now_ns)`` is the whole scheduling quantum — at most
``ingest_per_quantum`` packets stamped, none while the queue sits at
``shard_backlog_limit``, at most ``batch_per_quantum`` released.  The
runtime and a parallel backend's shard loop only hand the budget over
through the worker's constructor kwargs, so both run the same arithmetic.
"""

import pytest

from repro.core.model.packet import Packet
from repro.runtime import ShardedRuntime, ShardRebalancer, ShardWorker
from repro.runtime.runtime import STEAL_CHANNEL_CAPACITY

SLOW_RATE_BPS = 1e6  # 1500 B => 12 ms spacing: one packet due per flow


def _packets(count, flow_id=1):
    return [Packet(flow_id=flow_id, size_bytes=1500) for _ in range(count)]


class TestWorkerTick:
    def test_unbounded_ingest_stamps_the_whole_mailbox(self):
        worker = ShardWorker(0, default_rate_bps=SLOW_RATE_BPS)
        worker.mailbox.push_batch(_packets(30))
        worker.tick(now_ns=0)
        assert len(worker.mailbox) == 0
        assert worker.stats.ingested == 30

    def test_ingest_is_capped_per_tick(self):
        worker = ShardWorker(0, ingest_per_quantum=5)
        worker.mailbox.push_batch(_packets(12))
        assert len(worker.tick(now_ns=0)) == 5
        assert len(worker.mailbox) == 7
        assert len(worker.tick(now_ns=1)) == 5
        assert len(worker.tick(now_ns=2)) == 2
        assert len(worker.mailbox) == 0

    def test_drain_is_capped_by_batch_per_quantum(self):
        worker = ShardWorker(0, batch_per_quantum=4)  # unpaced: all due at once
        worker.mailbox.push_batch(_packets(10))
        assert len(worker.tick(now_ns=0)) == 4
        assert worker.backlog == 6
        assert len(worker.tick(now_ns=1)) == 4
        assert len(worker.tick(now_ns=2)) == 2
        assert worker.backlog == 0

    def test_backlog_limit_admits_only_the_room_left(self):
        worker = ShardWorker(0, default_rate_bps=SLOW_RATE_BPS, shard_backlog_limit=8)
        worker.mailbox.push_batch(_packets(20))
        assert len(worker.tick(now_ns=0)) == 1  # 8 stamped, the head is due
        assert worker.backlog == 7
        assert len(worker.mailbox) == 12
        worker.tick(now_ns=1)  # room for one more
        assert worker.backlog == 8
        assert len(worker.mailbox) == 11
        idle_before = worker.stats.idle_ticks
        assert worker.tick(now_ns=2) == []  # full queue: arrivals wait
        assert len(worker.mailbox) == 11
        assert worker.stats.idle_ticks == idle_before + 1

    def test_backlog_limit_and_ingest_cap_take_the_smaller(self):
        worker = ShardWorker(
            0, default_rate_bps=SLOW_RATE_BPS, ingest_per_quantum=3, shard_backlog_limit=4
        )
        worker.mailbox.push_batch(_packets(10))
        worker.tick(now_ns=0)  # cap 3 < room 4; the head is released
        assert worker.stats.ingested == 3
        worker.tick(now_ns=1)  # room 2 < cap 3
        assert worker.stats.ingested == 5
        assert worker.backlog == 4

    @pytest.mark.parametrize(
        "knob", ["batch_per_quantum", "ingest_per_quantum", "shard_backlog_limit"]
    )
    def test_non_positive_budget_rejected(self, knob):
        with pytest.raises(ValueError, match=knob):
            ShardWorker(0, **{knob: 0})
        with pytest.raises(ValueError):
            ShardedRuntime(2, **{knob: 0})


class TestRuntimeHandsOverTheBudget:
    def test_every_worker_gets_the_runtime_budget(self):
        runtime = ShardedRuntime(
            3, batch_per_quantum=16, ingest_per_quantum=8, shard_backlog_limit=32
        )
        for worker in runtime.workers:
            assert (
                worker.batch_per_quantum,
                worker.ingest_per_quantum,
                worker.shard_backlog_limit,
            ) == (16, 8, 32)

    def test_bounded_mailbox_behind_ingress_bounds_stamping(self):
        # Backpressure needs the pause edge at capacity, the resume edge at
        # half, and a bounded stamping budget (defaulting to the batch).
        runtime = ShardedRuntime(
            2, ingress_cores=1, mailbox_capacity=6, batch_per_quantum=12
        )
        for worker in runtime.workers:
            assert worker.ingest_per_quantum == 12
            assert (worker.mailbox.high_watermark, worker.mailbox.low_watermark) == (6, 3)
        direct = ShardedRuntime(2, mailbox_capacity=6, batch_per_quantum=12)
        for worker in direct.workers:
            assert worker.ingest_per_quantum is None
            assert worker.mailbox.high_watermark is None

    def test_worker_spec_rebuilds_the_same_budget(self):
        runtime = ShardedRuntime(
            2, backend="process", batch_per_quantum=24, shard_backlog_limit=48
        )
        spec = runtime._worker_spec(1)
        replica = ShardWorker(spec.shard_id, **spec.worker_kwargs)
        own = runtime.workers[1]
        for knob in ("batch_per_quantum", "ingest_per_quantum", "shard_backlog_limit"):
            assert getattr(replica, knob) == getattr(own, knob)


class TestDerivedKnobs:
    """What the deleted constructor arguments became."""

    def test_steal_channels_have_the_fixed_capacity(self):
        runtime = ShardedRuntime(3, steal_enabled=True)
        assert STEAL_CHANNEL_CAPACITY == 8
        assert [channel.capacity for channel in runtime._steal_channels] == [8, 8, 8]

    def test_rebalancer_follows_the_interval(self):
        assert ShardedRuntime(2).rebalancer is None
        runtime = ShardedRuntime(2, rebalance_interval_ns=100_000)
        assert isinstance(runtime.rebalancer, ShardRebalancer)
        assert runtime.rebalancer.sharder is runtime.sharder

    def test_thread_backend_name_is_gone(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ShardedRuntime(2, backend="thread")
