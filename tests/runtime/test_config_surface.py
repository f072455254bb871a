"""The runtime's configuration surface, pinned name by name.

Every constructor argument is a knob someone has to document, validate and
keep working on every backend.  Adding, removing or renaming one means
editing this list on purpose.
"""

import dataclasses
import inspect

from repro.runtime import ShardedRuntime, WorkerSpec

RUNTIME_PARAMETERS = [
    "num_shards",
    "simulator",
    "sharder",
    "quantum_ns",
    "batch_per_quantum",
    "flow_rates",
    "default_rate_bps",
    "horizon_ns",
    "num_buckets",
    "queue_factory",
    "mailbox_capacity",
    "rebalance_interval_ns",
    "steal_enabled",
    "steal_batch",
    "steal_min_backlog",
    "ingress_cores",
    "admission",
    "rx_ring_capacity",
    "rx_burst",
    "ingress_quantum_ns",
    "ingress_backpressure",
    "ingress_hash_seed",
    "ingest_per_quantum",
    "shard_backlog_limit",
    "on_transmit",
    "record_transmits",
    "gc_interval_packets",
    "gc_sweep_limit",
    "backend",
    "fault_plan",
    "lease_deadline_ns",
    "supervise_interval_ns",
    "latency_histograms",
    "tracer",
    "metrics_timeline",
]

#: A parallel backend rebuilds a shard from these; the per-tick budget
#: travels inside ``worker_kwargs`` with the rest of the worker's config.
WORKER_SPEC_FIELDS = ["shard_id", "worker_kwargs", "quantum_ns", "record_transmits"]


def test_runtime_constructor_parameters():
    parameters = list(inspect.signature(ShardedRuntime.__init__).parameters)
    assert parameters[0] == "self"
    assert parameters[1:] == RUNTIME_PARAMETERS
    assert len(RUNTIME_PARAMETERS) == 35


def test_worker_spec_fields():
    assert [field.name for field in dataclasses.fields(WorkerSpec)] == WORKER_SPEC_FIELDS
