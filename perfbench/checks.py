"""Output checks over a finished episode, and the modelled-cycle stage ledger.

Every check counts violations instead of raising, so one run reports how
many operations failed out of how many were attempted.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: CostModel operation -> stage, for the shard cores.  The cost model
#: charges queue work by operation kind, not call site, so bitmap word
#: scans (set on enqueue, searched on extract) all count as extract, and
#: a shard's ``lock`` charges are steal-lease handoffs.
SHARD_STAGES = {
    "flow_lookup": "stamp",
    "enqueue": "enqueue",
    "bucket_lookup": "enqueue",
    "division": "enqueue",
    "dequeue": "extract",
    "ffs_word": "extract",
    "linear_scan": "extract",
    "rotation": "extract",
    "heap_operation": "extract",
    "batch_overhead": "tick",
    "lock": "steal",
    "gc_scan": "gc",
}
#: CostModel operation -> stage, for the RX (ingress) cores.
RX_STAGES = {
    "rx_poll": "rx",
    "rx_descriptor": "rx",
    "admission_check": "rx",
    "flow_lookup": "route",
    "lock": "mailbox",
}
STAGES = ("rx", "route", "mailbox", "stamp", "enqueue", "extract", "tick", "steal", "gc")


def stage_ledger(runtime) -> Dict[str, float]:
    """Modelled cycles per stage over every shard and RX core.

    Raises ``ValueError`` when an operation maps to no stage or the stages do
    not sum exactly to ``telemetry().total_cycles`` (every cost is a whole
    number of cycles, so float sums of them are exact).
    """
    ledger = dict.fromkeys(STAGES, 0.0)
    results = runtime.backend.results if runtime.backend.parallel else None
    if results is not None:
        # Forked shard workers: their accounts come back in the results.
        accounts = [(SHARD_STAGES, result.cost_breakdown) for result in results]
    else:
        accounts = [(SHARD_STAGES, worker.cost.breakdown()) for worker in runtime.workers]
    accounts += [(RX_STAGES, core.cost.breakdown()) for core in runtime.ingress_cores]
    for stages, breakdown in accounts:
        for operation, cycles in breakdown.items():
            if operation not in stages:
                raise ValueError(f"cost operation {operation!r} has no stage")
            ledger[stages[operation]] += cycles
    total = runtime.telemetry().total_cycles
    if sum(ledger.values()) != total:
        raise ValueError(f"stage ledger {sum(ledger.values())} != total cycles {total}")
    return ledger


def transmit_order(runtime) -> List[Tuple[int, int]]:
    """``(departure_ns, packet_id)`` in transmit order: the determinism key."""
    return [(departure_ns, packet.packet_id) for departure_ns, packet in runtime.transmit_log]


def output_failures(runtime, offered: int) -> Dict[str, int]:
    """Violations of conservation, per-flow FIFO and departure >= arrival.

    Packet ids are offer indices, so per-flow FIFO means each flow's ids
    leave in increasing order.  Every config is backpressured, so counted
    drops are expected to be zero and each one counts as a failure too.
    """
    telemetry = runtime.telemetry()
    drops = telemetry.ingress_drops + telemetry.admission_drops
    log = runtime.transmit_log
    last_id: Dict[int, int] = {}
    reordered = 0
    early = 0
    seen = set()
    for departure_ns, packet in log:
        flow_id = packet.flow_id
        if last_id.get(flow_id, -1) > packet.packet_id:
            reordered += 1
        last_id[flow_id] = packet.packet_id
        if departure_ns < packet.arrival_ns:
            early += 1
        seen.add(packet.packet_id)
    duplicated = len(log) - len(seen)
    return {
        "dropped": drops,
        "missing": max(0, offered - drops - len(seen)),
        "duplicated": duplicated,
        "conservation": int(telemetry.transmitted + drops != offered),
        "reordered": reordered,
        "early": early,
    }


def sojourn_p99_us(runtime) -> float:
    """p99 of virtual departure - arrival over the transmit log (nearest rank)."""
    sojourns = sorted(t - packet.arrival_ns for t, packet in runtime.transmit_log)
    if not sojourns:
        return 0.0
    rank = max(0, -(-99 * len(sojourns) // 100) - 1)
    return sojourns[rank] / 1e3
