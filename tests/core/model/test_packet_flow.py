"""Unit tests for Packet, Flow, FlowState and FlowTable."""

import dataclasses
import pickle

import pytest

from repro.core.model import Flow, FlowTable, Packet


class TestPacket:
    def test_unique_ids(self):
        first = Packet(flow_id=1)
        second = Packet(flow_id=1)
        assert first.packet_id != second.packet_id

    def test_size_bits(self):
        assert Packet(flow_id=1, size_bytes=1500).size_bits == 12000

    def test_annotate_chains(self):
        packet = Packet(flow_id=3).annotate(deadline_ns=100, leaf="video")
        assert packet.metadata["deadline_ns"] == 100
        assert packet.metadata["leaf"] == "video"

    def test_defaults(self):
        packet = Packet(flow_id=7)
        assert packet.rank is None
        assert packet.departure_ns is None
        assert packet.priority_class == 0

    def test_slotted_without_instance_dict(self):
        packet = Packet(flow_id=1)
        assert not hasattr(packet, "__dict__")
        with pytest.raises(AttributeError):
            packet.stray_attribute = 1

    def test_pickle_roundtrip_keeps_every_field(self):
        packet = Packet(flow_id=4, size_bytes=64, rank=9, arrival_ns=10).annotate(
            lease_id=3, stolen_from=1
        )
        packet.departure_ns = 25
        restored = pickle.loads(pickle.dumps(packet))
        assert restored == packet
        assert restored.packet_id == packet.packet_id
        assert restored.metadata == {"lease_id": 3, "stolen_from": 1}

    def test_replace_keeps_fields(self):
        packet = Packet(flow_id=2, size_bytes=576, priority_class=3).annotate(leaf="a")
        copy = dataclasses.replace(packet, rank=5)
        assert copy.rank == 5
        assert (copy.flow_id, copy.size_bytes, copy.priority_class) == (2, 576, 3)
        assert copy.metadata == {"leaf": "a"}
        assert copy.packet_id == packet.packet_id


class TestFlow:
    def test_fifo_order(self):
        flow = Flow(1)
        packets = [Packet(flow_id=1) for _ in range(3)]
        for packet in packets:
            flow.push(packet)
        assert [flow.pop().packet_id for _ in range(3)] == [
            p.packet_id for p in packets
        ]

    def test_backlog_accounting(self):
        flow = Flow(1)
        flow.push(Packet(flow_id=1, size_bytes=100))
        flow.push(Packet(flow_id=1, size_bytes=200))
        assert flow.state.backlog_packets == 2
        assert flow.backlog_bytes == 300
        flow.pop()
        assert flow.state.backlog_packets == 1
        assert flow.backlog_bytes == 200

    def test_front_and_empty(self):
        flow = Flow(2)
        assert flow.front() is None
        assert flow.empty
        packet = Packet(flow_id=2)
        flow.push(packet)
        assert flow.front() is packet
        assert not flow.empty

    def test_rank_property(self):
        flow = Flow(5)
        flow.rank = 42
        assert flow.rank == 42
        assert flow.state.rank == 42

    def test_iteration(self):
        flow = Flow(1)
        for _ in range(4):
            flow.push(Packet(flow_id=1))
        assert len(list(flow)) == 4


class TestFlowTable:
    def test_lazy_creation(self):
        table = FlowTable()
        flow = table.get(10)
        assert flow.flow_id == 10
        assert table.get(10) is flow
        assert len(table) == 1

    def test_existing_does_not_create(self):
        table = FlowTable()
        assert table.existing(5) is None
        table.get(5)
        assert table.existing(5) is not None

    def test_remove(self):
        table = FlowTable()
        table.get(1)
        table.remove(1)
        assert table.existing(1) is None
        table.remove(99)  # removing a missing flow is a no-op

    def test_active_flows(self):
        table = FlowTable()
        idle = table.get(1)
        busy = table.get(2)
        busy.push(Packet(flow_id=2))
        active = table.active_flows()
        assert busy in active
        assert idle not in active
