"""Tests for the network layer: datagrams, resequencer, forwarding, service."""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netlayer.datagram import DatagramService, DeliveryLog
from repro.netlayer.forwarding import ForwardingNetworkLayer, shortest_path_routes
from repro.netlayer.packet import Datagram
from repro.netlayer.resequencer import Resequencer
from repro.simulator.engine import Simulator
from repro.simulator.node import Node


def make_datagram(sequence: int, source="s", destination="d") -> Datagram:
    return Datagram(
        source=source, destination=destination,
        sequence=sequence, created_at=0.0,
    )


class TestDatagram:
    def test_key_and_flow(self):
        dg = make_datagram(5)
        assert dg.key == ("s", 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_datagram(-1)
        with pytest.raises(ValueError):
            Datagram(source="s", destination="d", sequence=0, created_at=0.0, size_bits=0)


class TestResequencer:
    def test_in_order_passthrough(self):
        out = []
        reseq = Resequencer(deliver=out.append)
        for i in range(5):
            reseq.push(make_datagram(i))
        assert [d.sequence for d in out] == [0, 1, 2, 3, 4]

    def test_reorders(self):
        out = []
        reseq = Resequencer(deliver=out.append)
        for seq in (2, 0, 1):
            reseq.push(make_datagram(seq))
        assert [d.sequence for d in out] == [0, 1, 2]
        assert reseq.out_of_order_arrivals >= 1

    def test_duplicates_dropped(self):
        out = []
        reseq = Resequencer(deliver=out.append)
        reseq.push(make_datagram(0))
        reseq.push(make_datagram(0))       # already delivered
        reseq.push(make_datagram(2))
        reseq.push(make_datagram(2))       # already held
        reseq.push(make_datagram(1))
        assert [d.sequence for d in out] == [0, 1, 2]
        assert reseq.duplicates_dropped == 2

    def test_per_source_independence(self):
        out = []
        reseq = Resequencer(deliver=out.append)
        reseq.push(make_datagram(1, source="a"))
        reseq.push(make_datagram(0, source="b"))
        assert [d.source for d in out] == ["b"]
        reseq.push(make_datagram(0, source="a"))
        assert [(d.source, d.sequence) for d in out] == [("b", 0), ("a", 0), ("a", 1)]

    def test_held_count_and_pending_sources(self):
        reseq = Resequencer()
        reseq.push(make_datagram(3))
        reseq.push(make_datagram(5))
        assert reseq.held_count() == 2
        assert reseq.held_count("s") == 2

    @given(
        st.permutations(list(range(12))),
        st.lists(st.integers(min_value=0, max_value=11), max_size=8),
    )
    def test_any_permutation_with_duplicates_exactly_once_in_order(
        self, order, duplicate_positions
    ):
        """The destination contract: any arrival order + any duplicates
        still produce exactly-once, in-order delivery."""
        out = []
        reseq = Resequencer(deliver=out.append)
        stream = list(order)
        for position in duplicate_positions:
            stream.insert(position % (len(stream) + 1), order[position % len(order)])
        for seq in stream:
            reseq.push(make_datagram(seq))
        assert [d.sequence for d in out] == list(range(12))


class TestRouting:
    def topology(self):
        #  a - b - c
        #       \  |
        #        \ d
        return {
            "a": {"b": "ab"},
            "b": {"a": "ab", "c": "bc", "d": "bd"},
            "c": {"b": "bc", "d": "cd"},
            "d": {"b": "bd", "c": "cd"},
        }

    def test_first_hop_routes(self):
        routes = shortest_path_routes(self.topology(), "a")
        assert routes == {"b": "ab", "c": "ab", "d": "ab"}

    def test_routes_from_hub(self):
        routes = shortest_path_routes(self.topology(), "b")
        assert routes["a"] == "ab"
        assert routes["c"] == "bc"
        assert routes["d"] == "bd"

    def test_unknown_origin(self):
        with pytest.raises(KeyError):
            shortest_path_routes(self.topology(), "zz")

    def test_agrees_with_networkx(self):
        """Cross-check BFS first-hops against networkx shortest paths."""
        import networkx as nx

        topology = self.topology()
        graph = nx.Graph()
        for node, neighbors in topology.items():
            for neighbor in neighbors:
                graph.add_edge(node, neighbor)
        for origin in topology:
            routes = shortest_path_routes(topology, origin)
            for destination, link in routes.items():
                path = nx.shortest_path(graph, origin, destination)
                assert topology[origin][path[1]] == link

    def test_on_demand_table_agrees_with_networkx(self):
        """The same cross-check on the path a built constellation takes:
        the layer is handed the call, not the table, and makes the
        table at its first lookup."""
        import networkx as nx

        topology = self.topology()
        graph = nx.Graph(
            (node, neighbor) for node, hops in topology.items() for neighbor in hops)
        sim = Simulator()
        for origin in topology:
            layer = ForwardingNetworkLayer(
                sim, address=origin,
                routes=partial(shortest_path_routes, topology, origin))
            assert layer.tables_built == 0
            for destination in topology:
                if destination != origin:
                    path = nx.shortest_path(graph, origin, destination)
                    assert layer._next_hop(destination) == topology[origin][path[1]]
            assert layer.tables_built == 1


class TestForwardingLayer:
    def test_local_delivery_goes_through_resequencer(self):
        sim = Simulator()
        out = []
        layer = ForwardingNetworkLayer(sim, address="d", deliver=out.append)
        layer.on_packet(make_datagram(1), from_link="l")
        layer.on_packet(make_datagram(0), from_link="l")
        assert [d.sequence for d in out] == [0, 1]

    def test_transit_forwarded_via_route(self):
        sim = Simulator()
        layer = ForwardingNetworkLayer(sim, address="m", routes={"d": "out"})
        node = Node(sim, "m", network_layer=layer)
        layer.bind(node)
        sent = []

        class FakeEndpoint:
            def accept(self, packet):
                sent.append(packet)
                return True

        node.attach_endpoint("out", FakeEndpoint())
        layer.on_packet(make_datagram(0), from_link="in")
        assert len(sent) == 1
        assert layer.forwarded == 1

    def test_refused_packets_retry(self):
        sim = Simulator()
        layer = ForwardingNetworkLayer(sim, address="m", routes={"d": "out"}, retry_interval=0.01)
        node = Node(sim, "m", network_layer=layer)
        layer.bind(node)
        accepted = []

        class FlakyEndpoint:
            def __init__(self):
                self.calls = 0

            def accept(self, packet):
                self.calls += 1
                if self.calls <= 2:
                    return False
                accepted.append(packet)
                return True

        node.attach_endpoint("out", FlakyEndpoint())
        layer.on_packet(make_datagram(0), from_link="in")
        assert layer.retry_backlog == 1
        sim.run(until=1.0)
        assert accepted and layer.retry_backlog == 0

    def test_missing_route_raises(self):
        sim = Simulator()
        layer = ForwardingNetworkLayer(sim, address="m", routes={})
        node = Node(sim, "m", network_layer=layer)
        layer.bind(node)
        with pytest.raises(KeyError):
            layer.on_packet(make_datagram(0), from_link="in")

    def test_empty_table_is_kept_not_replaced(self):
        """``routes={}`` is the caller's table, empty or not: a route
        filled in after construction is the one consulted (``routes or
        {}`` swapped in a private dict and raised KeyError here)."""
        sim = Simulator()
        table = {}
        layer = ForwardingNetworkLayer(sim, address="m", routes=table)
        assert layer.routes is table
        node = Node(sim, "m", network_layer=layer)
        layer.bind(node)
        sent = []
        node.attach_endpoint("out", SimpleNamespace(accept=lambda p: not sent.append(p)))
        table["d"] = "out"
        layer.on_packet(make_datagram(0), from_link="in")
        assert len(sent) == 1 and layer.forwarded == 1
        assert layer.tables_built == 0

    def test_unbound_layer_raises(self):
        sim = Simulator()
        layer = ForwardingNetworkLayer(sim, address="m", routes={"d": "out"})
        with pytest.raises(RuntimeError):
            layer.send(make_datagram(0, source="m"))


class TestDatagramService:
    def test_sequences_assigned_per_destination(self):
        sim = Simulator()
        layer = ForwardingNetworkLayer(sim, address="src")
        # Loopback: destination == own address delivers locally.
        log = DeliveryLog(sim)
        layer.resequencer.deliver = log
        service = DatagramService(sim, layer)
        first = service.send("src", data="x")
        second = service.send("src", data="y")
        assert (first.sequence, second.sequence) == (0, 1)
        assert len(log) == 2

    def test_delivery_log_metrics(self):
        sim = Simulator()
        log = DeliveryLog(sim)
        dg = Datagram(source="s", destination="d", sequence=0, created_at=0.0)
        sim.schedule(1.5, log, dg)
        sim.run()
        assert log.mean_delay() == pytest.approx(1.5)
        assert log.in_order("s")
        assert log.exactly_once("s", 1)
        assert not log.exactly_once("s", 2)
