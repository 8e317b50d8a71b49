"""Network-layer rerouting on declared link failure.

Closes the paper's failure loop end-to-end: the LAMS-DLC sender
declares a failure and "informs the network layer" (Section 3.2); the
network layer recomputes routes around the dead link and re-injects the
DLC's retained frames — zero loss across a permanent link cut, with
duplicates (frames delivered but unacknowledged before the cut)
removed by the destination resequencer.
"""

from __future__ import annotations

import pytest

from repro.api import make_endpoint_pair
from repro.core import LamsDlcConfig
from repro.netlayer import (
    DatagramService,
    DeliveryLog,
    ForwardingNetworkLayer,
    shortest_path_routes,
)
from repro.simulator import (
    BernoulliChannel,
    FullDuplexLink,
    Node,
    Simulator,
    StreamRegistry,
)


def build_ring_with_failover(sim, size=4, seed=51):
    """A ring where every node knows the topology (rerouting enabled)."""
    names = [f"n{i}" for i in range(size)]
    topology: dict[str, dict[str, str]] = {name: {} for name in names}
    for i in range(size):
        j = (i + 1) % size
        topology[names[i]][names[j]] = f"l{i}"
        topology[names[j]][names[i]] = f"l{i}"

    logs = {name: DeliveryLog(sim) for name in names}
    nodes, layers, links = {}, {}, {}
    for name in names:
        layer = ForwardingNetworkLayer(
            sim, address=name,
            routes=shortest_path_routes(topology, name),
            deliver=logs[name],
            topology=topology,
        )
        node = Node(sim, name, network_layer=layer)
        layer.bind(node)
        nodes[name], layers[name] = node, layer

    config = LamsDlcConfig(checkpoint_interval=0.005, cumulation_depth=3)
    for i in range(size):
        j = (i + 1) % size
        link = FullDuplexLink(
            sim, bit_rate=100e6, propagation_delay=0.008, name=f"l{i}",
            iframe_errors=BernoulliChannel(1e-6),
            cframe_errors=BernoulliChannel(1e-8),
            streams=StreamRegistry(seed=seed + i),
        )
        left, right = names[i], names[j]
        a, b = make_endpoint_pair(
            "lams", sim, link, config,
            deliver_a=lambda pkt, ln=f"l{i}", nd=left: nodes[nd].deliver_up(pkt, ln),
            deliver_b=lambda pkt, ln=f"l{i}", nd=right: nodes[nd].deliver_up(pkt, ln),
            on_failure_a=lambda ln=f"l{i}", nd=left: nodes[nd].report_link_failure(ln),
            on_failure_b=lambda ln=f"l{i}", nd=right: nodes[nd].report_link_failure(ln),
        )
        a.start()
        b.start()
        nodes[left].attach_endpoint(f"l{i}", a)
        nodes[right].attach_endpoint(f"l{i}", b)
        links[f"l{i}"] = link

    services = {name: DatagramService(sim, layers[name]) for name in names}
    return names, nodes, layers, services, logs, links


class TestShortestPathExclusion:
    def test_exclude_links_reroutes(self):
        topology = {
            "a": {"b": "ab", "c": "ac"},
            "b": {"a": "ab", "d": "bd"},
            "c": {"a": "ac", "d": "cd"},
            "d": {"b": "bd", "c": "cd"},
        }
        direct = shortest_path_routes(topology, "a")
        assert direct["d"] in ("ab", "ac")  # two equal 2-hop paths
        rerouted = shortest_path_routes(topology, "a", exclude_links={"ab"})
        assert rerouted["d"] == "ac"
        assert rerouted["b"] == "ac"  # b now reached the long way

    def test_partition_drops_destinations(self):
        topology = {"a": {"b": "ab"}, "b": {"a": "ab"}}
        routes = shortest_path_routes(topology, "a", exclude_links={"ab"})
        assert routes == {}


class TestFailover:
    def test_permanent_cut_reroutes_with_zero_loss(self):
        sim = Simulator()
        names, nodes, layers, services, logs, links = build_ring_with_failover(sim)
        n = 400
        for i in range(n):
            services["n0"].send("n1", data=i)
        # Cut the direct n0—n1 link mid-transfer, permanently.
        sim.schedule_at(0.012, links["l0"].down)
        sim.run(until=20.0)

        # The DLC declared the failure and the layer rerouted.
        assert "l0" in layers["n0"].failed_links
        assert layers["n0"].rerouted > 0
        # New route goes the long way around: n3 carried transit traffic.
        assert layers["n3"].forwarded > 0

        # Zero loss, exactly once, in order at the destination.
        assert logs["n1"].exactly_once("n0", n)
        assert logs["n1"].in_order("n0")

    def test_duplicates_from_cut_are_absorbed(self):
        """Frames delivered but unacknowledged before the cut are re-sent
        the long way; the resequencer drops them silently."""
        sim = Simulator()
        names, nodes, layers, services, logs, links = build_ring_with_failover(sim)
        n = 400
        for i in range(n):
            services["n0"].send("n1", data=i)
        sim.schedule_at(0.012, links["l0"].down)
        sim.run(until=20.0)
        reseq = layers["n1"].resequencer
        assert reseq.duplicates_dropped >= 0
        assert len(logs["n1"]) == n  # exactly n delivered upward

    def test_static_layer_only_records(self):
        """Without a topology the layer records the failure and nothing
        else (the pre-failover behaviour, still supported)."""
        sim = Simulator()
        layer = ForwardingNetworkLayer(sim, address="x", routes={})
        layer.on_link_failure("l9")
        assert layer.link_failures == ["l9"]
        assert layer.failed_links == set()
