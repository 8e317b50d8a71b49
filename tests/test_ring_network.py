"""Ring-constellation integration: many flows over a LAMS ring.

A realistic LAMS topology is a ring of satellites in one orbital plane
(each linked to its neighbours).  This test wires a full ring with
LAMS-DLC on every link, BFS shortest-path routing, and several
simultaneous flows — exercising the store-and-forward substrate, the
per-source resequencers, and routing around both sides of the ring.
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


def build_ring(sim, size=6, iframe_ber=1e-6, seed=31):
    """A ring n0—n1—…—n(size-1)—n0 with LAMS-DLC on every link."""
    names = [f"n{i}" for i in range(size)]
    topology: dict[str, dict[str, str]] = {name: {} for name in names}
    for i in range(size):
        j = (i + 1) % size
        link_name = f"l{i}"
        topology[names[i]][names[j]] = link_name
        topology[names[j]][names[i]] = link_name

    logs = {name: DeliveryLog(sim) for name in names}
    nodes, layers = {}, {}
    for name in names:
        layer = ForwardingNetworkLayer(
            sim, address=name,
            routes=shortest_path_routes(topology, name),
            deliver=logs[name],
        )
        node = Node(sim, name, network_layer=layer)
        layer.bind(node)
        nodes[name], layers[name] = node, layer

    config = LamsDlcConfig(checkpoint_interval=0.005, cumulation_depth=3)
    for i in range(size):
        j = (i + 1) % size
        link = FullDuplexLink(
            sim, bit_rate=100e6, propagation_delay=0.008, name=f"l{i}",
            iframe_errors=BernoulliChannel(iframe_ber),
            cframe_errors=BernoulliChannel(iframe_ber / 100),
            streams=StreamRegistry(seed=seed + i),
        )
        left, right = names[i], names[j]
        a, b = make_endpoint_pair(
            "lams", sim, link, config,
            deliver_a=lambda pkt, ln=f"l{i}", nd=left: nodes[nd].deliver_up(pkt, ln),
            deliver_b=lambda pkt, ln=f"l{i}", nd=right: nodes[nd].deliver_up(pkt, ln),
        )
        a.start()
        b.start()
        nodes[left].attach_endpoint(f"l{i}", a)
        nodes[right].attach_endpoint(f"l{i}", b)

    services = {name: DatagramService(sim, layers[name]) for name in names}
    return names, nodes, layers, services, logs


class TestRingNetwork:
    def test_all_pairs_one_datagram(self):
        """Every node sends one datagram to every other node."""
        sim = Simulator()
        names, nodes, layers, services, logs = build_ring(sim, size=6)
        for src in names:
            for dst in names:
                if src != dst:
                    services[src].send(dst, data=f"{src}->{dst}")
        sim.run(until=10.0)
        for dst in names:
            received = {(dg.source, dg.data) for dg in logs[dst].datagrams}
            expected = {
                (src, f"{src}->{dst}") for src in names if src != dst
            }
            assert received == expected, dst

    def test_crossing_flows_exactly_once_in_order(self):
        sim = Simulator()
        names, nodes, layers, services, logs = build_ring(sim, size=6, iframe_ber=5e-6)
        n = 200
        flows = [("n0", "n3"), ("n2", "n5"), ("n4", "n1")]
        for src, dst in flows:
            for i in range(n):
                services[src].send(dst, data=i)
        sim.run(until=30.0)
        for src, dst in flows:
            assert logs[dst].exactly_once(src, n), (src, dst)
            assert logs[dst].in_order(src), (src, dst)

    def test_shortest_path_used(self):
        """n0 → n2 goes the short way (2 hops), never the long way."""
        sim = Simulator()
        names, nodes, layers, services, logs = build_ring(sim, size=6, iframe_ber=0.0)
        for i in range(20):
            services["n0"].send("n2", data=i)
        sim.run(until=5.0)
        assert len(logs["n2"]) == 20
        # The long path would traverse n5, n4, n3; their layers must not
        # have forwarded anything.
        for idle in ("n5", "n4", "n3"):
            assert layers[idle].forwarded == 0
        # n1 carried the transit traffic.
        assert layers["n1"].forwarded == 20

    def test_antipodal_traffic_splits_by_destination(self):
        """Datagrams to the antipode take a consistent 3-hop route and
        the end-to-end delay reflects three propagation hops."""
        sim = Simulator()
        names, nodes, layers, services, logs = build_ring(sim, size=6, iframe_ber=0.0)
        for i in range(50):
            services["n0"].send("n3", data=i)
        sim.run(until=10.0)
        assert logs["n3"].exactly_once("n0", 50)
        # 3 hops x (8 ms propagation + checkpoint wait): well over 24 ms.
        assert logs["n3"].mean_delay() > 0.024
