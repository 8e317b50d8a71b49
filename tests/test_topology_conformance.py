"""Conformance: the declarative topology build reproduces hand-wiring.

``examples/multihop_store_and_forward.py`` historically built its
four-node relay chain link by link (FullDuplexLink + make_endpoint_pair +
Node/ForwardingNetworkLayer plumbing by hand).  The example now
declares the same chain as a Topology; this test keeps the original
hand-wired construction alive and asserts the
:class:`~repro.topology.ConstellationBuilder` produces *identical*
delivery accounting — same delivered counts, same ordering verdicts,
same mean delays, same per-hop forwarding and retransmission totals —
so the declarative path is provably the same simulation.
"""

from __future__ import annotations

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
from repro.topology import LinkSpec, build_constellation, chain_topology

HOPS = 3
IFRAME_BER = 5e-6
N_MESSAGES = 200
UNTIL = 15.0


def _accounting(names, layers, logs, retransmissions):
    first, last = names[0], names[-1]
    fwd, rev = logs[last], logs[first]
    return {
        "forwarded": {name: layers[name].forwarded for name in names},
        "delivered_local": {
            name: layers[name].resequencer.delivered for name in names
        },
        "reordered": {
            name: layers[name].resequencer.out_of_order_arrivals
            for name in names
        },
        "duplicates": {
            name: layers[name].resequencer.duplicates_dropped for name in names
        },
        "fwd": (len(fwd), fwd.in_order(first),
                fwd.exactly_once(first, N_MESSAGES), fwd.mean_delay()),
        "rev": (len(rev), rev.in_order(last),
                rev.exactly_once(last, N_MESSAGES), rev.mean_delay()),
        "retransmissions": retransmissions,
    }


def run_hand_wired():
    """The pre-topology construction, preserved verbatim in spirit."""
    sim = Simulator()
    names = [f"n{i}" for i in range(HOPS + 1)]
    topology = {name: {} for name in names}
    for i in range(HOPS):
        topology[names[i]][names[i + 1]] = f"l{i}"
        topology[names[i + 1]][names[i]] = f"l{i}"

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
    endpoints = {}
    for i in range(HOPS):
        link = FullDuplexLink(
            sim, bit_rate=100e6, propagation_delay=0.010, name=f"l{i}",
            iframe_errors=BernoulliChannel(IFRAME_BER),
            cframe_errors=BernoulliChannel(IFRAME_BER / 100),
            streams=StreamRegistry(seed=100 + i),
        )
        left, right = names[i], names[i + 1]
        a, b = make_endpoint_pair(
            "lams", sim, link, config,
            deliver_a=lambda pkt, ln=f"l{i}", nd=left: nodes[nd].deliver_up(pkt, ln),
            deliver_b=lambda pkt, ln=f"l{i}", nd=right: nodes[nd].deliver_up(pkt, ln),
        )
        a.start()
        b.start()
        nodes[left].attach_endpoint(f"l{i}", a)
        nodes[right].attach_endpoint(f"l{i}", b)
        endpoints[(left, f"l{i}")] = a
        endpoints[(right, f"l{i}")] = b

    services = {name: DatagramService(sim, layers[name]) for name in names}
    first, last = names[0], names[-1]
    for i in range(N_MESSAGES):
        services[first].send(last, data=("fwd", i))
        services[last].send(first, data=("rev", i))
    sim.run(until=UNTIL)
    retx = sum(ep.sender.retransmissions for ep in endpoints.values())
    return _accounting(names, layers, logs, retx)


def run_topology_built():
    """The same chain through the declarative topology path."""
    template = LinkSpec(
        config=LamsDlcConfig(checkpoint_interval=0.005, cumulation_depth=3),
        bit_rate=100e6,
        propagation_delay=0.010,
        iframe_errors=("bernoulli", {"ber": IFRAME_BER}),
        cframe_errors=("bernoulli", {"ber": IFRAME_BER / 100}),
    )
    topo = chain_topology(HOPS, template).map_links(
        lambda spec: spec.with_(seed=100 + int(spec.name[1:]))
    )
    constellation = build_constellation(topo)
    names = topo.node_names()
    first, last = names[0], names[-1]
    for i in range(N_MESSAGES):
        constellation.services[first].send(last, data=("fwd", i))
        constellation.services[last].send(first, data=("rev", i))
    constellation.run(until=UNTIL)
    retx = sum(
        runtime.endpoint_a.sender.retransmissions
        + runtime.endpoint_b.sender.retransmissions
        for runtime in constellation.links.values()
    )
    return _accounting(names, constellation.layers, constellation.logs, retx)


def test_topology_build_matches_hand_wired_chain():
    assert run_topology_built() == run_hand_wired()


def test_topology_stats_agree_with_delivery_logs():
    """The builder's per-link taps count exactly the payloads the
    network layers saw (transit + local), independently accounted."""
    template = LinkSpec(
        scenario="short_hop",
        overrides={"checkpoint_interval": 0.005},
    )
    topo = chain_topology(2, template)
    constellation = build_constellation(topo)
    for i in range(50):
        constellation.services["n0"].send("n2", data=("x", i))
    constellation.run(until=5.0)
    assert constellation.datagrams_delivered() == 50
    # Each datagram crosses both hops exactly once: per-link delivered
    # payloads must equal datagrams * hops (no duplicates surfaced).
    rollup = constellation.network_rollup()
    assert rollup["payloads_delivered"] == 100
    assert rollup["forwarded"] == 100
