"""Property tests for the network-layer substrate under adversarial
arrival patterns — the destination-side contract the relaxed-I
architecture depends on."""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netlayer.packet import Datagram
from repro.netlayer.resequencer import Resequencer
from repro.netlayer.forwarding import ForwardingNetworkLayer, shortest_path_routes
from repro.simulator.engine import Simulator
from repro.simulator.node import Node


def make_datagram(sequence, source="s", destination="d"):
    return Datagram(source=source, destination=destination, sequence=sequence,
                    created_at=0.0)


class TestResequencerProperties:
    @settings(max_examples=200)
    @given(
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=120)
    )
    def test_arbitrary_streams_never_duplicate_or_reorder(self, stream):
        """For ANY arrival stream (gaps, duplicates, reordering), the
        output is a strictly increasing prefix of the integers —
        exactly the delivered set with no duplicates, no inversions."""
        out = []
        reseq = Resequencer(deliver=out.append)
        for sequence in stream:
            reseq.push(make_datagram(sequence))
        sequences = [dg.sequence for dg in out]
        assert sequences == sorted(set(sequences))
        assert sequences == list(range(len(sequences)))

    @settings(
        max_examples=100,
        suppress_health_check=[HealthCheck.large_base_example],
    )
    @given(
        st.permutations(list(range(15))),
        st.permutations(list(range(15))),
        st.permutations(["a"] * 15 + ["b"] * 15),
    )
    def test_interleaved_flows_independent(self, order_a, order_b, interleave):
        """Two sources' streams interleaved arbitrarily: each source's
        output is in-order and exactly-once regardless of the other."""
        out = []
        reseq = Resequencer(deliver=out.append)
        queues = {"a": list(order_a), "b": list(order_b)}
        for source in interleave:
            reseq.push(make_datagram(queues[source].pop(0), source=source))
        for source in ("a", "b"):
            sequences = [dg.sequence for dg in out if dg.source == source]
            assert sequences == list(range(15))

    @settings(max_examples=100)
    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=80))
    def test_held_count_bounded_by_span(self, stream):
        """The hold buffer never exceeds the span of outstanding gaps."""
        reseq = Resequencer()
        for sequence in stream:
            reseq.push(make_datagram(sequence))
            held = reseq.held_count("s")
            flow = reseq.flows["s"]
            if flow.held:
                span = max(flow.held) - flow.next_expected + 1
                assert held <= span


def ring(size):
    names = [f"n{i}" for i in range(size)]
    topology = {name: {} for name in names}
    for i in range(size):
        j = (i + 1) % size
        topology[names[i]][names[j]] = topology[names[j]][names[i]] = f"l{i}"
    return topology


class TestRoutingProperties:
    @settings(max_examples=50)
    @given(st.integers(min_value=3, max_value=10), st.integers(min_value=0, max_value=9))
    def test_ring_routes_reach_everyone(self, size, origin_index):
        origin_index %= size
        topology = ring(size)
        names = list(topology)
        routes = shortest_path_routes(topology, names[origin_index])
        assert set(routes) == set(names) - {names[origin_index]}
        # First hops only ever use the origin's two incident links.
        incident = set(topology[names[origin_index]].values())
        assert set(routes.values()) <= incident

    @settings(max_examples=50)
    @given(st.integers(min_value=4, max_value=10), st.integers(min_value=0, max_value=9))
    def test_single_link_failure_keeps_ring_connected(self, size, failed_index):
        failed_index %= size
        topology = ring(size)
        names = list(topology)
        routes = shortest_path_routes(
            topology, names[0], exclude_links={f"l{failed_index}"}
        )
        # A ring minus one link is a path: still fully connected.
        assert set(routes) == set(names) - {names[0]}


@st.composite
def graphs_with_failures(draw):
    """A connected graph — a random tree plus random chords, or an
    even ring (two equal paths to the antipodal node) — an origin, and
    the links that will be declared failed, in order."""
    if draw(st.booleans()):
        topology = ring(2 * draw(st.integers(min_value=2, max_value=5)))
    else:
        size = draw(st.integers(min_value=2, max_value=8))
        edges = {(draw(st.integers(0, j - 1)), j) for j in range(1, size)}
        chords = draw(st.lists(
            st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
            max_size=size))
        edges |= {(min(e), max(e)) for e in chords if e[0] != e[1]}
        topology = {f"n{i}": {} for i in range(size)}
        for k, (i, j) in enumerate(sorted(edges)):
            topology[f"n{i}"][f"n{j}"] = topology[f"n{j}"][f"n{i}"] = f"l{k}"
    link_names = sorted({link for hops in topology.values() for link in hops.values()})
    origin = draw(st.sampled_from(sorted(topology)))
    failures = draw(st.lists(st.sampled_from(link_names), max_size=3, unique=True))
    return topology, origin, failures


class _Endpoint:
    """Accepts everything, logging (link, destination); its sender
    still holds one datagram per other node when the link fails."""

    def __init__(self, link, sent, held):
        self.link, self.sent = link, sent
        self.sender = SimpleNamespace(held_payloads=lambda: list(held))

    def accept(self, packet):
        self.sent.append((self.link, packet.destination))
        return True


class TestOnDemandRouting:
    """The layer's table, made at its first lookup and remade after a
    declared failure, is :func:`shortest_path_routes` entry for entry."""

    @settings(max_examples=150, deadline=None)
    @given(graphs_with_failures(), st.booleans())
    def test_every_lookup_is_the_oracles(self, case, forward_before_failures):
        topology, origin, failures = case
        others = [name for name in topology if name != origin]
        sim = Simulator()
        layer = ForwardingNetworkLayer(
            sim, address=origin, topology=topology,
            routes=partial(shortest_path_routes, topology, origin))
        node = Node(sim, origin, network_layer=layer)
        layer.bind(node)
        sent = []
        held = [make_datagram(0, source=origin, destination=name) for name in others]
        for link in topology[origin].values():
            node.attach_endpoint(link, _Endpoint(link, sent, held))
        assert layer.tables_built == 0

        if forward_before_failures:
            oracle = shortest_path_routes(topology, origin)
            for name in others:
                layer.on_packet(make_datagram(1, destination=name), from_link="in")
            assert sent == [(oracle[name], name) for name in others]
            assert layer.tables_built == 1

        parked = 0
        for count, link in enumerate(failures, start=1):
            del sent[:]
            built = layer.tables_built
            layer.on_link_failure(link)
            oracle = shortest_path_routes(
                topology, origin, exclude_links=set(failures[:count]))
            if link in topology[origin].values():
                # The failed DLC's frames go out again over what is
                # left; what has no path now waits in the retry queue.
                assert sent == [(oracle[name], name) for name in others
                                if name in oracle]
                parked += sum(name not in oracle for name in others)
                assert layer.rerouted == len(others) * sum(
                    failed in topology[origin].values()
                    for failed in failures[:count])
                assert layer.tables_built == built + bool(others)
            else:
                # Some other node's link: nothing held here, no lookup.
                assert sent == [] and layer.tables_built == built
            assert layer.retry_backlog == parked

        oracle = shortest_path_routes(topology, origin, exclude_links=set(failures))
        assert layer.routes == oracle
        assert [layer._next_hop(name) for name in others] == [
            oracle.get(name) for name in others]
        # The retry timer keeps the unreachable parked, and sends nothing.
        del sent[:]
        sim.run(until=0.01)
        assert layer.retry_backlog == parked and sent == []
        assert layer.tables_built <= 1 + len(failures)

    def test_antipodal_tie_breaks_as_the_bfs_does(self):
        """n0 of an even ring has two equal paths to the node opposite;
        the first-declared neighbour wins, on demand as up front."""
        topology = ring(8)
        sim = Simulator()
        layer = ForwardingNetworkLayer(
            sim, address="n0", routes=partial(shortest_path_routes, topology, "n0"))
        assert layer._next_hop("n4") == "l0" == shortest_path_routes(topology, "n0")["n4"]
        assert layer._next_hop("n5") == "l7"
        assert layer.tables_built == 1
