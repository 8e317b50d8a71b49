"""Tests for the constellation topology layer.

Covers the declarative graph (shapes, validation, templates), the
LinkSpec resolution rules, the builder's determinism contract (same
master seed → bit-identical per-link summaries and rollups), and
per-link fault isolation (a fault plan on one link cannot shift another
link's RNG draws or accounting).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import LamsDlcConfig
from repro.faults import FaultPlan
from repro.simulator import Satellite, Simulator
from repro.topology import (
    EndpointSpec,
    FlowSpec,
    LinkSpec,
    NodeSpec,
    Topology,
    build_constellation,
    build_link,
    chain_topology,
    cross_traffic,
    grid_topology,
    instantiate_pair,
    ring_topology,
)

FAST = LinkSpec(scenario="short_hop")


def _run_ring(master_seed=7, size=4, fault_plans=None, until=0.2):
    """Build and run a small ring; returns (summaries, rollup)."""
    topo = ring_topology(size, FAST)
    if fault_plans:
        topo = topo.map_links(
            lambda spec: spec.with_(fault_plan=fault_plans.get(spec.name))
        )
    flows = cross_traffic(topo.node_names(), stride=1, messages=10,
                          interval=until / 40, poisson=True)
    constellation = build_constellation(
        topo, master_seed=master_seed, flows=flows, horizon=until,
        probe_interval=until / 10,
    )
    constellation.run(until=until)
    return constellation.link_summaries(), constellation.network_rollup()


class TestGraph:
    def test_ring_shape(self):
        topo = ring_topology(5, FAST)
        assert topo.node_names() == [f"n{i}" for i in range(5)]
        assert [link.name for link in topo.links] == [f"l{i}" for i in range(5)]
        assert topo.degree("n0") == 2
        assert topo.adjacency()["n0"] == {"n1": "l0", "n4": "l4"}

    def test_chain_shape(self):
        topo = chain_topology(3, FAST)
        assert len(topo.nodes) == 4 and len(topo.links) == 3
        assert topo.degree("n0") == 1 and topo.degree("n1") == 2

    def test_grid_shape(self):
        topo = grid_topology(3, 4, FAST)
        assert len(topo.nodes) == 12
        # 3 intra-plane rings of 4 + 3 wrapped cross-plane bundles of 4.
        assert len(topo.links) == 24
        assert topo.link("p0.l0").a == "p0s0" and topo.link("x0.l1").b == "p1s1"

    def test_grid_no_wrap_with_two_planes(self):
        topo = grid_topology(2, 3, FAST)
        # Wrapping two planes would duplicate the cross links.
        assert len(topo.links) == 2 * 3 + 3

    def test_satellite_ring_nodes_carry_orbits(self):
        topo = ring_topology(4, FAST, satellites=True, altitude_km=800.0)
        sats = [node.satellite for node in topo.nodes]
        assert all(isinstance(sat, Satellite) for sat in sats)
        assert len({sat.phase_deg for sat in sats}) == 4

    def test_rejects_duplicate_names_and_unknown_ends(self):
        with pytest.raises(ValueError, match="duplicate node"):
            Topology(nodes=("a", "a"), links=())
        with pytest.raises(ValueError, match="unknown node"):
            Topology(nodes=("a", "b"), links=(FAST.with_(a="a", b="zz"),))
        with pytest.raises(ValueError, match="duplicate link"):
            Topology(
                nodes=("a", "b", "c"),
                links=(FAST.with_(name="l", a="a", b="b"),
                       FAST.with_(name="l", a="b", b="c")),
            )

    def test_map_links_rewrites_every_spec(self):
        topo = ring_topology(3, FAST).map_links(lambda s: s.with_(seed=9))
        assert all(link.seed == 9 for link in topo.links)


class TestLinkSpec:
    def test_rejects_self_loop_and_double_error_spec(self):
        with pytest.raises(ValueError, match="itself"):
            LinkSpec(a="x", b="x")
        with pytest.raises(ValueError, match="not both"):
            LinkSpec(error_model="perfect", iframe_errors="perfect")

    def test_explicit_seed_wins_over_derivation(self):
        assert LinkSpec(seed=5).resolve_seed(123) == 5
        derived = LinkSpec(name="l9").resolve_seed(123)
        assert derived == LinkSpec(name="l9").resolve_seed(123)
        assert derived != LinkSpec(name="l8").resolve_seed(123)

    def test_config_resolution_order(self):
        explicit = LamsDlcConfig(checkpoint_interval=0.5)
        per_side = LamsDlcConfig(checkpoint_interval=0.25)
        spec = LinkSpec(config=explicit,
                        endpoint_b=EndpointSpec(config=per_side))
        assert spec.protocol_config("a") is explicit
        assert spec.protocol_config("b") is per_side
        derived = LinkSpec(scenario="short_hop",
                           overrides={"cumulation_depth": 7})
        assert derived.protocol_config("a").cumulation_depth == 7
        # The built pair follows the same order on both sides: an
        # explicit A config is A's alone, and B shares A's object only
        # when neither side is explicit.
        for case, config_a, config_b in (
            (LinkSpec(config=explicit,
                      endpoint_a=EndpointSpec(config=per_side)),
             per_side, explicit),
            (spec, explicit, per_side),
            (LinkSpec(config=explicit), explicit, explicit),
        ):
            sim = Simulator()
            a, b = instantiate_pair(case, sim, build_link(case, sim))
            assert a.config is config_a and b.config is config_b

    def test_other_end(self):
        spec = LinkSpec(a="x", b="y")
        assert spec.other("x") == "y" and spec.other("y") == "x"
        with pytest.raises(ValueError):
            spec.other("z")


class TestDeterminism:
    def test_same_master_seed_is_bit_identical(self):
        first_links, first_rollup = _run_ring(master_seed=7)
        second_links, second_rollup = _run_ring(master_seed=7)
        assert first_links == second_links
        assert first_rollup == second_rollup

    def test_different_master_seed_differs(self):
        _, first = _run_ring(master_seed=7)
        _, second = _run_ring(master_seed=8)
        assert first != second

    def test_probing_does_not_perturb_delivery(self):
        topo = ring_topology(4, FAST)
        flows = cross_traffic(topo.node_names(), stride=1, messages=10,
                              interval=0.005, poisson=True)

        def run(probe_interval):
            constellation = build_constellation(
                topo, master_seed=3, flows=flows, horizon=0.2,
                probe_interval=probe_interval,
            )
            constellation.run(until=0.2)
            rollup = constellation.network_rollup()
            # Probe-derived fields legitimately differ.
            for probed in ("peak_heap", "peak_buffered_max", "events"):
                rollup.pop(probed)
            return rollup

        assert run(None) == run(0.01)


# -- pinned to the parent commit ------------------------------------------------

# ``_idle_ring_run`` below at the parent of the change that made a Timer
# restart a pair of stores and the idle checkpoint cheap: (sha256 of
# network_rollup() without its two engine-scale keys, sha256 of
# link_summaries(), frames_sent), and the two engine-scale keys, which
# are what that change was about — same frames, fewer heap entries.
# Kept beside the specification's per-link log: a 20-link ring's network
# rollup and link summaries are of the topology and network layers,
# which the specification does not model.
PARENT_IDLE_RING = ("6addde466787fb2f", "6c21e99d13c6ad51", 841)
PARENT_IDLE_RING_ENGINE = {"events": 3021, "peak_heap": 389}


def _idle_ring_run():
    """A 20-link ring, two two-hop Poisson flows, 0.1 s: mostly idle links."""
    topology = ring_topology(20, name="idle-ring-20")
    names = topology.node_names()
    flows = [
        FlowSpec(source=names[s], destination=names[(s + 2) % 20],
                 messages=20, interval=0.0025, poisson=True)
        for s in (3, 11)
    ]
    constellation = build_constellation(
        topology, master_seed=7, flows=flows, horizon=0.1, probe_interval=0.005,
    )
    constellation.run(until=0.1)
    rollup = constellation.network_rollup()
    engine = {key: rollup.pop(key) for key in ("events", "peak_heap")}

    def digest(value):
        return hashlib.sha256(repr(value).encode()).hexdigest()[:16]

    return ((digest(sorted(rollup.items())), digest(constellation.link_summaries()),
             rollup["frames_sent"]), engine)


def test_idle_ring_unchanged_from_parent_but_for_the_heap():
    pinned, engine = _idle_ring_run()
    assert pinned == PARENT_IDLE_RING
    # Exact counts, repeatable to the event.  Over 841 frames and 20
    # links the parent's are 3.59 events a frame and 19.45 heap entries
    # a link (a dead timer entry per checkpoint heard); without those,
    # 2701 events (3.21 a frame) and 309 entries (15.45 a link).
    assert engine["events"] < PARENT_IDLE_RING_ENGINE["events"]
    assert engine["peak_heap"] < PARENT_IDLE_RING_ENGINE["peak_heap"]


class TestRouteTablesOnDemand:
    """A build computes no routing table; the run computes one per node
    that forwards — so neither depends on how big the constellation is."""

    @staticmethod
    def forwarding_run(size, monkeypatch):
        import repro.netlayer.forwarding as forwarding
        import repro.topology.builder as builder

        calls = []
        real = forwarding.shortest_path_routes

        def counted(topology, origin, exclude_links=None):
            calls.append(origin)
            return real(topology, origin, exclude_links)

        monkeypatch.setattr(forwarding, "shortest_path_routes", counted)
        monkeypatch.setattr(builder, "shortest_path_routes", counted)
        topology = ring_topology(size, FAST)
        names = topology.node_names()
        flows = [
            FlowSpec(source=names[s], destination=names[(s + 2) % size],
                     messages=5, interval=0.002)
            for s in (3, 11, 12)
        ]
        constellation = build_constellation(
            topology, master_seed=7, flows=flows, horizon=0.05)
        assert calls == []
        constellation.run(until=0.05)
        assert constellation.datagrams_delivered() == 15
        layers = constellation.layers
        forwarders = {name for name in names if layers[name].forwarded}
        # Three sources, three relays; n12 is both.
        assert forwarders == {f"n{i}" for i in (3, 4, 11, 12, 13)}
        assert sorted(calls) == sorted(forwarders)
        assert {name for name in names if layers[name].tables_built} == forwarders
        # The table a node made is the one the parent built for it.
        for name in forwarders:
            assert layers[name].routes == real(topology.adjacency(), name)
        return len(calls)

    def test_one_table_per_forwarding_node_at_any_size(self, monkeypatch):
        assert (self.forwarding_run(50, monkeypatch)
                == self.forwarding_run(200, monkeypatch) == 5)

    def test_antipodal_route_is_the_parents(self):
        """n0 of a 12-ring is equally far from n6 either way; the table
        made on demand breaks the tie as the one made at build did."""
        constellation = build_constellation(
            ring_topology(12, FAST), dynamic_routing=True)
        assert constellation.layers["n0"].routes["n6"] == "l0"
        assert constellation.layers["n3"].routes["n9"] == "l2"


def test_buffered_payloads_counts_what_each_family_holds():
    """Sender occupancy at both ends plus, on LAMS links, the receive
    queues — read by length, for every protocol family a link can run."""
    protocols = dict(zip(("l0", "l1", "l2"), ("lams", "hdlc", "nbdt-continuous")))
    topo = chain_topology(3, FAST).map_links(lambda spec: spec.with_(
        protocol=protocols[spec.name],
        # A slow consumer at n1, so l0's receive queue is not empty.
        extras={"delivery_interval_b": 1e-4} if spec.name == "l0" else {}))
    constellation = build_constellation(topo, flows=[
        FlowSpec(source=a, destination=b, messages=200, interval=1e-5)
        for a, b in (("n0", "n1"), ("n1", "n2"), ("n2", "n3"))
    ], horizon=0.02)
    seen = {name: 0 for name in protocols}
    queued = []

    def check():
        for name, runtime in constellation.links.items():
            ends = (runtime.endpoint_a, runtime.endpoint_b)
            expected = sum(end.sender.occupancy for end in ends)
            if name == "l0":
                queued.append(len(runtime.endpoint_b.receiver.queued_payloads()))
                expected += queued[-1]
            assert runtime.buffered_payloads() == expected
            seen[name] = max(seen[name], expected)

    for tick in range(40):  # the first frames land at ~6.7 ms
        constellation.sim.schedule_at(0.005 + tick * 2.5e-4, check)
    constellation.run(until=0.02)
    assert all(seen.values()) and max(queued) > 0, (seen, queued)


def test_probes_of_a_mixed_family_ring_read_what_each_end_holds():
    """Every family on one ring, probed every 250 us: each link's
    ``peak_buffered``, from the readers resolved at build, is the value
    read attribute by attribute at every probe (pinned)."""
    families = ("lams", "hdlc", "nbdt-continuous", "nbdt-multiphase")
    topo = ring_topology(8, FAST, name="mixed-ring").map_links(
        lambda spec: spec.with_(protocol=families[int(spec.name[1:]) % 4]))
    names = topo.node_names()
    constellation = build_constellation(topo, master_seed=11, flows=[
        FlowSpec(source=names[s], destination=names[(s + 2) % 8], messages=300,
                 interval=2e-5) for s in (0, 3, 5)], horizon=0.03, probe_interval=2.5e-4)
    constellation.run(until=0.03)
    assert {name: runtime.stats.peak_buffered
            for name, runtime in constellation.links.items()} == {
        "l0": 301, "l1": 298, "l2": 0, "l3": 300, "l4": 299, "l5": 300, "l6": 64, "l7": 0}


class TestFaultIsolation:
    def test_fault_on_one_link_cannot_shift_another(self):
        plans = {"l2": FaultPlan.single_outage(0.05, 0.05)}
        baseline_links, _ = _run_ring(master_seed=7, fault_plans=None)
        faulted_links, _ = _run_ring(master_seed=7, fault_plans=plans)
        by_name = {summary["name"]: summary for summary in faulted_links}
        base_by_name = {summary["name"]: summary for summary in baseline_links}
        # The faulted link visibly changes...
        assert by_name["l2"] != base_by_name["l2"]
        assert by_name["l2"]["frames_lost_outage"] > 0
        # ...but a link no faulted traffic touches keeps identical
        # accounting: per-link stream isolation means l2's outage can
        # consume no draws from l0's registry.  (stride-1 ring flows:
        # each datagram crosses exactly one link.)
        assert by_name["l0"] == base_by_name["l0"]

    def test_declared_failure_reaches_the_node(self):
        topo = chain_topology(2, FAST.with_(
            fault_plan=None))
        # Outage long enough for LAMS to declare the link dead.
        topo = topo.map_links(
            lambda spec: spec.with_(
                fault_plan=FaultPlan.single_outage(0.02, 5.0)
            ) if spec.name == "l0" else spec
        )
        constellation = build_constellation(topo, master_seed=1)
        constellation.run(until=2.0)
        assert "l0" in constellation.layers["n0"].link_failures


class TestFlows:
    def test_cross_traffic_covers_every_node(self):
        flows = cross_traffic([f"n{i}" for i in range(6)], stride=2)
        assert len(flows) == 6
        assert {flow.source for flow in flows} == {f"n{i}" for i in range(6)}
        for flow in flows:
            assert flow.source != flow.destination

    def test_cross_traffic_rejects_self_stride(self):
        with pytest.raises(ValueError):
            cross_traffic(["a", "b"], stride=2)

    def test_flow_accounting(self):
        topo = chain_topology(1, FAST)
        constellation = build_constellation(
            topo,
            flows=[FlowSpec(source="n0", destination="n1", messages=25,
                            interval=0.001)],
            horizon=1.0,
        )
        constellation.run(until=1.0)
        assert constellation.datagrams_sent() == 25
        assert constellation.datagrams_delivered() == 25
        log = constellation.logs["n1"]
        assert log.in_order("n0") and log.exactly_once("n0", 25)
        assert constellation.end_to_end_delay().count == 25
