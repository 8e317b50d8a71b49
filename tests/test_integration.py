"""Cross-module integration tests: multi-hop store-and-forward, the
model-vs-simulation agreement bands, and seed-randomised protocol
properties."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, HealthCheck
from hypothesis import strategies as st

from repro.analysis import lams as lams_model
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
from repro.workloads import build_simulation, preset
from repro.workloads.generators import FiniteBatch


def build_chain(sim, hops=2, iframe_ber=1e-6, seed=1):
    """A linear constellation: node0 — node1 — ... — node<hops>.

    Every link runs LAMS-DLC; every node store-and-forwards toward the
    last node.  Returns (services, delivery_log, nodes).
    """
    names = [f"n{i}" for i in range(hops + 1)]
    topology: dict[str, dict[str, str]] = {name: {} for name in names}
    links = []
    for i in range(hops):
        link_name = f"l{i}"
        topology[names[i]][names[i + 1]] = link_name
        topology[names[i + 1]][names[i]] = link_name

    destination = names[-1]
    log = DeliveryLog(sim)
    layers = {}
    nodes = {}
    for name in names:
        routes = shortest_path_routes(topology, name)
        deliver = log if name == destination else None
        layer = ForwardingNetworkLayer(sim, address=name, routes=routes, deliver=deliver)
        node = Node(sim, name, network_layer=layer)
        layer.bind(node)
        layers[name] = layer
        nodes[name] = node

    config = LamsDlcConfig(checkpoint_interval=0.005, cumulation_depth=3)
    for i in range(hops):
        link = FullDuplexLink(
            sim, bit_rate=100e6, propagation_delay=0.010, name=f"l{i}",
            iframe_errors=BernoulliChannel(iframe_ber),
            cframe_errors=BernoulliChannel(iframe_ber / 100),
            streams=StreamRegistry(seed=seed + i),
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
        links.append(link)

    services = {name: DatagramService(sim, layers[name]) for name in names}
    return services, log, nodes


class TestMultiHop:
    def test_two_hop_exactly_once_in_order(self):
        sim = Simulator()
        services, log, nodes = build_chain(sim, hops=2, iframe_ber=2e-6, seed=3)
        source = services["n0"]
        for i in range(300):
            source.send("n2", data=i)
        sim.run(until=20.0)
        assert log.exactly_once("n0", 300)
        assert log.in_order("n0")

    def test_three_hop_with_errors(self):
        sim = Simulator()
        services, log, nodes = build_chain(sim, hops=3, iframe_ber=5e-6, seed=4)
        for i in range(200):
            services["n0"].send("n3", data=i)
        sim.run(until=30.0)
        assert log.exactly_once("n0", 200)

    def test_end_to_end_delay_scales_with_hops(self):
        delays = {}
        for hops in (1, 3):
            sim = Simulator()
            services, log, nodes = build_chain(sim, hops=hops, iframe_ber=0.0, seed=5)
            for i in range(50):
                services["n0"].send(f"n{hops}", data=i)
            sim.run(until=20.0)
            assert len(log) == 50
            delays[hops] = log.mean_delay()
        # Three hops cost roughly three times one hop's propagation.
        assert delays[3] > 2.0 * delays[1]

    def test_bidirectional_flows(self):
        sim = Simulator()
        services, log, nodes = build_chain(sim, hops=2, iframe_ber=1e-6, seed=6)
        # Forward flow to n2 (logged) plus reverse flow n2 -> n0.
        reverse_log = DeliveryLog(sim)
        nodes["n0"].network_layer.resequencer.deliver = reverse_log
        for i in range(100):
            services["n0"].send("n2", data=i)
            services["n2"].send("n0", data=i)
        sim.run(until=20.0)
        assert log.exactly_once("n0", 100)
        assert reverse_log.exactly_once("n2", 100)


class TestModelAgreement:
    def test_lams_holding_time_within_band(self):
        scenario = preset("noisy")
        setup = build_simulation(scenario, "lams", seed=21)
        FiniteBatch(setup.sim, setup.endpoint_a, count=5000).start()
        setup.run(until=10.0)
        measured = setup.endpoint_a.sender.mean_holding_time
        predicted = lams_model.holding_time(scenario.model_parameters())
        assert measured == pytest.approx(predicted, rel=0.15)

    def test_lams_buffer_within_band(self):
        from repro.experiments.runner import measure_saturated

        scenario = preset("nominal")
        result = measure_saturated(scenario, "lams", duration=2.0, seed=22)
        predicted = lams_model.transparent_buffer_size(scenario.model_parameters())
        # The saturated source adds its refill chunk on top of B_LAMS.
        assert result["sendbuf_avg"] < 3.0 * predicted
        assert result["sendbuf_avg"] > 0.5 * predicted

    def test_lams_efficiency_beats_hdlc_in_simulation(self):
        from repro.experiments.runner import measure_saturated

        scenario = preset("nominal")
        lams = measure_saturated(scenario, "lams", duration=1.5, seed=23)
        hdlc = measure_saturated(scenario, "hdlc", duration=1.5, seed=23)
        assert lams["efficiency"] > 5.0 * hdlc["efficiency"]

    def test_retransmission_rate_matches_p_f(self):
        scenario = preset("noisy")  # P_F ≈ 0.079
        setup = build_simulation(scenario, "lams", seed=24)
        FiniteBatch(setup.sim, setup.endpoint_a, count=5000).start()
        setup.run(until=10.0)
        sender = setup.endpoint_a.sender
        observed = sender.retransmissions / sender.iframes_sent
        expected = scenario.model_parameters().p_f
        assert observed == pytest.approx(expected, rel=0.2)


class TestSeededProperties:
    """Hypothesis drives seeds and error rates; the protocol's contract
    (zero loss, exactly-once absent enforced recovery) must hold for all."""

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        iframe_ber=st.sampled_from([0.0, 1e-6, 1e-5, 3e-5]),
        cframe_ber=st.sampled_from([0.0, 1e-6, 1e-4]),
    )
    def test_lams_exactly_once_for_any_seed(self, seed, iframe_ber, cframe_ber):
        sim = Simulator()
        link = FullDuplexLink(
            sim, bit_rate=100e6, propagation_delay=0.010, name="p",
            iframe_errors=BernoulliChannel(iframe_ber),
            cframe_errors=BernoulliChannel(cframe_ber),
            streams=StreamRegistry(seed=seed),
        )
        config = LamsDlcConfig(checkpoint_interval=0.005, cumulation_depth=3)
        delivered = []
        a, b = make_endpoint_pair("lams", sim, link, config, deliver_b=delivered.append)
        a.start(send=True, receive=False)
        b.start(send=False, receive=True)
        n = 400
        for i in range(n):
            assert a.accept(("pkt", i))
        sim.run(until=30.0)
        ids = [p[1] for p in delivered]
        assert sorted(set(ids)) == list(range(n)), "zero-loss violated"
        if a.sender.request_naks_sent == 0:
            assert len(ids) == len(set(ids)), "duplicate without enforced recovery"

    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        outage_start=st.floats(min_value=0.005, max_value=0.05),
        outage_len=st.floats(min_value=0.001, max_value=0.02),
    )
    def test_lams_zero_loss_across_outages(self, seed, outage_start, outage_len):
        sim = Simulator()
        link = FullDuplexLink(
            sim, bit_rate=100e6, propagation_delay=0.010, name="p",
            iframe_errors=BernoulliChannel(1e-6),
            cframe_errors=BernoulliChannel(1e-7),
            streams=StreamRegistry(seed=seed),
        )
        config = LamsDlcConfig(checkpoint_interval=0.005, cumulation_depth=3)
        delivered = []
        a, b = make_endpoint_pair("lams", sim, link, config, deliver_b=delivered.append)
        a.start(send=True, receive=False)
        b.start(send=False, receive=True)
        n = 300
        for i in range(n):
            assert a.accept(("pkt", i))
        sim.schedule_at(outage_start, link.down)
        sim.schedule_at(outage_start + outage_len, link.up)
        sim.run(until=30.0)
        delivered_ids = {p[1] for p in delivered}
        held_ids = {p[1] for p in a.sender.held_payloads()}
        assert delivered_ids | held_ids == set(range(n)), "frames vanished"


class TestFullDuplexData:
    def test_simultaneous_flows_share_each_channel(self):
        """Both endpoints send data at once: I-frames, checkpoints, and
        probes share each simplex channel; both flows arrive exactly
        once despite errors on both paths."""
        sim = Simulator()
        link = FullDuplexLink(
            sim, bit_rate=100e6, propagation_delay=0.010, name="dx",
            iframe_errors=BernoulliChannel(5e-6),
            cframe_errors=BernoulliChannel(1e-6),
            streams=StreamRegistry(seed=77),
        )
        config = LamsDlcConfig(checkpoint_interval=0.005, cumulation_depth=3)
        to_b, to_a = [], []
        a, b = make_endpoint_pair(
            "lams", sim, link, config, deliver_a=to_a.append, deliver_b=to_b.append
        )
        a.start()
        b.start()
        n = 1500
        for i in range(n):
            assert a.accept(("a2b", i))
            assert b.accept(("b2a", i))
        sim.run(until=20.0)
        assert sorted(p[1] for p in to_b) == list(range(n))
        assert sorted(p[1] for p in to_a) == list(range(n))
        assert not a.sender.failed and not b.sender.failed
