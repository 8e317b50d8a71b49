"""Materialise a :class:`~repro.topology.graph.Topology` into one engine.

The :class:`ConstellationBuilder` turns declarative specs into a running
:class:`Constellation`: every node becomes a store-and-forward
:class:`~repro.simulator.node.Node` with a
:class:`~repro.netlayer.ForwardingNetworkLayer` (BFS shortest-path
routes over the topology's adjacency), every
:class:`~repro.topology.spec.LinkSpec` becomes a live link plus a
started protocol endpoint pair, and every
:class:`~repro.topology.flows.FlowSpec` becomes a paced datagram flow —
all sharing ONE :class:`~repro.simulator.engine.Simulator`, which is
what makes M concurrent LAMS-DLC links one experiment instead of M.

Determinism contract: construction touches RNG state only through
per-link :class:`~repro.simulator.rng.StreamRegistry` instances (seeded
from the link spec / master seed) and a per-flow stream family, and the
builder instantiates nodes, then links (spec order, endpoint A started
before B), then flows — so two builds from equal topology + master seed
schedule an identical event sequence and two runs produce identical
rollups.  Perturbing one link (its fault plan, its traffic) cannot
shift another link's draws: stream isolation is per link name.
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Sequence

from ..core.endpoint import resolve_protocol
from ..netlayer.datagram import DatagramService, DeliveryLog
from ..netlayer.forwarding import ForwardingNetworkLayer, shortest_path_routes
from ..simulator.engine import Simulator
from ..simulator.node import Node
from ..simulator.orbit import IsolatedLinkGeometry
from ..simulator.rng import StreamRegistry, derive_seed
from ..simulator.trace import StreamingSummary, Tracer
from .flows import FlowDriver, FlowSpec
from .graph import Topology
from .spec import LinkSpec, build_link, instantiate_pair
from .stats import LinkStats, network_rollup

__all__ = [
    "LinkRuntime",
    "Constellation",
    "ConstellationBuilder",
    "build_constellation",
]


def _senders_held(a: Any, b: Any) -> int:
    """What the two ends of a link hold: their senders' buffers."""
    return a.sender.occupancy + b.sender.occupancy


def _senders_and_queues_held(a: Any, b: Any) -> int:
    """What the two ends of a LAMS-DLC link hold: their senders' buffers
    and their receive queues."""
    return (a.sender.occupancy + a.receiver.receive_queue_length
            + b.sender.occupancy + b.receiver.receive_queue_length)


class LinkRuntime:
    """One built link: spec, channel pair, endpoints, stats, monitors."""

    __slots__ = ("spec", "link", "endpoint_a", "endpoint_b", "stats",
                 "tracer", "monitors", "_held")

    def __init__(self, spec, link, endpoint_a, endpoint_b, stats,
                 tracer=None, monitors=None) -> None:
        self.spec = spec
        self.link = link
        self.endpoint_a = endpoint_a
        self.endpoint_b = endpoint_b
        self.stats = stats
        self.tracer = tracer
        self.monitors = monitors
        # Resolved once, read at every probe: only the LAMS receiver has
        # a receive queue to count.
        self._held = (_senders_and_queues_held
                      if hasattr(endpoint_a.receiver, "receive_queue_length")
                      else _senders_held)

    def buffered_payloads(self) -> int:
        """Protocol payloads currently held at either end (sender
        buffers + receiver queues) — this link's live state footprint."""
        return self._held(self.endpoint_a, self.endpoint_b)

    def __repr__(self) -> str:
        return f"<LinkRuntime {self.spec.name} {self.spec.a}--{self.spec.b}>"


class Constellation:
    """A built, running multi-link simulation: the handle E24, the CLI,
    and the benchmark all drive."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        *,
        master_seed: int,
        nodes: Dict[str, Node],
        layers: Dict[str, ForwardingNetworkLayer],
        services: Dict[str, DatagramService],
        logs: Dict[str, DeliveryLog],
        links: Dict[str, LinkRuntime],
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.master_seed = master_seed
        self.nodes = nodes
        self.layers = layers
        self.services = services
        self.logs = logs
        self.links = links
        self.flows: List[FlowDriver] = []
        self.peak_heap = 0
        """High-water mark of the engine's event-queue width, when the
        builder's probe is armed — the engine-scaling axis."""

    # -- traffic ----------------------------------------------------------

    def add_flow(self, spec: FlowSpec, *, streams: Optional[StreamRegistry] = None,
                 horizon: Optional[float] = None) -> FlowDriver:
        """Attach one more flow (the builder uses this for the initial
        set; experiments can add load mid-design)."""
        if streams is None:
            streams = StreamRegistry(
                seed=derive_seed(self.master_seed, f"topology.flow.{spec.name}")
            )
        driver = FlowDriver(
            self.sim, spec, self.services[spec.source],
            streams=streams if spec.poisson else None, horizon=horizon,
        )
        self.flows.append(driver)
        return driver

    # -- execution ---------------------------------------------------------

    def run(self, until: float) -> None:
        self.sim.run(until=until)

    # -- accounting --------------------------------------------------------

    def link_summaries(self) -> List[Dict[str, Any]]:
        """Per-link snapshots, in topology declaration order."""
        now = self.sim.now
        return [
            self.links[spec.name].stats.summary(now)
            for spec in self.topology.links
        ]

    def end_to_end_delay(self) -> StreamingSummary:
        """All delivered datagrams' end-to-end delays, folded in node
        declaration order (deterministic across same-seed runs)."""
        stream = StreamingSummary("e2e_delay")
        for name in self.topology.node_names():
            for delay in self.logs[name].delays:
                stream.push(delay)
        return stream

    def datagrams_delivered(self) -> int:
        return sum(len(self.logs[name]) for name in self.topology.node_names())

    def datagrams_sent(self) -> int:
        return sum(driver.sent for driver in self.flows)

    def network_rollup(self) -> Dict[str, Any]:
        """The whole constellation in one plain dict: summed counters,
        merged per-link delay streams, end-to-end datagram stats, and
        engine-level scale numbers."""
        rollup = network_rollup(
            (self.links[spec.name].stats for spec in self.topology.links),
            now=self.sim.now,
            extra_streams={"e2e_delay": self.end_to_end_delay()},
        )
        rollup["datagrams_sent"] = self.datagrams_sent()
        rollup["datagrams_delivered"] = self.datagrams_delivered()
        rollup["forwarded"] = sum(
            self.layers[name].forwarded for name in self.topology.node_names()
        )
        rollup["retry_backlog"] = sum(
            self.layers[name].retry_backlog for name in self.topology.node_names()
        )
        rollup["events"] = self.sim.event_count
        rollup["peak_heap"] = self.peak_heap
        return rollup

    def finalize_monitors(self) -> List[Any]:
        """Run end-of-run checks on every armed per-link monitor suite;
        returns the suites (inspect ``.violations`` / ``.report()``)."""
        suites = []
        for spec in self.topology.links:
            runtime = self.links[spec.name]
            if runtime.monitors is not None:
                runtime.monitors.finalize(self.sim.now)
                suites.append(runtime.monitors)
        return suites

    # -- probes ------------------------------------------------------------

    def sample_state(self) -> None:
        """One probe tick: per-link buffered-payload peaks + heap width.

        Reads state only — scheduling it cannot perturb protocol
        behaviour, so probed and unprobed runs deliver identically.  It
        reads only active links: a parked one (:mod:`repro.core.idle`)
        holds no payload by the park's own definition.
        """
        heap_width = len(self.sim._heap)
        if heap_width > self.peak_heap:
            self.peak_heap = heap_width
        for runtime in self.links.values():
            if runtime.link.forward._parked is None:
                runtime.stats.observe_buffered(runtime.buffered_payloads())

    def __repr__(self) -> str:
        return (
            f"<Constellation {self.topology.name!r} nodes={len(self.nodes)} "
            f"links={len(self.links)} flows={len(self.flows)}>"
        )


class ConstellationBuilder:
    """Builds a :class:`Constellation` from a :class:`Topology`.

    Parameters
    ----------
    topology:
        The declarative graph to materialise.
    master_seed:
        Seeds every link (via ``LinkSpec.resolve_seed``) and every
        Poisson flow; the single knob a replication sweep varies.
    dynamic_routing:
        Give each network layer the full adjacency so a declared link
        failure triggers rerouting and payload reclamation (the
        zero-loss story); static routing records failures only.
    probe_interval:
        Seconds between state probes (per-link buffered-payload peaks,
        engine heap width); ``None`` disables probing.
    monitors:
        Arm the invariant suite on every LAMS link, overriding each
        spec's ``monitors`` flag.  Monitors assume one-way (A sends)
        link usage; on relay links carrying bidirectional transit
        traffic, expect ordering monitors to be uninformative.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        master_seed: int = 0,
        dynamic_routing: bool = False,
        retry_interval: float = 0.001,
        probe_interval: Optional[float] = None,
        monitors: Optional[bool] = None,
    ) -> None:
        self.topology = topology
        self.master_seed = master_seed
        self.dynamic_routing = dynamic_routing
        self.retry_interval = retry_interval
        self.probe_interval = probe_interval
        self.monitors = monitors

    def build(
        self,
        sim: Optional[Simulator] = None,
        flows: Sequence[FlowSpec] = (),
        horizon: Optional[float] = None,
    ) -> Constellation:
        """Instantiate everything on one engine; endpoints are started.

        *flows* are attached in order after all links exist; *horizon*
        bounds unbounded flows and the probe schedule.
        """
        sim = sim or Simulator()
        adjacency = self.topology.adjacency()

        # 1. Nodes: delivery log + forwarding layer + node, in
        #    declaration order.  A route table is a pure function of the
        #    adjacency, so each layer gets the call that computes its
        #    own and makes it when it first forwards: all tables up
        #    front is one BFS per node, quadratic in the ring.
        logs: Dict[str, DeliveryLog] = {}
        layers: Dict[str, ForwardingNetworkLayer] = {}
        nodes: Dict[str, Node] = {}
        for node_spec in self.topology.nodes:
            name = node_spec.name
            logs[name] = DeliveryLog(sim)
            layer = ForwardingNetworkLayer(
                sim, address=name,
                routes=partial(shortest_path_routes, adjacency, name),
                deliver=logs[name],
                retry_interval=self.retry_interval,
                topology=adjacency if self.dynamic_routing else None,
            )
            node = Node(sim, name, network_layer=layer)
            layer.bind(node)
            nodes[name], layers[name] = node, layer

        # 2. Links, in declaration order: build channel, wire endpoints
        #    into the two nodes, start A then B.  This exact sequence is
        #    the determinism contract (and matches the hand-wired
        #    examples frame for frame).
        satellites = {spec.name: spec.satellite for spec in self.topology.nodes}
        links: Dict[str, LinkRuntime] = {}
        for spec in self.topology.links:
            links[spec.name] = self._build_link(spec, sim, nodes, satellites)

        # 3. Services + flows.
        services = {
            name: DatagramService(sim, layers[name])
            for name in self.topology.node_names()
        }
        constellation = Constellation(
            sim, self.topology, master_seed=self.master_seed,
            nodes=nodes, layers=layers, services=services, logs=logs,
            links=links,
        )
        for flow in flows:
            constellation.add_flow(flow, horizon=horizon)

        # 4. State probe (read-only; cannot perturb protocol events).
        if self.probe_interval is not None:
            self._arm_probe(constellation, horizon)
        return constellation

    # -- internals ---------------------------------------------------------

    def _build_link(self, spec: LinkSpec, sim: Simulator,
                    nodes: Dict[str, Node],
                    satellites: Dict[str, Any]) -> LinkRuntime:
        monitored = self.monitors if self.monitors is not None else spec.monitors
        tracer = Tracer() if monitored else None
        node_a, node_b = nodes[spec.a], nodes[spec.b]
        sat_a, sat_b = satellites[spec.a], satellites[spec.b]
        geometry = (
            IsolatedLinkGeometry(sat_a, sat_b)
            if (sat_a is not None and sat_b is not None)
            else None
        )
        orbit_delay = geometry.delay_fn() if geometry is not None else None
        link = build_link(
            spec, sim, master_seed=self.master_seed, tracer=tracer,
            propagation_delay=orbit_delay, geometry=geometry,
        )
        stats = LinkStats(spec.name, link)

        def tap(node: Node, deliver, link_name: str = spec.name):
            def deliver_up(pkt: Any) -> None:
                created = getattr(pkt, "created_at", None)
                stats.record_delivery(
                    None if created is None else sim.now - created
                )
                if deliver is not None:
                    deliver(pkt)
                node.deliver_up(pkt, link_name)
            return deliver_up

        wired = spec.with_(
            endpoint_a=spec.endpoint_a.with_(
                deliver=tap(node_a, spec.endpoint_a.deliver),
                on_failure=spec.endpoint_a.on_failure
                or (lambda ln=spec.name: node_a.report_link_failure(ln)),
            ),
            endpoint_b=spec.endpoint_b.with_(
                deliver=tap(node_b, spec.endpoint_b.deliver),
                on_failure=spec.endpoint_b.on_failure
                or (lambda ln=spec.name: node_b.report_link_failure(ln)),
            ),
        ) if self._lams_family(spec) else spec.with_(
            endpoint_a=spec.endpoint_a.with_(
                deliver=tap(node_a, spec.endpoint_a.deliver)),
            endpoint_b=spec.endpoint_b.with_(
                deliver=tap(node_b, spec.endpoint_b.deliver)),
        )
        a, b = instantiate_pair(wired, sim, link, tracer=tracer)
        a.start(send=spec.endpoint_a.send, receive=spec.endpoint_a.receive)
        b.start(send=spec.endpoint_b.send, receive=spec.endpoint_b.receive)
        node_a.attach_endpoint(spec.name, a)
        node_b.attach_endpoint(spec.name, b)

        suite = None
        if monitored:
            # Lazy import: invariants sit above the topology layer.
            from ..invariants.harness import attach_monitors

            suite = attach_monitors(
                SimpleNamespace(sim=sim, tracer=tracer, endpoint_a=a, endpoint_b=b),
                wired.resolved_scenario(),
                fault_plan=spec.fault_plan,
                context={"topology": self.topology.name, "link": spec.name},
            )
        return LinkRuntime(spec, link, a, b, stats, tracer=tracer, monitors=suite)

    @staticmethod
    def _lams_family(spec: LinkSpec) -> bool:
        return resolve_protocol(spec.protocol)[0] == "lams"

    def _arm_probe(self, constellation: Constellation,
                   horizon: Optional[float]) -> None:
        interval = self.probe_interval
        sim = constellation.sim

        def probe() -> None:
            constellation.sample_state()
            if horizon is not None and sim.now + interval > horizon:
                tick.cancel()

        tick = sim.every(interval, probe)


def build_constellation(
    topology: Topology,
    *,
    sim: Optional[Simulator] = None,
    master_seed: int = 0,
    flows: Sequence[FlowSpec] = (),
    horizon: Optional[float] = None,
    **builder_kwargs: Any,
) -> Constellation:
    """One-call convenience: ``ConstellationBuilder(...).build(...)``."""
    builder = ConstellationBuilder(topology, master_seed=master_seed,
                                   **builder_kwargs)
    return builder.build(sim=sim, flows=flows, horizon=horizon)
