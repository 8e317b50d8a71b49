"""Store-and-forward routing over a constellation graph.

Each satellite is a store-and-forward DCE (Section 2.1): datagrams
arriving over one link are placed straight into the sending buffer of
the next hop's link — the receiving buffer holds nothing beyond
processing slack, which is exactly the property the relaxed in-sequence
constraint buys (Section 3.3: "After processing the I-frame, the
I-frame is moved to the sending buffer of the next hop").

Routing is static shortest-path over the topology known at setup —
adequate for link-lifetime-scale experiments; routes are recomputed by
the experiment harness when the constellation geometry changes.  A
node's table is one BFS and one entry per reachable destination, so it
is built when the node first has something to forward, not before: a
node that only ever terminates traffic, or carries none, never pays it.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Hashable, Optional, Union

from ..simulator.engine import Simulator
from ..simulator.node import Node
from .packet import Datagram
from .resequencer import Resequencer

__all__ = ["shortest_path_routes", "ForwardingNetworkLayer"]

Routes = dict[Hashable, str]
"""``destination -> link_name``: one node's first-hop table."""


def shortest_path_routes(
    topology: dict[Hashable, dict[Hashable, str]],
    origin: Hashable,
    exclude_links: Optional[set[str]] = None,
) -> Routes:
    """First-hop routing table for *origin* by breadth-first search.

    *topology* maps ``node -> {neighbor: link_name}``.  Returns
    ``destination -> link_name`` for every reachable destination.
    Links named in *exclude_links* are treated as absent (failed links
    reported by the DLC layer).
    """
    if origin not in topology:
        raise KeyError(f"origin {origin!r} not in topology")
    excluded = exclude_links or set()
    routes: Routes = {}
    first_hop: dict[Hashable, tuple[Hashable, str]] = {}
    visited = {origin}
    frontier: deque[Hashable] = deque([origin])
    while frontier:
        node = frontier.popleft()
        for neighbor, link_name in topology[node].items():
            if neighbor in visited or link_name in excluded:
                continue
            visited.add(neighbor)
            if node == origin:
                first_hop[neighbor] = (neighbor, link_name)
            else:
                first_hop[neighbor] = first_hop[node]
            frontier.append(neighbor)
    for destination, (_, link_name) in first_hop.items():
        routes[destination] = link_name
    return routes


class ForwardingNetworkLayer:
    """Network layer for one node: local delivery or next-hop forwarding.

    Local traffic goes through a :class:`Resequencer` (ordering + dedup)
    and then the user callback.  Transit traffic is queued on the
    next hop's DLC; if that DLC's sending buffer refuses (finite
    capacity), the datagram waits in a retry queue — store-and-forward
    semantics, nothing is dropped at the network layer.

    *routes* is this node's first-hop table, or a zero-argument
    callable returning it (``partial(shortest_path_routes, adjacency,
    address)``), called once, at the first route lookup.  A table
    passed as a dict is kept by reference: entries the caller adds
    later are the ones consulted.
    """

    def __init__(
        self,
        sim: Simulator,
        address: Hashable,
        routes: Union[Routes, Callable[[], Routes], None] = None,
        deliver: Optional[Callable[[Datagram], None]] = None,
        retry_interval: float = 0.001,
        topology: Optional[dict[Hashable, dict[Hashable, str]]] = None,
    ) -> None:
        if retry_interval <= 0:
            raise ValueError("retry_interval must be positive")
        self.sim = sim
        self.address = address
        # ``is not None``: an empty table is still the caller's table.
        self._routes = routes if routes is not None else {}
        self.tables_built = 0
        """Times this node materialised a routing table: 0 until it
        first looks a route up, then 1 plus one per declared failure it
        routed around — the build cost a constellation actually paid."""
        self.resequencer = Resequencer(deliver=deliver)
        self.retry_interval = retry_interval
        self.topology = topology
        """When given, a declared link failure triggers rerouting: routes
        are recomputed over the topology minus failed links, and the
        failed DLC's retained frames are re-injected over the new paths —
        the network-layer half of the paper's zero-loss story ("once the
        sender determines a link failure has occurred it ... informs the
        network layer")."""
        self.node: Optional[Node] = None
        self._retry_queue: deque[Datagram] = deque()
        self._retry_armed = False
        self.forwarded = 0
        self.rerouted = 0
        self.link_failures: list[str] = []
        self.failed_links: set[str] = set()

    def bind(self, node: Node) -> None:
        """Attach to the node whose links this layer drives."""
        self.node = node

    # -- Node's NetworkLayer protocol ------------------------------------

    def on_packet(self, packet: Datagram, from_link: str) -> None:
        if packet.destination == self.address:
            self.resequencer.push(packet)
        else:
            self._forward(packet)

    def on_link_failure(self, link_name: str) -> None:
        self.link_failures.append(link_name)
        if self.topology is None:
            return  # static routing: record only
        self.failed_links.add(link_name)
        # Invalidate: the next lookup recomputes over what is then
        # known to be down (the set is live, so a second failure before
        # that lookup costs no second BFS).
        self._routes = partial(
            shortest_path_routes, self.topology, self.address, self.failed_links
        )
        # Reclaim everything the failed DLC still holds and push it over
        # the recomputed routes.  Duplicates are possible (frames the
        # remote end received but never acknowledged before the cut);
        # the destination resequencer removes them — loss is not.
        if self.node is None:
            return
        endpoint = self.node.endpoints.get(link_name)
        sender = getattr(endpoint, "sender", None)
        if sender is None or not hasattr(sender, "held_payloads"):
            return
        for packet in sender.held_payloads():
            if not isinstance(packet, Datagram):
                continue
            self.rerouted += 1
            if packet.destination == self.address:
                self.resequencer.push(packet)
            elif self._next_hop(packet.destination) is not None:
                self._forward(packet)
            else:
                # Currently unreachable: park in the retry queue in case
                # a later topology update restores a path.
                self._retry_queue.append(packet)
                self._arm_retry()

    # -- origination ---------------------------------------------------------

    def send(self, packet: Datagram) -> None:
        """Inject a locally originated datagram."""
        if packet.destination == self.address:
            self.resequencer.push(packet)
        else:
            self._forward(packet)

    # -- forwarding machinery ----------------------------------------------------

    @property
    def routes(self) -> Routes:
        """This node's first-hop table, materialised at first access."""
        routes = self._routes
        if callable(routes):
            routes = self._routes = routes()
            self.tables_built += 1
        return routes

    @routes.setter
    def routes(self, routes: Union[Routes, Callable[[], Routes]]) -> None:
        self._routes = routes

    def _next_hop(self, destination: Hashable) -> Optional[str]:
        """The link toward *destination*, or ``None`` if unreachable."""
        return self.routes.get(destination)

    def _forward(self, packet: Datagram) -> None:
        if self.node is None:
            raise RuntimeError("network layer not bound to a node")
        link_name = self._next_hop(packet.destination)
        if link_name is None:
            raise KeyError(
                f"node {self.address!r} has no route to {packet.destination!r}"
            )
        if self.node.send(packet, via_link=link_name):
            self.forwarded += 1
        else:
            self._retry_queue.append(packet)
            self._arm_retry()

    def _arm_retry(self) -> None:
        if not self._retry_armed:
            self._retry_armed = True
            self.sim.schedule(self.retry_interval, self._retry)

    def _retry(self) -> None:
        self._retry_armed = False
        attempts = len(self._retry_queue)
        for _ in range(attempts):
            packet = self._retry_queue.popleft()
            link_name = self._next_hop(packet.destination)
            if link_name is None:
                # Still unreachable after failures; keep parked.
                self._retry_queue.append(packet)
                continue
            assert self.node is not None
            if self.node.send(packet, via_link=link_name):
                self.forwarded += 1
            else:
                self._retry_queue.append(packet)
        if self._retry_queue:
            self._arm_retry()

    @property
    def retry_backlog(self) -> int:
        return len(self._retry_queue)

    def __repr__(self) -> str:
        return f"<ForwardingNetworkLayer {self.address!r} forwarded={self.forwarded}>"
