"""Declarative multi-link topologies: nodes, links, presets.

A :class:`Topology` is pure data — node specs plus
:class:`~repro.topology.spec.LinkSpec` values — with no simulator
attached.  The :class:`~repro.topology.builder.ConstellationBuilder`
materialises one into a running constellation; everything here can be
constructed, inspected, and serialised without touching an engine.

Nodes come in two flavours:

- **explicit** nodes (:class:`NodeSpec` with no satellite) — fixed
  stations, test fixtures, anything whose link physics the
  :class:`LinkSpec` states directly;
- **satellite** nodes (:class:`NodeSpec` wrapping a
  :class:`~repro.simulator.orbit.Satellite`) — when *both* ends of a
  link are satellites and the spec doesn't pin the delay, the builder
  derives a time-varying propagation delay from the orbital geometry.

Presets cover the shapes the paper's environment implies: a ``ring``
(one orbital plane, each satellite linked to its neighbours), a
``chain`` (a store-and-forward relay path), and a ``grid`` (several
planes with intra-plane and cross-plane ISLs).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Iterator, Optional, Sequence

from ..simulator.orbit import Satellite
from .spec import LinkSpec

__all__ = [
    "NodeSpec",
    "Topology",
    "ring_topology",
    "chain_topology",
    "grid_topology",
]


@dataclass(frozen=True)
class NodeSpec:
    """One node of a topology: a name, optionally pinned to an orbit."""

    name: str
    satellite: Optional[Satellite] = None
    """Orbital geometry for this node; links between two satellite
    nodes inherit a time-varying delay unless their spec pins one."""

    def with_(self, **changes: Any) -> "NodeSpec":
        return replace(self, **changes)


@dataclass(frozen=True)
class Topology:
    """An immutable node/link graph of :class:`LinkSpec` edges."""

    name: str = "topology"
    nodes: tuple[NodeSpec, ...] = ()
    links: tuple[LinkSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self._coerce_nodes(self.nodes)))
        object.__setattr__(self, "links", tuple(self.links))
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate node name(s): {dupes}")
        link_names = [link.name for link in self.links]
        if len(set(link_names)) != len(link_names):
            dupes = sorted({n for n in link_names if link_names.count(n) > 1})
            raise ValueError(f"duplicate link name(s): {dupes}")
        known = set(names)
        for link in self.links:
            for end in (link.a, link.b):
                if end not in known:
                    raise ValueError(
                        f"link {link.name!r} references unknown node {end!r}"
                    )

    @staticmethod
    def _coerce_nodes(nodes: Iterable[Any]) -> Iterator[NodeSpec]:
        for node in nodes:
            if isinstance(node, NodeSpec):
                yield node
            elif isinstance(node, Satellite):
                yield NodeSpec(name=node.name, satellite=node)
            elif isinstance(node, str):
                yield NodeSpec(name=node)
            else:
                raise TypeError(
                    f"node must be a NodeSpec, Satellite, or name, got {node!r}"
                )

    # -- queries ----------------------------------------------------------

    def node(self, name: str) -> NodeSpec:
        for candidate in self.nodes:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no node named {name!r} in topology {self.name!r}")

    def link(self, name: str) -> LinkSpec:
        for candidate in self.links:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no link named {name!r} in topology {self.name!r}")

    def node_names(self) -> list[str]:
        return [node.name for node in self.nodes]

    def adjacency(self) -> dict[str, dict[str, str]]:
        """``{node: {neighbour: link_name}}`` — the exact shape
        :func:`repro.netlayer.shortest_path_routes` consumes."""
        adj: dict[str, dict[str, str]] = {node.name: {} for node in self.nodes}
        for link in self.links:
            adj[link.a][link.b] = link.name
            adj[link.b][link.a] = link.name
        return adj

    def degree(self, name: str) -> int:
        return len(self.adjacency()[name])

    # -- construction helpers --------------------------------------------

    def with_(self, **changes: Any) -> "Topology":
        return replace(self, **changes)

    def map_links(self, transform) -> "Topology":
        """A copy with every link replaced by ``transform(link)`` —
        the bulk-reconfiguration hook (e.g. swap every link's scenario
        or arm monitors everywhere)."""
        return replace(self, links=tuple(transform(link) for link in self.links))

    def describe(self) -> dict[str, Any]:
        """JSON-ish structural summary (for reports and the CLI)."""
        from .spec import as_dict

        return {
            "name": self.name,
            "nodes": [
                {"name": node.name, "satellite": node.satellite is not None}
                for node in self.nodes
            ],
            "links": [as_dict(link) for link in self.links],
        }


def _expand_template(template: LinkSpec, *, name: str, a: str, b: str) -> LinkSpec:
    return template.with_(name=name, a=a, b=b)


def _ring_satellites(
    count: int,
    altitude_km: float,
    inclination_deg: float,
    raan_deg: float = 0.0,
    prefix: str = "sat",
) -> list[Satellite]:
    return [
        Satellite(
            name=f"{prefix}{i}",
            altitude_km=altitude_km,
            inclination_deg=inclination_deg,
            raan_deg=raan_deg,
            phase_deg=360.0 * i / count,
        )
        for i in range(count)
    ]


def ring_topology(
    size: int,
    link: Optional[LinkSpec] = None,
    *,
    name: str = "ring",
    satellites: bool = False,
    altitude_km: float = 1000.0,
    inclination_deg: float = 60.0,
) -> Topology:
    """One orbital plane: ``n0—n1—…—n(size-1)—n0``.

    *link* is the per-edge template; its ``name``/``a``/``b`` are
    rewritten per edge (``l0`` joins ``n0``/``n1``, …).  With
    ``satellites=True`` the nodes are spaced evenly around a circular
    orbit and inter-satellite delays can come from the geometry.
    """
    if size < 3:
        raise ValueError("a ring needs at least 3 nodes")
    template = link or LinkSpec()
    if satellites:
        nodes: Sequence[Any] = _ring_satellites(
            size, altitude_km, inclination_deg, prefix="n"
        )
    else:
        nodes = [f"n{i}" for i in range(size)]
    links = [
        _expand_template(template, name=f"l{i}", a=f"n{i}", b=f"n{(i + 1) % size}")
        for i in range(size)
    ]
    return Topology(name=name, nodes=tuple(nodes), links=tuple(links))


def chain_topology(
    hops: int,
    link: Optional[LinkSpec] = None,
    *,
    name: str = "chain",
) -> Topology:
    """A relay path ``n0—n1—…—n(hops)`` with *hops* links — the
    store-and-forward pipeline shape."""
    if hops < 1:
        raise ValueError("a chain needs at least 1 hop")
    template = link or LinkSpec()
    nodes = [f"n{i}" for i in range(hops + 1)]
    links = [
        _expand_template(template, name=f"l{i}", a=f"n{i}", b=f"n{i + 1}")
        for i in range(hops)
    ]
    return Topology(name=name, nodes=tuple(nodes), links=tuple(links))


def grid_topology(
    planes: int,
    per_plane: int,
    link: Optional[LinkSpec] = None,
    *,
    name: str = "grid",
    satellites: bool = False,
    altitude_km: float = 1000.0,
    inclination_deg: float = 60.0,
    wrap_planes: bool = True,
) -> Topology:
    """A Walker-style grid: *planes* rings of *per_plane* satellites.

    Node ``p{p}s{s}`` is satellite *s* of plane *p*.  Intra-plane links
    close each ring; cross-plane links join same-index satellites of
    neighbouring planes (wrapping the last plane to the first when
    *wrap_planes* and ``planes > 2``).  Link names: ``p{p}.l{s}``
    intra-plane, ``x{p}.l{s}`` cross-plane.
    """
    if planes < 1 or per_plane < 3:
        raise ValueError("a grid needs >= 1 plane of >= 3 satellites")
    template = link or LinkSpec()
    nodes: list[Any] = []
    for p in range(planes):
        if satellites:
            nodes.extend(
                _ring_satellites(
                    per_plane, altitude_km, inclination_deg,
                    raan_deg=180.0 * p / planes, prefix=f"p{p}s",
                )
            )
        else:
            nodes.extend(f"p{p}s{s}" for s in range(per_plane))
    links: list[LinkSpec] = []
    for p in range(planes):
        for s in range(per_plane):
            links.append(
                _expand_template(
                    template, name=f"p{p}.l{s}",
                    a=f"p{p}s{s}", b=f"p{p}s{(s + 1) % per_plane}",
                )
            )
    cross_pairs = planes if (wrap_planes and planes > 2) else planes - 1
    for p in range(cross_pairs):
        q = (p + 1) % planes
        for s in range(per_plane):
            links.append(
                _expand_template(
                    template, name=f"x{p}.l{s}", a=f"p{p}s{s}", b=f"p{q}s{s}",
                )
            )
    return Topology(name=name, nodes=tuple(nodes), links=tuple(links))
