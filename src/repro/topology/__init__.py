"""Constellation-scale topology layer.

Declarative multi-link simulation: describe a constellation as a
:class:`Topology` of :class:`NodeSpec` nodes and :class:`LinkSpec`
links, hand it to a :class:`ConstellationBuilder`, and run N satellites
with M concurrent LAMS-DLC links — relay forwarding, aggregate flows,
per-link and network-wide statistics — inside ONE simulator engine.

Quick tour (see docs/TOPOLOGY.md for the full story)::

    from repro.topology import LinkSpec, build_constellation, ring_topology
    from repro.topology import cross_traffic

    topo = ring_topology(6, LinkSpec(scenario="nominal"))
    constellation = build_constellation(
        topo, master_seed=7,
        flows=cross_traffic(topo.node_names(), stride=2, messages=50),
        horizon=5.0,
    )
    constellation.run(until=5.0)
    print(constellation.network_rollup())

The spec layer (:class:`LinkSpec` / :class:`EndpointSpec`,
:func:`build_link`, :func:`instantiate_pair`) is also the construction
path behind :func:`repro.api.build_simulation` and
``LinkScenario.build_link`` — a one-link spec is just the degenerate
case.
"""

from .builder import (
    Constellation,
    ConstellationBuilder,
    LinkRuntime,
    build_constellation,
)
from .flows import FlowDriver, FlowSpec, cross_traffic
from .graph import (
    NodeSpec,
    Topology,
    chain_topology,
    grid_topology,
    ring_topology,
)
from .spec import EndpointSpec, LinkSpec, build_link, instantiate_pair
from .stats import LinkStats, network_rollup

__all__ = [
    "Constellation",
    "ConstellationBuilder",
    "EndpointSpec",
    "FlowDriver",
    "FlowSpec",
    "LinkRuntime",
    "LinkSpec",
    "LinkStats",
    "NodeSpec",
    "Topology",
    "build_constellation",
    "build_link",
    "chain_topology",
    "cross_traffic",
    "grid_topology",
    "instantiate_pair",
    "network_rollup",
    "ring_topology",
]
