"""Discrete-event simulation substrate for the LAMS-DLC reproduction.

Built from scratch (no SimPy dependency): a callback-and-timer event
engine, deterministic named RNG streams, channel error models (random
and Gilbert–Elliott burst), full-duplex links with serialization and
time-varying propagation, LEO orbital geometry, and tracing/statistics.
"""

from .engine import Simulator, SimulationError, Timer
from .errormodel import (
    BernoulliChannel,
    ErrorModel,
    GilbertElliottChannel,
    PerfectChannel,
    frame_error_probability,
)
from .channels import (
    OrbitCoupledChannel,
    RecordingChannel,
    TraceReplayChannel,
    load_trace,
    replay_trace,
    synthesize_trace,
    write_trace,
)
from .link import LIGHT_SPEED_KM_S, FullDuplexLink, SimplexChannel
from .node import Node, PacketSink
from .orbit import (
    EARTH_RADIUS_KM,
    IsolatedLinkGeometry,
    Satellite,
    VisibilityWindow,
    link_distance_km,
    rtt_statistics,
    visibility_windows,
)
from .rng import StreamRegistry, derive_seed
from .trace import Counter, StreamingSummary, TimeWeightedStat, Tracer, TraceRecord

__all__ = [
    "BernoulliChannel",
    "Counter",
    "EARTH_RADIUS_KM",
    "ErrorModel",
    "FullDuplexLink",
    "GilbertElliottChannel",
    "IsolatedLinkGeometry",
    "LIGHT_SPEED_KM_S",
    "Node",
    "OrbitCoupledChannel",
    "PacketSink",
    "PerfectChannel",
    "RecordingChannel",
    "Satellite",
    "SimplexChannel",
    "SimulationError",
    "Simulator",
    "StreamRegistry",
    "StreamingSummary",
    "TimeWeightedStat",
    "Timer",
    "TraceRecord",
    "TraceReplayChannel",
    "Tracer",
    "VisibilityWindow",
    "derive_seed",
    "frame_error_probability",
    "link_distance_km",
    "load_trace",
    "replay_trace",
    "rtt_statistics",
    "synthesize_trace",
    "visibility_windows",
    "write_trace",
]
