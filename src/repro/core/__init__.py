"""LAMS-DLC: the paper's NAK-based ARQ data-link protocol.

Public surface: :class:`LamsDlcConfig` (all protocol knobs),
:class:`LamsDlcEndpoint` (executable protocol; pairs are built with
:func:`repro.api.make_endpoint_pair`), and the building blocks (frames,
sequence space, send buffer, Stop-Go flow control) for anyone composing
a custom stack.
"""

from .config import LamsDlcConfig
from .endpoint import (
    Endpoint,
    EndpointPair,
    available_protocols,
    register_pair_factory,
    resolve_protocol,
)
from .flowcontrol import StopGoRateController
from .frames import CheckpointFrame, IFrame, RequestNakFrame
from .protocol import LamsDlcEndpoint
from .receiver import ErrorEntry, LamsReceiver
from .sendbuf import OutstandingFrame, SendBuffer
from .sender import LamsSender, PendingRetransmission
from .seqspace import (
    SequenceExhausted,
    SequenceSpace,
    forward_distance,
)

__all__ = [
    "CheckpointFrame",
    "Endpoint",
    "EndpointPair",
    "ErrorEntry",
    "IFrame",
    "LamsDlcConfig",
    "LamsDlcEndpoint",
    "LamsReceiver",
    "LamsSender",
    "OutstandingFrame",
    "PendingRetransmission",
    "RequestNakFrame",
    "SendBuffer",
    "SequenceExhausted",
    "SequenceSpace",
    "StopGoRateController",
    "available_protocols",
    "forward_distance",
    "register_pair_factory",
    "resolve_protocol",
]
