"""SR-HDLC / GBN-HDLC: the conventional ARQ baselines the paper compares against.

Selective-repeat HDLC with SREJ recovery, window checkpointing via the
Poll/Final bits, cumulative RR acknowledgement and ``t_out = R + alpha``
timeout recovery; plus the Go-Back-N variant (REJ) for the Section 1–2
background comparisons.
"""

from .config import HdlcConfig
from .frames import HdlcIFrame, RejFrame, RrFrame, SrejFrame
from .protocol import HdlcEndpoint
from .receiver import HdlcReceiver
from .sender import HdlcOutstanding, HdlcSender
from .window import ReceiverWindow, SenderWindow, in_window, increment, window_offset

__all__ = [
    "HdlcConfig",
    "HdlcEndpoint",
    "HdlcIFrame",
    "HdlcOutstanding",
    "HdlcReceiver",
    "HdlcSender",
    "ReceiverWindow",
    "RejFrame",
    "RrFrame",
    "SenderWindow",
    "SrejFrame",
    "in_window",
    "increment",
    "window_offset",
]
