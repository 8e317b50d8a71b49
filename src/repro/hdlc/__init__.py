"""SR-HDLC / GBN-HDLC: the conventional ARQ baselines the paper compares against.

Selective-repeat HDLC with SREJ recovery, window checkpointing via the
Poll/Final bits, cumulative RR acknowledgement and ``t_out = R + alpha``
timeout recovery; plus the Go-Back-N variant (REJ) for the Section 1–2
background comparisons.
"""

from .config import HdlcConfig
from .frames import HdlcIFrame, RejFrame, RrFrame, SrejFrame
from .receiver import HdlcReceiver
from .sender import HdlcSender
from .window import ReceiverWindow, in_window, increment, window_offset

__all__ = [
    "HdlcConfig",
    "HdlcIFrame",
    "HdlcReceiver",
    "HdlcSender",
    "ReceiverWindow",
    "RejFrame",
    "RrFrame",
    "SrejFrame",
    "in_window",
    "increment",
    "window_offset",
]
