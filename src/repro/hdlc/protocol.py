"""HDLC registration: the ``"hdlc"`` family's halves and frame dispatch.

Both sides of an SR-HDLC (or GBN, per the config) link are
:class:`~repro.core.endpoint.BaselineEndpoint`\\ s built by the same
:func:`repro.api.make_endpoint_pair` call as a LAMS-DLC pair, so
experiments can be written once and parameterised by protocol.
:data:`ROUTES` is the dispatch:

====================  ==========================================
frame type            handled by
====================  ==========================================
``HdlcIFrame``        receiver half
``RrFrame``           sender half
``SrejFrame``         sender half
``RejFrame``          sender half
====================  ==========================================
"""

from __future__ import annotations

from ..core.endpoint import register_baseline
from .frames import HdlcIFrame, RejFrame, RrFrame, SrejFrame
from .receiver import HdlcReceiver
from .sender import HdlcSender

__all__ = ["ROUTES"]

ROUTES = {
    HdlcIFrame: ("receiver", "on_iframe"),
    RrFrame: ("sender", "on_rr"),
    SrejFrame: ("sender", "on_srej"),
    RejFrame: ("sender", "on_rej"),
}

register_baseline("hdlc", HdlcSender, HdlcReceiver, ROUTES)
