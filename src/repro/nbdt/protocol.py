"""NBDT registration: the ``"nbdt"`` family's halves and frame dispatch.

Both sides of an NBDT link (multiphase or continuous, per the config)
are :class:`~repro.core.endpoint.BaselineEndpoint`\\ s; :data:`ROUTES`
sends I-frames and report requests to the receiver half, reports to the
sender half.
"""

from __future__ import annotations

from ..core.endpoint import register_baseline
from .frames import NbdtIFrame, NbdtReport, NbdtReportRequest
from .receiver import NbdtReceiver
from .sender import NbdtSender

__all__ = ["ROUTES"]

ROUTES = {
    NbdtIFrame: ("receiver", "on_iframe"),
    NbdtReport: ("sender", "on_report"),
    NbdtReportRequest: ("receiver", "on_report_request"),
}

register_baseline("nbdt", NbdtSender, NbdtReceiver, ROUTES)
