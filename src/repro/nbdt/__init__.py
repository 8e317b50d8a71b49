"""NBDT: the NADIR Bulk Data Transfer baseline (paper §1, reference [7]).

Absolute 32-bit frame numbering, completely selective acknowledgement
reports, and the two improved modes the paper describes: multiphase
(alternating transmission/retransmission phases) and continuous (mixed).
Implemented to make the paper's critiques measurable: unbounded sender
memory until positive acknowledgement, and no reliability machinery.
"""

from .config import NbdtConfig
from .frames import NbdtIFrame, NbdtReport, NbdtReportRequest
from .receiver import NbdtReceiver
from .sender import NbdtSender

__all__ = [
    "NbdtConfig",
    "NbdtIFrame",
    "NbdtReceiver",
    "NbdtReport",
    "NbdtReportRequest",
    "NbdtSender",
]
