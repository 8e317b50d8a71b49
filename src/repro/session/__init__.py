"""Session layer: continuous service over short-lived link passes.

Implements the paper's link-lifetime story (Section 1): visibility
windows, retargeting/initialisation overhead, per-pass protocol
sessions, and zero-loss carry-over of unresolved traffic between
passes.
"""

from .factories import session_factory
from .manager import LinkPass, LinkSessionManager, PassSchedule

__all__ = [
    "LinkPass",
    "LinkSessionManager",
    "PassSchedule",
    "session_factory",
]
