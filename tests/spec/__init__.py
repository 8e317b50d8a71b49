"""An executable specification of LAMS-DLC and its baselines, the oracle
for the shipped code.  The shipped code shares heap entries, decides runs
of frames at once, keeps its windows in columns and applies arrivals
lazily.  This is the paper's procedures written plainly: one heap entry
per event (:mod:`.engine`), a FIFO channel drawing each frame's verdict
from the shipped error models on the same named random streams
(:mod:`.channel`), a sender whose window is a dict keyed by sequence
number (:mod:`.sender`), a receiver with a dict error log and one
``on_iframe`` per arrival (:mod:`.receiver`), endpoints (:mod:`.pair`),
and Section 4's SR-HDLC/GBN (:mod:`.hdlc`) and NBDT (:mod:`.nbdt`)
senders, a dict buffer keyed by a non-circular number.  Given the same
configuration, error models and seed, a shipped link at
``batch_window=1`` and this one agree in every delivery, frame, counter
and gauge, to the bit; the senders alone agree at any window.  It imports
from ``repro`` only what it does not judge (``tests/test_spec_boundary.py``).
"""

from .channel import Channel
from .engine import Engine, Periodic, Timer
from .pair import Endpoint, make_pair
from .receiver import Gauge, Receiver
from .sender import Flow, Job, Outstanding, Sender

__all__ = ["Channel", "Endpoint", "Engine", "Flow", "Gauge", "Job", "Outstanding",
           "Periodic", "Receiver", "Sender", "Timer", "make_pair"]
