"""An executable specification of LAMS-DLC and its baselines, the oracle
for the shipped code: the paper's procedures written plainly.  One heap
entry per event (:mod:`.engine`); a FIFO channel drawing each frame's
verdict from the shipped error models on the same named random streams
(:mod:`.channel`); a sender whose window is a dict keyed by sequence
number (:mod:`.sender`); a receiver with a dict error log and one
``on_iframe`` per arrival (:mod:`.receiver`); endpoints (:mod:`.pair`);
Section 4's SR-HDLC/GBN (:mod:`.hdlc`) and NBDT (:mod:`.nbdt`) senders.
The LAMS-DLC parts write every record a traced shipped pair emits to the
engine's ``log``, frame by frame at its instant.  Given the same
configuration, error models and seed, a shipped link and this
one agree in every delivery, frame, counter, gauge and, source by source
(``tests/trace_runs.py::normal``), record.  It imports from ``repro`` only
what it does not judge (``tests/test_spec_boundary.py``).
"""

from .channel import Channel
from .engine import Engine, Periodic, Timer
from .pair import Endpoint, make_pair
from .receiver import Gauge, Receiver
from .sender import Flow, Job, Outstanding, Sender
