"""Closed-form performance model: every equation of the paper's Section 4.

Submodules: :mod:`params` (the symbol bundle), :mod:`errorprobs`
(retransmission probabilities), :mod:`lams` and :mod:`hdlc` (the two
protocols' period/throughput/buffer expressions), :mod:`bounds`
(numbering/inconsistency-gap bounds of Sections 2.3 and 3.3), and
:mod:`compare` (comparison rows and sweeps).
"""

from . import bounds, compare, delay, errorprobs, framesize, gbn, hybrid
from . import nbdt as nbdt_model
from . import tuning
from . import hdlc as hdlc_model
from . import lams as lams_model
from .params import ModelParameters

__all__ = [
    "ModelParameters",
    "bounds",
    "compare",
    "delay",
    "errorprobs",
    "framesize",
    "gbn",
    "hybrid",
    "hdlc_model",
    "lams_model",
    "nbdt_model",
    "tuning",
]
