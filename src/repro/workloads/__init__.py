"""Workloads: traffic generators and canned LAMS scenarios."""

from .generators import (
    ConstantRateSource,
    FiniteBatch,
    SaturatedSource,
)
from .scenarios import (
    DeliveredList,
    PRESETS,
    LinkScenario,
    SimulationSetup,
    build_simulation,
    preset,
)

__all__ = [
    "ConstantRateSource",
    "DeliveredList",
    "FiniteBatch",
    "LinkScenario",
    "PRESETS",
    "SaturatedSource",
    "SimulationSetup",
    "build_simulation",
    "preset",
]
