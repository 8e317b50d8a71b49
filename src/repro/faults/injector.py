"""Schedules a :class:`~repro.faults.plan.FaultPlan` onto a simulation.

The injector is pure orchestration: at each fault's start and end it
drives the live objects — ``SimplexChannel.down()``/``up()`` for
outages, error-model swap/restore for BER storms, a corrupting wrapper
for control-frame targeting — and emits ``fault_start`` / ``fault_end``
trace events that :class:`~repro.faults.metrics.RecoveryMetrics`
consumes.  Everything is scheduled on the :class:`Simulator` event
heap at construction time, so a plan is fully deterministic: the same
plan and seed produce the same event sequence regardless of process or
job count.

Outages are depth-counted per channel, so overlapping faults nest
correctly, and a channel that was already down when a fault began
(e.g. between session-manager passes) is *not* forced up when the
fault ends — the injector only restores state it took down itself.

Error-model faults (BER storms and control corruption) are tracked as
a list of active *layers* over the channel's base model, recomposed on
every fault boundary, so interleaved windows (fault A starts, fault B
starts, fault A ends while B is still active) keep B's effect applied.
A plain last-in-first-out stash restores in the wrong order for that
shape — a bug the chaos-soak invariant monitors caught: an "ended"
fault would strip a still-active deterministic corruption window,
letting checkpoints through a window the plan declares silent.  The
composition does not depend on activation order: a storm *replaces*
the model and corruption *wraps* whatever model is current, so the
newest active storm is the base and every active corruption window
wraps it, whichever started first.  Two storms overlapping on one
channel do not stack — the later one wins while both are active.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ..simulator.engine import Simulator
from ..simulator.errormodel import ErrorModel, make_error_model
from ..simulator.link import FullDuplexLink, SimplexChannel
from ..simulator.trace import Tracer
from .plan import BerStorm, ControlCorruption, Fault, FaultPlan

__all__ = ["FaultInjector", "ControlCorruptingModel"]


class ControlCorruptingModel:
    """Wraps a base model, adding forced corruption for control frames.

    Draws one uniform variate per frame from the channel's own named
    RNG stream, so corruption decisions are deterministic under the
    simulation seed and independent of every other stream.
    """

    def __init__(self, base: ErrorModel, probability: float) -> None:
        self.base = base
        self.probability = probability

    def frame_error(self, start: float, bits: int, rng: np.random.Generator) -> bool:
        forced = bool(rng.random() < self.probability)
        # Always consult the base model so its RNG/state consumption is
        # identical with and without the fault window active.
        underlying = self.base.frame_error(start, bits, rng)
        return forced or underlying

    def __repr__(self) -> str:
        return f"ControlCorruptingModel(p={self.probability:g}, base={self.base!r})"


class FaultInjector:
    """Drives one fault plan against one full-duplex link."""

    #: Fault kinds this injector knows how to drive.  Transport-native
    #: kinds (socket send errors, endpoint stalls, peer restarts,
    #: handshake blackholes) need the UDP backend's
    #: :class:`~repro.transport.impair.TransportFaultInjector`; a plan
    #: containing one is rejected here rather than silently no-opped —
    #: a skipped fault would corrupt the latency monitors' silence
    #: timelines.
    supported_kinds: frozenset = frozenset(
        {"outage", "feedback-blackout", "ber-storm", "control-corruption"}
    )

    def __init__(
        self,
        sim: Simulator,
        link: FullDuplexLink,
        plan: FaultPlan,
        tracer: Optional[Tracer] = None,
    ) -> None:
        for fault in plan:
            if fault.kind not in self.supported_kinds:
                raise ValueError(
                    f"{type(self).__name__} cannot inject fault kind "
                    f"{fault.kind!r} (supported: "
                    f"{', '.join(sorted(self.supported_kinds))}); "
                    f"transport-native faults need the UDP backend"
                )
        self.sim = sim
        self.link = link
        self.plan = plan
        self.tracer = tracer if tracer is not None else link.tracer
        self.faults_started = 0
        self.faults_ended = 0
        self._outage_depth: dict[str, int] = {}
        self._took_down: dict[str, bool] = {}
        # Per (channel, attr): the untouched base model plus the ordered
        # list of active fault layers applied over it.
        self._base_models: dict[tuple[str, str], ErrorModel] = {}
        self._layers: dict[tuple[str, str], list[tuple[int, str, Any]]] = {}
        # Clamp to "now": on the real-time backend the clock has
        # already crept past t=0 by construction time, so a fault
        # starting at (or before) the session open fires immediately.
        for index, fault in enumerate(plan):
            sim.schedule_at(max(fault.start, sim.now), self._begin, index, fault)
            sim.schedule_at(max(fault.end, sim.now), self._finish, index, fault)

    # -- wiring -----------------------------------------------------------

    def _channels(self, direction: str) -> list[SimplexChannel]:
        if direction == "forward":
            return [self.link.forward]
        if direction == "reverse":
            return [self.link.reverse]
        return [self.link.forward, self.link.reverse]

    # -- fault lifecycle --------------------------------------------------

    def _begin(self, index: int, fault: Fault) -> None:
        self.faults_started += 1
        if fault.kind in ("outage", "feedback-blackout"):
            self._begin_outage(fault)
        elif fault.kind == "ber-storm":
            self._begin_storm(index, fault)
        elif fault.kind == "control-corruption":
            self._begin_corruption(index, fault)
        self.tracer.emit(
            self.sim.now, "faults", "fault_start",
            index=index, kind=fault.kind, direction=fault.direction,
            duration=fault.duration,
        )

    def _finish(self, index: int, fault: Fault) -> None:
        self.faults_ended += 1
        if fault.kind in ("outage", "feedback-blackout"):
            self._finish_outage(fault)
        elif fault.kind == "ber-storm":
            self._finish_storm(index, fault)
        elif fault.kind == "control-corruption":
            self._finish_corruption(index, fault)
        self.tracer.emit(
            self.sim.now, "faults", "fault_end",
            index=index, kind=fault.kind, direction=fault.direction,
        )

    # -- outages ----------------------------------------------------------

    def _begin_outage(self, fault: Fault) -> None:
        for channel in self._channels(fault.direction):
            depth = self._outage_depth.get(channel.name, 0)
            if depth == 0:
                # Only restore later what we actually took down now.
                self._took_down[channel.name] = channel.is_up
                if channel.is_up:
                    channel.down()
            self._outage_depth[channel.name] = depth + 1

    def _finish_outage(self, fault: Fault) -> None:
        for channel in self._channels(fault.direction):
            depth = self._outage_depth.get(channel.name, 0) - 1
            self._outage_depth[channel.name] = max(depth, 0)
            if depth <= 0 and self._took_down.pop(channel.name, False):
                channel.up()

    # -- BER storms -------------------------------------------------------

    def _begin_storm(self, index: int, fault: BerStorm) -> None:
        for channel in self._channels(fault.direction):
            model = make_error_model(
                fault.model, {"bit_rate": channel.bit_rate}, **fault.model_kwargs
            )
            if "iframe" in fault.targets:
                self._push_layer(channel, "iframe_errors", index, "replace", model)
            if "cframe" in fault.targets:
                self._push_layer(channel, "cframe_errors", index, "replace", model)

    def _finish_storm(self, index: int, fault: BerStorm) -> None:
        for channel in self._channels(fault.direction):
            if "iframe" in fault.targets:
                self._pop_layer(channel, "iframe_errors", index)
            if "cframe" in fault.targets:
                self._pop_layer(channel, "cframe_errors", index)

    # -- control-frame corruption ----------------------------------------

    def _begin_corruption(self, index: int, fault: ControlCorruption) -> None:
        for channel in self._channels(fault.direction):
            self._push_layer(
                channel, "cframe_errors", index, "wrap", fault.probability
            )

    def _finish_corruption(self, index: int, fault: ControlCorruption) -> None:
        for channel in self._channels(fault.direction):
            self._pop_layer(channel, "cframe_errors", index)

    # -- model layering (storms replace, corruption wraps; order-free) ----

    def _push_layer(
        self, channel: SimplexChannel, attr: str, index: int, mode: str, payload: Any,
    ) -> None:
        key = (channel.name, attr)
        if key not in self._base_models:
            self._base_models[key] = getattr(channel, attr)
        self._layers.setdefault(key, []).append((index, mode, payload))
        self._rebuild(channel, attr)

    def _pop_layer(self, channel: SimplexChannel, attr: str, index: int) -> None:
        key = (channel.name, attr)
        layers = self._layers.get(key)
        if not layers:
            return
        self._layers[key] = [layer for layer in layers if layer[0] != index]
        self._rebuild(channel, attr)

    def _rebuild(self, channel: SimplexChannel, attr: str) -> None:
        """Recompose the model from the active layers, whatever their order.

        The last active ``replace`` layer (a BER storm's model) is the
        base and every active ``wrap`` layer (control corruption) goes on
        top of it, in activation order.  Composing strictly in activation
        order instead lets a storm that starts *inside* a corruption
        window throw the wrapper away — checkpoints then flow through a
        window the plan declares silent (soak seed 7, episode 144).
        Removing *any* fault's layer — not just the most recent — leaves
        every other active fault's effect in place, which a LIFO stash
        cannot do for interleaved windows.
        """
        key = (channel.name, attr)
        model = self._base_models.get(key)
        if model is None:
            return
        layers = self._layers.get(key, [])
        for _, mode, payload in layers:
            if mode == "replace":
                model = payload
        for _, mode, payload in layers:
            if mode != "replace":
                model = ControlCorruptingModel(model, payload)
        getattr(channel, "settle", lambda: None)()  # frames already sent keep the old model
        setattr(channel, attr, model)
        if not layers:
            del self._base_models[key]
            del self._layers[key]

    def __repr__(self) -> str:
        return (
            f"<FaultInjector plan={self.plan.name!r} "
            f"faults={len(self.plan)} started={self.faults_started}>"
        )
