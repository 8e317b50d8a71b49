"""The Gilbert–Elliott stretch path against the per-frame walk.

``GilbertElliottChannel`` settles every frame that lies inside the
current sojourn with its acceptance variate alone, a window's worth of
them with one ``rng.random(m)``; only a frame that reaches a flip walks
the state machine.  ``tests/errormodel_reference.py`` keeps the walk for
every frame.  Generated histories of ``frame_error`` and ``draw_window``
calls run on both, and after every call the verdicts (or the
``ValueError``), the RNG's ``bit_generator.state`` and the model state
must be equal.

The histories come in three families:

- *flips*: sojourns a few frame times long, so windows cross flips, and
  frames placed exactly on a flip or ending exactly on one;
- *degenerate*: a ``good_ber=0`` state, which draws nothing, and a
  ``bad_ber=1`` state, which corrupts without drawing;
- *coarse*: frames a few ulps long on either side of ``t = 1``, so a
  frame's ``segment_bits`` differs from ``bits`` by up to tens of
  percent, differently below and above 1 (and a 1-bit frame above 1 has
  zero length) — the case that separates a probability computed per
  frame from one cached per size.  On a real link the difference is in
  the last place, and it is there all the same.

Zero-bit frames, repeated start times and a start going back in the
middle of a window appear in all three.

Hand mutants of ``GilbertElliottChannel`` that
``test_stretch_path_matches_the_per_frame_walk`` kills on its own:

- a draw for a zero-probability frame (``probability >= 0.0``), in
  ``draw_window`` and in ``frame_error``;
- a probability cached per ``bits`` instead of computed from the frame's
  own ``segment_bits``;
- the in-window time check dropped (``if bits:`` for ``if start >= last
  and bits:``), so a start going back is settled instead of raising;
- ``start <= end <= until`` for ``start < end <= until``, in either
  method: a zero-length frame on the sojourn edge taken as a stretch,
  though the walk would flip the state there (or return clean in a
  ``ber=1`` state);
- the state's ``keep`` not re-read after a walk, so frames past a flip
  are settled at the old state's BER.

Two edge mutants are equivalent, not missed.  ``end < until`` for ``end
<= until`` sends a frame ending exactly on the flip to the walk, which
sees the same single segment and draws the same variate.  ``until`` not
re-read after a walk only sends more frames to the walk: a frame past a
flip starts after the old ``until``.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.errormodel import GilbertElliottChannel, scalar_draw_window

from .errormodel_reference import ReferenceGilbertElliott, model_state

IFRAME_BITS = 8272
BIT_RATE = 3e8
FRAME_TIME = IFRAME_BITS / BIT_RATE

# How the next frame's start is placed relative to the previous frame
# (or, for the last two, to the sojourn the reference is in).
SPACINGS = ("back_to_back", "back_to_back", "same", "gap", "jump",
            "on_flip", "to_flip")


@st.composite
def histories(draw):
    family = draw(st.sampled_from(("flips", "degenerate", "coarse")))
    if family == "coarse":
        # Below t = 1 an ulp is half what it is above, so the same bits
        # round to a different segment length on either side.  Every
        # size is seen below 1 first; a jump then crosses 1 inside the
        # sojourn, and flips come from on_flip / to_flip.
        bit_rate, frame_time, origin = 1e16, 1e-16, 1.0 - 4e-14
        jump = 300 * frame_time
        sizes = st.sampled_from((0, 1, 3, 3, 10))
        prefix = [("window", [(bits, "back_to_back", 0.0)
                              for bits in (1, 3, 10) * 10], None)]
        good_ber = draw(st.sampled_from((0.0, 0.3)))
        bad_ber = draw(st.sampled_from((0.3, 1.0)))
        mean_good = draw(st.sampled_from((1e-3, 5e-3)))
        mean_bad = draw(st.sampled_from((1e-3, 5e-3)))
    else:
        bit_rate, frame_time, origin = BIT_RATE, FRAME_TIME, 0.0
        sizes = st.sampled_from((0, 96, 2048, IFRAME_BITS, IFRAME_BITS))
        mean_good = FRAME_TIME * draw(st.sampled_from((2, 5, 20)))
        mean_bad = FRAME_TIME * draw(st.sampled_from((0.5, 2, 5)))
        if family == "flips":
            good_ber = draw(st.sampled_from((1e-7, 1e-5, 1e-4)))
            bad_ber = draw(st.sampled_from((1e-4, 1e-3, 0.05)))
        else:
            good_ber, bad_ber = draw(st.sampled_from(
                ((0.0, 1.0), (0.0, 1e-3), (1e-5, 1.0), (1.0, 0.0), (0.0, 0.0))
            ))
        jump = mean_good
        prefix = []
    frame = st.tuples(sizes, st.sampled_from(SPACINGS),
                      st.floats(min_value=0.0, max_value=1.0))
    call = st.one_of(
        st.tuples(st.just("frame"), frame),
        st.tuples(
            st.just("window"),
            st.lists(frame, min_size=1, max_size=40),
            st.one_of(st.none(), st.integers(min_value=1, max_value=39)),
        ),
    )
    return {
        "params": dict(good_ber=good_ber, bad_ber=bad_ber, mean_good=mean_good,
                       mean_bad=mean_bad, bit_rate=bit_rate),
        "frame_time": frame_time,
        "jump": jump,
        "origin": origin,
        "seed": draw(st.integers(min_value=0, max_value=2**32 - 1)),
        "calls": prefix + draw(st.lists(call, min_size=1, max_size=25)),
    }


class _Placer:
    """Turns symbolic spacings into start times, stepping a throwaway
    copy of the reference so a frame can land on the flip that the
    frames before it (in the same window, too) reach."""

    def __init__(self, history, reference, rng):
        self.bit_rate = history["params"]["bit_rate"]
        self.frame_time = history["frame_time"]
        self.jump = history["jump"]
        self.probe = copy.deepcopy((reference, rng))
        last = reference._last_start
        self.prev_start = last if last > -np.inf else history["origin"]
        self.prev_end = self.prev_start

    def place(self, bits, spacing, u, *, back=False):
        model, rng = self.probe
        if back:
            start = self.prev_start - (0.1 + u) * self.frame_time
        elif spacing == "back_to_back":
            start = self.prev_end
        elif spacing == "same":
            start = self.prev_start
        elif spacing == "gap":
            start = self.prev_end + u * 3 * self.frame_time
        elif spacing == "jump":
            start = self.prev_end + u * 3 * self.jump
        elif model is None or not model._initialised:
            start = self.prev_end  # no sojourn known (yet, or after a raise)
        else:
            target = model._state_until
            if spacing == "to_flip":
                target -= bits / self.bit_rate
            start = max(target, self.prev_start)
        if model is not None:
            try:
                model.frame_error(start, bits, rng)
            except ValueError:
                self.probe = (None, None)
        if not back:
            self.prev_start = start
            self.prev_end = start + bits / self.bit_rate
        return start


def _outcome(thunk):
    try:
        return ("ok", list(thunk()))
    except ValueError as error:
        return ("raise", str(error))


def _play(history):
    """Run *history* on the shipped model and the reference side by side."""
    model = GilbertElliottChannel(**history["params"])
    reference = ReferenceGilbertElliott(**history["params"])
    rng = np.random.default_rng(history["seed"])
    rng_reference = np.random.default_rng(history["seed"])
    for step, call in enumerate(history["calls"]):
        placer = _Placer(history, reference, rng_reference)
        if call[0] == "frame":
            bits, spacing, u = call[1]
            start = placer.place(bits, spacing, u)
            got = _outcome(lambda: [model.frame_error(start, bits, rng)])
            want = _outcome(
                lambda: [reference.frame_error(start, bits, rng_reference)]
            )
        else:
            _, frames, back_at = call
            sizes = [bits for bits, _, _ in frames]
            starts = [
                placer.place(bits, spacing, u, back=(i == back_at))
                for i, (bits, spacing, u) in enumerate(frames)
            ]
            got = _outcome(lambda: model.draw_window(starts, sizes, rng))
            want = _outcome(lambda: scalar_draw_window(
                reference, starts, sizes, rng_reference))
        context = f"call {step}: {call!r}"
        assert got == want, context
        assert rng.bit_generator.state == rng_reference.bit_generator.state, context
        assert model_state(model) == model_state(reference), context
    return reference


@settings(max_examples=300, deadline=None)
@given(history=histories())
def test_stretch_path_matches_the_per_frame_walk(history):
    _play(history)


@pytest.mark.parametrize("seed", [1234, 99, 7])
def test_line_rate_windows_cross_flips(seed):
    """Back-to-back 64-frame windows, as a saturated link sends them, on
    sojourns a few frames long: most windows hold several flips."""
    frames = [(IFRAME_BITS, "back_to_back", 0.0)] * 64
    reference = _play({
        "params": dict(good_ber=1e-4, bad_ber=0.05, mean_good=5 * FRAME_TIME,
                       mean_bad=2 * FRAME_TIME, bit_rate=BIT_RATE),
        "frame_time": FRAME_TIME,
        "jump": 0.0,
        "origin": 0.0,
        "seed": seed,
        "calls": [("window", frames, None)] * 40,
    })
    # 40 windows of 64 frames: 2560 frame times, ~365 good/bad cycles.
    assert reference._state_until > 0.9 * 2560 * FRAME_TIME


@pytest.mark.parametrize("seed", [3, 8, 21])
def test_a_threshold_is_per_frame_not_per_size(seed):
    """Equal-size frames across t = 1, where an ulp doubles: a 10-bit
    frame spans 9 ulps (9.99 bits) below 1 and 5 ulps (11.1 bits) above,
    so a threshold kept per size draws wrong verdicts above 1."""
    frames = [(10, "back_to_back", 0.0)] * 40
    _play({
        "params": dict(good_ber=0.05, bad_ber=0.3, mean_good=5e-3,
                       mean_bad=5e-3, bit_rate=1e16),
        "frame_time": 1e-16,
        "jump": 0.0,
        "origin": 1.0 - 4e-15,
        "seed": seed,
        "calls": [("window", frames, None)] * 3,
    })
