"""The bulk-draw bit-identity oracle.

Every error model's optional ``draw_window(starts, sizes, rng)`` must
consume exactly the same RNG variates, in exactly the same order, as
``len(sizes)`` successive ``frame_error`` calls — that is the contract
that lets the batched frame path (``SimplexChannel.send_burst``)
pre-draw a window's corruption verdicts without changing a single
simulation outcome.  These tests enforce it for every model in the
error-model registry, by construction of the instances below:

- the verdicts must be equal element-for-element, and
- the RNG's *bit-generator state* afterwards must be identical — the
  strong form of "same variates in the same order", which catches a
  model that happens to produce the right booleans from a differently
  shaped draw.

Trace replay's frame mode has the dual invariant: it must never touch
the RNG at all, bulk or scalar.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.channels import (
    OrbitCoupledChannel,
    RecordingChannel,
    TraceReplayChannel,
)
from repro.simulator.errormodel import (
    BernoulliChannel,
    GilbertElliottChannel,
    PerfectChannel,
    available_error_models,
    scalar_draw_window,
)
from repro.transport.impair import UniformLossModel

# -- model factories -------------------------------------------------------
# One or more representative instances per registered model name.  Each
# factory builds a FRESH instance (models may carry draw buffers or
# trace cursors), so bulk and scalar sides start from identical state.

_TRACE_FRAMES = [
    {"t": i * 1e-4, "bits": 8272, "error": (i % 7 == 0)} for i in range(400)
]
_TRACE_BER = (
    [{"t": 0.0, "ber": 0.0}]
    + [{"t": 0.003, "ber": 2e-4}]
    + [{"t": 0.006, "ber": 0.0}]
    + [{"t": 0.009, "ber": 5e-5}]
)

MODEL_FACTORIES = {
    "perfect": [lambda: PerfectChannel()],
    "bernoulli": [
        lambda: BernoulliChannel(ber=1e-5),
        lambda: BernoulliChannel(ber=0.0),
        lambda: BernoulliChannel(ber=5e-4),
    ],
    "gilbert-elliott": [
        lambda: GilbertElliottChannel(
            good_ber=1e-7, bad_ber=1e-4, mean_good=0.02,
            mean_bad=0.004, bit_rate=3e8,
        ),
        # Sojourns a few frames long: the windows below cross flips.
        lambda: GilbertElliottChannel(
            good_ber=1e-5, bad_ber=1e-3, mean_good=1e-4,
            mean_bad=5e-5, bit_rate=3e8,
        ),
        # The degenerate BERs: a state that draws nothing, one that
        # corrupts without drawing.
        lambda: GilbertElliottChannel(
            good_ber=0.0, bad_ber=1.0, mean_good=1e-4,
            mean_bad=5e-5, bit_rate=3e8,
        ),
    ],
    "trace-replay": [
        lambda: TraceReplayChannel(records=list(_TRACE_FRAMES), mode="frame"),
        lambda: TraceReplayChannel(
            records=list(_TRACE_FRAMES), mode="frame", on_exhausted="loop"
        ),
        lambda: TraceReplayChannel(records=list(_TRACE_BER), mode="ber"),
    ],
    "orbit-coupled": [
        lambda: OrbitCoupledChannel(ber=1e-5, update_interval=0.002),
    ],
    "uniform-loss": [
        lambda: UniformLossModel(probability=0.05),
        lambda: UniformLossModel(probability=0.0),
    ],
}


def _windows():
    """(name, factory, starts, sizes) cases covering every registry model."""
    cases = []
    for name, factories in MODEL_FACTORIES.items():
        for index, factory in enumerate(factories):
            # Mixed frame sizes (I-frames + small control frames) over a
            # span long enough to cross trace breakpoints and orbit
            # buckets; also a degenerate single-frame window.
            starts = [i * 2.75e-5 for i in range(200)]
            sizes = [8272 if i % 3 else 96 for i in range(200)]
            cases.append(pytest.param(name, factory, starts, sizes,
                                      id=f"{name}-{index}"))
            cases.append(pytest.param(name, factory, [0.0], [8272],
                                      id=f"{name}-{index}-single"))
    return cases


def test_every_registered_model_is_covered():
    """A newly registered model must be added to MODEL_FACTORIES."""
    assert set(available_error_models()) == set(MODEL_FACTORIES)


@pytest.mark.parametrize("name, factory, starts, sizes", _windows())
def test_draw_window_matches_scalar_draws(name, factory, starts, sizes):
    bulk_model = factory()
    scalar_model = factory()
    bulk = getattr(bulk_model, "draw_window", None)
    assert bulk is not None, f"{name} lost its draw_window bulk API"

    rng_bulk = np.random.default_rng(1234)
    rng_scalar = np.random.default_rng(1234)
    verdicts_bulk = bulk(starts, sizes, rng_bulk)
    verdicts_scalar = scalar_draw_window(scalar_model, starts, sizes, rng_scalar)

    assert list(verdicts_bulk) == list(verdicts_scalar)
    assert all(isinstance(v, bool) for v in verdicts_bulk)
    assert rng_bulk.bit_generator.state == rng_scalar.bit_generator.state


@pytest.mark.parametrize("name, factory, starts, sizes", _windows())
def test_bulk_and_scalar_interleave_on_one_stream(name, factory, starts, sizes):
    """Alternating bulk windows and scalar draws stays on the same stream.

    This is the shape the sender actually produces: batched windows at
    line rate with scalar sends (retransmissions, queued frames)
    interleaved, all against one long-lived per-class RNG.
    """
    mixed_model = factory()
    scalar_model = factory()
    rng_mixed = np.random.default_rng(99)
    rng_scalar = np.random.default_rng(99)

    half = len(starts) // 2
    mixed = list(mixed_model.draw_window(starts[:half], sizes[:half], rng_mixed))
    for start, bits in zip(starts[half:], sizes[half:]):
        mixed.append(mixed_model.frame_error(start, bits, rng_mixed))
    reference = scalar_draw_window(scalar_model, starts, sizes, rng_scalar)

    assert mixed == list(reference)
    assert rng_mixed.bit_generator.state == rng_scalar.bit_generator.state


@pytest.mark.parametrize(
    "factory",
    [pytest.param(factory, id=f"gilbert-elliott-{index}")
     for index, factory in enumerate(MODEL_FACTORIES["gilbert-elliott"])],
)
def test_a_start_going_back_mid_window_raises_like_scalar(factory):
    """A time-stateful model's bulk path raises the scalar path's
    ``ValueError`` at the same frame, with the frames before it drawn."""
    starts = [i * 2.75e-5 for i in range(200)]
    starts[150] = starts[149] - 1e-6
    sizes = [8272 if i % 3 else 96 for i in range(200)]
    bulk_model = factory()
    scalar_model = factory()
    rng_bulk = np.random.default_rng(1234)
    rng_scalar = np.random.default_rng(1234)
    with pytest.raises(ValueError, match="time went backwards") as bulk:
        bulk_model.draw_window(starts, sizes, rng_bulk)
    with pytest.raises(ValueError, match="time went backwards") as scalar:
        scalar_draw_window(scalar_model, starts, sizes, rng_scalar)
    assert str(bulk.value) == str(scalar.value)
    assert rng_bulk.bit_generator.state == rng_scalar.bit_generator.state


def test_short_sojourns_cross_flips_inside_the_window():
    """The short-sojourn instance really exercises the walk mid-window
    (the 20 ms instance crosses no flip on these seeds)."""
    model = MODEL_FACTORIES["gilbert-elliott"][1]()
    rng = np.random.default_rng(1234)
    flips = 0
    in_bad = None
    for start in (i * 2.75e-5 for i in range(200)):
        model.frame_error(start, 8272, rng)
        flips += in_bad is not None and model._in_bad != in_bad
        in_bad = model._in_bad
    assert flips > 20


def test_trace_replay_frame_mode_never_draws():
    """Frame-mode replay is RNG-free in both the scalar and bulk paths."""
    model = TraceReplayChannel(records=list(_TRACE_FRAMES), mode="frame")
    rng = np.random.default_rng(7)
    before = rng.bit_generator.state
    bulk = model.draw_window([r["t"] for r in _TRACE_FRAMES[:100]],
                             [r["bits"] for r in _TRACE_FRAMES[:100]], rng)
    for record in _TRACE_FRAMES[100:150]:
        model.frame_error(record["t"], record["bits"], rng)
    assert rng.bit_generator.state == before
    assert list(bulk) == [bool(r["error"]) for r in _TRACE_FRAMES[:100]]


def test_recording_channel_bulk_records_and_delegates():
    """RecordingChannel's bulk path records per frame and stays identical."""
    inner_bulk = BernoulliChannel(ber=2e-4)
    inner_scalar = BernoulliChannel(ber=2e-4)
    recording = RecordingChannel(inner_bulk)
    reference = RecordingChannel(inner_scalar)
    starts = [i * 1e-4 for i in range(64)]
    sizes = [8272] * 64
    rng_a = np.random.default_rng(5)
    rng_b = np.random.default_rng(5)
    bulk = recording.draw_window(starts, sizes, rng_a)
    scalar = scalar_draw_window(reference, starts, sizes, rng_b)
    assert list(bulk) == list(scalar)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    assert recording.records == reference.records
    assert len(recording.records) == 64


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    sizes=st.lists(st.sampled_from([96, 2048, 8272]), min_size=0, max_size=80),
    ber_exp=st.integers(min_value=3, max_value=8),
)
def test_bernoulli_property_bit_identity(seed, sizes, ber_exp):
    """Property form: any window shape, any seed, any BER magnitude.

    Bernoulli is the model with the trickiest bulk path (per-generator
    512-slot draw buffers shared between the scalar and bulk code), so
    it gets the randomized treatment on top of the fixed cases.
    """
    ber = 10.0 ** -ber_exp
    starts = [i * 3e-5 for i in range(len(sizes))]
    bulk_model = BernoulliChannel(ber=ber)
    scalar_model = BernoulliChannel(ber=ber)
    rng_bulk = np.random.default_rng(seed)
    rng_scalar = np.random.default_rng(seed)
    bulk = bulk_model.draw_window(starts, sizes, rng_bulk)
    scalar = scalar_draw_window(scalar_model, starts, sizes, rng_scalar)
    assert list(bulk) == list(scalar)
    assert rng_bulk.bit_generator.state == rng_scalar.bit_generator.state
