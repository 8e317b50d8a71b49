#!/usr/bin/env python3
"""Stop-Go flow control (paper Section 3.4) in action.

A fast sender feeds a receiver whose network layer drains slowly (a
congested downstream satellite).  The receiver's checkpoint commands
carry Stop-Go = 1 while its queue is above the high watermark; the
sender multiplicatively decreases its rate, then additively recovers
when the congestion clears.  Overflow discards are logged as erroneous
so the cumulative NAK retransmits them — congestion never violates
zero loss.

Run:  python examples/flow_control_demo.py
"""

from __future__ import annotations

from repro.api import make_endpoint_pair
from repro.core import LamsDlcConfig
from repro.simulator import FullDuplexLink, Simulator, StreamRegistry
from repro.workloads.generators import ConstantRateSource

RATE = 100e6
DELAY = 0.010


def main() -> None:
    sim = Simulator()
    link = FullDuplexLink(
        sim, bit_rate=RATE, propagation_delay=DELAY, name="isl",
        streams=StreamRegistry(seed=5),
    )
    config = LamsDlcConfig(
        checkpoint_interval=0.005,
        cumulation_depth=3,
        receive_queue_capacity=64,
        receive_high_watermark=32,
        receive_low_watermark=8,
        rate_decrease_factor=0.5,
        rate_increase_step=0.1,
    )
    delivered: list = []
    # The receiver drains one frame per 250 µs — far below the ~83 µs
    # inter-frame time of a saturated 100 Mbps sender.
    a, b = make_endpoint_pair(
        "lams", sim, link, config, deliver_b=delivered.append, delivery_interval_b=250e-6,
    )
    a.start(send=True, receive=False)
    b.start(send=False, receive=True)

    iframe_time = config.iframe_bits / RATE
    source = ConstantRateSource(sim, a, rate=0.9 / iframe_time, limit=4000)
    source.start()

    samples = []

    def sample() -> None:
        samples.append(
            (sim.now, a.sender.flow.rate_fraction, b.receiver.receive_queue_length)
        )
        if sim.now < 2.0:
            sim.schedule(0.05, sample)

    sample()
    sim.run(until=3.0)

    print("time   sender-rate   receiver-queue")
    for time, rate, queue in samples:
        bar = "#" * int(rate * 30)
        print(f"{time:5.2f}   {rate:10.3f}   {queue:6d}   {bar}")

    flow = a.sender.flow
    print(f"\nstop indications : {flow.stop_indications}")
    print(f"go indications   : {flow.go_indications}")
    print(f"minimum rate     : {flow.min_fraction_seen:.3f} of line rate")
    print(f"overflow discards: {b.receiver.discards} (all recovered by NAK)")
    ids = sorted({p[1] for p in delivered})
    print(f"delivered        : {len(delivered)} ({len(ids)} unique) — "
          f"zero loss: {ids == list(range(source.offered))}")


if __name__ == "__main__":
    main()
