#!/usr/bin/env python3
"""Quickstart: a reliable LAMS-DLC transfer over a lossy laser ISL.

Builds a 5,000 km / 300 Mbps inter-satellite link with a residual BER
of 1e-6, runs LAMS-DLC across it, transfers 10,000 frames, and prints
the protocol's accounting: zero loss, exactly-once delivery, the NAK
traffic that achieved it, and the holding time / buffer occupancy the
paper's Section 4 predicts.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.analysis import lams as lams_model
from repro.api import build_simulation
from repro.workloads import preset
from repro.workloads.generators import FiniteBatch


def main() -> None:
    scenario = preset("nominal")  # 300 Mbps, 5000 km, BER 1e-6
    print(f"link: {scenario.bit_rate/1e6:.0f} Mbps, {scenario.distance_km:.0f} km "
          f"(RTT {scenario.round_trip_time*1000:.1f} ms), I-frame BER {scenario.iframe_ber:g}")

    setup = build_simulation(scenario, "lams", seed=7)
    n_frames = 10_000
    FiniteBatch(setup.sim, setup.endpoint_a, count=n_frames).start()
    setup.run(until=30.0)

    sender = setup.endpoint_a.sender
    receiver = setup.endpoint_b.receiver
    delivered_ids = sorted(p[1] for p in setup.delivered)

    print(f"\ntransferred {n_frames} frames:")
    print(f"  delivered exactly once : {delivered_ids == list(range(n_frames))}")
    print(f"  I-frames sent          : {sender.iframes_sent}")
    print(f"  retransmissions        : {sender.retransmissions} "
          f"({100 * sender.retransmissions / sender.iframes_sent:.2f}%)")
    print(f"  checkpoints received   : {sender.checkpoints_received}")
    print(f"  NAK-carrying errors    : {receiver.iframes_corrupted} corrupted, "
          f"{receiver.gap_losses_detected} gap losses")

    params = scenario.model_parameters()
    print("\npaper model vs measurement:")
    print(f"  holding time  H_frame  : model {lams_model.holding_time(params)*1000:.2f} ms, "
          f"measured {sender.mean_holding_time*1000:.2f} ms")
    print(f"  retransmit probability : model {params.p_f:.4f}, "
          f"measured {sender.retransmissions / sender.iframes_sent:.4f}")
    # B_LAMS assumes continuous arrivals at the line rate; with a batch
    # workload the equivalent measured quantity is holding time / t_f.
    measured_buffer = sender.mean_holding_time / scenario.iframe_time
    print(f"  transparent buffer     : model {lams_model.transparent_buffer_size(params):.0f} frames, "
          f"measured H_frame/t_f = {measured_buffer:.0f} frames")


if __name__ == "__main__":
    main()
