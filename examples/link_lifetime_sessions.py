#!/usr/bin/env python3
"""Short link lifetimes: orbit-derived passes with retargeting overhead.

The paper's opening problem statement: LAMS links exist for minutes,
and "a large retargeting overhead … occupies a significant portion of
the link lifetime".  This example derives real visibility windows from
the orbit model, compresses them into a fast-running schedule, and runs
LAMS-DLC and SR-HDLC sessions across the passes — showing the zero-loss
carry-over between sessions and the goodput cost of the overhead.

Run:  python examples/link_lifetime_sessions.py
"""

from __future__ import annotations

from repro.core import LamsDlcConfig
from repro.hdlc import HdlcConfig
from repro.session import LinkSessionManager, PassSchedule
from repro.session.factories import session_factory
from repro.simulator import (
    BernoulliChannel,
    FullDuplexLink,
    Satellite,
    Simulator,
    StreamRegistry,
    visibility_windows,
)

BIT_RATE = 100e6
N_MESSAGES = 30_000


def main() -> None:
    # Real geometry: a cross-plane pair whose range-limited windows give
    # the pass structure (we only borrow the duty cycle, scaled down so
    # the example runs in seconds).
    sat_a = Satellite("a", altitude_km=1000, inclination_deg=60, raan_deg=0)
    sat_b = Satellite("b", altitude_km=1000, inclination_deg=60, raan_deg=30)
    windows = visibility_windows(sat_a, sat_b, 0.0, 2 * sat_a.period_s,
                                 max_range_km=3200.0, step_s=5.0)
    if windows:
        duty = sum(w.duration for w in windows) / (2 * sat_a.period_s)
        print(f"orbit-derived duty cycle: {len(windows)} windows, "
              f"{duty*100:.0f}% of the time in laser range")
    # Scaled schedule: four 0.5 s passes with 0.2 s retargeting gaps.
    schedule = PassSchedule.periodic(first_start=0.05, duration=0.5, gap=0.2, count=4)

    for label, factory, init_time in (
        ("LAMS-DLC, 10ms init", session_factory(
            "lams", LamsDlcConfig(checkpoint_interval=0.005, cumulation_depth=3)), 0.010),
        ("LAMS-DLC, 100ms init", session_factory(
            "lams", LamsDlcConfig(checkpoint_interval=0.005, cumulation_depth=3)), 0.100),
        ("SR-HDLC, 10ms init", session_factory(
            "hdlc", HdlcConfig(window_size=64, sequence_bits=7, timeout=0.07)), 0.010),
    ):
        sim = Simulator()
        link = FullDuplexLink(
            sim, bit_rate=BIT_RATE, propagation_delay=0.010, name="isl",
            iframe_errors=BernoulliChannel(1e-6), cframe_errors=BernoulliChannel(1e-8),
            streams=StreamRegistry(seed=3),
        )
        delivered: list = []
        manager = LinkSessionManager(
            sim, link, schedule, factory, init_time=init_time,
            deliver=delivered.append,
        )
        for i in range(N_MESSAGES):
            manager.send(("pkt", i))
        sim.run(until=4.0)

        ids = {p[1] for p in delivered}
        backlog_ids = {p[1] for p in manager._queue}
        lost = N_MESSAGES - len(ids | backlog_ids)
        iframe_time = 8272 / BIT_RATE
        goodput = len(ids) * iframe_time / schedule.total_link_time
        print(f"\n{label}:")
        print(f"  passes run        : {manager.passes_run}")
        print(f"  delivered unique  : {len(ids)} / {N_MESSAGES}")
        print(f"  goodput efficiency: {goodput:.3f} of the total link time")
        print(f"  carried over      : {manager.carried_over} frame-slots "
              f"(duplicates removable downstream)")
        print(f"  lost              : {lost}")


if __name__ == "__main__":
    main()
