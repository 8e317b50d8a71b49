"""The sender's run records, expanded back into per-frame tuples.

A monitored ``LamsSender`` traces a run, not a frame: one
``iframes_sent`` record per run handed to the channel, one
``iframes_released`` record per release and one ``payloads_accepted``
record per stretch of packets accepted together.  :func:`expand` turns
each back into the tuples the sender's per-frame records used to carry,
so the sender-window oracle in ``tests/sender_reference.py`` and the
recorded-stream digests in ``tests/test_trace_runs.py`` compare frame
by frame:

- ``("iframe_sent", departure, seq, index, retx)``, where frame ``k``
  of a run departs at the record's time plus ``frame_time`` added ``k``
  times (the sender's own float accumulation, not ``k * frame_time``);
- ``("iframe_released", time, seq, holding, retx)``;
- ``("payload_accepted", time, payload)``.

Any other record expands to nothing.
"""

from __future__ import annotations

from typing import Any

from repro.simulator.trace import Entry


def expand(entry: Entry, modulus: int) -> list[tuple[Any, ...]]:
    """The per-frame tuples *entry* stands for (sequence numbers mod *modulus*)."""
    time, _, event, detail = entry
    if event == "iframes_sent":
        frames = []
        departure, seq, retx = time, detail["first_seq"], detail["retx"]
        first = detail["first_index"]
        for index in range(first, first + detail["count"]):
            frames.append(("iframe_sent", departure, seq, index, retx))
            seq = (seq + 1) % modulus
            departure += detail["frame_time"]
        return frames
    if event == "iframes_released":
        return [("iframe_released", time, seq, holding, retx) for seq, holding, retx
                in zip(detail["seqs"], detail["holdings"], detail["retx"])]
    if event == "payloads_accepted":
        return [("payload_accepted", time, payload) for payload in detail["payloads"]]
    return []
