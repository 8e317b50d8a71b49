"""Run records, expanded back into per-frame tuples.

A monitored link traces a run, not a frame.  The ``LamsSender`` emits
one ``iframes_sent`` record per run handed to the channel, one
``iframes_released`` record per release and one ``payloads_accepted``
record per stretch of packets accepted together; the channel one
``frames_delivered`` record per run that lands, and the receiver one
``payloads_delivered`` record per checkpoint interval's drains.
:func:`expand` turns each back into the tuples the per-frame records
used to carry, and :func:`normal` every source's records into the form
the executable specification (``tests/spec/``) writes its log in, so
that a traced shipped run and the specification's compare with ``==``
(``tests/test_receiver_runs.py``, ``tests/test_checkpoint_cycle.py``,
``tests/test_trace_runs.py``, ``tests/test_sender_window.py``) frame by
frame:

- ``("iframe_sent", departure, seq, index, retx)``, where frame ``k``
  of a run departs at the record's time plus ``frame_time`` added ``k``
  times (the sender's own float accumulation, not ``k * frame_time``);
- ``("iframe_released", time, seq, holding, retx)``;
- ``("payload_accepted", time, payload)``;
- ``("deliver", time, control, corrupted)``, one per frame landed;
- ``("payload_delivered", time, payload)``, one per drain.

Any other record expands to nothing (:func:`per_frame` keeps it as it
is).  The receiving end's records are held until a run lands or a
checkpoint goes out, so they come later in the stream than the
per-frame records did: :class:`Split` keeps them
apart, per source, where their order is still the per-frame order.  The
sender's runs are recorded when they are handed over, ahead of what
happens while their frames leave, so :class:`Split` keeps their frames
apart per source too: a stream then does not depend on how frames were
grouped into runs, retransmissions included.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.simulator.trace import Entry, TraceRecord


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
    if event == "frames_delivered":
        corrupted = set(detail["corrupted"])
        return [("deliver", time, detail["control"], k in corrupted)
                for k, time in enumerate(detail["times"])]
    if event == "payloads_delivered":
        return [("payload_delivered", time, payload)
                for time, payload in zip(detail["times"], detail["payloads"])]
    return []


DELIVERIES = ("frames_delivered", "payloads_delivered")
RUNS = ("iframes_sent", "iframes_released", "payloads_accepted", *DELIVERIES)


def per_frame(entry: Entry, modulus: int) -> list[Entry]:
    """*entry* one frame or payload a record: a run's :func:`expand`ed,
    each ``(time, source, event, detail)`` with the rest of its tuple as
    the detail; any other record as it is."""
    if entry[2] not in RUNS:
        return [entry]
    return [(item[1], entry[1], item[0], item[2:]) for item in expand(entry, modulus)]


def normal(entries: Iterable[Entry], modulus: int = 1 << 16) -> dict[str, list[Entry]]:
    """Each source's records frame by frame (:func:`per_frame`), in an
    order that neither the grouping of frames into runs nor the holding
    of records changes: by time, then event, between two of the source's
    ``checkpoint_sent`` records, which stay where they are."""
    sources: dict[str, list[Entry]] = {}
    for entry in entries:
        for item in per_frame(entry, modulus):
            sources.setdefault(item[1], []).append(item)
    return {source: _canonical(items) for source, items in sorted(sources.items())}


def _canonical(items: list[Entry]) -> list[Entry]:
    keyed, checkpoints = [], 0
    for item in items:
        boundary = item[2] == "checkpoint_sent"
        keyed.append(((checkpoints, boundary, item[0], item[2]), item))
        checkpoints += boundary
    return [item for _, item in sorted(keyed, key=lambda pair: pair[0])]


class Split:
    """A record listener: the receiving end's records expanded, per
    source, into :attr:`deliveries`; the sender's ``iframes_sent`` runs
    expanded, per source, into :attr:`sent` (sequence numbers mod
    *modulus*, the default numbering's); every other record in emission
    order into :attr:`others` as a raw entry, but a ``payloads_accepted``
    as one ``payload_accepted`` entry per packet."""

    def __init__(self, modulus: int = 1 << 16) -> None:
        self.modulus = modulus
        self.others: list[tuple] = []
        self.deliveries: dict[str, list[tuple]] = {}
        self.sent: dict[str, list[tuple]] = {}

    def __call__(self, record: TraceRecord) -> None:
        entry = (record.time, record.source, record.event, record.detail)
        if record.event in DELIVERIES:
            self.deliveries.setdefault(record.source, []).extend(expand(entry, 0))
        elif record.event == "iframes_sent":
            self.sent.setdefault(record.source, []).extend(expand(entry, self.modulus))
        elif record.event == "payloads_accepted":
            self.others.extend((record.time, record.source, "payload_accepted",
                                {"payload": payload}) for payload in record.detail["payloads"])
        else:
            self.others.append(entry)

    def per_source(self) -> list[tuple[str, list[tuple]]]:
        return sorted(self.deliveries.items())

    def sent_per_source(self) -> list[tuple[str, list[tuple]]]:
        return sorted(self.sent.items())

    def __len__(self) -> int:
        """Entries in all: the records the per-frame stream had."""
        return (len(self.others) + sum(map(len, self.deliveries.values()))
                + sum(map(len, self.sent.values())))
