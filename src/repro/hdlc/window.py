"""Sliding-window arithmetic for the HDLC receiver.

Sequence numbers live in ``Z_M``; the helpers here linearise cyclic
comparisons against a window base, which is how the receiver decides
membership (``V(R) <= n < V(R)+W``).  The sender's window is the
sending buffer's columns (:mod:`repro.hdlc.sender`).
"""

from __future__ import annotations

__all__ = ["in_window", "window_offset", "increment", "ReceiverWindow"]


def increment(seq: int, modulus: int, by: int = 1) -> int:
    """``(seq + by) mod modulus``."""
    return (seq + by) % modulus


def window_offset(base: int, seq: int, modulus: int) -> int:
    """Forward distance from *base* to *seq* on the sequence circle."""
    return (seq - base) % modulus


def in_window(base: int, seq: int, size: int, modulus: int) -> bool:
    """True if *seq* lies in ``[base, base + size)`` cyclically."""
    return window_offset(base, seq, modulus) < size


class ReceiverWindow:
    """Receiver-side state: V(R) plus the out-of-order hold buffer (SR).

    For selective repeat the receiver accepts any frame within
    ``[V(R), V(R)+W)``, holds out-of-order ones, and releases the
    in-order prefix as V(R) advances — the resequencing obligation the
    paper's Section 2.3 charges against SR-HDLC's receive buffer.
    """

    def __init__(self, size: int, modulus: int) -> None:
        if size < 1:
            raise ValueError("window size must be >= 1")
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        self.size = size
        self.modulus = modulus
        self.vr = 0
        self._held: dict[int, object] = {}
        self.peak_held = 0

    @property
    def held_count(self) -> int:
        """Out-of-order frames currently buffered."""
        return len(self._held)

    def accepts(self, ns: int) -> bool:
        """True if *ns* falls inside the receive window."""
        return in_window(self.vr, ns, self.size, self.modulus)

    def is_duplicate(self, ns: int) -> bool:
        """True if *ns* was already received (held or behind V(R))."""
        if ns in self._held:
            return True
        # Behind V(R) (within one window back) means already delivered.
        return window_offset(ns, self.vr, self.modulus) in range(1, self.size + 1)

    def store(self, ns: int, payload: object) -> list[object]:
        """Accept frame *ns*; returns the in-order payloads now deliverable."""
        if not self.accepts(ns):
            return []
        if ns in self._held:
            return []
        self._held[ns] = payload
        if len(self._held) > self.peak_held:
            self.peak_held = len(self._held)
        deliverable: list[object] = []
        while self.vr in self._held:
            deliverable.append(self._held.pop(self.vr))
            self.vr = increment(self.vr, self.modulus)
        return deliverable

    def missing(self) -> list[int]:
        """Gap sequence numbers: expected but not yet received.

        Every number from V(R) up to the newest held frame that is not
        in the hold buffer is missing — the SREJ candidates.
        """
        if not self._held:
            return []
        max_offset = max(window_offset(self.vr, ns, self.modulus) for ns in self._held)
        result = []
        for offset in range(max_offset):
            ns = increment(self.vr, self.modulus, offset)
            if ns not in self._held:
                result.append(ns)
        return result

    def __repr__(self) -> str:
        return f"ReceiverWindow(vr={self.vr}, held={len(self._held)})"
