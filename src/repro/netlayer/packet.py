"""End-to-end datagrams.

The paper relaxes the DLC's in-sequence constraint and moves the
ordering/duplication obligations to the *destination node* (Section
2.3): "To provide a reliable message delivery for its users the
destination node now has responsibility to provide sequencing."  That
requires datagrams to carry end-to-end identity — source, destination,
and a per-source message sequence — independent of any link-level
sequence numbers (which LAMS-DLC reassigns at every retransmission).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

__all__ = ["Datagram"]


@dataclass(frozen=True)
class Datagram:
    """One network-layer packet.

    ``sequence`` is the per-source end-to-end number the destination
    resequencer orders and deduplicates on; it is *not* a link sequence
    number.
    """

    source: Hashable
    destination: Hashable
    sequence: int
    created_at: float
    data: Any = None
    size_bits: int = 8192

    def __post_init__(self) -> None:
        if self.sequence < 0:
            raise ValueError("sequence cannot be negative")
        if self.size_bits <= 0:
            raise ValueError("size_bits must be positive")

    @property
    def key(self) -> tuple[Hashable, int]:
        """Uniqueness key for deduplication: (source, sequence)."""
        return (self.source, self.sequence)
