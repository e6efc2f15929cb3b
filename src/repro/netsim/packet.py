"""Data segments in flight in the discrete-event simulator."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class Packet:
    """A data segment in flight from sender to receiver.

    ``seq`` is the byte offset of the segment's first byte; ``end``
    (seq + size) is the cumulative ACK value the segment produces once
    every earlier byte has also arrived.
    """

    seq: int
    size: int
    send_time: float
    retransmit: bool = False

    @property
    def end(self) -> int:
        return self.seq + self.size

