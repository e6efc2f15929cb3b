"""Discrete-event simulation of one flow over a droptail bottleneck.

This module is the substitute for the paper's virtual-network testbed
(§3.2): it runs a CCA over a configurable bottleneck (bandwidth, base
RTT, droptail buffer) and records the per-ACK trace a sender-side
measurement vantage point would see.

Topology::

    sender --> [droptail queue | bottleneck link] --> receiver
       ^                                                 |
       +------------------ ACK path (delay only) --------+

The sender implements cumulative ACKs, triple-dupack fast retransmit with
SACK-style recovery (on entering recovery the sender learns the exact set
of holes, as a kernel sender with SACK would, and repairs them without
waiting one RTT per hole), and an RFC 6298-style retransmission timer;
the attached :class:`~repro.cca.base.CongestionControl` decides the
window.
Losses happen only by queue overflow, which is what drives the sawtooth
and pulsing dynamics the synthesizer learns from.
"""

from __future__ import annotations

import heapq
import math
import sys
from itertools import count, filterfalse, islice

from repro.cca.base import AckEvent, CongestionControl, LossEvent
from repro.errors import SimulationError
from repro.netsim.environments import Environment
from repro.netsim.packet import Packet
from repro.netsim.queues import DropTailQueue
from repro.trace.model import AckRecord, LossRecord, Trace

__all__ = ["Simulator", "simulate"]

#: Minimum retransmission timeout, seconds (lowered from RFC 6298's 1 s so
#: short simulations recover quickly from full-window losses).
MIN_RTO = 0.2
#: RTT-variance multiplier in the RTO formula.
RTO_VAR_GAIN = 4.0


class Simulator:
    """One flow, one bottleneck, one CCA; produces a :class:`Trace`.

    The event queue is a heap of ``(time, seq, handler, arg)`` tuples:
    ``seq`` is a unique, increasing counter, so ties in ``time`` pop in
    scheduling order and the handler is never compared.  Each pop calls
    ``handler(arg)``.
    """

    def __init__(
        self,
        cca: CongestionControl,
        env: Environment,
        *,
        duration: float = 30.0,
        max_acks: int | None = None,
    ):
        if cca.mss != env.mss:
            raise SimulationError(
                f"CCA mss ({cca.mss}) differs from environment mss ({env.mss})"
            )
        self.cca = cca
        self.env = env
        self.duration = duration
        self.max_acks = max_acks
        self.now = 0.0

        # Event queue.
        self._events: list[tuple] = []
        self._order = count()

        # Environment constants, derived once per run.
        self._mss = env.mss
        self._max_cwnd = float(env.max_cwnd_bytes)
        self._initial_rto = max(4 * env.base_rtt_sec, MIN_RTO)
        queue_capacity = env.queue_capacity_bytes

        # Bottleneck.  Every segment is one MSS, so every segment takes
        # the same time to serialize onto the link.
        self.queue = DropTailQueue(queue_capacity)
        self._link_busy = False
        self._service_time = env.mss / env.bandwidth_bytes_per_sec
        self._one_way = env.base_rtt_sec / 2.0

        # Sender state.
        self.snd_una = 0  # first unacknowledged byte
        self.snd_nxt = 0  # next byte to send
        self._dupacks = 0
        self._in_recovery = False
        self._recover_point = 0
        self._rtx_sent: set[int] = set()
        self._srtt: float | None = None
        self._rttvar = 0.0

        # Retransmission timer (see _arm_timer): the live deadline, the
        # first arm at each pending deadline, and the one heap entry.
        self._timer_deadline = math.inf
        self._armed: dict[float, tuple[int, int]] = {}
        self._timer_entry_time = math.inf
        self._timer_entry_seq = -1

        # Receiver state: next expected byte + out-of-order segment starts.
        self._rcv_nxt = 0
        self._ooo: set[int] = set()

        # Trace under construction.
        self.trace = Trace(
            cca_name=cca.name,
            environment_label=env.label,
            mss=env.mss,
            meta={
                "bandwidth_mbps": env.bandwidth_mbps,
                "rtt_ms": env.rtt_ms,
                "queue_bytes": queue_capacity,
            },
        )

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------

    def run(self) -> Trace:
        """Run the flow to ``duration`` sim-seconds and return its trace."""
        self._send_window()
        self._arm_timer()
        events = self._events
        pop = heapq.heappop
        duration = self.duration
        acks = self.trace.acks
        max_acks = sys.maxsize if self.max_acks is None else self.max_acks
        while events:
            time, _, handler, arg = pop(events)
            if time > duration or len(acks) >= max_acks:
                break
            self.now = time
            handler(arg)
        # The run is over.  Pending entries hold bound methods of this
        # simulator; dropping them lets it (and a trace the caller does
        # not keep) be freed at once rather than by the cycle collector.
        events.clear()
        return self.trace

    # ------------------------------------------------------------------
    # Sender
    # ------------------------------------------------------------------

    def _send_window(self) -> None:
        """Transmit new segments while the window allows.

        The pipe estimate is the SACK scoreboard's: outstanding bytes
        minus those the receiver holds out-of-order.  Dropped originals
        keep counting until repaired, which keeps the estimate
        conservative and avoids bursting a full window into an
        already-overflowing queue.  The window is the CCA's, clamped by
        the sender's buffer (sndbuf).
        """
        mss = self._mss
        window = int(min(self.cca.cwnd, self._max_cwnd))
        # pipe + mss <= window, with pipe = max(snd_nxt - snd_una - sacked,
        # 0), holds exactly while mss <= window and snd_nxt <= last.
        last = self.snd_una + len(self._ooo) * mss + window - mss
        nxt = self.snd_nxt
        if mss > window or nxt > last:
            return
        queue = self.queue
        now = self.now
        for seq in range(nxt, last + 1, mss):
            if queue.offer(Packet(seq, mss, now)) and not self._link_busy:
                self._start_service()
        self.snd_nxt = seq + mss

    def _transmit(self, packet: Packet) -> None:
        if not self.queue.offer(packet):
            # Tail drop; the loss surfaces later as dupacks/RTO.  A dropped
            # retransmission becomes eligible for retransmission again.
            if packet.retransmit:
                self._rtx_sent.discard(packet.seq)
            return
        if not self._link_busy:
            self._start_service()

    def _start_service(self) -> None:
        self._link_busy = True
        heapq.heappush(
            self._events,
            (
                self.now + self._service_time,
                next(self._order),
                self._finish_service,
                self.queue.pop(),
            ),
        )

    def _finish_service(self, packet: Packet) -> None:
        self._link_busy = False
        heapq.heappush(
            self._events,
            (
                self.now + self._one_way,
                next(self._order),
                self._deliver,
                packet,
            ),
        )
        if not self.queue.is_empty:
            self._start_service()

    # ------------------------------------------------------------------
    # Receiver
    # ------------------------------------------------------------------

    def _deliver(self, packet: Packet) -> None:
        seq = packet.seq
        if seq == self._rcv_nxt:
            rcv_nxt = seq + packet.size
            # Absorb any buffered contiguous segments.
            ooo = self._ooo
            if ooo:
                mss = self._mss
                while rcv_nxt in ooo:
                    ooo.discard(rcv_nxt)
                    rcv_nxt += mss
            self._rcv_nxt = rcv_nxt
        elif seq > self._rcv_nxt:
            self._ooo.add(seq)
        # Duplicate (seq < rcv_nxt): pure ACK refresh.  The ACK carries
        # the send time of the segment that triggered it, for RTT
        # sampling; Karn's rule: retransmissions yield no sample.
        sent_at = None if packet.retransmit else packet.send_time
        heapq.heappush(
            self._events,
            (
                self.now + self._one_way,
                next(self._order),
                self._handle_ack,
                (self._rcv_nxt, sent_at),
            ),
        )

    # ------------------------------------------------------------------
    # ACK processing at the sender
    # ------------------------------------------------------------------

    def _handle_ack(self, ack: tuple[int, float | None]) -> None:
        ack_seq, sent_at = ack
        if ack_seq > self.snd_una:
            self._process_new_ack(ack_seq, sent_at)
        else:
            self._process_dupack(ack_seq)
        self._send_window()

    def _process_new_ack(self, ack_seq: int, sent_at: float | None) -> None:
        now = self.now
        acked = ack_seq - self.snd_una
        self.snd_una = ack_seq
        if sent_at is None:
            rtt_sample = None
        else:
            rtt_sample = now - sent_at
            # RFC 6298 smoothing (simplified).
            if self._srtt is None:
                self._srtt = rtt_sample
                self._rttvar = rtt_sample / 2.0
            else:
                self._rttvar += 0.25 * (
                    abs(self._srtt - rtt_sample) - self._rttvar
                )
                self._srtt += 0.125 * (rtt_sample - self._srtt)
        if self._rtx_sent:
            self._rtx_sent = {seq for seq in self._rtx_sent if seq >= ack_seq}
        if self._in_recovery:
            if ack_seq >= self._recover_point:
                self._in_recovery = False
                self._dupacks = 0
            else:
                # Partial ACK: more holes remain; repair them (SACK view).
                self._retransmit_missing()
        else:
            self._dupacks = 0
        inflight = self.snd_nxt - ack_seq
        cca = self.cca
        cca.on_ack(AckEvent(now, acked, rtt_sample, inflight))
        self.trace.acks.append(
            AckRecord(
                now,
                ack_seq,
                acked,
                rtt_sample,
                min(cca.cwnd, self._max_cwnd),
                inflight,
                False,
            )
        )
        self._arm_timer()

    def _process_dupack(self, ack_seq: int) -> None:
        self._dupacks += 1
        self.trace.acks.append(
            AckRecord(
                self.now,
                ack_seq,
                0,
                None,
                min(self.cca.cwnd, self._max_cwnd),
                self.snd_nxt - self.snd_una,
                True,
            )
        )
        if self._dupacks == 3 and not self._in_recovery:
            self._enter_recovery()

    def _enter_recovery(self) -> None:
        self._in_recovery = True
        self._recover_point = self.snd_nxt
        self.cca.on_loss(
            LossEvent(
                now=self.now,
                kind="dupack",
                inflight_bytes=self.snd_nxt - self.snd_una,
            )
        )
        self.trace.losses.append(LossRecord(self.now, "dupack"))
        self._retransmit_missing()

    def _retransmit_missing(self, limit: int = 64) -> None:
        """Retransmit every unrepaired hole (SACK-informed recovery).

        The sender consults the receiver's out-of-order set — the
        information SACK blocks would carry — and resends the segments the
        receiver is actually missing, at most *limit* per invocation.
        """
        mss = self._mss
        now = self.now
        # Sending a hole changes neither set for the holes after it, so
        # one union serves the whole scan.
        repaired = self._ooo | self._rtx_sent
        holes = filterfalse(
            repaired.__contains__, range(self.snd_una, self.snd_nxt, mss)
        )
        for seq in islice(holes, limit):
            self._rtx_sent.add(seq)
            self._transmit(Packet(seq, mss, now, retransmit=True))

    # ------------------------------------------------------------------
    # Retransmission timer (RFC 6298, simplified)
    # ------------------------------------------------------------------

    def _rto(self) -> float:
        if self._srtt is None:
            return self._initial_rto
        return max(self._srtt + RTO_VAR_GAIN * self._rttvar, MIN_RTO)

    def _arm_timer(self) -> None:
        """(Re)start the retransmission timer at ``now + RTO``.

        The timer fires exactly where an eagerly pushed entry per arm
        would: at the live deadline, under the seq and ``snd_una``
        snapshot of the *first* arm that chose that deadline (a later
        arm that lands on the same float deadline leaves its own entry
        behind the first one's, and stale).  Every arm draws a seq, as
        such a push would, but the heap holds at most one live timer
        entry: re-arming to a later deadline only records it, and the
        queued entry re-pushes itself there when it pops (see
        :meth:`_timer_popped`); re-arming to an earlier deadline pushes
        a new entry and leaves the old one stale.
        """
        seq = next(self._order)
        deadline = self.now + self._rto()
        self._timer_deadline = deadline
        first_seq = self._armed.setdefault(deadline, (seq, self.snd_una))[0]
        if deadline < self._timer_entry_time:
            self._push_timer_entry(deadline, first_seq)

    def _push_timer_entry(self, deadline: float, seq: int) -> None:
        self._timer_entry_time = deadline
        self._timer_entry_seq = seq
        heapq.heappush(self._events, (deadline, seq, self._timer_popped, seq))

    def _timer_popped(self, entry_seq: int) -> None:
        if entry_seq != self._timer_entry_seq:
            return  # stale: an earlier deadline was pushed since
        deadline = self._timer_deadline
        first_seq, snapshot = self._armed[deadline]
        # Deadlines already passed can never be chosen again.
        now = self.now
        self._armed = {
            pending: arm
            for pending, arm in self._armed.items()
            if pending > now
        }
        if entry_seq != first_seq:
            # Re-armed to a later deadline since this entry was pushed.
            self._push_timer_entry(deadline, first_seq)
            return
        self._timer_entry_time = math.inf
        self._timer_fired(snapshot)

    def _timer_fired(self, una_snapshot: int) -> None:
        if self.snd_una == una_snapshot and self.snd_nxt > self.snd_una:
            # No progress for a full RTO with data outstanding: timeout.
            self.cca.on_loss(
                LossEvent(
                    now=self.now,
                    kind="timeout",
                    inflight_bytes=self.snd_nxt - self.snd_una,
                )
            )
            self.trace.losses.append(LossRecord(self.now, "timeout"))
            self._in_recovery = False
            self._dupacks = 0
            self._rtx_sent.clear()
            self._rtx_sent.add(self.snd_una)
            self._transmit(
                Packet(self.snd_una, self._mss, self.now, retransmit=True)
            )
            self._send_window()
        self._arm_timer()


def simulate(
    cca: CongestionControl,
    env: Environment,
    *,
    duration: float = 30.0,
    max_acks: int | None = None,
) -> Trace:
    """Convenience wrapper: build a :class:`Simulator`, run it, return the trace."""
    return Simulator(cca, env, duration=duration, max_acks=max_acks).run()
