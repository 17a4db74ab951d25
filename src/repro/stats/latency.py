"""Packet latency measurement and the analytic GT guarantee.

Latency definitions (Figure 1 plots the *total* latency):

* **total latency** — from the cycle the packet was handed to the
  stimuli buffers to the cycle its TAIL flit left the network.  This
  includes the source access delay, which is the quantity that explodes
  when the network saturates.
* **network latency** — from the cycle the HEAD flit entered the source
  router to the TAIL ejection.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.noc.config import NetworkConfig, RouterConfig
from repro.noc.eventlog import event_rows
from repro.noc.flit import FlitType
from repro.noc.packet import Packet, PacketClass, ProtocolError, flits_per_packet
from repro.noc.topology import Topology
from repro.traffic.stimuli import SubmitRecord


@dataclass(frozen=True)
class LatencySample:
    """One delivered packet's timing."""

    pclass: PacketClass
    src: int
    dest: int
    hops: int
    submit_cycle: int
    head_inject_cycle: Optional[int]
    head_eject_cycle: int
    tail_eject_cycle: int

    @property
    def total_latency(self) -> int:
        return self.tail_eject_cycle - self.submit_cycle

    @property
    def network_latency(self) -> Optional[int]:
        if self.head_inject_cycle is None:
            return None
        return self.tail_eject_cycle - self.head_inject_cycle


@dataclass
class LatencyStats:
    """Aggregate over one traffic class."""

    count: int
    mean: float
    maximum: int
    minimum: int
    p50: float
    p99: float

    @staticmethod
    def from_samples(latencies: List[int]) -> Optional["LatencyStats"]:
        if not latencies:
            return None
        arr = np.asarray(latencies, dtype=np.int64)
        return LatencyStats(
            count=int(arr.size),
            mean=float(arr.mean()),
            maximum=int(arr.max()),
            minimum=int(arr.min()),
            p50=float(np.percentile(arr, 50)),
            p99=float(np.percentile(arr, 99)),
        )


class PacketLatencyTracker:
    """Matches engine ejection logs against submit records.

    Matching key is ``(src, seq)``; sequence numbers wrap at 256, so
    outstanding submits are matched FIFO per key — correct because a
    single (source, VC) stream delivers in order.
    """

    def __init__(self, net: NetworkConfig) -> None:
        self.net = net
        self.topology = Topology(net)
        self.samples: List[LatencySample] = []
        self._pending: Dict[Tuple[int, int], Deque[SubmitRecord]] = {}
        self._head_eject: Dict[Tuple[int, int], int] = {}  # (router, vc) -> cycle
        self._head_inject: Dict[Tuple[int, int], Deque[int]] = {}
        #: per (router, vc) open packet: raw data words, header word first
        self._open: Dict[Tuple[int, int], List[int]] = {}
        self._ej_seen = 0
        self._inj_seen = 0

    def note_submit(self, record: SubmitRecord) -> None:
        key = (record.packet.src, record.packet.seq)
        self._pending.setdefault(key, deque()).append(record)

    def retract_submits(self, records, keys_before: int) -> None:
        """Undo :meth:`note_submit` for ``records``, the newest submits,
        and forget the keys first seen after ``keys_before`` keys — the
        tracker half of :meth:`~repro.traffic.stimuli.TrafficDriver.rewind`."""
        pending = self._pending
        for record in reversed(records):
            pending[(record.packet.src, record.packet.seq)].pop()
        for key in list(pending)[keys_before:]:
            del pending[key]

    def collect(self, engine) -> None:
        """Process the engine's injection/ejection events not seen yet."""
        injections = engine.injections
        ejections = engine.ejections
        self.collect_rows(
            event_rows(injections, self._inj_seen),
            event_rows(ejections, self._ej_seen),
        )
        self._inj_seen = len(injections)
        self._ej_seen = len(ejections)

    def collect_records(self, injections, ejections) -> None:
        """Process explicit log slices (record lists or
        :class:`~repro.noc.eventlog.EventLog` slices) — the streaming
        analyze stage's entry point; :meth:`collect` is the
        cursor-keeping wrapper over the engine's full logs."""
        self.collect_rows(event_rows(injections), event_rows(ejections))

    def collect_rows(self, injections, ejections) -> None:
        """Match ``(cycle, router, vc, flit_word)`` event rows.

        This is the analysis hot loop, so reassembly is done on the raw
        integer words — type tag and fields by shift/mask, no
        intermediate :class:`~repro.noc.flit.Flit` objects — with the
        same wormhole-protocol checks (and the same
        :class:`~repro.noc.packet.ProtocolError` messages) as
        :class:`~repro.noc.packet.Reassembler`.
        """
        data_width = self.net.router.data_width
        mask = (1 << data_width) - 1
        head_t, tail_t = int(FlitType.HEAD), int(FlitType.TAIL)
        head_inject = self._head_inject
        for cycle, router, vc, word in injections:
            if (word >> data_width) & 3 == head_t:
                head_inject.setdefault((router, vc), deque()).append(cycle)

        open_packets = self._open
        bytes_per_flit = data_width // 8
        for cycle, router, vc, word in ejections:
            ftype = (word >> data_width) & 3
            if ftype == 0:  # IDLE
                continue
            key = (router, vc)
            if ftype == head_t:
                if key in open_packets:
                    raise ProtocolError(f"VC {vc}: HEAD while a packet is open")
                self._head_eject[key] = cycle
                open_packets[key] = [word & mask]
                continue
            words = open_packets.get(key)
            if words is None:
                raise ProtocolError(
                    f"VC {vc}: {FlitType(ftype).name} without a HEAD"
                )
            words.append(word & mask)
            if ftype != tail_t:
                continue
            del open_packets[key]
            if len(words) < 3:
                raise ProtocolError("packet too short: no body flits before TAIL")
            header, source = words[0], words[1]
            packet = Packet(
                src=self.net.index(source & 0xF, (source >> 4) & 0xF),
                dest=self.net.index(header & 0xF, (header >> 4) & 0xF),
                pclass=PacketClass.GT if (header >> 8) & 1 else PacketClass.BE,
                payload=b"".join(
                    w.to_bytes(bytes_per_flit, "little") for w in words[2:]
                ),
                tag=(header >> 9) & 0x7F,
                seq=(source >> 8) & 0xFF,
            )
            self._finish(packet, router, vc, cycle)

    @property
    def open_vcs(self) -> List[Tuple[int, int]]:
        """(router, VC) pairs with a partially ejected packet (for
        end-of-run checks)."""
        return sorted(self._open)

    def _finish(self, packet, router: int, vc: int, tail_cycle: int) -> None:
        key = (packet.src, packet.seq)
        submits = self._pending.get(key)
        if not submits:
            raise RuntimeError(f"delivered packet with no submit record: {key}")
        submit = submits.popleft()
        head_eject = self._head_eject[(router, vc)]
        inject_queue = self._head_inject.get((packet.src, submit.vc))
        # A head cannot eject before it injected, so a front entry newer
        # than the head ejection belongs to a *later* packet on this key
        # (same-key packets can finish out of order across different
        # sinks).  Leaving it queued keeps the attribution deterministic
        # whether the logs are matched at end of run or chunk by chunk.
        head_inject = None
        if inject_queue and inject_queue[0] <= head_eject:
            head_inject = inject_queue.popleft()
        self.samples.append(
            LatencySample(
                pclass=packet.pclass,
                src=packet.src,
                dest=router,
                hops=self.topology.hops(packet.src, router),
                submit_cycle=submit.submit_cycle,
                head_inject_cycle=head_inject,
                head_eject_cycle=self._head_eject[(router, vc)],
                tail_eject_cycle=tail_cycle,
            )
        )

    # -- aggregation ----------------------------------------------------------
    def stats(
        self, pclass: Optional[PacketClass] = None, network: bool = False
    ) -> Optional[LatencyStats]:
        values = []
        for sample in self.samples:
            if pclass is not None and sample.pclass is not pclass:
                continue
            value = sample.network_latency if network else sample.total_latency
            if value is not None:
                values.append(value)
        return LatencyStats.from_samples(values)

    def delivered(self, pclass: Optional[PacketClass] = None) -> int:
        if pclass is None:
            return len(self.samples)
        return sum(1 for s in self.samples if s.pclass is pclass)


def gt_guarantee_bound(
    cfg: RouterConfig, payload_bytes: int, hops: int
) -> int:
    """Analytic worst-case latency of a GT packet (the "Guarantee" line
    of Figure 1).

    Derivation: on every link at most ``n_vcs`` output VCs can be
    allocated, and the output arbiter is round-robin, so a GT queue with
    a flit and downstream room is served at least once every ``n_vcs``
    cycles.  A hop additionally costs one allocation cycle and one
    transfer cycle for the head.  Hence

    * head reaches the sink after at most ``(hops + 1) * (1 + n_vcs)``
      cycles,
    * the remaining ``L - 1`` flits drain at worst one per ``n_vcs``
      cycles.
    """
    n_flits = flits_per_packet(payload_bytes, cfg.data_width)
    return (hops + 1) * (1 + cfg.n_vcs) + (n_flits - 1) * cfg.n_vcs
