"""The five pipeline stages (paper section 5.3, one class per step).

Equivalence contract: driving an engine through
``GenerateStage -> LoadStage -> SimulateStage`` chunk by chunk performs,
cycle for cycle, exactly what :class:`~repro.traffic.stimuli.TrafficDriver`
performs in its monolithic ``generate / pump / step`` loop — the same
packets in the same submit order, the same per-(router, VC) queue
contents, the same offer sequence, the same stall accounting and
overload error.  The equivalence tests compare engine snapshots, full
logs and drain counts across both paths for every engine.

Why that holds:

* **generate** — the chunked generator APIs are bit-identical to the
  per-cycle calls (their own contract), and the stage replays the
  driver's submit order: GT pairs first, then BE packets with the
  per-source VC toggle.
* **load** — the cached :class:`~repro.traffic.stimuli.FlitEncoder`
  produces the same words as ``segment`` + ``encode``.
* **simulate** — entries for cycle *c* are appended to the per-key
  queues at cycle *c*, before that cycle's pump, exactly like the
  driver (generated flits are offerable the same cycle).  Offers to
  different (router, VC) keys target disjoint injection registers, so
  key iteration order cannot change engine state; per-key stall
  counters and the overload limit are replicated verbatim.
* **retrieve / analyze** — log records are processed in log order with
  every chunk's submits noted first; per-key FIFO matching then pops
  the same submit record the end-of-run batch collection would.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.engines.base import lane_views
from repro.noc.config import NetworkConfig
from repro.noc.eventlog import EventLog, event_rows
from repro.pipeline.chunks import (
    LoadedChunk,
    ResultChunk,
    RetrievedChunk,
    StimulusChunk,
)
from repro.stats.histogram import Histogram
from repro.stats.latency import PacketLatencyTracker
from repro.stats.throughput import ThroughputStats
from repro.traffic.generators import BernoulliBeTraffic, GtStreamTraffic
from repro.traffic.stimuli import FlitEncoder, NetworkOverloadError, SubmitRecord


class GenerateStage:
    """Step 1: produce stimuli chunks for every lane.

    Owns the traffic generators *and* the per-source BE VC toggle — the
    piece of :meth:`TrafficDriver.generate` state that decides which BE
    VC each packet rides.
    """

    name = "generate"

    def __init__(
        self,
        net: NetworkConfig,
        traffic: Sequence[
            Tuple[Optional[BernoulliBeTraffic], Optional[GtStreamTraffic]]
        ],
    ) -> None:
        self.net = net
        self.traffic = list(traffic)
        self._be_vc_toggle = [[0] * net.n_routers for _ in self.traffic]

    @property
    def lanes(self) -> int:
        return len(self.traffic)

    def produce(self, start: int, stop: int) -> StimulusChunk:
        be_vcs = self.net.router.be_vcs
        n_be_vcs = len(be_vcs)
        submits = []
        for lane, (be, gt) in enumerate(self.traffic):
            gt_cycles = gt.packets_for_cycles(start, stop) if gt else None
            be_cycles = be.packets_for_cycles(start, stop) if be else None
            toggle = self._be_vc_toggle[lane]
            per_cycle = []
            for off in range(stop - start):
                out: List[Tuple] = []
                if gt_cycles is not None:
                    out.extend(gt_cycles[off])
                if be_cycles is not None:
                    for packet in be_cycles[off]:
                        t = toggle[packet.src]
                        toggle[packet.src] = (t + 1) % n_be_vcs
                        out.append((packet, be_vcs[t]))
                per_cycle.append(out)
            submits.append(per_cycle)
        return StimulusChunk(start, stop, submits)


class LoadStage:
    """Step 2: segment and flit-encode each chunk's packets."""

    name = "load"

    def __init__(self, net: NetworkConfig) -> None:
        self.encoder = FlitEncoder(net)
        self.flits = 0

    def process(self, chunk: StimulusChunk) -> LoadedChunk:
        words_of = self.encoder.words
        entries = []
        flits = 0
        for lane_submits in chunk.submits:
            lane_entries = []
            for per_cycle in lane_submits:
                row = []
                for packet, vc in per_cycle:
                    words = words_of(packet)
                    row.append((packet.src, vc, words))
                    flits += len(words)
                lane_entries.append(row)
            entries.append(lane_entries)
        self.flits += flits
        return LoadedChunk(
            chunk.start, chunk.stop, chunk.submits, entries, flits=flits
        )


class SimulateStage:
    """Step 3: feed the per-(router, VC) queues and step the engine.

    Owns the engine plus the driver state that interacts with it: the
    per-lane stimuli queues, stall counters and the overload guard —
    semantics identical to :class:`~repro.traffic.stimuli.TrafficDriver`
    (see the module docstring for the argument).
    """

    name = "simulate"

    def __init__(self, engine, stall_limit: int = 10_000) -> None:
        self.engine = engine
        self.views = lane_views(engine)
        n = len(self.views)
        self.queues: List[Dict[Tuple[int, int], Deque[int]]] = [
            {} for _ in range(n)
        ]
        self._stall: List[Dict[Tuple[int, int], int]] = [{} for _ in range(n)]
        self._inj_seen = [0] * n
        self._ej_seen = [0] * n
        self.stall_limit = stall_limit
        self.overloaded = False

    @property
    def lanes(self) -> int:
        return len(self.views)

    def _pump(self, lane: int) -> None:
        view = self.views[lane]
        stall = self._stall[lane]
        for key, queue in self.queues[lane].items():
            if not queue:
                continue
            router, vc = key
            if view.offer(router, vc, queue[0]):
                queue.popleft()
                stall[key] = 0
            else:
                stalled = stall.get(key, 0) + 1
                stall[key] = stalled
                if stalled > self.stall_limit:
                    self.overloaded = True
                    raise NetworkOverloadError(
                        f"router {router} VC {vc} refused stimuli for "
                        f"{stalled} cycles — network overloaded"
                    )

    def _bounds(self) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
        inj_bounds, ej_bounds = [], []
        for lane, view in enumerate(self.views):
            hi_i, hi_e = len(view.injections), len(view.ejections)
            inj_bounds.append((self._inj_seen[lane], hi_i))
            ej_bounds.append((self._ej_seen[lane], hi_e))
            self._inj_seen[lane], self._ej_seen[lane] = hi_i, hi_e
        return inj_bounds, ej_bounds

    def process(self, chunk: LoadedChunk) -> ResultChunk:
        engine = self.engine
        if engine.cycle != chunk.start:
            raise RuntimeError(
                f"simulate stage out of sync: engine at cycle {engine.cycle}, "
                f"chunk starts at {chunk.start}"
            )
        queues = self.queues
        for off in range(chunk.stop - chunk.start):
            for lane in range(len(self.views)):
                lane_queues = queues[lane]
                for router, vc, words in chunk.entries[lane][off]:
                    key = (router, vc)
                    queue = lane_queues.get(key)
                    if queue is None:
                        lane_queues[key] = queue = deque()
                    queue.extend(words)
                self._pump(lane)
            engine.step()
        inj_bounds, ej_bounds = self._bounds()
        return ResultChunk(
            chunk.start, chunk.stop, chunk.submits, inj_bounds, ej_bounds
        )

    def backlog(self, lane: int) -> int:
        return sum(len(q) for q in self.queues[lane].values())

    def _lane_done(self, lane: int) -> bool:
        return self.backlog(lane) == 0 and self.views[lane].drained()

    def drain(self, max_cycles: int = 100_000) -> ResultChunk:
        """Run until every lane is drained; the returned final chunk
        carries per-lane drain cycle counts identical to
        ``TrafficDriver.drain`` / ``drain_batched``."""
        start = self.engine.cycle
        n = len(self.views)
        done = [-1] * n
        for used in range(max_cycles):
            for lane in range(n):
                if done[lane] < 0 and self._lane_done(lane):
                    done[lane] = used
            if all(d >= 0 for d in done):
                inj_bounds, ej_bounds = self._bounds()
                return ResultChunk(
                    start,
                    self.engine.cycle,
                    [[] for _ in range(n)],
                    inj_bounds,
                    ej_bounds,
                    drained=True,
                    done_cycles=done,
                )
            for lane in range(n):
                self._pump(lane)
            self.engine.step()
        stuck = [i for i, d in enumerate(done) if d < 0]
        raise NetworkOverloadError(
            f"lanes {stuck} did not drain within {max_cycles} cycles"
        )


def _copy_out(log, lo: int, hi: int):
    """Events ``[lo, hi)`` of a lane log: columns stay columns."""
    if isinstance(log, EventLog):
        return log.slice(lo, hi)
    return log[lo:hi]


class RetrieveStage:
    """Step 4: copy the window's log records out of the engine.

    The simulate stage hands over index *bounds*; this stage performs
    the actual copy (the ARM reading FPGA memory).  Slicing below a
    recorded bound of an append-only log is safe while the simulation
    thread keeps appending past it.
    """

    name = "retrieve"

    def __init__(self, engine) -> None:
        self.views = lane_views(engine)
        self.records = 0

    def process(self, chunk: ResultChunk) -> RetrievedChunk:
        injections, ejections = [], []
        for lane, view in enumerate(self.views):
            inj = _copy_out(view.injections, *chunk.inj_bounds[lane])
            ej = _copy_out(view.ejections, *chunk.ej_bounds[lane])
            self.records += len(inj) + len(ej)
            injections.append(inj)
            ejections.append(ej)
        return RetrievedChunk(
            chunk.start,
            chunk.stop,
            chunk.submits,
            injections,
            ejections,
            drained=chunk.drained,
            done_cycles=chunk.done_cycles,
        )


class AnalyzeStage:
    """Step 5: fold each chunk into the running statistics.

    Latency trackers, throughput counters and the latency histogram all
    update incrementally — no stage ever holds a full run's logs.
    """

    name = "analyze"

    def __init__(
        self, net: NetworkConfig, lanes: int, histogram_bin: int = 10
    ) -> None:
        self.net = net
        self.trackers = [PacketLatencyTracker(net) for _ in range(lanes)]
        self.histograms = [Histogram(histogram_bin) for _ in range(lanes)]
        self.inj_counts = [0] * lanes
        self.ej_counts = [0] * lanes
        self.submit_counts = [0] * lanes
        #: per lane: ejected flits per sink router (hotspot accounting)
        self.eject_router_counts: List[Dict[int, int]] = [
            {} for _ in range(lanes)
        ]
        self._samples_seen = [0] * lanes
        self.done_cycles: Optional[List[int]] = None

    def process(self, chunk: RetrievedChunk) -> None:
        for lane, tracker in enumerate(self.trackers):
            if lane < len(chunk.submits):
                for off, per_cycle in enumerate(chunk.submits[lane]):
                    cycle = chunk.start + off
                    for packet, vc in per_cycle:
                        tracker.note_submit(SubmitRecord(packet, vc, cycle))
                        self.submit_counts[lane] += 1
            tracker.collect_records(
                chunk.injections[lane], chunk.ejections[lane]
            )
            self.inj_counts[lane] += len(chunk.injections[lane])
            self.ej_counts[lane] += len(chunk.ejections[lane])
            router_counts = self.eject_router_counts[lane]
            for _cycle, router, _vc, _word in event_rows(chunk.ejections[lane]):
                router_counts[router] = router_counts.get(router, 0) + 1
            seen = self._samples_seen[lane]
            fresh = tracker.samples[seen:]
            if fresh:
                self.histograms[lane].extend_array(
                    [s.total_latency for s in fresh]
                )
                self._samples_seen[lane] = seen + len(fresh)
        if chunk.done_cycles is not None:
            self.done_cycles = chunk.done_cycles

    def throughput(self, lane: int, cycles: int) -> ThroughputStats:
        """Throughput from the accumulated counters (lane's own cycle
        count: warmup + measured + its drain cycles)."""
        return ThroughputStats.from_counts(
            cycles=cycles,
            flits_injected=self.inj_counts[lane],
            flits_ejected=self.ej_counts[lane],
            n_routers=self.net.n_routers,
        )
