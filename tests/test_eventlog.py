"""Columnar event logs: the batch engine's per-lane injection/ejection logs.

An :class:`~repro.noc.eventlog.EventLog` must read exactly like the
record list the object-model engines keep (length, indexing, slicing,
iteration, equality, truncation) while storing plain int64 columns, so
a long batched run holds a few words per flit event instead of a Python
object per event.  The latency tracker reads those columns directly;
its samples must equal the reference path's.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.engines import BatchEngine, drain_batched, run_batched
from repro.experiments.common import fig1_gt_streams, fig1_network
from repro.kernels import probe_backends
from repro.noc import NetworkConfig
from repro.noc.eventlog import EventLog, event_rows
from repro.noc.network import EjectionRecord, InjectionRecord
from repro.stats.latency import PacketLatencyTracker
from repro.traffic import BernoulliBeTraffic, TrafficDriver, uniform_random
from repro.traffic.generators import GtStreamTraffic

JIT_REASON = probe_backends()["cffi"]
needs_jit = pytest.mark.skipif(
    JIT_REASON != "ok", reason=f"cffi backend unavailable: {JIT_REASON}"
)


def sample_records(n=10):
    return [InjectionRecord(3 * i, i % 4, i % 3, 0x1_0000 + i, i) for i in range(n)]


def log_of(records, kind=InjectionRecord, chunk=None):
    """An EventLog holding ``records``, appended ``chunk`` events at a time."""
    log = EventLog(kind)
    block = np.array([list(vars(r).values()) for r in records], dtype=np.int64).T
    chunk = chunk or max(1, len(records))
    for lo in range(0, len(records), chunk):
        log.append_columns(block[:, lo : lo + chunk])
    return log


class TestEventLogSurface:
    def test_reads_like_the_record_list(self):
        records = sample_records(10)
        log = log_of(records, chunk=3)
        assert len(log) == 10
        assert log == records and records == log
        assert not (log != records)
        assert log[0] == records[0] and log[-1] == records[-1]
        assert log[2:7] == records[2:7]
        assert log[::3] == records[::3]
        assert list(log) == records
        assert log != records[:9]
        with pytest.raises(IndexError):
            log[10]

    def test_columns_follow_the_record_fields(self):
        log = log_of([EjectionRecord(5, 2, 1, 0x3_00AB), EjectionRecord(6, 0, 3, 7)], EjectionRecord)
        cols = log.columns()
        assert cols.dtype == np.int64 and cols.shape == (4, 2)
        assert cols[:, 0].tolist() == [5, 2, 1, 0x3_00AB]
        assert list(event_rows(log)) == [(5, 2, 1, 0x3_00AB), (6, 0, 3, 7)]
        assert list(event_rows(log, 1)) == [(6, 0, 3, 7)]
        assert list(event_rows(list(log), 1)) == [(6, 0, 3, 7)]

    def test_growth_and_slices(self):
        records = sample_records(9000)  # several growth steps and blocks
        log = log_of(records, chunk=700)
        assert log == records
        assert log == log_of(records)  # column-wise comparison
        assert log != log_of(records[:-1])
        assert log.slice(100, 8200) == records[100:8200]
        assert log.slice(100, 8200).columns().base is not log.columns().base


def gt_be_run(kernel, lanes=3, cycles=360):
    """GT+BE traffic with one latency tracker per lane, then a drain."""
    net = fig1_network()
    engine = BatchEngine(net, lanes=lanes, kernel=kernel)
    drivers, trackers = [], []
    for i in range(lanes):
        gt = GtStreamTraffic(net, fig1_gt_streams(net).streams, period=60)
        be = BernoulliBeTraffic(net, 0.05 + 0.04 * i, uniform_random(net), seed=21 + i)
        driver = TrafficDriver(engine.lane(i), be=be, gt=gt)
        tracker = PacketLatencyTracker(net)
        driver.attach_tracker(tracker)
        drivers.append(driver)
        trackers.append(tracker)
    run_batched(engine, drivers, cycles // 2)
    for tracker, driver in zip(trackers, drivers):
        tracker.collect(driver.engine)  # mid-run: the cursors must hold
    run_batched(engine, drivers, cycles - cycles // 2)
    for driver in drivers:
        driver.be = driver.gt = None
    drain_batched(engine, drivers)
    for tracker, driver in zip(trackers, drivers):
        tracker.collect(driver.engine)
    return engine, trackers


class TestTrackerOnColumns:
    @needs_jit
    def test_levelized_tracker_equals_python(self):
        lev, lev_trackers = gt_be_run("levelized")
        ref, ref_trackers = gt_be_run("python")
        assert lev.kernel == "levelized"
        for lane in range(lev.lanes):
            samples = lev_trackers[lane].samples
            assert samples and samples == ref_trackers[lane].samples
            assert lev_trackers[lane].open_vcs == []
            assert list(lev.lane_injections(lane)) == list(ref.lane_injections(lane))
            assert list(lev.lane_ejections(lane)) == list(ref.lane_ejections(lane))


@needs_jit
class TestBoundedLogMemory:
    def test_bytes_per_event_stay_small(self):
        """16 lanes x 2000 cycles of Table-3 traffic: the logs cost a few
        words per event (record objects with their boxed fields cost
        ~177 B per event on this workload)."""
        net = NetworkConfig(6, 6, topology="torus")
        engine = BatchEngine(net, lanes=16)
        drivers = [
            TrafficDriver(
                engine.lane(i),
                be=BernoulliBeTraffic(net, 0.08, uniform_random(net), seed=0xBEE + i),
            )
            for i in range(16)
        ]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run_batched(engine, drivers, 2000)
            del drivers  # their queues and submit records are not logs
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        events = sum(len(log) for log in engine._injections + engine._ejections)
        assert events > 150_000
        assert grown / events < 64

        def no_records(*args):
            raise AssertionError("len() must not build records")

        for log in engine._injections + engine._ejections:
            log.record = no_records
        assert sum(len(engine.lane_injections(i)) for i in range(16)) > 0
