"""The benchmark's three workloads, each driven through public entry points.

A workload is a function ``(seed, kernel)`` that performs one whole
user-visible operation set (build, simulate, produce results) and
returns the program's own result; a second function turns that result
into an :class:`Outcome` once the clock has stopped.  Nothing from
``repro`` is imported at module level: importing the modules a workload
uses is part of its set-up time, so it happens inside the call.

Two clock points are taken from outside the program.  The first
simulated cycle is stamped by :class:`FirstCycle`, a one-line wrapper on
the calls that start simulating (``run_batched`` and
``SimulationController.run``); the end is when the call returns, which
is when its results (event logs, latency statistics, campaign report)
exist.
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: the seed the recorded reference outputs (``reference.json``) belong to.
DEFAULT_SEED = 0

#: table3-lanes: the Table-3 network, load and lane count.
TABLE3_LANES = 16
TABLE3_LOAD = 0.08
TABLE3_CYCLES = 2000

#: fig1-sweep: measured cycles per lane after fig1's one-GT-period warm-up.
FIG1_CYCLES = 1000


@dataclass
class Outcome:
    """What one call of a workload produced."""

    #: simulated cycles, summed over lanes, drain included.
    cycles: int
    #: one entry per operation (lane, load point or campaign), compared
    #: with the reference entry at the same index.
    outputs: List
    #: whole-result checks that must all hold (fig1 shape, campaign gate).
    checks: Dict[str, bool]
    kernel: Optional[str]
    kernel_reason: Optional[str]


class StopAtFirstCycle(Exception):
    """Raised by an armed :class:`FirstCycle` to end a set-up-only call."""


class FirstCycle:
    """Stamps the first simulated cycle of a workload call.

    Wraps the entry points that begin simulating; the wrapper reads the
    clock once per call and remembers the engine it was handed.  With
    ``stop=True`` the first call raises :class:`StopAtFirstCycle`
    instead of simulating, which is how set-up alone is timed.
    """

    def __init__(self) -> None:
        self.stamp: Optional[float] = None
        self.engine = None
        self.stop = False
        #: clock at every step of the simulation after the stamp: each
        #: sequential-engine step (campaign), each advance of a batch
        #: engine's cycle counter (by one cycle or by a fused chunk)
        self.marks: List[float] = []

    def arm(self, stop: bool = False) -> None:
        self.stamp = None
        self.engine = None
        self.stop = stop
        self.marks = []

    def install(self, workload: str) -> None:
        """Wrap the call where ``workload`` starts simulating."""
        if workload == "fault-campaign":
            from repro.platform.controller import SimulationController
            from repro.seqsim.sequential import SequentialNetwork

            SimulationController.run = self._wrap(SimulationController.run)
            # A rollback re-simulates cycles that ``cycles_run`` counts
            # once; the rate counts every cycle the engine stepped.
            step = SequentialNetwork.step
            clock = time.perf_counter

            def counted_step(engine):
                self.marks.append(clock())
                return step(engine)

            SequentialNetwork.step = counted_step
        else:
            from repro.engines import batch

            replace_everywhere(batch.run_batched, self._wrap(batch.run_batched))
            batch.BatchEngine.cycle = _CycleMarks(self)

    def _wrap(self, fn: Callable) -> Callable:
        clock = time.perf_counter

        def first_cycle(engine_or_self, *args, **kwargs):
            if self.stamp is None:
                self.stamp = clock()
                self.engine = getattr(engine_or_self, "engine", engine_or_self)
                if self.stop:
                    raise StopAtFirstCycle()
            return fn(engine_or_self, *args, **kwargs)

        first_cycle.__wrapped__ = fn
        return first_cycle


class _CycleMarks:
    """Marks every assignment to a batch engine's ``cycle`` after the stamp.

    It defines ``__set__`` but no ``__get__``, so reads still come
    straight from the instance dictionary and cost nothing extra.
    """

    def __init__(self, first: FirstCycle) -> None:
        self.first = first
        self.clock = time.perf_counter

    def __set__(self, engine, value) -> None:
        engine.__dict__["cycle"] = value
        if self.first.stamp is not None:
            self.first.marks.append(self.clock())


def replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every module-level name under ``repro`` bound to ``original``.

    Functions are re-exported (``repro.engines.run_batched``) and
    imported by name (``from repro.experiments.common import ...``), so
    patching the defining module alone would miss callers.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _fold(seed: int, base: int, modulus: int) -> int:
    """A non-zero seed in ``[1, modulus]`` derived from the bench seed."""
    return 1 + (base - 1 + seed) % modulus


def table3_lane_seed(seed: int, lane: int) -> int:
    return _fold(seed * TABLE3_LANES + lane, 0xBEE, 2**32 - 1)


def fig1_seed(seed: int) -> int:
    return _fold(seed, 0x5EED, 2**32 - 1)


def campaign_seed(seed: int) -> int:
    # The campaign derives its BE seed as ``seed ^ 0x5EED``, which must
    # stay non-zero: fold below 0x5EED.
    return _fold(seed, 1, 0x5EEC)


def snapshot_digest(snapshot) -> str:
    return hashlib.sha256(repr(snapshot).encode()).hexdigest()[:16]


def table3_lanes(seed: int, kernel: str = "auto"):
    """16 seeded lanes of the Table-3 network on one batch engine."""
    from repro.engines import BatchEngine, drain_batched, run_batched
    from repro.noc.config import NetworkConfig
    from repro.traffic import BernoulliBeTraffic, TrafficDriver, uniform_random

    net = NetworkConfig(6, 6, topology="torus")  # queue depth 4 (default)
    engine = BatchEngine(net, lanes=TABLE3_LANES, kernel=kernel)
    drivers = [
        TrafficDriver(
            engine.lane(i),
            be=BernoulliBeTraffic(
                net, TABLE3_LOAD, uniform_random(net), seed=table3_lane_seed(seed, i)
            ),
        )
        for i in range(TABLE3_LANES)
    ]
    run_batched(engine, drivers, TABLE3_CYCLES)
    for driver in drivers:
        driver.be = None
    return engine, drain_batched(engine, drivers)


def table3_outcome(result, first: "FirstCycle") -> Outcome:
    engine, drain = result
    return Outcome(
        cycles=engine.cycle * engine.lanes,
        outputs=[
            [
                len(engine.lane_injections(i)),
                len(engine.lane_ejections(i)),
                drain[i],
                snapshot_digest(engine.lane_snapshot(i)),
            ]
            for i in range(engine.lanes)
        ],
        checks={},
        kernel=engine.kernel,
        kernel_reason=engine.kernel_reason,
    )


def fig1_sweep(seed: int, kernel: str = "auto"):
    """``repro.experiments.fig1.run`` over its default 8 BE loads.

    ``fig1.run`` builds its own engine on the backend ladder, so the
    reference path (``kernel="python"``) is selected through
    ``REPRO_KERNELS=numpy`` in the environment of the reference process.
    """
    from repro.experiments import fig1

    return fig1.run(cycles=FIG1_CYCLES, seed=fig1_seed(seed))


def fig1_outcome(result, first: "FirstCycle") -> Outcome:
    # fig1.run keeps its engine to itself: take it from the first-cycle stamp.
    engine = first.engine
    return Outcome(
        cycles=engine.cycle * engine.lanes,
        outputs=[
            [
                p.be_load,
                p.gt_mean,
                p.gt_max,
                p.be_mean,
                p.be_max,
                p.guarantee,
                p.gt_packets,
                p.be_packets,
                p.accepted_be_load,
                p.extra_delta_fraction,
            ]
            for p in result.points
        ],
        checks={
            "gt_max_below_guarantee": result.gt_max_below_guarantee(),
            "gt_latency_increases": result.gt_latency_increases(),
            "gt_above_be": result.gt_above_be(),
        },
        kernel=engine.kernel,
        kernel_reason=engine.kernel_reason,
    )


def fault_campaign(seed: int, kernel: str = "auto"):
    """The default 100-fault campaign plus the closing flap fault."""
    from repro.faults import CampaignConfig, run_campaign

    return run_campaign(CampaignConfig(include_flap=True, seed=campaign_seed(seed)))


def campaign_outcome(report, first: "FirstCycle") -> Outcome:
    return Outcome(
        cycles=len(first.marks),
        outputs=[
            [
                report.injected,
                report.detected,
                report.recovered,
                report.rollbacks,
                report.cycles_run,
                report.total_deltas,
            ]
        ],
        checks={
            # the gate of ``repro faults campaign`` (default --min-recovery 0.9)
            "recovery_at_least_0.9": report.recovery_rate >= 0.9,
            "budget_not_exhausted": not report.recovery_exhausted,
        },
        kernel=None,
        kernel_reason="sequential HBR engine, no batch kernel",
    )


#: name -> (workload call, outcome summary computed after the clock stops)
WORKLOADS: Dict[str, Tuple[Callable, Callable]] = {
    "table3-lanes": (table3_lanes, table3_outcome),
    "fig1-sweep": (fig1_sweep, fig1_outcome),
    "fault-campaign": (fault_campaign, campaign_outcome),
}
