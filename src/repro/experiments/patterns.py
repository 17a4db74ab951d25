"""Traffic-pattern sweep — the paper's stated purpose for the simulator:
"this enables us to observe the NoC behavior under a large variety of
traffic patterns" (abstract).

Runs the same offered load under uniform-random, transpose,
bit-complement and hotspot destination patterns and reports the
canonical NoC orderings: adversarial patterns cost more latency than
uniform, and the hotspot concentrates the traffic on its target.

Each pattern run is a pure function of ``(pattern name, load, cycles,
seed)`` — the sweep fans out over worker processes via
:func:`repro.experiments.parallel.parallel_map` and the results carry
plain numbers only (no engine objects), so they pickle across the
process boundary and serial/parallel runs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import render_table, scale
from repro.experiments.parallel import lane_batchable, parallel_map, stream_enabled
from repro.noc.eventlog import event_rows

#: offered BE load shared by every pattern (fraction of capacity).
LOAD = 0.10

#: the swept patterns, by name (must stay importable for pickling).
PATTERNS = ("uniform", "transpose", "bit_complement", "hotspot")

#: the hotspot pattern's target node (centre of the 6x6 torus).
HOTSPOT_XY = (3, 3)


@dataclass
class PatternResult:
    """One pattern's latency/throughput summary (picklable: numbers only)."""

    name: str
    mean: float
    p99: float
    max: int
    packets: int
    mean_hops: float
    ejections: int
    #: fraction of all ejected flits landing on the hotspot target
    #: (meaningful for every pattern; the hotspot assertion uses it).
    to_hotspot_fraction: float


def _make_pattern(name: str, net):
    from repro.traffic import bit_complement, hotspot, transpose, uniform_random

    if name == "uniform":
        return uniform_random(net)
    if name == "transpose":
        return transpose(net)
    if name == "bit_complement":
        return bit_complement(net)
    if name == "hotspot":
        return hotspot(net, target=net.index(*HOTSPOT_XY), fraction=0.4)
    raise ValueError(f"unknown pattern {name!r}; known: {PATTERNS}")


def run_pattern(
    name: str,
    cycles: int,
    load: float = LOAD,
    seed: int = 0x7A77,
    engine_cls=None,
) -> PatternResult:
    """One sweep point: module-level and summarised, hence picklable."""
    from repro.engines import SequentialEngine
    from repro.noc import NetworkConfig
    from repro.stats import PacketLatencyTracker
    from repro.traffic import BernoulliBeTraffic, TrafficDriver

    engine_cls = engine_cls or SequentialEngine
    net = NetworkConfig(6, 6, topology="torus")
    engine = engine_cls(net)
    be = BernoulliBeTraffic(net, load, _make_pattern(name, net), seed=seed)
    driver = TrafficDriver(engine, be=be)
    tracker = PacketLatencyTracker(net)
    driver.attach_tracker(tracker)
    driver.run(cycles)
    driver.be = None
    driver.drain()
    tracker.collect(engine)
    return _pattern_result(name, net, tracker, engine.ejections)


def _pattern_result(name: str, net, tracker, ejection_log) -> PatternResult:
    """Summarise one pattern run from its collected tracker and log."""
    stats = tracker.stats()
    target = net.index(*HOTSPOT_XY)
    ejections = len(ejection_log)
    to_target = sum(1 for _c, router, _v, _w in event_rows(ejection_log) if router == target)
    return PatternResult(
        name=name,
        mean=stats.mean,
        p99=stats.p99,
        max=stats.maximum,
        packets=stats.count,
        mean_hops=sum(s.hops for s in tracker.samples) / len(tracker.samples),
        ejections=ejections,
        to_hotspot_fraction=to_target / ejections if ejections else 0.0,
    )


def run_patterns_batched(
    names: Sequence[str], cycles: int, load: float = LOAD, seed: int = 0x7A77
) -> List[PatternResult]:
    """The pattern sweep on one batch engine, one lane per pattern.

    Each lane offers the identical stimuli its solo :func:`run_pattern`
    run would, and the batch engine is bit-identical to the sequential
    engine per lane, so the summaries match the process-path sweep.
    """
    from repro.engines import BatchEngine, drain_batched, run_batched
    from repro.noc import NetworkConfig
    from repro.stats import PacketLatencyTracker
    from repro.traffic import BernoulliBeTraffic, TrafficDriver

    net = NetworkConfig(6, 6, topology="torus")
    engine = BatchEngine(net, lanes=len(names))
    drivers = []
    trackers = []
    for i, name in enumerate(names):
        be = BernoulliBeTraffic(net, load, _make_pattern(name, net), seed=seed)
        driver = TrafficDriver(engine.lane(i), be=be)
        tracker = PacketLatencyTracker(net)
        driver.attach_tracker(tracker)
        drivers.append(driver)
        trackers.append(tracker)
    run_batched(engine, drivers, cycles)
    for driver in drivers:
        driver.be = None
    drain_batched(engine, drivers)
    results = []
    for i, name in enumerate(names):
        trackers[i].collect(engine.lane(i))
        results.append(
            _pattern_result(name, net, trackers[i], engine.lane_ejections(i))
        )
    return results


@dataclass
class PatternsResult:
    points: List[PatternResult]

    @property
    def by_name(self) -> Dict[str, PatternResult]:
        return {p.name: p for p in self.points}

    # -- the shape checks the sweep asserts -------------------------------
    def bit_complement_max_distance(self) -> bool:
        """Bit-complement forces maximal average distance on the torus."""
        r = self.by_name
        return r["bit_complement"].mean_hops > r["uniform"].mean_hops

    def hotspot_costs_latency(self) -> bool:
        """The hotspot concentrates latency: worse than uniform at equal load."""
        r = self.by_name
        return r["hotspot"].mean > r["uniform"].mean

    def hotspot_concentrates(self) -> bool:
        """The target receives a disproportionate share of the flits."""
        return self.by_name["hotspot"].to_hotspot_fraction > 0.25

    def rows(self) -> List[Sequence]:
        return [
            (
                p.name,
                round(p.mean, 1),
                round(p.p99, 1),
                p.max,
                p.packets,
                round(p.mean_hops, 2),
                f"{100.0 * p.to_hotspot_fraction:.1f}%",
            )
            for p in self.points
        ]

    def render(self) -> str:
        return render_table(
            ["pattern", "mean", "p99", "max", "#pkts", "hops", "to hotspot"],
            self.rows(),
            title=f"Traffic patterns — latency [cycles] at BE load {LOAD} (6x6 torus)",
        )


def run(
    patterns: Sequence[str] = PATTERNS,
    cycles: Optional[int] = None,
    load: float = LOAD,
    seed: int = 0x7A77,
    workers: Optional[int] = None,
    profiler=None,
    stream: Optional[bool] = None,
) -> PatternsResult:
    cycles = cycles if cycles is not None else scale(1200)
    if lane_batchable(len(patterns), workers):
        if stream_enabled(stream):
            from repro.pipeline import stream_pattern_sweep

            swept = stream_pattern_sweep(
                patterns, cycles, load=load, seed=seed, profiler=profiler
            )
            return PatternsResult(swept.points)
        if profiler is not None:
            profiler.count("points", len(patterns))
            profiler.count("lanes", len(patterns))
            with profiler.stage("sweep"):
                return PatternsResult(
                    run_patterns_batched(patterns, cycles, load=load, seed=seed)
                )
        return PatternsResult(
            run_patterns_batched(patterns, cycles, load=load, seed=seed)
        )
    point = partial(run_pattern, cycles=cycles, load=load, seed=seed)
    return PatternsResult(
        parallel_map(point, patterns, workers=workers, profiler=profiler)
    )


def main() -> PatternsResult:
    result = run()
    print(result.render())
    print()
    print(f"bit-complement maximises distance:  {result.bit_complement_max_distance()}")
    print(f"hotspot costs latency vs uniform:   {result.hotspot_costs_latency()}")
    print(f"hotspot concentrates ejections:     {result.hotspot_concentrates()}")
    return result


if __name__ == "__main__":
    main()
