"""Lockstep equivalence checking between engines.

Drives several engines with identical traffic and compares every
architectural bit after every system cycle.  This is the tool behind the
reproduction's central validation: all three simulation methods of the
paper's section 3 produce identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple


@dataclass
class EquivalenceReport:
    """Outcome of a lockstep run."""

    cycles: int
    equivalent: bool
    first_divergence: Optional[int] = None
    diverged_engine: Optional[str] = None
    detail: str = ""
    injections: int = 0
    ejections: int = 0

    def __bool__(self) -> bool:
        return self.equivalent


def run_lockstep(
    engines: Sequence,
    cycles: int,
    traffic: Optional[Callable[[int], List[Tuple[int, int, object]]]] = None,
    compare_logs: bool = True,
    stop_on_divergence: bool = True,
) -> EquivalenceReport:
    """Run ``engines`` for ``cycles`` system cycles in lockstep.

    ``traffic(cycle)`` returns a list of ``(router, vc, flit)`` offers to
    attempt before the cycle; the same offers go to every engine, and the
    accept/reject outcome must agree as well (the injection registers are
    architectural state).
    """
    reference = engines[0]
    names = [getattr(e, "name", type(e).__name__) for e in engines]
    for t in range(cycles):
        if traffic is not None:
            offers = traffic(t)
            outcomes = []
            for engine in engines:
                outcomes.append([engine.offer(r, vc, flit) for r, vc, flit in offers])
            if any(o != outcomes[0] for o in outcomes[1:]):
                return EquivalenceReport(
                    cycles=t,
                    equivalent=False,
                    first_divergence=t,
                    detail="offer accept/reject outcomes diverged",
                )
        for engine in engines:
            engine.step()
        want = reference.snapshot()
        for engine, name in zip(engines[1:], names[1:]):
            if engine.snapshot() != want:
                report = EquivalenceReport(
                    cycles=t + 1,
                    equivalent=False,
                    first_divergence=t,
                    diverged_engine=name,
                    detail=_locate_divergence(want, engine.snapshot()),
                )
                if stop_on_divergence:
                    return report
    if compare_logs:
        # Logs compare as record sequences: lists of records and
        # columnar EventLogs compare equal when they hold the same events.
        for engine, name in zip(engines[1:], names[1:]):
            if engine.injections != reference.injections:
                return EquivalenceReport(
                    cycles=cycles,
                    equivalent=False,
                    diverged_engine=name,
                    detail="injection logs differ",
                )
            if engine.ejections != reference.ejections:
                return EquivalenceReport(
                    cycles=cycles,
                    equivalent=False,
                    diverged_engine=name,
                    detail="ejection logs differ",
                )
    return EquivalenceReport(
        cycles=cycles,
        equivalent=True,
        injections=len(reference.injections),
        ejections=len(reference.ejections),
    )


def _locate_divergence(want: Tuple, got: Tuple) -> str:
    """Describe where two snapshots differ (router index / interface)."""
    want_routers, want_ifaces = want
    got_routers, got_ifaces = got
    for i, (a, b) in enumerate(zip(want_routers, got_routers)):
        if a != b:
            return f"router {i} state differs"
    for i, (a, b) in enumerate(zip(want_ifaces, got_ifaces)):
        if a != b:
            return f"stimuli interface {i} state differs"
    return "snapshots differ (shape)"
