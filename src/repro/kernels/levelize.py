"""Levelization: turn the router dependency graph into a static schedule.

The paper's FPGA simulator never iterates to a fixed point — the
hardware evaluates the design on a fixed schedule.  This module recovers
that schedule in software: :meth:`repro.noc.topology.Topology.signal_graph`
exports the combinational dependency graph of the NoC (room / forward /
state nodes per router, with every feedback loop — torus wrap-around
paths included — broken at the registered state boundary), and
:func:`levelize` topologically sorts it into **levels**: a node's level
is one past the deepest of its producers, so evaluating level 0, then
level 1, then level 2 … visits every signal exactly once with all of its
inputs already settled.  This is the classic levelized compiled-code
simulation scheme (the ``nx.topological_sort`` pattern of the myfpga
simulator), done with a dependency-free, deterministic Kahn scan.

For this NoC the result is provably three levels deep:

* level 0 — every ``room`` node (Moore: committed state only),
* level 1 — every ``fwd`` node (reads neighbouring rooms),
* level 2 — every ``state`` node (reads neighbouring forwards),

which is why a *bounded* number of passes (one pass over the leveled
order, :class:`LevelizedScheduler`) replaces the sequential engine's
delta-cycle fixed-point iteration bit-for-bit on fault-free cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Sequence, Tuple

from repro.noc.config import NetworkConfig
from repro.noc.topology import Topology

__all__ = [
    "CyclicDependencyError",
    "LevelSchedule",
    "LevelizedScheduler",
    "levelize",
    "toposort",
]

Node = Hashable
Edge = Tuple[Node, Node]


class CyclicDependencyError(ValueError):
    """The combinational graph contains a loop no level order can serve.

    For the NoC this means a feedback arc was *not* broken at a
    registered boundary — a modelling bug, since every physical loop in
    the network closes through the state registers.  The offending nodes
    are listed so the cycle can be traced.
    """

    def __init__(self, remaining: Sequence[Node]) -> None:
        self.remaining = tuple(remaining)
        super().__init__(
            "combinational dependency graph is cyclic; "
            f"nodes on cycles: {self.remaining}"
        )


def toposort(nodes: Sequence[Node], edges: Sequence[Edge]) -> List[Node]:
    """Topological order of ``nodes`` under ``edges``.

    A deterministic Kahn scan: ready nodes are taken in input order
    (stable within a wave), so the emitted order is reproducible across
    runs and matches the node list the caller built.  Raises
    :class:`CyclicDependencyError` naming the nodes left on cycles.
    """
    indegree: Dict[Node, int] = {node: 0 for node in nodes}
    successors: Dict[Node, List[Node]] = {node: [] for node in nodes}
    for src, dst in edges:
        if src not in indegree or dst not in indegree:
            raise KeyError(f"edge ({src!r}, {dst!r}) references an unknown node")
        indegree[dst] += 1
        successors[src].append(dst)
    ready = [node for node in nodes if indegree[node] == 0]
    order: List[Node] = []
    cursor = 0
    while cursor < len(ready):
        node = ready[cursor]
        cursor += 1
        order.append(node)
        for succ in successors[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    remaining = [node for node in nodes if indegree[node] > 0]
    if remaining:
        raise CyclicDependencyError(remaining)
    return order


@dataclass(frozen=True)
class LevelSchedule:
    """A static evaluation schedule: nodes grouped by dependency depth.

    ``levels[k]`` holds every node whose deepest producer chain has
    length ``k``; evaluating the levels in order visits each node once
    with all inputs settled.  ``validate`` re-checks the defining
    property against an edge list (the hypothesis property tests call it
    with freshly extracted graphs).
    """

    levels: Tuple[Tuple[Node, ...], ...]
    level_of: Dict[Node, int] = field(compare=False, repr=False, default_factory=dict)

    @property
    def order(self) -> Tuple[Node, ...]:
        """The flattened schedule: all nodes in evaluation order."""
        return tuple(node for level in self.levels for node in level)

    @property
    def depth(self) -> int:
        return len(self.levels)

    def __len__(self) -> int:
        return sum(len(level) for level in self.levels)

    def validate(self, nodes: Sequence[Node], edges: Sequence[Edge]) -> None:
        """Assert this schedule is a valid topological leveling.

        Every node appears exactly once, and every combinational edge
        points strictly upward in level (producer before consumer).
        Raises ``ValueError`` with the first violation otherwise.
        """
        order = self.order
        if len(order) != len(set(order)):
            raise ValueError("schedule visits a node more than once")
        if set(order) != set(nodes):
            missing = set(nodes) - set(order)
            extra = set(order) - set(nodes)
            raise ValueError(
                f"schedule covers the wrong node set: missing={sorted(map(repr, missing))} "
                f"extra={sorted(map(repr, extra))}"
            )
        for src, dst in edges:
            if self.level_of[src] >= self.level_of[dst]:
                raise ValueError(
                    f"edge {src!r} -> {dst!r} does not point upward in level "
                    f"({self.level_of[src]} >= {self.level_of[dst]})"
                )


def levelize(cfg_or_topology) -> LevelSchedule:
    """Level the NoC's combinational dependency graph.

    Accepts a :class:`~repro.noc.config.NetworkConfig` or a prebuilt
    :class:`~repro.noc.topology.Topology`.  Feedback arcs are already
    broken at the registered state boundary by ``signal_graph``; a cycle
    surviving that (a modelling bug) raises
    :class:`CyclicDependencyError`.
    """
    if isinstance(cfg_or_topology, NetworkConfig):
        topo = Topology(cfg_or_topology)
        nodes, edges = topo.signal_graph()
    elif isinstance(cfg_or_topology, Topology):
        nodes, edges = cfg_or_topology.signal_graph()
    else:
        nodes, edges = cfg_or_topology
    return levelize_graph(nodes, edges)


def levelize_graph(nodes: Sequence[Node], edges: Sequence[Edge]) -> LevelSchedule:
    """Level an arbitrary DAG: ``level(n) = 1 + max(level(producers))``."""
    order = toposort(nodes, edges)
    producers: Dict[Node, List[Node]] = {node: [] for node in nodes}
    for src, dst in edges:
        producers[dst].append(src)
    level_of: Dict[Node, int] = {}
    for node in order:
        preds = producers[node]
        level_of[node] = 1 + max((level_of[p] for p in preds), default=-1)
    depth = 1 + max(level_of.values(), default=-1)
    buckets: List[List[Node]] = [[] for _ in range(depth)]
    # Bucket in toposort order so each level preserves the scan order.
    for node in order:
        buckets[level_of[node]].append(node)
    return LevelSchedule(tuple(tuple(b) for b in buckets), level_of)


class LevelizedScheduler:
    """Drop-in replacement for fixed-point iteration: a bounded pass.

    Where the dynamic HBR scheduler re-picks unstable units until the
    link memory settles (data-dependent, watchdog-guarded), this
    scheduler emits the leveled static order — each signal exactly once
    per system cycle, ``passes == 1`` always.  The correctness argument
    is the schedule itself: a node only runs after everything it reads,
    so the single pass *is* the fixed point on fault-free cycles.
    ``LevelizedSequentialNetwork`` consumes it; wire faults void the
    argument, so the engine falls back to the dynamic scheduler for
    exactly those cycles.
    """

    def __init__(self, schedule: LevelSchedule) -> None:
        self.schedule = schedule

    @classmethod
    def for_network(cls, cfg: NetworkConfig) -> "LevelizedScheduler":
        return cls(levelize(cfg))

    @property
    def sweeps(self) -> Tuple[Tuple[Node, ...], ...]:
        """The per-level sweeps, in evaluation order."""
        return self.schedule.levels

    @property
    def deltas_per_cycle(self) -> int:
        """Delta cycles one system cycle costs under this schedule: one
        evaluation per scheduled node (``3·R`` for the NoC), matching
        the static-sweep accounting of ``StaticSequentialNetwork``."""
        return len(self.schedule)
