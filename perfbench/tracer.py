"""Per-layer spans and counts, recorded from outside the program.

:class:`Tracer` wraps the functions and methods listed in
:data:`TARGETS` (nothing under ``src/`` is edited) and records one span
per call: group, start, end and the index of the enclosing span.  A
layer's self time is the duration of its spans minus the part covered
by their child spans.  Spans stay in memory until :meth:`Tracer.dump`.

Only the benchmark's traced mode installs the tracer; the end-to-end
numbers come from runs without it.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from typing import Callable, Dict, List, Optional

from workloads import replace_everywhere

#: (span group, module, attribute path).  The layer is the group's prefix.
TARGETS = (
    ("engines.build", "repro.engines.batch", "BatchEngine.__init__"),
    ("engines.build", "repro.seqsim.sequential", "SequentialNetwork.__init__"),
    ("engines.run", "repro.engines.batch", "run_batched"),
    ("engines.step", "repro.engines.batch", "BatchEngine.step"),
    ("engines.drain", "repro.engines.batch", "drain_batched"),
    # The compiled tiers' Python side: pointer plumbing, stimuli
    # staging and event-record extraction around the C call.
    ("engines.extract", "repro.kernels.batchstep", "CompiledBatchStep.step"),
    ("engines.extract", "repro.kernels.batchlevel", "CompiledBatchLevel.step_range"),
    ("engines.extract", "repro.kernels.batchlevel", "CompiledBatchLevel.run_chunk"),
    ("kernels.bind", "repro.kernels.batchstep", "CompiledBatchStep.__init__"),
    ("kernels.bind", "repro.kernels.batchlevel", "CompiledBatchLevel.__init__"),
    ("kernels.bind", "repro.kernels.trafficgen", "load_traffic_kernel"),
    ("kernels.call", "repro.kernels.batchlevel", "CompiledBatchLevel._call"),
    ("traffic.build", "repro.traffic.stimuli", "TrafficDriver.__init__"),
    ("traffic.generate", "repro.traffic.stimuli", "TrafficDriver.generate"),
    ("traffic.generate", "repro.kernels.trafficgen", "BatchedBeGenerator.generate"),
    ("traffic.generate", "repro.kernels.trafficgen", "BatchedBeGenerator.generate_window"),
    ("traffic.generate", "repro.traffic.generators", "BernoulliBeTraffic.packets_for_cycle"),
    ("traffic.generate", "repro.traffic.generators", "GtStreamTraffic.packets_for_cycle"),
    ("traffic.pump", "repro.traffic.stimuli", "TrafficDriver.pump"),
    ("stats.collect", "repro.stats.latency", "PacketLatencyTracker.collect"),
    ("stats.analyze", "repro.stats.latency", "PacketLatencyTracker.stats"),
    ("stats.analyze", "repro.experiments.common", "_fig1_point_result"),
    ("seqsim.step", "repro.seqsim.sequential", "SequentialNetwork.step"),
    ("platform.run", "repro.platform.controller", "SimulationController.run"),
    ("faults.apply", "repro.faults.model", "FaultModel.apply"),
    ("faults.campaign", "repro.faults.campaign", "run_campaign"),
    ("experiments.fig1", "repro.experiments.fig1", "run"),
    ("experiments.fig1", "repro.experiments.common", "run_fig1_workloads_batched"),
)

#: the span around one whole workload call; its self time is the part
#: of the call no wrapped layer accounts for.
ROOT = "unattributed"

#: the layers with a ``self.<layer>_s`` metric; every metric's name and
#: unit is declared in ``BENCHMARK.json`` (``per_layer``).
LAYERS = ("engines", "kernels", "traffic", "stats", "seqsim", "platform", "faults", "experiments")


def steal_seconds() -> float:
    """Host-wide steal time so far (``/proc/stat``), 0.0 where unreadable."""
    try:
        with open("/proc/stat") as stream:
            fields = stream.readline().split()
    except OSError:
        return 0.0
    if len(fields) < 9 or fields[0] != "cpu":
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


class _TimedLib:
    """Stands in for a cffi library so its step entry point is a span."""

    def __init__(self, lib, step: Callable) -> None:
        self._lib = lib
        self.repro_step_batch = step

    def __getattr__(self, name):
        return getattr(self._lib, name)


class Tracer:
    """Installs span wrappers; one :meth:`rep` per traced workload call."""

    def __init__(self) -> None:
        self.groups: List[str] = [ROOT] + sorted({g for g, _, _ in TARGETS})
        self._gid = {g: i for i, g in enumerate(self.groups)}
        #: every span: [group id, start, end, parent index]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[Callable] = []
        self._rep_start = 0
        #: index of the latest call's root span
        self.last_root = 0
        self.kernel_cycles = 0
        self.compiles = 0
        self.drain_cycles = 0
        self.seen: Dict[str, list] = {}
        self._gc_start: Optional[float] = None
        self.gc_s = 0.0
        self.gc_gen2 = 0

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        import importlib

        for group, module_name, path in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._span(group, original, path))
                self._undo.append(lambda o=owner, a=attr, f=original: setattr(o, a, f))
            else:
                original = getattr(module, attr)
                wrapped = self._span(group, original, path)
                replace_everywhere(original, wrapped)
                self._undo.append(lambda f=original, w=wrapped: replace_everywhere(w, f))
        from repro.kernels import cbackend

        build = cbackend._build

        def counted_build(*args, **kwargs):
            self.compiles += 1
            return build(*args, **kwargs)

        cbackend._build = counted_build
        self._undo.append(lambda: setattr(cbackend, "_build", build))
        gc.callbacks.append(self._on_gc)
        self._undo.append(lambda: gc.callbacks.remove(self._on_gc))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self._gc_start = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    def _span(self, group: str, fn: Callable, path: str) -> Callable:
        gid = self._gid[group]
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        observe = self._observer(path)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [gid, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                stack.pop()
                span[2] = clock()
                if observe is not None:
                    observe(args, result)

        traced.__wrapped__ = fn
        if path == "drain_batched":
            return self._drain_counter(traced)
        return traced

    def _drain_counter(self, traced: Callable) -> Callable:
        def counted(engine, *args, **kwargs):
            before = engine.cycle
            try:
                return traced(engine, *args, **kwargs)
            finally:
                self.drain_cycles += (engine.cycle - before) * engine.lanes

        counted.__wrapped__ = traced
        return counted

    def _observer(self, path: str) -> Optional[Callable]:
        """What to remember from a call, beyond its span."""
        seen = self.seen
        if path == "CompiledBatchStep.__init__":

            def proxy(args, result):
                compiled = args[0]
                if not hasattr(compiled, "_lib"):
                    return  # the constructor raised
                step = self._span("kernels.call", compiled._lib.repro_step_batch, "repro_step_batch")
                compiled._lib = _TimedLib(compiled._lib, step)

            return proxy
        if path == "CompiledBatchLevel._call":

            def cycles(args, result):
                self.kernel_cycles += args[3]

            return cycles
        if path == "repro_step_batch":  # one cycle per C call

            def one_cycle(args, result):
                self.kernel_cycles += 1

            return one_cycle
        remember = {
            "BatchEngine.__init__": "batch_engines",
            "SequentialNetwork.__init__": "seq_engines",
            "TrafficDriver.__init__": "drivers",
            "PacketLatencyTracker.collect": "trackers",
            "SimulationController.run": "controllers",
            "run_campaign": "campaigns",
        }.get(path)
        if remember is None:
            return None
        if remember == "campaigns":
            return lambda args, result: result is not None and seen.setdefault(
                remember, []
            ).append(result)
        if remember == "controllers":
            return lambda args, result: seen.setdefault(remember, []).append(
                (args[0], result)
            )
        return lambda args, result: seen.setdefault(remember, []).append(args[0])

    # -- one traced call ----------------------------------------------------
    def rep(self, call: Callable):
        """Run ``call()`` as one traced workload call; returns
        ``(result, metrics)`` with this call's per-layer metrics."""
        self._rep_start = self.last_root = len(self.spans)
        self.kernel_cycles = self.compiles = self.drain_cycles = 0
        self.gc_s = 0.0
        self.gc_gen2 = 0
        self.seen.clear()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        steal0 = steal_seconds()
        root = [self._gid[ROOT], time.perf_counter(), 0.0, -1]
        self.spans.append(root)
        self._stack.append(self._rep_start)
        try:
            result = call()
        finally:
            self._stack.pop()
            root[2] = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        metrics = self._metrics()
        metrics["host.minflt"] = ru1.ru_minflt - ru0.ru_minflt
        metrics["host.steal_s"] = steal_seconds() - steal0
        self.seen.clear()  # drop engine references before the next call
        return result, metrics

    def _metrics(self) -> Dict[str, float]:
        spans = self.spans[self._rep_start :]
        base = self._rep_start
        groups = self.groups
        child = [0.0] * len(spans)
        for gid, start, end, parent in spans:
            if parent >= 0:
                child[parent - base] += end - start
        # which of run_batched / drain_batched a span runs under
        phase = [None] * len(spans)
        self_by_group: Dict[str, float] = {g: 0.0 for g in groups}
        self_by_phase: Dict[tuple, float] = {}
        count_by_group: Dict[str, int] = {g: 0 for g in groups}
        outer_generate = 0
        drain_wall = 0.0
        generate = self._gid["traffic.generate"]
        for i, (gid, start, end, parent) in enumerate(spans):
            group = groups[gid]
            own = (end - start) - child[i]
            self_by_group[group] += own
            count_by_group[group] += 1
            p = phase[parent - base] if parent >= 0 else None
            if group in ("engines.run", "engines.drain"):
                p = group
            phase[i] = p
            if group.startswith("engines."):
                self_by_phase[(group, p)] = self_by_phase.get((group, p), 0.0) + own
            if group == "engines.drain":
                drain_wall += end - start
            if gid == generate and (parent < 0 or spans[parent - base][0] != generate):
                outer_generate += 1

        def under(phase_name):
            return sum(
                v
                for (group, p), v in self_by_phase.items()
                if p == phase_name and group in ("engines.run", "engines.step", "engines.extract")
            )

        seen = self.seen
        kernel_calls = count_by_group["kernels.call"]
        m: Dict[str, float] = {
            "engines.build_s": self_by_group["engines.build"],
            "kernels.bind_s": self_by_group["kernels.bind"],
            "kernels.compiles": self.compiles,
            "kernels.calls": kernel_calls,
            "kernels.self_s": self_by_group["kernels.call"],
            "kernels.cycles_per_call": self.kernel_cycles / kernel_calls if kernel_calls else 0.0,
            "traffic.generate_s": self_by_group["traffic.generate"],
            "traffic.generate_calls": outer_generate,
            "traffic.pump_s": self_by_group["traffic.pump"],
            "traffic.flits": sum(d.flits_generated for d in seen.get("drivers", ()))
            + sum(c.flits_generated for c, _ in seen.get("controllers", ())),
            "engines.run_self_s": under("engines.run"),
            "engines.extract_s": self_by_group["engines.extract"],
            "engines.drain_s": drain_wall,
            "engines.drain_cycles": self.drain_cycles,
            "engines.records": sum(
                sum(len(log) for log in e._injections) + sum(len(log) for log in e._ejections)
                for e in seen.get("batch_engines", ())
            )
            + sum(len(e.injections) + len(e.ejections) for e in seen.get("seq_engines", ())),
            "stats.collect_s": self_by_group["stats.collect"],
            "stats.analyze_s": self_by_group["stats.analyze"],
            "stats.samples": sum(len(t.samples) for t in {id(t): t for t in seen.get("trackers", ())}.values()),
            "seqsim.step_s": self_by_group["seqsim.step"],
            "platform.run_self_s": self_by_group["platform.run"],
            "faults.apply_s": self_by_group["faults.apply"],
            "experiments.self_s": self_by_group["experiments.fig1"],
            "host.gc_s": self.gc_s,
            "host.gc_gen2": self.gc_gen2,
            "self.unattributed_s": self_by_group[ROOT],
            "trace.rep_s": spans[0][2] - spans[0][1],
        }
        for layer in LAYERS:
            m[f"self.{layer}_s"] = sum(
                v for g, v in self_by_group.items() if g.split(".")[0] == layer
            )
        seq = seen.get("seq_engines", ())
        m["seqsim.deltas_per_cycle"] = (
            statistics.fmean(e.metrics.mean_deltas_per_cycle() for e in seq) if seq else 0.0
        )
        m["seqsim.extra_fraction"] = (
            statistics.fmean(e.metrics.extra_fraction() for e in seq) if seq else 0.0
        )
        controllers = seen.get("controllers", ())
        m["platform.periods"] = sum(r.periods for _, r in controllers if r is not None)
        m["platform.rollbacks"] = sum(c.rollbacks for c, _ in controllers)
        m["platform.recovery_deltas"] = sum(c.recovery_deltas for c, _ in controllers)
        campaigns = seen.get("campaigns", ())
        m["faults.injected"] = sum(r.injected for r in campaigns)
        m["faults.detected"] = sum(r.detected for r in campaigns)
        m["faults.recovered"] = sum(r.recovered for r in campaigns)
        return m

    def dump(self, path: str) -> None:
        """Write every span recorded so far as compact JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as stream:
            json.dump(
                {
                    "fields": ["group", "start_s", "end_s", "parent"],
                    "groups": self.groups,
                    "spans": self.spans,
                },
                stream,
                separators=(",", ":"),
            )
