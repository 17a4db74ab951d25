"""Bit-identity gates for the fused levelized batch kernel and
quiescence fast-forward.

The levelized chunk kernel (``repro.kernels.batchlevel``) replaces the
per-cycle dynamic allocation sweep with one fused C walk of the static
level schedule per cycle, whole chunks at a time — it is only allowed
to be *faster*, never *different*.  Every test here pins some facet of
that contract: lane-for-lane lockstep against the NumPy reference,
chunked-versus-per-cycle identity, per-lane fallback when a fault is
resident, exact overload diagnosis parity (driver and tracker state
included), columnar event logs that stay small, and ``auto`` resolving
to the fused kernel without importing networkx.

Fast-forward (``run_batched(..., fast_forward=True)``) gets the safety
battery the design doc promises: it never skips while a fault is
resident, a planned fault mid-skip-window still lands on exactly its
cycle, and a livelock-style diagnosis is byte-identical with the flag
on or off.

The closed-form LFSR jump underneath fast-forward (and the farm's
checkpoint cross-check) is property-tested with hypothesis over random
widths, tap masks and distances.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.base import make_engine
from repro.engines.batch import (
    BatchEngine,
    _try_fast_forward,
    run_batched,
)
from repro.experiments.common import fig1_gt_streams, fig1_network
from repro.kernels import probe_backends
from repro.noc import NetworkConfig, RouterConfig
from repro.stats.latency import PacketLatencyTracker
from repro.traffic.generators import (
    BernoulliBeTraffic,
    GtStreamTraffic,
    uniform_random,
)
from repro.traffic.rng import HardwareLfsr, lfsr_jump
from repro.traffic.stimuli import NetworkOverloadError, TrafficDriver

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

JIT_REASON = probe_backends()["cffi"]
needs_jit = pytest.mark.skipif(
    JIT_REASON != "ok", reason=f"cffi backend unavailable: {JIT_REASON}"
)


def torus(width: int = 3, height: int = 3, queue_depth: int = 2) -> NetworkConfig:
    return NetworkConfig(
        width, height, topology="torus", router=RouterConfig(queue_depth=queue_depth)
    )


def make_drivers(engine, load, seed=0xBEE, gt_period=None, stall_limit=10_000):
    """One Bernoulli-BE (optionally plus GT) driver per lane."""
    net = engine.cfg
    drivers = []
    for i in range(engine.lanes):
        gt = None
        if gt_period is not None:
            gt = GtStreamTraffic(net, fig1_gt_streams(net).streams, period=gt_period)
        be = (
            BernoulliBeTraffic(net, load, uniform_random(net), seed=seed + i)
            if load is not None
            else None
        )
        drivers.append(
            TrafficDriver(engine.lane(i), be=be, gt=gt, stall_limit=stall_limit)
        )
    return drivers


def full_digest(engine, drivers):
    """Everything the lockstep contract covers, per lane plus globals."""
    lanes = []
    for i, driver in enumerate(drivers):
        be = driver.be
        lanes.append(
            (
                engine.lane_snapshot(i),
                [r.__dict__ for r in engine.lane_injections(i)],
                [r.__dict__ for r in engine.lane_ejections(i)],
                {k: list(q) for k, q in driver.queues.items()},
                dict(driver._stall),
                repr(driver.submits),
                driver.flits_generated,
                None if be is None else (be.rng.state, be.rng.words_read),
            )
        )
    return lanes, engine.cycle, list(engine.metrics.per_cycle)


def tracker_digest(tracker):
    """A latency tracker's samples and every piece of matching state."""
    return (
        repr(tracker.samples),
        {k: [repr(r) for r in q] for k, q in tracker._pending.items()},
        {k: list(q) for k, q in tracker._head_inject.items()},
        dict(tracker._head_eject),
        dict(tracker._open),
    )


def run_case(
    kernel,
    cycles=240,
    lanes=3,
    load=0.05,
    cfg=None,
    fast_forward=False,
    gt_period=None,
    mutate=None,
):
    """Build, run, digest one batched workload under the given kernel.

    ``mutate`` maps run-progress checkpoints onto engine surgery:
    ``{cycle: fn(engine, drivers)}`` applied between run segments, so
    both sides of a comparison flip the same fault at the same cycle.
    """
    engine = BatchEngine(cfg or torus(), lanes=lanes, kernel=kernel)
    drivers = make_drivers(engine, load, gt_period=gt_period)
    marks = sorted((mutate or {}).items())
    at = 0
    for cycle, fn in marks:
        run_batched(engine, drivers, cycle - at, fast_forward=fast_forward)
        fn(engine, drivers)
        at = cycle
    run_batched(engine, drivers, cycles - at, fast_forward=fast_forward)
    return full_digest(engine, drivers)


@pytest.mark.kernel_smoke
class TestLevelizedKernelSmoke:
    @needs_jit
    def test_backend_selected(self):
        engine = BatchEngine(torus(), lanes=2, kernel="levelized")
        assert engine.kernel == "levelized"
        assert engine.kernel_reason is None
        assert hasattr(engine._compiled, "run_chunk")

    @needs_jit
    def test_short_lockstep_vs_python(self):
        assert run_case("levelized", cycles=120, lanes=2) == run_case(
            "python", cycles=120, lanes=2
        )

    @needs_jit
    def test_auto_resolves_to_fused_kernel_without_networkx(self):
        # A fresh interpreter: construction must bind the fused kernel
        # through the fixed room/fwd/state schedule, never through a
        # graph library.
        code = (
            "import sys\n"
            "from repro.engines import BatchEngine\n"
            "from repro.noc import NetworkConfig\n"
            "engine = BatchEngine(NetworkConfig(3, 3, topology='torus'), lanes=2)\n"
            "print(engine.kernel, engine.kernel_reason, 'networkx' in sys.modules)\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "REPRO_KERNELS"}
        env["PYTHONPATH"] = SRC
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["levelized", "None", "False"]

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match=r"auto\|python\|levelized"):
            BatchEngine(torus(), kernel="bogus")
        with pytest.raises(ValueError, match=r"auto\|python\|levelized"):
            make_engine("batch", torus(), kernel="bogus")
        with pytest.raises(ValueError, match="jit"):
            BatchEngine(torus(), kernel="jit")  # the retired tier


class TestLevelizedLockstep:
    @needs_jit
    def test_matches_python_reference(self):
        assert run_case("levelized") == run_case("python")

    @needs_jit
    def test_gt_plus_be_workload(self):
        kw = dict(cycles=200, lanes=2, load=0.03, cfg=fig1_network(), gt_period=40)
        assert run_case("levelized", **kw) == run_case("python", **kw)

    @needs_jit
    def test_mid_run_quarantine_keeps_identity(self):
        # A quarantined link repacks the route tables mid-run; the
        # chunk kernel must notice the stale schedule and rebind.
        mutate = {100: lambda engine, drivers: engine.quarantine_link(5, 1)}
        assert run_case("levelized", mutate=mutate) == run_case("python", mutate=mutate)

    @needs_jit
    def test_lane_fault_falls_back_per_lane(self):
        # Lane 1 carries a resident fault for the middle third: it must
        # ride the dynamic sweep while lanes 0/2 stay on the fused
        # kernel, and rejoin cleanly after the fault clears.
        mutate = {
            80: lambda engine, drivers: engine.mark_lane_fault(1),
            160: lambda engine, drivers: engine.clear_lane_fault(1),
        }
        lev = run_case("levelized", mutate=mutate)
        assert lev == run_case("python", mutate=mutate)

    def test_numpy_fallback_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        engine = BatchEngine(torus(), lanes=2, kernel="levelized")
        assert engine._compiled is None
        assert engine.kernel == "python"
        assert engine.kernel_reason == "backend ladder selected numpy"
        drivers = make_drivers(engine, 0.05)
        run_batched(engine, drivers, 120)
        monkeypatch.delenv("REPRO_KERNELS")
        assert full_digest(engine, drivers) == run_case(
            "python", cycles=120, lanes=2
        )

    @needs_jit
    def test_overload_diagnosis_parity(self):
        # Saturate a queue_depth-1 fabric until a driver diagnoses the
        # livelock.  The diagnostic string, cycle, architectural state,
        # events, metrics and stall counters must be byte-identical to
        # the reference — and so must every driver's queues, submits,
        # RNG and tracker state, although the chunked path generates
        # its whole window before the fatal pump.  Three shapes: BE-only
        # traffic (the C generator hands the window over directly),
        # GT+BE traffic with trackers (generated into the driver
        # queues), each failing in the middle lane, mid-chunk, several
        # chunks into the run — and BE-only traffic under a pre-step
        # hook, which keeps the run per-cycle with the C generator
        # producing every lane's cycle before the first pump.
        cases = (
            dict(load=0.6, seed=2),
            dict(load=0.6, seed=2, gt_period=30, tracked=True),
            dict(load=0.6, seed=2, hooked=True),
        )
        for case in cases:
            results = {}
            for kernel in ("python", "levelized"):
                engine = BatchEngine(torus(queue_depth=1), lanes=3, kernel=kernel)
                drivers = make_drivers(
                    engine,
                    case["load"],
                    seed=case["seed"],
                    gt_period=case.get("gt_period"),
                    stall_limit=90,
                )
                if case.get("hooked"):
                    engine.pre_step_hooks.append(lambda engine: None)
                trackers = []
                if case.get("tracked"):
                    for driver in drivers:
                        trackers.append(PacketLatencyTracker(engine.cfg))
                        driver.attach_tracker(trackers[-1])
                with pytest.raises(NetworkOverloadError) as err:
                    run_batched(engine, drivers, 2000)
                assert [d.overloaded for d in drivers] == [False, True, False]
                for tracker, driver in zip(trackers, drivers):
                    tracker.collect(driver.engine)
                results[kernel] = (
                    str(err.value),
                    full_digest(engine, drivers),
                    [d.overloaded for d in drivers],
                    [d._be_vc_toggle for d in drivers],
                    [tracker_digest(t) for t in trackers],
                )
            assert results["levelized"] == results["python"], case


class PlannedFault:
    """A pre-step hook that fires once at a planned cycle.

    Advertises :meth:`next_fire_cycle` so fast-forward may skip right
    up to — but never over — the fire cycle, mirroring the
    :class:`repro.faults.model.FaultInjector` protocol.
    """

    def __init__(self, cycle, action):
        self.cycle = cycle
        self.action = action
        self.fired_at = []

    def next_fire_cycle(self, engine):
        return self.cycle if not self.fired_at else None

    def __call__(self, engine):
        if engine.cycle >= self.cycle and not self.fired_at:
            self.fired_at.append(engine.cycle)
            self.action(engine)


class LivelockWatchdog:
    """Flap-style diagnosis hook: raises its report at a planned cycle."""

    def __init__(self, cycle):
        self.cycle = cycle

    def next_fire_cycle(self, engine):
        return self.cycle

    def __call__(self, engine):
        if engine.cycle >= self.cycle:
            raise RuntimeError(
                f"livelock diagnosed at cycle {engine.cycle}: "
                f"{len(engine.metrics.per_cycle)} cycle records, "
                f"{engine.total_buffered()} flits buffered"
            )


def spy_skips(engine):
    """Record every skip_cycles(D) the engine commits."""
    calls = []
    original = engine.skip_cycles

    def recording(cycles):
        calls.append(cycles)
        original(cycles)

    engine.skip_cycles = recording
    return calls


class TestFastForward:
    def test_identity_python_kernel(self):
        kw = dict(cycles=800, lanes=2, load=0.004)
        assert run_case("python", fast_forward=True, **kw) == run_case(
            "python", fast_forward=False, **kw
        )

    @needs_jit
    def test_identity_levelized_kernel(self):
        kw = dict(cycles=800, lanes=2, load=0.004)
        assert run_case("levelized", fast_forward=True, **kw) == run_case(
            "levelized", fast_forward=False, **kw
        )

    @needs_jit
    def test_identity_gt_only(self):
        kw = dict(cycles=400, lanes=2, load=None, cfg=fig1_network(), gt_period=97)
        assert run_case("levelized", fast_forward=True, **kw) == run_case(
            "levelized", fast_forward=False, **kw
        )

    @pytest.mark.kernel_smoke
    def test_zero_load_skips_whole_run(self):
        engine = BatchEngine(torus(), lanes=2, kernel="python")
        drivers = make_drivers(engine, 0.0)
        calls = spy_skips(engine)
        run_batched(engine, drivers, 20_000, fast_forward=True)
        assert calls == [20_000]
        assert engine.cycle == 20_000
        assert len(engine.metrics.per_cycle) == 20_000

    def test_never_skips_while_fault_resident(self):
        # Quarantined link: fabric idle, but no skip may fire.
        engine = BatchEngine(torus(), lanes=2, kernel="python")
        drivers = make_drivers(engine, 0.0)
        engine.quarantine_link(5, 1)
        assert engine.fault_resident
        assert _try_fast_forward(engine, drivers, 100) == 0
        calls = spy_skips(engine)
        run_batched(engine, drivers, 50, fast_forward=True)
        assert calls == []
        assert engine.cycle == 50

        # Lane fault: same veto.
        engine = BatchEngine(torus(), lanes=2, kernel="python")
        drivers = make_drivers(engine, 0.0)
        engine.mark_lane_fault(0)
        assert _try_fast_forward(engine, drivers, 100) == 0
        engine.clear_lane_fault(0)
        assert _try_fast_forward(engine, drivers, 100) == 100

    def test_planned_fault_lands_on_its_cycle(self):
        # A fault planned mid-skip-window: fast-forward may jump to the
        # fire cycle but not across it, and once the fault is resident
        # no further skips fire.
        results = {}
        for fast_forward in (False, True):
            engine = BatchEngine(torus(), lanes=2, kernel="python")
            drivers = make_drivers(engine, 0.0)
            fault = PlannedFault(700, lambda e: e.mark_lane_fault(0))
            engine.pre_step_hooks.append(fault)
            calls = spy_skips(engine)
            run_batched(engine, drivers, 2000, fast_forward=fast_forward)
            assert fault.fired_at == [700]
            if fast_forward:
                assert calls == [700]  # one jump, stopping exactly at the fault
            results[fast_forward] = (engine.cycle, list(engine.metrics.per_cycle))
        assert results[True] == results[False]

    def test_planned_fault_with_traffic_identity(self):
        # The SEU analogue with real traffic around it: results must be
        # byte-identical with fast-forward on or off, and the fault must
        # land on its cycle both ways.
        digests = {}
        for fast_forward in (False, True):
            engine = BatchEngine(torus(), lanes=2, kernel="python")
            drivers = make_drivers(engine, 0.01)
            fault = PlannedFault(300, lambda e: e.quarantine_link(5, 1))
            engine.pre_step_hooks.append(fault)
            run_batched(engine, drivers, 600, fast_forward=fast_forward)
            assert fault.fired_at == [300]
            digests[fast_forward] = full_digest(engine, drivers)
        assert digests[True] == digests[False]

    def test_livelock_diagnosis_byte_identical(self):
        # The flap-livelock style diagnosis: a watchdog that reports at
        # a planned cycle must produce the identical report whether the
        # idle span before it was stepped or skipped.
        reports = {}
        for fast_forward in (False, True):
            engine = BatchEngine(torus(), lanes=2, kernel="python")
            drivers = make_drivers(engine, 0.0)
            engine.pre_step_hooks.append(LivelockWatchdog(1234))
            with pytest.raises(RuntimeError) as err:
                run_batched(engine, drivers, 5000, fast_forward=fast_forward)
            reports[fast_forward] = (str(err.value), engine.cycle)
        assert reports[True] == reports[False]
        assert "cycle 1234" in reports[True][0]

    def test_opaque_hook_vetoes_skip(self):
        engine = BatchEngine(torus(), lanes=2, kernel="python")
        drivers = make_drivers(engine, 0.0)
        engine.pre_step_hooks.append(lambda e: None)  # no next_fire_cycle
        assert _try_fast_forward(engine, drivers, 100) == 0


def _reference_shift(state: int, mask: int, width: int) -> int:
    """One Galois right-shift step, the O(steps) reference."""
    lsb = state & 1
    state >>= 1
    if lsb:
        state ^= mask
    return state


class TestLfsrJump:
    """The closed-form jump is bit-identical to iterated single steps —
    over random widths, tap masks and distances, not just the shipped
    32-bit Galois polynomial."""

    @given(
        width=st.integers(min_value=2, max_value=48),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_jump_equals_iterated_steps(self, width, data):
        mask = data.draw(st.integers(min_value=1, max_value=(1 << width) - 1))
        state = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
        steps = data.draw(st.integers(min_value=0, max_value=300))
        expected = state
        for _ in range(steps):
            expected = _reference_shift(expected, mask, width)
        assert lfsr_jump(state, steps, mask=mask, width=width) == expected

    @given(
        state=st.integers(min_value=0, max_value=2**32 - 1),
        a=st.integers(min_value=0, max_value=10_000),
        b=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_jump_composes(self, state, a, b):
        assert lfsr_jump(lfsr_jump(state, a), b) == lfsr_jump(state, a + b)

    @given(words=st.integers(min_value=0, max_value=400))
    @settings(max_examples=30, deadline=None)
    def test_hardware_jump_matches_reads(self, words):
        stepped = HardwareLfsr(seed=0xDEADBEEF)
        jumped = HardwareLfsr(seed=0xDEADBEEF)
        for _ in range(words):
            stepped.next_u32()
        returned = jumped.jump(words)
        assert returned == jumped.state == stepped.state
        assert jumped.words_read == stepped.words_read == words

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            lfsr_jump(1, -1)
        with pytest.raises(ValueError):
            lfsr_jump(1 << 32, 1)
        with pytest.raises(ValueError):
            HardwareLfsr().jump(-1)


class TestFarmRngResumeCheck:
    """The farm reuses lfsr_jump to cross-check a resumed checkpoint's
    RNG state against its word count."""

    def test_consistent_pair_accepted(self):
        from repro.farm.jobs import _validate_rng_resume

        rng = HardwareLfsr(seed=0x5EED)
        for _ in range(37):
            rng.next_u32()
        _validate_rng_resume(
            HardwareLfsr(seed=0x5EED),
            {"rng_state": rng.state, "rng_words": rng.words_read},
        )

    def test_torn_pair_rejected(self):
        from repro.farm.jobs import _validate_rng_resume

        rng = HardwareLfsr(seed=0x5EED)
        for _ in range(37):
            rng.next_u32()
        with pytest.raises(ValueError, match="does not match its word count"):
            _validate_rng_resume(
                HardwareLfsr(seed=0x5EED),
                {"rng_state": rng.state, "rng_words": rng.words_read - 1},
            )
