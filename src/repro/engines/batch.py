"""The vectorized batch engine: NumPy delta sweeps, lane-parallel lanes.

``BatchEngine`` evaluates the whole network with whole-array NumPy
operations over the bit-packed structure-of-arrays state of
:mod:`repro.seqsim.arraystate`.  One :meth:`step` advances **every
router of every lane** through the three bulk-synchronous sweeps of the
static sequential schedule (rooms, forwards, state update — the same
sweep structure as :class:`repro.seqsim.sequential.StaticSequentialNetwork`,
3·R delta cycles per system cycle), so the per-cycle cost is a fixed,
small number of array kernels instead of a Python loop over routers.

The extra **lane axis B** is the paper's "batched FPGA instances"
analogue: B independent simulations (different seeds, offered loads or
traffic patterns) ride through the identical array operations in one
pass.  Each lane is bit-identical to a solo run of the same traffic on
:class:`~repro.engines.sequential.SequentialEngine` or
:class:`~repro.engines.cycle.CycleEngine` — the batch lockstep tests
drive all three and compare every architectural bit every cycle.

Equivalence argument (vs. the golden three-phase semantics, which the
sequential engine's delta iteration provably reproduces):

* **room sweep** — per-queue occupancy compare + bit-pack; Moore, from
  committed state only, exactly phase 1;
* **forward sweep** — the stimuli round-robin grant and the per-output
  crossbar arbitration are bit-scan arithmetic (``x & -x`` /
  trailing-zero-count), the vectorized twin of the shared
  :func:`~repro.rtl.primitives.round_robin_grant`; Mealy only in the
  settled room wires, exactly phase 2;
* **update sweep** — pops, pushes and output-VC allocation decisions
  observe the pre-update state (allocation against the *old* table,
  registered-RTL behaviour), exactly phase 3.  The rotating-priority
  allocation scan is the one data-dependent sequential loop; it runs
  over the Q scan offsets with all lanes and routers advancing together,
  gathering routes and dateline VC candidates from the packed tables
  exported by :mod:`repro.noc` instead of calling per-router closures.

Traffic enters per lane through :meth:`BatchEngine.lane` views (each a
drop-in ``offer``/log surface for one lane); :func:`run_batched` pumps
one :class:`~repro.traffic.stimuli.TrafficDriver` per lane against a
single batched step loop.  Each lane logs its events into int64 columns
(:class:`~repro.noc.eventlog.EventLog`), whichever body ran the cycle.

These NumPy sweeps are the reference body.  When the generated-C tier
is available the engine runs the fused levelized chunk kernel
(:mod:`repro.kernels.batchlevel`) instead, bit-identical lane for lane.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.noc.config import NetworkConfig, Port
from repro.noc.deadlock import packed_policy
from repro.noc.eventlog import EventLog
from repro.noc.flit import FlitType
from repro.noc.network import EjectionRecord, InjectionRecord
from repro.noc.router import ProtocolError
from repro.noc.routing import RoutingTable
from repro.noc.topology import Topology
from repro.seqsim.arraystate import ArrayState
from repro.seqsim.metrics import DeltaMetrics

__all__ = ["BatchEngine", "BatchLane", "run_batched", "drain_batched"]

_ONE = np.int64(1)


def _ctz(x):
    """Trailing-zero count of each element; callers mask out zeros
    (x == 0 yields a garbage 1, never an error)."""
    return np.bitwise_count((x & -x) - _ONE)


def _rr_pick(req, last, n, mask):
    """First set bit of ``req`` cyclically above ``last`` (mod ``n``).

    The rotate-and-ctz formulation of the shared round-robin scan:
    rotating ``req`` right by ``last + 1`` turns "first set bit above
    the pointer, wrapping" into a plain trailing-zero count.  Undefined
    where ``req == 0`` — callers mask.
    """
    shift = last + 1
    rot = ((req >> shift) | (req << (n - shift))) & mask
    return (_ctz(rot) + shift) % n


class BatchLane:
    """One lane of a :class:`BatchEngine`, as an offer/log surface.

    Satisfies the traffic-facing half of the engine protocol (``cfg``,
    ``offer``, ``injection_pending``, ``cycle``, ``injections``,
    ``ejections``, ``snapshot``, ``drained``) so a
    :class:`~repro.traffic.stimuli.TrafficDriver` or a latency tracker
    can be pointed at a single lane.  Stepping is a whole-batch action:
    use :func:`run_batched` (or ``engine.step()``) — a lane cannot
    advance alone, which is exactly the bulk-synchronous contract.
    """

    def __init__(self, engine: "BatchEngine", lane: int) -> None:
        self.engine = engine
        self.lane = lane
        self.cfg = engine.cfg

    @property
    def cycle(self) -> int:
        return self.engine.cycle

    @property
    def injections(self) -> EventLog:
        return self.engine.lane_injections(self.lane)

    @property
    def ejections(self) -> EventLog:
        return self.engine.lane_ejections(self.lane)

    def offer(self, router: int, vc: int, flit) -> bool:
        return self.engine.offer(router, vc, flit, lane=self.lane)

    def injection_pending(self, router: int, vc: int) -> bool:
        return self.engine.injection_pending(router, vc, lane=self.lane)

    def snapshot(self) -> Tuple:
        return self.engine.lane_snapshot(self.lane)

    def drained(self) -> bool:
        return self.engine.state.drained(self.lane)

    def total_buffered(self) -> int:
        return self.engine.state.total_buffered(self.lane)

    def step(self) -> None:
        raise RuntimeError(
            "a BatchLane cannot step alone: lanes advance together — "
            "step the BatchEngine, or drive lanes with run_batched()"
        )


class _LaneWindow:
    """A contiguous lane slice of an :class:`ArrayState`.

    Every attribute is a NumPy view over ``state`` (lane-major, so the
    slices stay C-contiguous); in-place writes land in the full state.
    The NumPy sweeps run unchanged against a window — this is how a
    faulted lane range falls back to the NumPy sweeps while the clean
    lanes stay on the compiled levelized kernel within the same cycle.
    """

    __slots__ = (
        "mem",
        "rd",
        "wr",
        "count",
        "alloc",
        "queue_alloc",
        "arb_ptr",
        "alloc_ptr",
        "inj_word",
        "inj_valid",
        "rr_ptr",
        "delay",
        "eject_word",
        "eject_valid",
        "depth",
    )

    def __init__(self, state: ArrayState, lo: int, hi: int) -> None:
        for name in self.__slots__:
            if name != "depth":
                setattr(self, name, getattr(state, name)[lo:hi])
        self.depth = state.depth  # per-router, lane-independent


class BatchEngine:
    """Vectorized bulk-synchronous simulation of ``lanes`` networks.

    With ``lanes=1`` this is a drop-in engine (the default for
    ``make_engine('batch', cfg)`` and ``repro simulate --engine
    batch``); the protocol surface — ``offer``/``snapshot``/logs —
    addresses lane 0.  Additional lanes are driven through
    :meth:`lane` views and :func:`run_batched`.
    """

    name = "batch"

    #: delta cycles per system cycle: the three fixed array sweeps each
    #: evaluate every unit once (the static-schedule accounting).
    SWEEPS_PER_CYCLE = 3

    def __init__(
        self,
        cfg: NetworkConfig,
        routing: Optional[RoutingTable] = None,
        lanes: int = 1,
        kernel: str = "auto",
    ) -> None:
        self.cfg = cfg
        self.lanes = lanes
        self.topology = Topology(cfg)
        self.routing = routing if routing is not None else RoutingTable(cfg)
        rc = cfg.router
        self.state = ArrayState(cfg, lanes)
        self.cycle = 0
        self.metrics = DeltaMetrics(n_units=cfg.n_routers)
        self.pre_step_hooks: List = []
        self.quarantined_links: set = set()
        self._injections = [EventLog(InjectionRecord) for _ in range(lanes)]
        self._ejections = [EventLog(EjectionRecord) for _ in range(lanes)]

        # -- static gather tables ------------------------------------------
        n = cfg.n_routers
        self._P = rc.n_ports
        self._V = rc.n_vcs
        self._NQ = rc.n_queues
        self._dw = rc.data_width
        self._vc_shift = rc.data_width + 2
        self._payload_mask = (1 << rc.data_width) - 1
        self._flit_mask = (1 << self._vc_shift) - 1
        self._sink = (1 << rc.n_vcs) - 1
        self._head_t = int(FlitType.HEAD)
        self._tail_t = int(FlitType.TAIL)
        self._idle_t = int(FlitType.IDLE)
        self._gt_mask = sum(1 << vc for vc in rc.gt_vcs)
        nb_idx, nb_mask = self.topology.packed_neighbors()
        opp = np.array(
            [int(Port(p).opposite) if p else 0 for p in range(self._P)],
            dtype=np.int64,
        )
        opp_idx = np.broadcast_to(opp, (n, self._P))
        self._vcs = np.arange(self._V, dtype=np.int64)
        self._pow2_vc = _ONE << self._vcs
        self._route = self.routing.packed()
        self._be_cand = packed_policy(cfg)
        # Flattened gather indices (np.take on precomputed flat offsets
        # beats both take_along_axis and open-grid fancy indexing by a
        # wide margin at these array sizes).
        B, P, NQ = lanes, self._P, self._NQ
        dmax = int(self.state.depth.max())
        #: [B,R,P] flat index into a [B,R,P] wire plane: the neighbour's
        #: opposite port (the link-memory addressing function).
        self._wire_flat = (
            np.arange(B, dtype=np.int64)[:, None, None] * (n * P)
            + nb_idx[None, :, :] * P
            + opp_idx[None, :, :]
        )
        self._wire_maskB = np.broadcast_to(nb_mask, (B, n, P))
        #: [B,R,NQ] flat base into [B,R,NQ,D] queue memory (add rd).
        self._mem_base = (
            np.arange(B * n * NQ, dtype=np.int64) * dmax
        ).reshape(B, n, NQ)
        #: [B,R,1] flat base into a [B,R,NQ] plane (add a queue index).
        self._brq_base = (
            np.arange(B * n, dtype=np.int64) * NQ
        ).reshape(B, n)[:, :, None]
        #: [B,R] flat base into a [B,R,V] plane (add a VC index).
        self._brv_base = (
            np.arange(B * n, dtype=np.int64) * self._V
        ).reshape(B, n)
        self._ones_v = np.ones(self._V, dtype=np.int64)
        self._nq_rrmask = (_ONE << NQ) - 1
        self._v_rrmask = (_ONE << self._V) - 1
        # Read-only cached results for skipped sweeps (never mutated).
        self._zeros_brp = np.zeros((B, n, P), dtype=np.int64)
        self._zeros_br = np.zeros((B, n), dtype=np.int64)
        self._neg1_br = np.full((B, n), -1, dtype=np.int64)

        # -- kernel selection (the repro.kernels backend ladder) -----------
        #: execution body actually in use: "levelized" (the generated-C
        #: fused chunk kernel) or "python" (the NumPy sweeps); benches
        #: report this.
        self.kernel = "python"
        #: why the engine runs the NumPy sweeps, when it was not asked to.
        self.kernel_reason: Optional[str] = None
        self._compiled = None
        #: lanes pinned to the NumPy sweep (resident faults whose
        #: diagnosis must not ride the statically scheduled fast path).
        self.lane_faults: set = set()
        if kernel not in ("auto", "python", "levelized"):
            raise ValueError(
                f"unknown kernel {kernel!r}; known: auto|python|levelized"
            )
        if kernel != "python":
            self._init_levelized(required=kernel == "levelized")

    def _init_levelized(self, required: bool) -> None:
        """Bind the fused levelized chunk kernel when the C tier runs.

        ``REPRO_KERNELS=numpy``, or (unless ``required``) a missing C
        tier, keeps the engine on the NumPy sweeps with the reason in
        :attr:`kernel_reason`; those sweeps evaluate the same three
        levels in the same order, so they are the bit-identical
        reference.  A ``required`` kernel that cannot be built raises
        :class:`~repro.kernels.KernelUnavailableError`.
        """
        from repro.kernels import (
            KernelUnavailableError,
            resolve_kernels_mode,
            select_backend,
        )

        if resolve_kernels_mode(None) == "numpy":
            self.kernel_reason = "backend ladder selected numpy"
            return
        try:
            select_backend("jit")
            from repro.kernels.batchlevel import CompiledBatchLevel

            self._compiled = CompiledBatchLevel(self)
        except KernelUnavailableError as exc:
            if required:
                raise
            self.kernel_reason = str(exc)
            return
        self.kernel = "levelized"

    # -- traffic-side API ---------------------------------------------------
    def lane(self, lane: int) -> BatchLane:
        """A view of one lane for traffic drivers and trackers."""
        if not 0 <= lane < self.lanes:
            raise IndexError(f"lane {lane} out of range (lanes={self.lanes})")
        return BatchLane(self, lane)

    def offer(self, router: int, vc: int, flit, lane: int = 0) -> bool:
        """Load one injection head register (see ``Network.offer``)."""
        S = self.state
        if S.inj_valid[lane, router, vc]:
            S.stalled[lane, router] = 1
            return False
        word = flit if isinstance(flit, int) else flit.encode(self._dw)
        S.inj_word[lane, router, vc] = word
        S.inj_valid[lane, router, vc] = 1
        S.delay[lane, router, vc] = 0
        S.stalled[lane, router] = 0
        return True

    def injection_pending(self, router: int, vc: int, lane: int = 0) -> bool:
        return bool(self.state.inj_valid[lane, router, vc])

    # -- logs / inspection ---------------------------------------------------
    @property
    def injections(self) -> EventLog:
        return self._injections[0]

    @property
    def ejections(self) -> EventLog:
        return self._ejections[0]

    def lane_injections(self, lane: int) -> EventLog:
        return self._injections[lane]

    def lane_ejections(self, lane: int) -> EventLog:
        return self._ejections[lane]

    def _log(self, logs: List[EventLog], lanes: np.ndarray, block: np.ndarray) -> None:
        """Append event columns to per-lane logs.

        ``block[:, k]`` is one event of lane ``lanes[k]``; each lane's
        events keep their order in ``block``.
        """
        if not lanes.size:
            return
        if lanes.size > 1 and (lanes[1:] < lanes[:-1]).any():
            order = np.argsort(lanes, kind="stable")
            lanes, block = lanes[order], block[:, order]
        counts = np.bincount(lanes, minlength=self.lanes)
        ends = np.cumsum(counts).tolist()
        for lane in np.flatnonzero(counts).tolist():
            logs[lane].append_columns(block[:, ends[lane] - int(counts[lane]) : ends[lane]])

    def snapshot(self) -> Tuple:
        return self.state.snapshot_lane(0)

    def lane_snapshot(self, lane: int) -> Tuple:
        return self.state.snapshot_lane(lane)

    def drained(self) -> bool:
        """True when every lane is drained."""
        return self.state.drained()

    def total_buffered(self) -> int:
        return self.state.total_buffered()

    # -- degraded mode -------------------------------------------------------
    def quarantine_link(self, router: int, port: int) -> None:
        """Take a directed link out of service and reroute around it
        (the golden semantics: routing avoids the link; see
        ``Network.quarantine_link``)."""
        self.quarantined_links.add((router, int(port)))
        self.routing.recompute_avoiding(self.quarantined_links)
        self._route = self.routing.packed()

    def mark_lane_fault(self, lane: int) -> None:
        """Pin ``lane`` to the NumPy sweeps.

        Used when a lane carries a resident fault (injected state
        corruption, a diagnosis experiment): its cycles run the
        reference path while clean lanes stay on the compiled levelized
        kernel — both see the identical architectural semantics, so
        marking a clean lane is always safe.
        """
        if not 0 <= lane < self.lanes:
            raise IndexError(f"lane {lane} out of range (lanes={self.lanes})")
        self.lane_faults.add(lane)

    def clear_lane_fault(self, lane: int) -> None:
        """Lift a :meth:`mark_lane_fault` pin (fault repaired/rolled back)."""
        self.lane_faults.discard(lane)

    @property
    def fault_resident(self) -> bool:
        """True while any fault state is resident (quarantined links or
        fault-pinned lanes) — quiescence fast-forward is disabled then,
        so watchdog and livelock diagnosis behave exactly as without it."""
        return bool(self.quarantined_links or self.lane_faults)

    def skip_cycles(self, cycles: int) -> None:
        """Advance the clock over provably idle cycles (quiescence
        fast-forward): pure accounting — the metrics record the same
        per-cycle floor an idle stepped cycle records, and no
        architectural state is touched."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        if cycles:
            self.metrics.record_cycles(
                cycles, self.SWEEPS_PER_CYCLE * self.cfg.n_routers
            )
            self.cycle += cycles

    def _lane_runs(self) -> List[Tuple[int, int, bool]]:
        """Maximal contiguous lane runs of equal fault status:
        ``(lo, hi, faulted)`` triples covering ``[0, lanes)``."""
        runs: List[Tuple[int, int, bool]] = []
        start = 0
        current = 0 in self.lane_faults
        for lane in range(1, self.lanes):
            faulted = lane in self.lane_faults
            if faulted != current:
                runs.append((start, lane, current))
                start, current = lane, faulted
        runs.append((start, self.lanes, current))
        return runs

    # -- the system cycle ----------------------------------------------------
    def step(self) -> None:
        for hook in self.pre_step_hooks:
            hook(self)
        compiled = self._compiled
        if compiled is not None:
            if not self.lane_faults:
                compiled.step()
            else:
                # Per-lane fallback: clean runs ride the compiled
                # kernel, faulted runs the NumPy sweeps.
                for lo, hi, faulted in self._lane_runs():
                    if faulted:
                        self._step_numpy(lo, hi)
                    else:
                        compiled.step_range(lo, hi)
        else:
            self._step_numpy(0, self.lanes)
        self.metrics.record_cycle(self.SWEEPS_PER_CYCLE * self.cfg.n_routers)
        self.cycle += 1

    def _step_numpy(self, lo: int, hi: int) -> None:
        """One cycle of the NumPy sweeps over lanes ``[lo, hi)``."""
        B = hi - lo
        S = (
            self.state
            if B == self.lanes
            else _LaneWindow(self.state, lo, hi)
        )
        R = self.cfg.n_routers
        P, V, NQ = self._P, self._V, self._NQ
        dw, vc_shift = self._dw, self._vc_shift
        # Lane-window slices of the flat gather tables: the flat offsets
        # only encode the lane *within* the window (lane-major layout),
        # so the first B rows address any contiguous window's planes.
        wire_flat = self._wire_flat[:B]
        wire_maskB = self._wire_maskB[:B]
        mem_base = self._mem_base[:B]
        brq_base = self._brq_base[:B]
        brv_base = self._brv_base[:B]
        fabric_active = bool(S.count.any())
        inj_active = bool(S.inj_valid.any())

        # -- sweep 1: room wires (Moore, committed occupancy only) ---------
        if fabric_active or inj_active:
            avail = S.count < S.depth[None, :, None]  # [B,R,NQ]
            # Bit-pack 4 per-VC booleans into a room nibble per port;
            # matmul against the power-of-two vector is the fastest
            # last-axis reduction at this size.
            rooms = avail.reshape(B, R, P, V) @ self._pow2_vc  # [B,R,P]

        # -- sweep 2a: stimuli interface output words ----------------------
        if inj_active:
            rooms_local = rooms[:, :, 0]
            inj_req = (
                (S.inj_valid != 0)
                & (((rooms_local[:, :, None] >> self._vcs) & 1) != 0)
            ) @ self._pow2_vc  # [B,R]
            has_inj = inj_req != 0
            choice = np.where(
                has_inj, _rr_pick(inj_req, S.rr_ptr, V, self._v_rrmask), -1
            )
            inj_sel = np.take(
                S.inj_word.reshape(-1),
                brv_base + np.maximum(choice, 0),
            )
            iface_word = np.where(has_inj, (choice << vc_shift) | inj_sel, 0)
        else:
            choice = self._neg1_br[:B]
            iface_word = self._zeros_br[:B]

        # -- sweep 2b: crossbar arbitration and forward words --------------
        granted_any = False
        fwd_out = self._zeros_brp[:B]
        head = None
        if fabric_active:
            head = np.take(S.mem.reshape(-1), mem_base + S.rd)
            ready = S.count > 0
            alloc_pv = S.alloc.reshape(B, R, P, V)
            aqc = np.maximum(alloc_pv, 0)
            ready_at = np.take(
                ready.reshape(-1), brq_base + aqc.reshape(B, R, NQ)
            ).reshape(B, R, P, V)
            room_in = np.where(
                wire_maskB, np.take(rooms.reshape(-1), wire_flat), 0
            )
            room_in[:, :, 0] = self._sink  # the local sink always has room
            requesting = (
                (alloc_pv >= 0)
                & (((room_in[:, :, :, None] >> self._vcs) & 1) != 0)
                & ready_at
            )
            # The queues allocated to one port's VCs are always distinct
            # (alloc/queue_alloc are inverse maps), so a sum over the VC
            # axis equals the bitwise OR of their request bits.
            req = np.where(requesting, _ONE << aqc, 0) @ self._ones_v
            granted = req != 0
            granted_any = bool(granted.any())
            if granted_any:
                g = _rr_pick(req, S.arb_ptr, NQ, self._nq_rrmask)
                grant_vc = np.argmax(alloc_pv == g[:, :, :, None], axis=3)
                head_g = np.take(
                    head.reshape(-1), brq_base + g
                )
                fwd_out = np.where(granted, (grant_vc << vc_shift) | head_g, 0)

        fwd_in = np.where(
            wire_maskB, np.take(fwd_out.reshape(-1), wire_flat), 0
        )
        fwd_in[:, :, 0] = iface_word

        # -- sweep 3a: output-VC allocation decisions (old state only) -----
        decisions = (
            self._allocation_sweep(S, head, ready) if fabric_active else None
        )

        # -- sweep 3b: pops (granted queues emit their head) ---------------
        if granted_any:
            flat = np.flatnonzero(granted)
            bb = flat // (R * P)
            rem = flat - bb * (R * P)
            rr = rem // P
            pp = rem - rr * P
            gq = g[bb, rr, pp]
            words = head[bb, rr, gq]
            dep = S.depth[rr]
            S.rd[bb, rr, gq] = (S.rd[bb, rr, gq] + 1) % dep
            S.count[bb, rr, gq] -= 1
            S.arb_ptr[bb, rr, pp] = gq
            tail = ((words >> dw) & 3) == self._tail_t
            if tail.any():
                ovc = pp * V + grant_vc[bb, rr, pp]
                S.alloc[bb[tail], rr[tail], ovc[tail]] = -1
                S.queue_alloc[bb[tail], rr[tail], gq[tail]] = -1

        # -- sweep 3c: pushes (arriving link words enter the queues) -------
        arriving = ((fwd_in >> dw) & 3) != self._idle_t
        if arriving.any():
            flat = np.flatnonzero(arriving)
            bb = flat // (R * P)
            rem = flat - bb * (R * P)
            rr = rem // P
            pp = rem - rr * P
            words = fwd_in[bb, rr, pp]
            q = pp * V + (words >> vc_shift)
            if (S.count[bb, rr, q] >= S.depth[rr]).any():
                raise ProtocolError("queue overflow: upstream ignored room")
            S.mem[bb, rr, q, S.wr[bb, rr, q]] = words & self._flit_mask
            S.wr[bb, rr, q] = (S.wr[bb, rr, q] + 1) % S.depth[rr]
            S.count[bb, rr, q] += 1

        # -- sweep 3d: apply the allocation decisions ----------------------
        if decisions is not None:
            db, dr, dq, dovc, new_alloc_ptr = decisions
            S.alloc[db, dr, dovc] = dq
            S.queue_alloc[db, dr, dq] = dovc
            S.alloc_ptr[...] = new_alloc_ptr

        # -- sweep 3e: stimuli interface state + event records -------------
        self._stimuli_update(S, lo, choice, fwd_out[:, :, 0], inj_active)

    def _allocation_sweep(self, S, head, ready):
        """Vectorized rotating-priority output-VC allocation.

        Observes only pre-update state (``alloc``/``queue_alloc``/queue
        heads as of the top of the cycle), exactly like the object
        model's ``Router._allocation_decisions``; the caller applies the
        returned decisions after pops and pushes.
        """
        V, NQ = self._V, self._NQ
        dw = self._dw
        cand = (
            (S.queue_alloc < 0)
            & ready
            & (((head >> dw) & 3) == self._head_t)
        )
        flat = np.flatnonzero(cand)
        if flat.size == 0:
            return None
        R = self.cfg.n_routers
        pb = flat // (R * NQ)
        rem = flat - pb * (R * NQ)
        pr = rem // NQ
        pq = rem - pr * NQ
        # Decode every candidate head at once: route, GT class, VC trial
        # list — all pure gathers from the packed tables.
        data = head[pb, pr, pq] & self._payload_mask
        gt = (data >> 8) & 1
        out_port = self._route[pr, data & 0xFF]
        if (out_port < 0).any():
            bad = int(np.argmax(out_port < 0))
            x, y = int(data[bad] & 0xF), int((data[bad] >> 4) & 0xF)
            raise IndexError(f"coordinates ({x}, {y}) out of range")
        in_vc = pq % V
        in_port = pq // V
        bad_gt = (gt != 0) & (((self._gt_mask >> in_vc) & 1) == 0)
        if bad_gt.any():
            i = int(np.argmax(bad_gt))
            raise ProtocolError(
                f"router {int(pr[i])}: GT head on non-GT VC {int(in_vc[i])}"
            )
        gt_cands = np.full((pb.size, V), -1, dtype=np.int64)
        gt_cands[:, 0] = in_vc
        cands = np.where(
            (gt != 0)[:, None],
            gt_cands,
            self._be_cand[pr, in_port, in_vc, out_port],
        )
        new_alloc_ptr = S.alloc_ptr.copy()
        dec_b: List[np.ndarray] = []
        dec_r: List[np.ndarray] = []
        dec_q: List[np.ndarray] = []
        dec_ovc: List[np.ndarray] = []
        # Candidates in *different* routers never interact (the claimed
        # set and alloc_ptr are per router), so any router holding a
        # single candidate — the overwhelmingly common case — skips the
        # ordered scan entirely: one parallel pass over the VC trial
        # slots.  np.nonzero is row-major, so equal (lane, router) rows
        # are adjacent.
        row = pb * self.cfg.n_routers + pr
        shared = np.zeros(pb.size, dtype=bool)
        if pb.size > 1:
            same = row[1:] == row[:-1]
            shared[1:] |= same
            shared[:-1] |= same
        iso = np.nonzero(~shared)[0]
        if iso.size:
            bb, rr, qq = pb[iso], pr[iso], pq[iso]
            op = out_port[iso]
            cg = cands[iso]
            done = np.zeros(iso.size, dtype=bool)
            for slot in range(cg.shape[1]):
                vc_out = cg[:, slot]
                ovc = op * V + np.maximum(vc_out, 0)
                take = ~done & (vc_out >= 0) & (S.alloc[bb, rr, ovc] < 0)
                if take.any():
                    tb = np.nonzero(take)[0]
                    dec_b.append(bb[tb])
                    dec_r.append(rr[tb])
                    dec_q.append(qq[tb])
                    dec_ovc.append(ovc[tb])
                    new_alloc_ptr[bb[tb], rr[tb]] = qq[tb]
                    done |= take
                if done.all():
                    break
        # Routers with several competing candidates run the real
        # rotating-priority scan, grouped by scan offset: a router
        # visits each queue at exactly one offset, so processing the
        # groups in ascending offset order IS the sequential scan —
        # with every contended lane and router advancing together.
        multi = np.nonzero(shared)[0]
        if multi.size:
            off = (pq[multi] - S.alloc_ptr[pb[multi], pr[multi]]) % NQ
            off = np.where(off == 0, NQ, off)  # q == alloc_ptr scans last
            order = multi[np.argsort(off, kind="stable")]
            claimed = np.zeros(S.alloc_ptr.shape, dtype=np.int64)
            offsets, starts = np.unique(np.sort(off), return_index=True)
            bounds = list(starts) + [order.size]
            for gi in range(offsets.size):
                sel = order[bounds[gi] : bounds[gi + 1]]
                bb, rr, qq = pb[sel], pr[sel], pq[sel]
                op = out_port[sel]
                cg = cands[sel]
                done = np.zeros(sel.size, dtype=bool)
                for slot in range(cg.shape[1]):
                    vc_out = cg[:, slot]
                    ovc = op * V + np.maximum(vc_out, 0)
                    free = (S.alloc[bb, rr, ovc] < 0) & (
                        ((claimed[bb, rr] >> ovc) & 1) == 0
                    )
                    take = ~done & (vc_out >= 0) & free
                    if take.any():
                        tb = np.nonzero(take)[0]
                        dec_b.append(bb[tb])
                        dec_r.append(rr[tb])
                        dec_q.append(qq[tb])
                        dec_ovc.append(ovc[tb])
                        claimed[bb[tb], rr[tb]] |= _ONE << ovc[tb]
                        new_alloc_ptr[bb[tb], rr[tb]] = qq[tb]
                        done |= take
                    if done.all():
                        break
        if not dec_b:
            return None
        return (
            np.concatenate(dec_b),
            np.concatenate(dec_r),
            np.concatenate(dec_q),
            np.concatenate(dec_ovc),
            new_alloc_ptr,
        )

    def _stimuli_update(self, S, lo, choice, eject_in, inj_active) -> None:
        """Advance every stimuli interface one cycle and log events.

        ``S`` is the full state or a lane window starting at lane
        ``lo``; all writes are in place so windows update the batch."""
        dw, vc_shift = self._dw, self._vc_shift
        R, V = self.cfg.n_routers, self._V
        cycle = self.cycle
        if inj_active:
            pending = S.inj_valid != 0
            sent = pending & (self._vcs[None, None, :] == choice[:, :, None])
            sent_flat = np.flatnonzero(sent)
            if sent_flat.size:
                b, rv = np.divmod(sent_flat, R * V)
                r, vc = np.divmod(rv, V)
                self._log(
                    self._injections,
                    lo + b,
                    np.stack(
                        (
                            np.full(sent_flat.size, cycle, dtype=np.int64),
                            r,
                            vc,
                            S.inj_word.reshape(-1)[sent_flat],
                            S.delay.reshape(-1)[sent_flat],
                        )
                    ),
                )
            S.delay[...] = np.where(
                sent,
                0,
                np.where(pending, (S.delay + 1) & 0xFFFFF, S.delay),
            )
            S.inj_valid[sent] = 0
            S.rr_ptr[...] = np.where(choice >= 0, choice, S.rr_ptr)
        ejected = ((eject_in >> dw) & 3) != 0
        if ejected.any():
            ej_flat = np.flatnonzero(ejected)
            words = eject_in.reshape(-1)[ej_flat]
            b, r = np.divmod(ej_flat, R)
            self._log(
                self._ejections,
                lo + b,
                np.stack(
                    (
                        np.full(ej_flat.size, cycle, dtype=np.int64),
                        r,
                        words >> vc_shift,
                        words & ((1 << vc_shift) - 1),
                    )
                ),
            )
            S.eject_word[...] = np.where(ejected, eject_in, S.eject_word)
            S.eject_valid[...] = ejected
        elif S.eject_valid.any():
            S.eject_valid[...] = 0

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()


#: Cycles simulated per fused C call on the chunked levelized path.
_CHUNK = 64

#: Longest no-arrival window the BE lookahead will prove in one scan.
_FF_SCAN_LIMIT = 4096


def _chunk_eligible(engine: BatchEngine, drivers: Sequence) -> bool:
    """May ``run_batched`` hand whole chunks to the fused kernel?

    The chunked path moves the pump loop into C, so it must see exactly
    the reference driver set: one plain :class:`TrafficDriver` per lane,
    in lane order, with a uniform stall limit — and no per-cycle hooks
    or per-lane fault fallbacks that need Python between cycles.
    """
    from repro.traffic.stimuli import TrafficDriver

    if engine.pre_step_hooks or engine.lane_faults:
        return False
    if len(drivers) != engine.lanes:
        return False
    limit = None
    for i, driver in enumerate(drivers):
        if type(driver) is not TrafficDriver:
            return False
        lane = driver.engine
        if not isinstance(lane, BatchLane) or lane.engine is not engine:
            return False
        if lane.lane != i:
            return False
        if limit is None:
            limit = driver.stall_limit
        elif driver.stall_limit != limit:
            return False
    return True


def _hook_horizon(engine: BatchEngine, limit: int) -> int:
    """How far the pre-step hooks allow skipping (0 = not at all).

    A hook that does not advertise :meth:`next_fire_cycle` is opaque —
    it might act every cycle — so its presence vetoes any skip.
    """
    horizon = limit
    for hook in engine.pre_step_hooks:
        probe = getattr(hook, "next_fire_cycle", None)
        if probe is None:
            return 0
        fire = probe(engine)
        if fire is not None:
            horizon = min(horizon, fire - engine.cycle)
    return horizon


def _next_arrival_bound(driver, cycle: int, limit: int) -> int:
    """A proven lower bound on cycles before ``driver`` emits a packet.

    GT streams are periodic, so the next emission is closed-form.  The
    Bernoulli BE stream is scanned ahead on a *copy* of its LFSR state
    (the real generator state is untouched): each no-hit cycle consumes
    exactly ``n_routers`` RNG words, so a clean window of D cycles both
    proves no arrival and tells the committer exactly how far to
    :meth:`~repro.traffic.rng.HardwareLfsr.jump`.  Any generator shape
    this function does not recognise returns 0 (no skip).
    """
    from repro.traffic.generators import BernoulliBeTraffic, GtStreamTraffic
    from repro.traffic.rng import _JUMP

    horizon = limit
    gt = driver.gt
    if gt is not None:
        if type(gt) is not GtStreamTraffic:
            return 0
        if gt.streams:
            period = gt.period
            horizon = min(
                horizon,
                min((phase - cycle) % period for phase in gt._phase),
            )
            if horizon <= 0:
                return 0
    be = driver.be
    if be is not None:
        if type(be) is not BernoulliBeTraffic:
            return 0
        prob = be.packet_probability
        if prob > 0:
            threshold = int(prob * 2**32)
            scan = min(horizon, _FF_SCAN_LIMIT)
            j0, j1, j2, j3 = _JUMP
            state = be.rng.state
            n_src = be.net.n_routers
            for c in range(scan):
                for _ in range(n_src):
                    state = (
                        j0[state & 0xFF]
                        ^ j1[(state >> 8) & 0xFF]
                        ^ j2[(state >> 16) & 0xFF]
                        ^ j3[state >> 24]
                    )
                    if state < threshold:
                        return c
            horizon = min(horizon, scan)
    return horizon


def _try_fast_forward(engine: BatchEngine, drivers: Sequence, remaining: int) -> int:
    """Skip a proven-quiescent window; returns the cycles skipped (0 = none).

    A window of D cycles may be skipped only when a step provably
    changes nothing: the fabric is empty (no buffered flits, no staged
    injections, no latched ejections), every driver's backlog is empty,
    no fault is resident, every hook is dormant for D cycles, and every
    generator provably emits nothing for D cycles.  Committing the skip
    advances each BE LFSR by exactly the words the elided scans would
    have drawn, then credits the cycle counters and delta metrics —
    bit-identical to stepping D idle cycles.
    """
    from repro.traffic.stimuli import TrafficDriver

    if remaining <= 0 or engine.fault_resident:
        return 0
    S = engine.state
    if S.count.any() or S.inj_valid.any() or S.eject_valid.any():
        return 0
    for driver in drivers:
        if type(driver) is not TrafficDriver or driver.backlog():
            return 0
    horizon = _hook_horizon(engine, remaining)
    if horizon <= 0:
        return 0
    for driver in drivers:
        horizon = _next_arrival_bound(driver, engine.cycle, horizon)
        if horizon <= 0:
            return 0
    for driver in drivers:
        be = driver.be
        if be is not None and be.packet_probability > 0:
            be.rng.jump(horizon * engine.cfg.n_routers)
    engine.skip_cycles(horizon)
    return horizon


def run_batched(
    engine: BatchEngine,
    drivers: Sequence,
    cycles: int,
    fast_forward: bool = False,
) -> None:
    """Pump one traffic driver per lane against a single batched loop.

    ``drivers[i]`` must wrap ``engine.lane(i)`` (a
    :class:`~repro.traffic.stimuli.TrafficDriver` or anything with
    ``generate(cycle)`` / ``pump()``).  Per cycle this performs exactly
    what ``TrafficDriver.step`` does per lane — generate, pump, step —
    except the step advances all lanes at once.

    On the compiled levelized kernel, when every driver is a plain
    Bernoulli-BE/uniform-random stream, the per-lane generate calls are
    replaced by one C scan per cycle
    (:func:`repro.kernels.trafficgen.batched_be_generator`) — a pure
    reordering of independent per-lane work, bit-identical per lane.
    The kernel also runs whole :data:`_CHUNK`-cycle windows inside one
    fused C call (generation stays in Python, staged ahead with
    timestamps; the pump moves into the kernel) whenever the driver set
    passes :func:`_chunk_eligible`.  A ``kernel="python"`` engine keeps
    the all-Python reference path end to end.

    A run that ends in :class:`~repro.traffic.stimuli.NetworkOverloadError`
    leaves every driver exactly where the reference loop stops: lanes up
    to the failing one have generated the failing cycle, later lanes
    have not.

    ``fast_forward`` enables quiescence skipping: before generating each
    cycle the run checks :func:`_try_fast_forward`, and when the fabric,
    queues, hooks and generators are all provably idle for D cycles it
    jumps the clocks (and the BE LFSRs, in closed form) by D instead of
    sweeping.  Fast-forward never fires while any fault is resident.
    """
    from repro.kernels.trafficgen import batched_be_generator
    from repro.traffic.stimuli import NetworkOverloadError

    compiled = getattr(engine, "_compiled", None)
    generator = batched_be_generator(drivers) if compiled is not None else None
    end = engine.cycle + cycles
    if compiled is not None and _chunk_eligible(engine, drivers):
        while engine.cycle < end:
            if fast_forward and _try_fast_forward(engine, drivers, end - engine.cycle):
                continue
            k = min(_CHUNK, end - engine.cycle)
            start = engine.cycle
            marks = [driver.mark() for driver in drivers]
            if generator is not None:
                window = generator.generate_window(start, start + k)
            else:
                window = None
                for driver in drivers:
                    for c in range(start, start + k):
                        driver.generate(c)
            try:
                compiled.run_chunk(drivers, k, window)
            except NetworkOverloadError as exc:
                _rewind_overloaded(drivers, marks, start, engine.cycle, exc.lane)
                raise
        return
    if generator is not None:
        while engine.cycle < end:
            if fast_forward and _try_fast_forward(engine, drivers, end - engine.cycle):
                continue
            cycle = engine.cycle
            marks = [driver.mark() for driver in drivers]
            generator.generate(cycle)
            for lane, driver in enumerate(drivers):
                try:
                    driver.pump()
                except NetworkOverloadError:
                    _rewind_overloaded(drivers, marks, cycle, cycle, lane)
                    raise
            engine.step()
        return
    while engine.cycle < end:
        if fast_forward and _try_fast_forward(engine, drivers, end - engine.cycle):
            continue
        cycle = engine.cycle
        for driver in drivers:
            driver.generate(cycle)
            driver.pump()
        engine.step()


def _rewind_overloaded(drivers, marks, start: int, failed: int, lane: int) -> None:
    """Undo generation the reference loop had not reached at the overload.

    ``marks`` were taken at cycle ``start``; the overload stopped
    ``lane`` at cycle ``failed``.  The reference loop generates and
    pumps lane by lane, so lanes up to the failing one generated cycle
    ``failed`` and later lanes did not.
    """
    for i, (driver, mark) in enumerate(zip(drivers, marks)):
        driver.rewind(mark, start, failed + (i <= lane))


def drain_batched(
    engine: BatchEngine, drivers: Sequence, max_cycles: int = 100_000
) -> List[int]:
    """Run until every lane is drained; returns per-lane drain cycles.

    Mirrors ``TrafficDriver.drain`` per lane: a lane is *done* at the
    first iteration where its backlog is empty and its fabric is
    drained, so each returned count equals exactly what the solo run's
    ``drain`` would have returned.  Lanes that finish early keep idling
    until the slowest lane drains (bulk-synchronous lanes cannot park),
    which never creates events — the final lane state equals a solo run
    stepped to the batch's total cycle count.
    """
    done = [-1] * len(drivers)
    for used in range(max_cycles):
        for i, driver in enumerate(drivers):
            if done[i] < 0 and driver.backlog() == 0 and engine.state.drained(i):
                done[i] = used
        if all(d >= 0 for d in done):
            return done
        for driver in drivers:
            driver.pump()
        engine.step()
    from repro.traffic.stimuli import NetworkOverloadError

    stuck = [i for i, d in enumerate(done) if d < 0]
    raise NetworkOverloadError(
        f"lanes {stuck} did not drain within {max_cycles} cycles"
    )
