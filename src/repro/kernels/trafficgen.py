"""Generated-C kernel for lane-batched Bernoulli BE traffic.

The bench harness drives every lane of a batch engine with an
independent :class:`~repro.traffic.generators.BernoulliBeTraffic`
stream.  The per-cycle cost of those streams is one LFSR jump and a
threshold compare per source per lane — pure integer arithmetic that
dominates the driver once the simulation step itself is compiled.  This
module moves exactly that scan into one C call per cycle:

* every lane's 32-bit Galois LFSR advances through the same 4x256-byte
  jump tables as :class:`~repro.traffic.rng.HardwareLfsr.next_u32`;
* a Bernoulli hit records ``(lane, src)`` and immediately draws the
  uniform-random destination with the same rejection sampling as
  :meth:`~repro.traffic.rng.HardwareLfsr.next_below` — consuming the
  identical number of RNG words in the identical order;
* Python builds the :class:`~repro.noc.packet.Packet` objects from the
  hit list (sequence numbers, payloads and tags are per-lane state).

The kernel is built, cached and loaded through the same pipeline as the
levelized batch kernel (:func:`repro.kernels.cbackend.load_source`), so it
shares the compiler probe, the content-hashed disk cache and the
availability gating.  When no C tier is available the caller falls back
to per-lane pure-Python generators, bit-identical by construction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

__all__ = [
    "batched_be_generator",
    "jump_table",
    "load_traffic_kernel",
    "traffic_ffi",
]

_CDEF = """
int64_t repro_gen_be(
    int64_t lanes, int64_t n_src,
    int64_t threshold, int64_t bound, int64_t span,
    const int64_t *jump,
    int64_t *states, int64_t *reads,
    int64_t *hits, int64_t cap);
"""

_SOURCE = """
#include <stdint.h>

/* One 32-step Galois LFSR jump via the 4x256 byte tables (exactly
 * HardwareLfsr.next_u32: tables are the GF(2) images of each state
 * byte after 32 single shifts, XORed together). */
static inline uint32_t lfsr_jump(uint32_t s, const int64_t *jump)
{
    return (uint32_t)(jump[s & 0xFF]
                    ^ jump[256 + ((s >> 8) & 0xFF)]
                    ^ jump[512 + ((s >> 16) & 0xFF)]
                    ^ jump[768 + (s >> 24)]);
}

/* Advance every lane's BE traffic stream by one cycle.
 *
 * Per lane, per source: one jump + threshold compare (the Bernoulli
 * draw).  On a hit, the destination is drawn in place with rejection
 * sampling below `span` then reduced modulo `bound` — the same word
 * sequence HardwareLfsr.next_below consumes — and (lane, src, dest)
 * is appended to `hits`.  `states` and `reads` (words consumed) are
 * updated in place; the return value is the hit count.
 */
int64_t repro_gen_be(
    int64_t lanes, int64_t n_src,
    int64_t threshold, int64_t bound, int64_t span,
    const int64_t *jump,
    int64_t *states, int64_t *reads,
    int64_t *hits, int64_t cap)
{
    int64_t n = 0;
    for (int64_t l = 0; l < lanes; l++) {
        uint32_t s = (uint32_t)states[l];
        int64_t rd = 0;
        for (int64_t src = 0; src < n_src; src++) {
            s = lfsr_jump(s, jump);
            rd++;
            if ((int64_t)s < threshold) {
                uint32_t d;
                do {
                    d = lfsr_jump(s, jump);
                    rd++;
                    s = d;
                } while ((int64_t)d >= span);
                int64_t dest = (int64_t)(d % (uint32_t)bound);
                if (dest >= src)
                    dest += 1;
                if (n < cap) {
                    hits[n * 3] = l;
                    hits[n * 3 + 1] = src;
                    hits[n * 3 + 2] = dest;
                }
                n++;
            }
        }
        states[l] = (int64_t)s;
        reads[l] += rd;
    }
    return n;
}
"""

_jump_cache = None


def jump_table():
    """The 4x256 jump tables flattened for the kernel (1024 words)."""
    global _jump_cache
    if _jump_cache is None:
        import numpy as np

        from repro.traffic.rng import _JUMP

        _jump_cache = np.array(
            [word for table in _JUMP for word in table], dtype=np.int64
        )
    return _jump_cache


def traffic_ffi():
    """The cffi instance whose cdef matches :func:`load_traffic_kernel`."""
    from repro.kernels import cbackend

    return cbackend._ffi_for(_CDEF)


def load_traffic_kernel():
    """The dlopened traffic kernel, or ``None`` when no C tier exists.

    Unlike the batch kernel this loader never raises: batched
    traffic is an internal optimisation with a bit-identical Python
    fallback, so unavailability is not an error the caller must see.
    """
    from repro.kernels import (
        KernelUnavailableError,
        cbackend,
        resolve_kernels_mode,
    )

    try:
        if resolve_kernels_mode(None) == "numpy":
            return None
        return cbackend.load_source(_SOURCE, _CDEF)
    except (KernelUnavailableError, ValueError):
        return None


class BatchedBeGenerator:
    """Drive every lane's BE stream through one C scan per cycle."""

    def __init__(self, drivers: Sequence, kernel) -> None:
        import numpy as np

        self.drivers: List = list(drivers)
        self._bes = [driver.be for driver in self.drivers]
        self._kernel = kernel
        self._ffi = traffic_ffi()
        net = self.drivers[0].net
        self.n_src = net.n_routers
        self.threshold = int(self._bes[0].packet_probability * 2**32)
        self.bound = net.n_routers - 1
        self.span = (2**32 // self.bound) * self.bound
        lanes = len(self.drivers)
        self._states = np.zeros(lanes, dtype=np.int64)
        self._reads = np.zeros(lanes, dtype=np.int64)
        self._cap = lanes * self.n_src
        self._hits = np.zeros(self._cap * 3, dtype=np.int64)
        self._jump = jump_table()

        def ptr(arr):
            return self._ffi.cast("int64_t *", arr.ctypes.data)

        self._p_jump = ptr(self._jump)
        self._p_states = ptr(self._states)
        self._p_reads = ptr(self._reads)
        self._p_hits = ptr(self._hits)

    def generate(self, cycle: int) -> None:
        """What ``driver.generate(cycle)`` would do, for every lane."""
        from repro.noc.packet import Packet, PacketClass
        from repro.traffic.generators import _ramp_payload

        bes = self._bes
        states = self._states
        reads = self._reads
        for i, be in enumerate(bes):
            states[i] = be.rng.state
        reads[:] = 0
        n = self._kernel.repro_gen_be(
            len(bes),
            self.n_src,
            self.threshold,
            self.bound,
            self.span,
            self._p_jump,
            self._p_states,
            self._p_reads,
            self._p_hits,
            self._cap,
        )
        hits = self._hits
        drivers = self.drivers
        for k in range(n):
            lane = int(hits[3 * k])
            src = int(hits[3 * k + 1])
            dest = int(hits[3 * k + 2])
            driver = drivers[lane]
            be = bes[lane]
            seq = be._seq[src]
            be._seq[src] = (seq + 1) & 0xFF
            payload = _ramp_payload(src + seq, be.payload_bytes)
            packet = Packet(
                src=src,
                dest=dest,
                pclass=PacketClass.BE,
                payload=payload,
                tag=seq % 128,
                seq=seq,
            )
            be_vcs = driver.net.router.be_vcs
            toggle = driver._be_vc_toggle[src]
            driver._be_vc_toggle[src] = (toggle + 1) % len(be_vcs)
            driver._submit(packet, be_vcs[toggle], cycle)
        for i, be in enumerate(bes):
            be.rng.state = int(states[i])
            be.rng.words_read += int(reads[i])

    def generate_window(self, start: int, stop: int):
        """Generate cycles ``[start, stop)`` for every lane, handing the
        encoded flit words over directly instead of queueing them.

        Returns ``{(lane, src, vc): (words, cycles, packet_keys)}`` —
        three parallel lists per stimuli queue, ready to be staged by
        the fused chunk kernel.  All driver bookkeeping that the
        per-cycle path performs is replicated exactly (submit records,
        tracker notes, ``flits_generated``, queue-key registration, RNG
        state), so a consumer that re-queues unconsumed words leaves the
        drivers bit-identical to ``stop - start`` ``generate`` calls.
        """
        from collections import deque

        from repro.noc.packet import Packet, PacketClass, segment
        from repro.traffic.generators import _ramp_payload
        from repro.traffic.stimuli import SubmitRecord

        bes = self._bes
        states = self._states
        reads = self._reads
        for i, be in enumerate(bes):
            states[i] = be.rng.state
        reads[:] = 0
        window = {}
        hits = self._hits
        drivers = self.drivers
        for cycle in range(start, stop):
            n = self._kernel.repro_gen_be(
                len(bes),
                self.n_src,
                self.threshold,
                self.bound,
                self.span,
                self._p_jump,
                self._p_states,
                self._p_reads,
                self._p_hits,
                self._cap,
            )
            for k in range(n):
                lane = int(hits[3 * k])
                src = int(hits[3 * k + 1])
                dest = int(hits[3 * k + 2])
                driver = drivers[lane]
                be = bes[lane]
                seq = be._seq[src]
                be._seq[src] = (seq + 1) & 0xFF
                packet = Packet(
                    src=src,
                    dest=dest,
                    pclass=PacketClass.BE,
                    payload=_ramp_payload(src + seq, be.payload_bytes),
                    tag=seq % 128,
                    seq=seq,
                )
                be_vcs = driver.net.router.be_vcs
                toggle = driver._be_vc_toggle[src]
                driver._be_vc_toggle[src] = (toggle + 1) % len(be_vcs)
                vc = be_vcs[toggle]
                record = SubmitRecord(packet, vc, cycle)
                driver.submits.append(record)
                if driver.tracker is not None:
                    driver.tracker.note_submit(record)
                driver.queues.setdefault((src, vc), deque())
                if driver._encoder is not None and packet.payload:
                    words = driver._encoder.words(packet)
                else:
                    dw = driver.net.router.data_width
                    words = [f.encode(dw) for f in segment(packet, driver.net)]
                driver.flits_generated += len(words)
                slot = window.get((lane, src, vc))
                if slot is None:
                    slot = window[(lane, src, vc)] = ([], [], [])
                slot[0].extend(words)
                nw = len(words)
                slot[1].extend([cycle] * nw)
                slot[2].extend([(src, seq)] * nw)
        for i, be in enumerate(bes):
            be.rng.state = int(states[i])
            be.rng.words_read += int(reads[i])
        return window


def batched_be_generator(drivers: Sequence) -> Optional[BatchedBeGenerator]:
    """A batched generator for ``drivers``, or ``None`` when ineligible.

    Eligibility is strict so the C scan is exactly the Python scan:
    every driver a plain :class:`~repro.traffic.stimuli.TrafficDriver`
    with no GT streams, a :class:`BernoulliBeTraffic` BE source over the
    declared-bound uniform-random pattern, one shared positive packet
    probability — and a loadable C tier.
    """
    from repro.traffic.generators import BernoulliBeTraffic
    from repro.traffic.stimuli import TrafficDriver

    drivers = list(drivers)
    if not drivers:
        return None
    prob = None
    for driver in drivers:
        if type(driver) is not TrafficDriver or driver.gt is not None:
            return None
        be = driver.be
        if not isinstance(be, BernoulliBeTraffic):
            return None
        if getattr(be.pattern, "uniform_bound", None) != driver.net.n_routers - 1:
            return None
        if prob is None:
            prob = be.packet_probability
        elif be.packet_probability != prob:
            return None
    if not prob or prob <= 0:
        return None
    kernel = load_traffic_kernel()
    if kernel is None:
        return None
    return BatchedBeGenerator(drivers, kernel)
