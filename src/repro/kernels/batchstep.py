"""The retired per-cycle dynamic-sweep C tier of the batch engine.

The batch engine's one compiled body is the fused levelized kernel
(:mod:`repro.kernels.batchlevel`), whose single-cycle entry point
covers everything this tier did.  The class name survives only because
the benchmark's per-layer tracer (``perfbench/tracer.py``) wraps it by
name; nothing constructs it.  Delete this module together with those
tracer targets.
"""

from __future__ import annotations

from repro.kernels import KernelUnavailableError

__all__ = ["CompiledBatchStep"]


class CompiledBatchStep:
    """Placeholder for the retired tier: construction always fails."""

    def __init__(self, engine) -> None:
        raise KernelUnavailableError(
            "the dynamic-sweep batch kernel was retired; "
            "use BatchEngine(kernel='levelized')"
        )

    def step(self) -> None:
        raise KernelUnavailableError("the dynamic-sweep batch kernel was retired")
