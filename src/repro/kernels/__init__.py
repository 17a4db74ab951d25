"""Static-scheduled compiled kernels: the "10x the hot loop" layer.

Two cooperating pieces:

* :mod:`repro.kernels.levelize` — the **levelizer**: topologically level
  the router dependency graph (feedback arcs broken at the registered
  state boundary) into a static evaluation schedule, replacing
  delta-cycle fixed-point iteration with a bounded number of passes.
  For the NoC it always yields rooms → forwards → state, the fixed
  order the batch kernel bakes in.
* :mod:`repro.kernels.cbackend` / :mod:`repro.kernels.batchlevel` — the
  **kernel compilation layer**: generate a specialized, loop-fused C
  body for the three ``ArrayState`` batch sweeps (rooms / forwards /
  state update, fused into one pass per lane, many cycles per call),
  compile it at first use, and drive it through cffi.
  :mod:`repro.kernels.seqbody` generates the analogous fused Python
  body for the levelized sequential evaluate/commit path.

Backend ladder, selected at import/construction time::

    numba  ->  cffi (generated C, compiled on demand)  ->  pure NumPy

The numba tier is declared (``pip install repro[kernels]``) but the
implemented JIT tier is the generated-C one — it needs only ``cffi``
plus any C compiler, both probed lazily; when either is missing every
consumer degrades to the bit-identical NumPy sweeps with a recorded
reason, and the test suite passes either way (skip-with-reason for the
JIT-only cases).  ``REPRO_KERNELS=auto|jit|numpy`` overrides the
default selection; explicit constructor arguments override the
environment.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, Optional

__all__ = [
    "KernelUnavailableError",
    "kernel_versions",
    "probe_backends",
    "resolve_kernels_mode",
    "select_backend",
]

_MODES = ("auto", "jit", "numpy")

#: the one-warning latch of the degrade path (reset only by tests).
_warned_degrade = False


class KernelUnavailableError(RuntimeError):
    """A JIT kernel backend was required but cannot be provided."""


def probe_backends() -> Dict[str, str]:
    """Availability of every ladder tier, with reasons.

    Returns ``{backend: "ok" | "unavailable: <reason>"}``.  The numba
    tier reports importability for the host fingerprint and the
    optional-dependency test matrix; it is *declared* (the ``[kernels]``
    extra) but the generated-C tier is the one the ladder selects, so
    numba never reports plain ``"ok"``.
    """
    out: Dict[str, str] = {}
    try:
        import numba  # type: ignore  # noqa: F401

        out["numba"] = (
            "installed (no numba kernel body registered; the generated-C tier is preferred)"
        )
    except Exception as exc:  # pragma: no cover - depends on host
        out["numba"] = f"unavailable: {exc.__class__.__name__}"
    from repro.kernels import cbackend

    reason = cbackend.availability()
    out["cffi"] = "ok" if reason is None else f"unavailable: {reason}"
    out["numpy"] = "ok"
    return out


def resolve_kernels_mode(mode: Optional[str]) -> str:
    """Normalise a ``kernels=`` argument against ``REPRO_KERNELS``.

    ``None``/``"auto"`` defer to the environment (which itself defaults
    to ``auto``); an explicit ``"jit"``/``"numpy"`` wins over the
    environment.  Unknown values raise ``ValueError``.
    """
    if mode is None or mode == "auto":
        mode = os.environ.get("REPRO_KERNELS", "auto").strip().lower() or "auto"
    if mode not in _MODES:
        raise ValueError(f"unknown kernels mode {mode!r}; known: {_MODES}")
    return mode


def select_backend(mode: Optional[str]) -> str:
    """Pick the executing backend for a consumer: ``"cffi"`` or ``"numpy"``.

    ``jit`` raises :class:`KernelUnavailableError` when no JIT tier can
    run; ``auto`` degrades silently; ``numpy`` forces the fallback.
    """
    global _warned_degrade
    mode = resolve_kernels_mode(mode)
    if mode == "numpy":
        return "numpy"
    from repro.kernels import cbackend

    reason = cbackend.availability()
    if reason is None:
        return "cffi"
    if mode == "jit":
        raise KernelUnavailableError(
            "kernels='jit' requested but no JIT backend is available: " + reason
        )
    if not _warned_degrade:
        _warned_degrade = True
        warnings.warn(
            f"repro.kernels: no JIT backend available ({reason}); "
            "falling back to the reference NumPy kernels",
            RuntimeWarning,
            stacklevel=2,
        )
    return "numpy"


def kernel_versions() -> Dict[str, Optional[str]]:
    """Versions of the ladder's ingredients, for host fingerprints."""
    out: Dict[str, Optional[str]] = {}
    try:
        import cffi  # type: ignore

        out["cffi"] = getattr(cffi, "__version__", "unknown")
    except Exception:
        out["cffi"] = None
    try:
        import numba  # type: ignore

        out["numba"] = getattr(numba, "__version__", "unknown")
    except Exception:
        out["numba"] = None
    from repro.kernels import cbackend

    out["cc"] = cbackend._find_compiler()
    return out
