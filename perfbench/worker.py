"""One fresh interpreter's share of a benchmark run.

Started by ``run.py``, never by hand::

    python3 perfbench/worker.py MODE WORKLOAD SEED BUDGET_S [TRACE_FILE]

Modes:

``setup``
    Time one workload call from its start (this interpreter's first
    line, before any ``repro`` module is imported) to its first
    simulated cycle, then stop.
``measure``
    One untimed warm-up call (which also gives the process's peak
    resident memory), then timed calls until ``BUDGET_S`` is spent, and
    the fastest time each step piece took in any of them.
``reference``
    One call on the bit-accurate reference path (``kernel="python"``).
``warm``
    One untimed call, so every kernel the workload binds is compiled
    into the disk cache before anything is timed.
``trace``
    A warm-up call, then untraced and traced calls in alternation
    until ``BUDGET_S`` is spent; spans are written to ``TRACE_FILE``.

The last line of standard output is one JSON object.
"""

import time

T0 = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from workloads import WORKLOADS, FirstCycle, StopAtFirstCycle  # noqa: E402


def one_call(name: str, seed: int, first: FirstCycle, kernel: str = "auto", marks: bool = False) -> dict:
    """Run the workload once; times are from the call's own clock points.

    With ``marks`` the result also holds the call's step durations
    (``pieces``): first-cycle stamp to the first step mark, mark to
    mark, and the last mark to the end of the call.
    """
    call, summarize = WORKLOADS[name]
    first.arm()
    start = time.perf_counter()
    try:
        result = call(seed, kernel)
    except Exception:
        return {"error": traceback.format_exc(limit=4)}
    end = time.perf_counter()
    outcome = summarize(result, first)
    doc = {
        "setup_s": first.stamp - start,
        "sim_s": end - first.stamp,
        "call_s": end - start,
        "cycles": outcome.cycles,
        "outputs": outcome.outputs,
        "checks": outcome.checks,
        "kernel": outcome.kernel,
        "kernel_reason": outcome.kernel_reason,
    }
    if marks:
        ends = first.marks + [end]
        doc["pieces"] = [b - a for a, b in zip([first.stamp] + ends, ends)]
    return doc


def fastest(rows):
    """Element-wise minimum of equally long rows; ``None`` if they differ."""
    if not rows or len({len(row) for row in rows}) != 1:
        return None
    return [min(column) for column in zip(*rows)]


def measure(name: str, seed: int, budget: float, first: FirstCycle) -> dict:
    warm = one_call(name, seed, first)
    if "error" in warm:
        return {"calls": [warm]}
    warm["setup_s"] = first.stamp - T0  # this call also imported repro
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calls = [warm]
    start = time.perf_counter()
    pieces = []
    while True:
        gc.collect()  # the previous call's garbage: each call starts alike
        rep = one_call(name, seed, first, marks=True)
        rep["timed"] = True
        calls.append(rep)
        if "error" in rep:
            break
        pieces.append(rep.pop("pieces"))
        if time.perf_counter() - start + rep["call_s"] > budget:
            break
    return {"calls": calls, "peak_rss_mb": rss_mb, "fastest_pieces": fastest(pieces)}


def trace(name: str, seed: int, budget: float, first: FirstCycle, out: str) -> dict:
    from tracer import Tracer

    call, summarize = WORKLOADS[name]
    tracer = Tracer()
    calls = [one_call(name, seed, first)]
    if "error" in calls[0]:
        return {"calls": calls}
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        rep = one_call(name, seed, first)
        calls.append(rep)
        if "error" in rep:
            break
        untraced.append(rep["cycles"] / rep["sim_s"])
        gc.collect()
        tracer.install()
        first.arm()
        try:
            result, metrics = tracer.rep(lambda: call(seed, "auto"))
        except Exception:
            calls.append({"error": traceback.format_exc(limit=4)})
            break
        finally:
            tracer.uninstall()
        end = tracer.spans[tracer.last_root][2]
        outcome = summarize(result, first)
        calls.append(
            {
                "cycles": outcome.cycles,
                "outputs": outcome.outputs,
                "checks": outcome.checks,
                "kernel": outcome.kernel,
                "kernel_reason": outcome.kernel_reason,
            }
        )
        traced.append(outcome.cycles / (end - first.stamp))
        layers.append(metrics)
        if time.perf_counter() - start + 2 * rep["call_s"] > budget:
            break
    tracer.dump(out)
    if not layers:
        return {"calls": calls}
    per_layer = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    per_layer["trace.overhead"] = max(untraced) / max(traced) - 1.0
    return {
        "calls": calls,
        "per_layer": per_layer,
        "traced_reps": len(layers),
        "spans": len(tracer.spans),
        "untraced_cps": untraced,
        "traced_cps": traced,
    }


def main(argv) -> int:
    mode, name, seed, budget = argv[1], argv[2], int(argv[3]), float(argv[4])
    first = FirstCycle()
    first.install(name)
    if mode == "setup":
        call, _ = WORKLOADS[name]
        first.arm(stop=True)
        try:
            call(seed, "auto")
        except StopAtFirstCycle:
            pass
        if first.stamp is None:
            raise RuntimeError(f"{name} returned without simulating a cycle")
        doc = {"setup_s": first.stamp - T0}
    elif mode == "measure":
        doc = measure(name, seed, budget, first)
    elif mode == "reference":
        doc = {"calls": [one_call(name, seed, first, kernel="python")]}
    elif mode == "warm":
        doc = {"calls": [one_call(name, seed, first)]}
    elif mode == "trace":
        doc = trace(name, seed, budget, first, argv[5])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
