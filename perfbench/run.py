"""Benchmark of the paper's three workloads: end to end, or traced per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table3-lanes --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (``sim_cps``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` prints the per-layer metrics of
``tracer.py``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it describes the run (kernel tier, host, samples).

Every measurement happens in a fresh interpreter (``worker.py``) so
set-up includes importing ``repro``.  See ``README.md`` for the
workloads, the layer table and the measurement protocol.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import steal_seconds  # noqa: E402
from worker import fastest  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: fresh set-up-only interpreters per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: measuring interpreters per run, sharing ``--seconds`` equally.
MEASURE_PROCESSES = 2

#: environment switches that change what ``fig1.run`` or the engines
#: execute; every ``REPRO_*`` variable is removed from the children.
PINNED_ENV_PREFIX = "REPRO_"

#: native thread pools pinned to one thread (single-thread workloads).
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: wall-clock limit for any one child interpreter.
CHILD_TIMEOUT_S = 150


def declared_metrics(section: str) -> dict:
    """``name -> unit`` of one metric list of ``BENCHMARK.json``, the one
    place the benchmark's metrics are declared."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        return {m["name"]: m["unit"] for m in json.load(stream)[section]}


class WorkerFailed(RuntimeError):
    """A child interpreter exited abnormally."""


def build_dir() -> str:
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path, "perfbench")


def child_env(kernel_cache: str):
    cleared = sorted(k for k in os.environ if k.startswith(PINNED_ENV_PREFIX))
    env = {k: v for k, v in os.environ.items() if not k.startswith(PINNED_ENV_PREFIX)}
    env["REPRO_KERNEL_CACHE"] = kernel_cache
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for name in THREAD_ENV:
        env[name] = "1"
    return env, cleared


def run_worker(env, mode, workload, seed, budget=0.0, *extra) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload, str(seed), f"{budget:.3f}"]
    proc = subprocess.run(
        cmd + list(extra),
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def compiled_kernels(kernel_cache: str) -> set:
    return set(glob.glob(os.path.join(kernel_cache, "repro-kernel-*.so")))


def host_fingerprint() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "cffi"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True, text=True, timeout=30)
        versions["cc"] = cc.stdout.splitlines()[0] if cc.stdout else None
    except (OSError, subprocess.SubprocessError):
        versions["cc"] = None
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        **versions,
    }


def schedule():
    """Set-up samples spread between the measuring processes."""
    order = ["setup"]
    rest = SETUP_SAMPLES - 1
    for i in range(MEASURE_PROCESSES):
        order.append("measure")
        share = rest // (MEASURE_PROCESSES - i)
        order.extend(["setup"] * share)
        rest -= share
    return order


def load_reference(env, workload: str, seed: int):
    """Outputs the timed calls must reproduce, or ``None`` (campaign,
    non-default seed: its own gates and call-to-call identity decide)."""
    if seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "reference.json")) as stream:
            return json.load(stream)[workload]
    if workload == "fault-campaign":
        return None
    ref_env = dict(env)
    if workload == "fig1-sweep":
        # fig1.run builds its own engine; the ladder's numpy mode is the
        # only way to put it on the reference NumPy sweeps.
        ref_env["REPRO_KERNELS"] = "numpy"
    call = run_worker(ref_env, "reference", workload, seed)["calls"][0]
    if "error" in call:
        raise WorkerFailed("reference path failed:\n" + call["error"])
    if call["kernel"] != "python":
        raise WorkerFailed(f"reference ran on kernel {call['kernel']!r}, not 'python'")
    return {"outputs": call["outputs"], "checks": call["checks"]}


def check(calls, reference):
    """``(attempted, failed, problems)`` over every call's operations."""
    good = [c for c in calls if "error" not in c]
    if reference is None:
        reference = {"outputs": good[0]["outputs"], "checks": {}} if good else None
    ops = len(reference["outputs"]) if reference else 1
    attempted = failed = 0
    problems = []
    for call in calls:
        attempted += ops
        if "error" in call:
            failed += ops
            problems.append(call["error"].strip().splitlines()[-1])
            continue
        broken = [k for k, ok in call["checks"].items() if not ok]
        broken += [k for k, ok in reference["checks"].items() if call["checks"].get(k) != ok]
        if broken:
            failed += ops
            problems.append("checks failed: " + ", ".join(sorted(set(broken))))
            continue
        outputs = call["outputs"]
        if len(outputs) != ops:
            failed += ops
            problems.append(f"{len(outputs)} operations, expected {ops}")
            continue
        bad = [i for i in range(ops) if outputs[i] != reference["outputs"][i]]
        failed += len(bad)
        if bad:
            problems.append(f"operations {bad} differ from the reference")
    return attempted, failed, problems


def end_to_end(env, workload, seed, seconds, kernel_cache):
    setups, calls, rss, timed, pieces = [], [], [], [], []
    before = compiled_kernels(kernel_cache)
    for mode in schedule():
        if mode == "setup":
            setups.append(run_worker(env, "setup", workload, seed)["setup_s"])
            continue
        doc = run_worker(env, "measure", workload, seed, seconds / MEASURE_PROCESSES)
        calls.extend(doc["calls"])
        if "peak_rss_mb" in doc:
            rss.append(doc["peak_rss_mb"])
        timed.extend(c for c in doc["calls"] if c.get("timed") and "error" not in c)
        pieces.append(doc.get("fastest_pieces"))
    rates = [c["cycles"] / c["sim_s"] for c in timed]
    compiles = len(compiled_kernels(kernel_cache) - before)
    # Best-of, taken step by step: every timed call of the run does the
    # same work, so the time from one step mark to the next is the same
    # piece of work in each.  Interference only ever slows a piece down;
    # the fastest time seen for each piece, summed, is the call's time
    # with the least interference.
    best = fastest(pieces) if None not in pieces else None
    if timed and best is None:
        raise WorkerFailed("the timed calls stepped differently: no pieces to compare")
    metrics = {}
    if rates and rss:
        metrics = {
            "sim_cps": timed[0]["cycles"] / sum(best),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        }
    info = {
        "setup_samples_s": setups,
        "cps_samples": rates,
        "pieces": len(best) if best else 0,
        "peak_rss_samples_mb": rss,
        "kernels_compiled_in_timed_sections": compiles,
    }
    return metrics, calls, info


def traced(env, workload, seed, seconds, kernel_cache):
    before = compiled_kernels(kernel_cache)
    out = os.path.join(build_dir(), f"trace-{workload}-seed{seed}.json")
    doc = run_worker(env, "trace", workload, seed, seconds, out)
    info = {
        "trace_file": os.path.relpath(out, ROOT),
        "spans": doc.get("spans"),
        "traced_reps": doc.get("traced_reps"),
        "untraced_cps": doc.get("untraced_cps"),
        "traced_cps": doc.get("traced_cps"),
        "kernels_compiled_in_timed_sections": len(compiled_kernels(kernel_cache) - before),
    }
    return doc.get("per_layer") or {}, doc["calls"], info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program to measure (src/repro missing under {ROOT})", file=sys.stderr)
        return 2

    kernel_cache = os.path.join(build_dir(), "kernels")
    os.makedirs(kernel_cache, exist_ok=True)
    env, cleared = child_env(kernel_cache)
    steal0 = steal_seconds()
    started = time.perf_counter()
    try:
        warm = run_worker(env, "warm", args.workload, args.seed)
        if args.trace:
            metrics, calls, info = traced(env, args.workload, args.seed, args.seconds, kernel_cache)
            names = declared_metrics("per_layer")
        else:
            metrics, calls, info = end_to_end(env, args.workload, args.seed, args.seconds, kernel_cache)
            names = declared_metrics("end_to_end")
        reference = load_reference(env, args.workload, args.seed)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed, problems = check(warm["calls"] + calls, reference)
    if set(metrics) != set(names):
        print(
            f"perfbench: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(names)};"
            f" problems: {problems}",
            file=sys.stderr,
        )
        return 1
    if info["kernels_compiled_in_timed_sections"]:
        # a cold bind inside a timed section would land in setup_s
        problems.append(f"{info['kernels_compiled_in_timed_sections']} kernels compiled in timed sections")
    # every call must have run on the same tier, for the same reason
    tiers = sorted({(c.get("kernel"), c.get("kernel_reason")) for c in calls if "error" not in c}, key=str)
    info.update(
        workload=args.workload,
        seed=args.seed,
        kernel=[tier for tier, _ in tiers],
        kernel_reason=[reason for _, reason in tiers],
        cleared_env=cleared,
        problems=problems,
        host=host_fingerprint(),
        steal_s=steal_seconds() - steal0,
        run_wall_s=time.perf_counter() - started,
    )
    print(json.dumps(info))
    result = {
        "correct": failed == 0 and len(tiers) == 1 and not info["kernels_compiled_in_timed_sections"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
