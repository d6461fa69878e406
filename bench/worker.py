"""Run one workload in this process and print its raw results as JSON.

run.py starts this script once per set-up sample and once for the run
itself, under an address-space cap. It imports oqec from the checkout's
src/, builds the workload's inputs from the seed, warms up, and then either
times operation steps for the given seconds (--trace 0) or alternates
untraced and traced passes (--trace 1). The last line of stdout is one JSON
object; set-up time is measured from the monotonic time run.py passes in.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
IMPORT_SAMPLES = 5


def _import_oqec():
    sys.path.insert(0, str(SRC))
    import oqec

    if Path(oqec.__file__).resolve().parent != SRC / "oqec":
        raise SystemExit(f"error: imported oqec from {oqec.__file__}, not from {SRC}")


def _peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib * 1024 / 1e6


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def timed_run(workload, state, seconds: float) -> dict:
    """Closed loop, one client: each step starts when the previous ends.

    Every kind runs at least once; after that the kind furthest below its
    weighted share of `seconds` goes next, until every kind has reached its
    share and its minimum number of steps.
    A step is a library kind's whole sweep or a CLI kind's next call (in
    rotation); its sample is the mean time per call.
    """
    import workloads

    kinds = workload.kinds
    unit = seconds / sum(k.weight for k in kinds)
    spent = {k.name: 0.0 for k in kinds}
    samples = {k.name: [] for k in kinds}
    attempted, failures = 0, []
    while True:
        todo = [
            k
            for k in kinds
            if len(samples[k.name]) < k.min_steps or spent[k.name] < k.weight * unit
        ]
        if not todo:
            break
        kind = min(todo, key=lambda k: (bool(samples[k.name]), spent[k.name] / k.weight))
        plan = kind.plan(state)
        if kind.per_call:
            plan = [plan[len(samples[kind.name]) % len(plan)]]
        start = time.perf_counter()
        calls = workloads.run_calls(state, plan)
        spent[kind.name] += time.perf_counter() - start
        samples[kind.name].append(statistics.fmean(t for t, _ in calls))
        attempted += len(calls)
        failures += [f"{kind.name}: {f}" for _, f in calls if f]
    return {
        "samples": samples,
        "attempted": attempted,
        "failures": failures,
        "recovery_kraus": state.kraus_counts,
        "peak_rss_mb": _peak_rss_mb(),
    }


def _cli_import_s() -> float:
    times = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import oqec.cli"], check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def traced_run(workload, build_args, seconds: float) -> dict:
    """An untraced warm-up pass, then pairs of untraced and traced passes
    (in alternating order) until `seconds` have passed.

    A pass rebuilds the inputs and runs one step of every kind, with the CLI
    verbs called in-process so that their spans are recorded. Layer values
    are per traced pass; the overhead is traced minus untraced pass time.
    """
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    wall = {False: 0.0, True: 0.0}

    def run_pass(traced):
        """Returns (seconds, state, [(call seconds, failure or None)])."""
        t0 = time.perf_counter()
        with tracer.installed() if traced else contextlib.nullcontext():
            state = workload.build(*build_args)
            state.in_process_cli = True
            if traced:
                state.untraced = tracer.paused
            calls = [c for kind in workload.kinds for c in workloads.run_calls(state, kind.plan(state))]
        return time.perf_counter() - t0, state, calls

    start = time.perf_counter()
    _, state, calls = run_pass(False)
    done = [calls]
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for traced in (False, True) if passes % 2 == 0 else (True, False):
            elapsed, state, calls = run_pass(traced)
            wall[traced] += elapsed
            done.append(calls)
        passes += 1
    failures = [f for calls in done for _, f in calls if f]
    useful, total = workloads.useful_kraus(state)
    layers = {}
    for name in tracer.calls:
        layers[f"{name}.calls"] = tracer.calls[name] / passes
        layers[f"{name}.self_s"] = tracer.self_s[name] / passes
    for name, value in tracer.counts.items():
        layers[name] = value / passes
    layers.update(
        {
            "recovery.useful_kraus_ratio": useful / total if total else 0.0,
            "cli.import_s": _cli_import_s(),
            "trace.overhead_s": (wall[True] - wall[False]) / passes,
            "trace.overhead_frac": wall[True] / wall[False] - 1.0,
        }
    )
    return {
        "layers": layers,
        "passes": passes,
        "useful_kraus": [useful, total],
        "attempted": sum(len(calls) for calls in done),
        "failures": failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--launched-at", type=float, required=True, help="time.monotonic() at launch")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_oqec()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    build_args = (args.seed, args.workdir)
    if args.trace:
        result = traced_run(workload, build_args, args.seconds)
    else:
        state = workload.build(*build_args)
        workloads.run_calls(state, workloads.op_verdict(state))  # warm-up
        setup_s = time.monotonic() - args.launched_at
        result = {"setup_s": setup_s}
        if not args.setup_only:
            result.update(timed_run(workload, state, args.seconds))
    result["env"] = environment(args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
