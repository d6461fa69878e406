"""oqec benchmark: one command that times, checks and reports a workload.

    python3 bench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Run from a checkout; oqec is imported from its src/. With --trace 0 the
workload runs in a child process (bench/worker.py) under an address-space
cap, preceded by set-up-only children so that set-up is sampled several
times; the report gives each timing's median, tail percentile and sample
count. With --trace 1 a single child alternates untraced and traced passes
and the report gives per-layer calls, self times and counters. The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics, holding the metrics BENCHMARK.json lists for that mode.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 3  # set-up-only children plus the measuring child
ADDRESS_SPACE_CAP = 3 * 2**30  # below the 7 GB of the machine it was sized on
DEADLINE_S = 170


def _cap_address_space():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def _run_worker(args, workdir, env, deadline, setup_only=False) -> dict:
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
        "--launched-at", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    # own process group, so that cleanup also reaches the worker's CLI children
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        preexec_fn=_cap_address_space,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def tail(samples):
    """Highest of p99.9/p99/p95/p90/p75/p50 with >= 10 samples beyond it."""
    data = sorted(samples)
    n = len(data)
    for p in (99.9, 99, 95, 90, 75, 50):
        k = math.ceil(p * n / 100)
        if n - k >= 10:
            return f"p{p:g}", data[k - 1]
    return None, None


def _row(name, unit, samples):
    label, value = tail(samples)
    tail_txt = f"{label}={value:.6g}" if label else "tail n/a"
    return f"  {name:<26} {statistics.median(samples):>12.6g} {unit:<6} {tail_txt:<18} n={len(samples)}"


def report_timed(bench, result, setups):
    ops = result["samples"]
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    print("end-to-end (median, tail, samples):")
    print(_row("setup_s", "s", setups))
    for kind, samples in ops.items():
        values[f"{kind}_s"] = statistics.median(samples)
        print(_row(f"{kind}_s", "s", samples))
    kraus = result["recovery_kraus"]
    if kraus:
        print(f"  {'recovery_kraus':<26} {statistics.median(kraus):>12g} {'count':<6} "
              f"min={min(kraus)} max={max(kraus)} n={len(kraus)}")
    print(f"  {'peak_rss_mb':<26} {result['peak_rss_mb']:>12.6g} MB")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}


def report_traced(bench, result):
    layers = result["layers"]
    print(f"per layer (per traced pass, {result['passes']} passes):")
    for name in sorted(layers):
        print(f"  {name:<48} {layers[name]:.6g}")
    useful, total = result["useful_kraus"]
    print(f"  recovery.useful_kraus_ratio base: {useful} useful of {total} Kraus operators")
    return {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in bench["per_layer"]}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that the cleanup below runs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "oqec" / "__init__.py").is_file():
        print(f"error: no oqec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    workdir = ROOT / "bench" / ".work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_run_worker(args, workdir, env, deadline, setup_only=True)["setup_s"])
        result = _run_worker(args, workdir, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e = result["env"]
    print(f"oqec benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"env: python {e['python']}, numpy {e['numpy']}, blas {e['blas']}, "
          f"blas threads {e['blas_threads']}, nproc {e['nproc']}, "
          f"address-space cap {ADDRESS_SPACE_CAP / 2**30:g} GiB, closed loop, one client")
    if args.trace:
        metrics = report_traced(bench, result)
    else:
        setups.append(result["setup_s"])
        metrics = report_timed(bench, result, setups)
    attempted, failures = result["attempted"], result["failures"]
    print(f"  {'failed_frac':<26} {len(failures) / attempted:>12.6g} ({len(failures)} of {attempted} ops)")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
