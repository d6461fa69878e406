"""Smoke test of the benchmark harness at its smallest setting.

    python3 -m pytest bench/test_smoke.py

Asserts the output schema, zero failed operations and the tracer's
bookkeeping; never a timing.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(BENCH), str(ROOT / "src")]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_catalog_output_schema(trace, section):
    proc = _run("--workload", "catalog", "--seed", "0", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[section]}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    assert "failed_frac" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run("--workload", "catalog", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_tracer_sees_internal_calls_and_restores():
    import oqec
    from oqec import codes, linalg, recovery
    from tracer import Tracer

    original = linalg.complete_basis
    entry = codes.get("bit_flip_3")
    tracer = Tracer()
    with tracer.installed():
        # complete_basis is reached through recovery's own import of the name
        recovery.synthesize_schmidt_recovery(entry.dec, entry.noise)
        with tracer.paused():
            oqec.check_condition_b(entry.dec, entry.noise)
    assert tracer.calls["recovery.synthesize_schmidt_recovery"] == 1
    assert tracer.calls["linalg.complete_basis"] >= 1
    assert tracer.calls["conditions.check_condition_b"] == 1  # the paused call is not counted
    assert tracer.counts["conditions.check_condition_b.pairs"] == len(entry.noise.kraus) ** 2
    assert all(t >= 0 for t in tracer.self_s.values())
    assert linalg.complete_basis is original
    assert recovery.complete_basis is original


def test_tail_needs_ten_samples_beyond():
    from run import tail

    assert tail(range(19)) == (None, None)
    assert tail(range(20)) == ("p50", 9)
    assert tail(range(100))[0] == "p90"
