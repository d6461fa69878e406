"""Benchmark workloads: seeded inputs, timed operations and their checks.

A workload is a set of instances built from the seed plus a list of
operation kinds. A kind plans calls into oqec (a library function, or one
``oqec`` CLI verb) over its instances; ``run_calls`` times each call and then
checks the output against a known truth outside the timed region. The
oqec modules are reached through module attributes at call time, so the
wrappers that ``tracer.Tracer`` installs see every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import oqec.cli
from oqec import channels, codes, conditions, errors, linalg, recovery, serialize, spaces

TOL = 1e-9  # the CLI default tolerance; every residual is held to it
CLI_TIMEOUT_S = 150
CATALOG_NAMES = (
    "bit_flip_3",
    "phase_flip_3",
    "dfs_2qubit_dephasing",
    "ns_3qubit_collective",
    "bitflip_3_vs_z",
)
ALL_PASS = {"b": True, "c": True, "d": True}
ALL_FAIL = {"b": False, "c": False, "d": False}


@dataclass
class Instance:
    name: str
    dec: spaces.Decomposition
    noise: channels.Channel
    expected: dict  # condition -> expected verdict
    files: Optional[tuple] = None  # (decomposition, noise) JSON paths for the CLI
    recovery: Optional[recovery.Recovery] = None  # Schmidt recovery from set-up
    recovery_file: Optional[str] = None

    @property
    def correctable(self) -> bool:
        return all(self.expected.values())


@dataclass
class State:
    workdir: str
    seed: int
    instances: list
    product: Optional[Instance] = None  # dim_c = 0 instance for factorize
    export_names: tuple = ()
    in_process_cli: bool = False
    untraced: Callable = contextlib.nullcontext  # wraps the checks
    kraus_counts: list = field(default_factory=list)

    def path(self, *parts) -> str:
        p = os.path.join(self.workdir, *parts)
        os.makedirs(os.path.dirname(p), exist_ok=True)
        return p


# ---------------------------------------------------------------- instances


def correctable_instance(name, seed, dim_a, dim_b, dim_c, kraus) -> Instance:
    """The acceptance suite's generator at fixed dimensions: a random frame
    applied to (U_AB)(1_A tensor N_B) plus a unitary on C."""
    rng = np.random.default_rng(seed)
    dab = dim_a * dim_b
    dv = dab + dim_c
    frame = linalg.haar_unitary(dv, rng)
    dec = spaces.Decomposition(dim_a, dim_b, dim_c, frame=frame)
    n_b = channels.random_channel(dim_b, kraus, seed=seed + 10_000)
    u_ab = linalg.haar_unitary(dab, rng)
    u_c = linalg.haar_unitary(dim_c, rng) if dim_c else None
    ops = []
    for m, nk in enumerate(n_b.kraus):
        g = np.zeros((dv, dv), dtype=np.complex128)
        g[:dab, :dab] = u_ab @ np.kron(np.eye(dim_a), nk)
        if dim_c and m == 0:
            g[dab:, dab:] = u_c
        ops.append(frame @ g @ frame.conj().T)
    return Instance(name, dec, channels.Channel(tuple(ops)), dict(ALL_PASS))


def _write_inputs(state: State, inst: Instance, recovery_file: bool) -> None:
    dec_path = state.path("in", f"{inst.name}.decomposition.json")
    noise_path = state.path("in", f"{inst.name}.noise.json")
    serialize.dump_json_file(dec_path, serialize.decomposition_to_json(inst.dec))
    serialize.dump_json_file(noise_path, serialize.channel_to_json(inst.noise))
    inst.files = (dec_path, noise_path)
    if recovery_file and inst.recovery is not None:
        inst.recovery_file = state.path("in", f"{inst.name}.recovery.json")
        serialize.dump_json_file(inst.recovery_file, serialize.channel_to_json(inst.recovery.channel))


def _prepare(state: State, recovery_files: bool) -> State:
    """Set-up shared by the small and random workloads: one Schmidt recovery
    per correctable instance (for verify and dpi) and the CLI input files."""
    for inst in state.instances:
        if inst.correctable:
            inst.recovery = recovery.synthesize_schmidt_recovery(inst.dec, inst.noise)
        _write_inputs(state, inst, recovery_files)
    if state.product is not None:
        _write_inputs(state, state.product, False)
    return state


def build_catalog(seed: int, workdir: str) -> State:
    instances = []
    for name in CATALOG_NAMES:
        entry = codes.get(name)
        instances.append(Instance(name, entry.dec, entry.noise, dict(entry.expected)))
    product = correctable_instance("product_6", seed, 2, 3, 0, 2)
    state = State(workdir, seed, instances, product, export_names=CATALOG_NAMES)
    return _prepare(state, recovery_files=True)


def build_random_dim128(seed: int, workdir: str) -> State:
    pos = correctable_instance("correctable_128", seed, 2, 4, 120, 3)
    neg = Instance(
        "generic_128", pos.dec, channels.random_channel(128, 3, seed=seed + 20_000), dict(ALL_FAIL)
    )
    product = correctable_instance("product_64", seed + 1, 2, 32, 0, 3)
    return _prepare(State(workdir, seed, [pos, neg], product), recovery_files=False)


def build_bacon_shor_9(seed: int, workdir: str) -> State:
    entry = codes.get("bacon_shor_9")
    inst = Instance(entry.name, entry.dec, entry.noise, dict(entry.expected))
    state = State(workdir, seed, [inst], export_names=(entry.name,))
    # check reads what the timed `codes export` step writes
    inst.files = _export_paths(state, entry.name)
    return state


# ------------------------------------------------------------------- calls


@dataclass(frozen=True)
class Call:
    """One planned call into oqec and the check of its outcome."""

    check: Callable  # (result, exception or None) -> failure message or None
    fn: Callable
    args: tuple
    kwargs: dict = field(default_factory=dict)


def _plan(calls, check, fn, *args, **kwargs):
    calls.append(Call(check, fn, args, kwargs))


def run_calls(state, calls) -> list:
    """Time each call; check its result (or exception) outside the timing.

    Returns (seconds, failure message or None) per call.
    """
    out = []
    for call in calls:
        start = time.perf_counter()
        try:
            result, error = call.fn(*call.args, **call.kwargs), None
        except Exception as exc:  # scored as a failed op by the check
            result, error = None, exc
        elapsed = time.perf_counter() - start
        with state.untraced():
            try:
                failure = call.check(result, error)
            except Exception as exc:  # e.g. MemoryError under the cap
                failure = f"check raised {type(exc).__name__}: {exc}"
        out.append((elapsed, failure))
    return out


def _unexpected(error):
    return f"unexpected {type(error).__name__}: {error}"


def _cli(state: State, argv):
    """Run one CLI verb; returns (exit code, stdout, stderr)."""
    if state.in_process_cli:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = oqec.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()
    proc = subprocess.run(
        [sys.executable, "-m", "oqec", *argv],
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
        cwd=state.workdir,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _exit_check(expected_code, *, stderr_has=None, files=()):
    def check(result, error):
        if error is not None:
            return _unexpected(error)
        code, _, err = result
        if code != expected_code:
            return f"exit {code}, expected {expected_code}: {err.strip()[-200:]}"
        if stderr_has is not None and stderr_has not in err:
            return f"stderr lacks {stderr_has!r}"
        missing = [f for f in files if not (os.path.isfile(f) and os.path.getsize(f))]
        return f"missing or empty output {missing}" if missing else None

    return check


def _verdict(dec, noise):
    rb = conditions.check_condition_b(dec, noise)
    ps = conditions.purify(dec, noise)
    rc = conditions.check_condition_c(ps)
    rd = conditions.check_condition_d(ps)
    return {"b": rb.passed, "c": rc.passed, "d": rd.passed}


# ------------------------------------------------------------ op kinds


def op_verdict(state):
    calls = []
    for inst in state.instances:
        def check(result, error, inst=inst):
            if error is not None:
                return _unexpected(error)
            return None if result == inst.expected else f"{inst.name}: verdicts {result}, expected {inst.expected}"

        _plan(calls, check, _verdict, inst.dec, inst.noise)
    return calls


def _synth(state, synthesize):
    calls = []
    for inst in state.instances:
        def check(result, error, inst=inst):
            if not inst.correctable:
                if isinstance(error, errors.NotCorrectableError):
                    return None
                return f"{inst.name}: expected NotCorrectableError, got {error or 'a recovery'}"
            if error is not None:
                return _unexpected(error)
            state.kraus_counts.append(len(result.channel.kraus))
            if not channels.validate(result.channel).trace_preserving:
                return f"{inst.name}: recovery is not trace preserving"
            rep = recovery.verify_recovery(inst.dec, inst.noise, result, trials=1, seed=state.seed)
            worst = max(rep.max_infidelity, rep.b_marginal_drift, rep.support_leak)
            return None if worst <= TOL else f"{inst.name}: recovery off by {worst:.3e}"

        _plan(calls, check, synthesize, inst.dec, inst.noise)
    return calls


def op_synth_schmidt(state):
    return _synth(state, recovery.synthesize_schmidt_recovery)


def op_synth_universal(state):
    return _synth(state, recovery.synthesize_universal_recovery)


def op_verify(state):
    calls = []
    for inst in state.instances:
        if inst.recovery is None:
            continue

        def check(result, error, inst=inst):
            if error is not None:
                return _unexpected(error)
            worst = max(result.max_infidelity, result.b_marginal_drift, result.support_leak)
            return None if worst <= TOL else f"{inst.name}: verification off by {worst:.3e}"

        _plan(calls, check, recovery.verify_recovery, inst.dec, inst.noise, inst.recovery, seed=state.seed)
    return calls


def op_dpi(state):
    calls = []
    for inst in state.instances:
        if inst.recovery is None:
            continue

        def check(values, error, inst=inst):
            if error is not None:
                return _unexpected(error)
            start = np.log2(inst.dec.dim_a)
            rising = any(b > a + TOL for a, b in zip(values, values[1:]))
            if rising or abs(values[0] - start) > TOL or values[-1] < start - TOL:
                return f"{inst.name}: coherent information {values}, expected {start} throughout"
            return None

        _plan(calls, check, conditions.dpi_trace, inst.dec, [inst.noise, inst.recovery.channel])
    return calls


def op_factorize(state):
    calls = []
    inst = state.product

    def check(result, error):
        if error is not None:
            return _unexpected(error)
        return None if result.residual <= TOL else f"{inst.name}: residual {result.residual:.3e}"

    _plan(calls, check, recovery.factorize_product, inst.dec, inst.noise)
    return calls


def _export_paths(state, name):
    return (
        state.path("export", f"{name}.decomposition.json"),
        state.path("export", f"{name}.noise.json"),
    )


def op_cli_export(state):
    calls = []
    outdir = os.path.join(state.workdir, "export")
    for name in state.export_names:
        check = _exit_check(0, files=_export_paths(state, name))
        _plan(calls, check, _cli, state, ["codes", "export", name, outdir])
    return calls


def op_cli_check(state):
    calls = []
    for inst in state.instances:
        check = _exit_check(0 if inst.correctable else 1)
        _plan(calls, check, _cli, state, ["check", *inst.files, "--condition", "all"])
    return calls


def op_cli_recover(state):
    calls = []
    for inst in state.instances:
        for method in ("schmidt", "universal"):
            out = state.path("out", f"{inst.name}.{method}.recovery.json")
            if inst.correctable:
                check = _exit_check(0, files=(out,))
            else:
                check = _exit_check(1, stderr_has="not correctable")
            argv = ["recover", *inst.files, "--method", method, "--seed", str(state.seed), "--out", out]
            _plan(calls, check, _cli, state, argv)
    return calls


def op_cli_dpi(state):
    calls = []
    for inst in state.instances:
        if inst.recovery_file is None:
            continue
        _plan(calls, _exit_check(0), _cli, state, ["dpi", *inst.files, inst.recovery_file])
    return calls


def op_cli_factorize(state):
    calls = []
    outdir = os.path.join(state.workdir, "out", "factor")
    files = (os.path.join(outdir, "factor_unitary.json"), os.path.join(outdir, "factor_channel_b.json"))
    argv = ["factorize", *state.product.files, "--out", outdir]
    _plan(calls, _exit_check(0, files=files), _cli, state, argv)
    return calls


# ------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Kind:
    """An operation kind: plan(state) lists its calls over every instance.

    A timed step of a library kind runs the whole sweep; a step of a CLI kind
    runs the next single call, so that the slow CLI samples spread over the run.
    """

    name: str  # reported as <name>_s
    plan: Callable
    weight: int = 1  # share of the timed run
    per_call: bool = False
    min_steps: int = 1


def _cli_kind(name, plan, weight=1, min_steps=1):
    return Kind(name, plan, weight, per_call=True, min_steps=min_steps)


# verdicts and `oqec check` are the end-to-end metrics common to every
# workload, so they get most of the run; a `check` of bacon_shor_9 takes
# longer than its share, and one sample per run spread too widely
VERDICT = Kind("verdict", op_verdict, 6)
CLI_CHECK = _cli_kind("cli_check", op_cli_check, 6, min_steps=2)
LIBRARY = (
    VERDICT,
    Kind("synth_schmidt", op_synth_schmidt),
    Kind("synth_universal", op_synth_universal),
    Kind("verify", op_verify),
    Kind("dpi", op_dpi),
    Kind("factorize", op_factorize),
)


@dataclass(frozen=True)
class Workload:
    build: Callable  # (seed, workdir) -> State
    kinds: tuple


WORKLOADS = {
    "catalog": Workload(
        build_catalog,
        LIBRARY
        + (
            CLI_CHECK,
            _cli_kind("cli_recover", op_cli_recover),
            _cli_kind("cli_export", op_cli_export),
            _cli_kind("cli_dpi", op_cli_dpi),
            _cli_kind("cli_factorize", op_cli_factorize),
        ),
    ),
    "random_dim128": Workload(build_random_dim128, LIBRARY + (CLI_CHECK,)),
    # export first: check reads the files it writes
    "bacon_shor_9": Workload(
        build_bacon_shor_9, (VERDICT, _cli_kind("cli_export", op_cli_export), CLI_CHECK)
    ),
}


def useful_kraus(state: State) -> tuple:
    """(useful, total) Kraus counts over the set-up Schmidt recoveries.

    Useful is the Schmidt rank of the R_B E marginal plus one completion
    operator when the recovery needs any completion at all.
    """
    useful = total = 0
    for inst in state.instances:
        if inst.recovery is None:
            continue
        ps = conditions.purify(inst.dec, inst.noise)
        q, _ = linalg.eig_hermitian(ps.marginal((1, 3)))
        rank = int(np.sum(q > linalg.SPECTRUM_CUTOFF))
        kraus = len(inst.recovery.channel.kraus)
        useful += rank + (1 if kraus > rank else 0)
        total += kraus
    return useful, total
