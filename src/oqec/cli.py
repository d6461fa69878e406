"""Command line front end.

Verbs: check, recover, factorize, dpi, codes. Exit codes: 0 for a positive
verdict, 1 for a negative one (condition failed, not correctable, residual
over tolerance, monotonicity violated), 2 for usage or input errors (noise
off V or not trace preserving, an input too large to allocate). --tol sets
the tolerance, DEFAULT_ATOL when it is absent; it must be finite and
positive.

A verb only loads files: purify or dpi_trace gates the channel it reads,
naming the file's field ("channel" or "channel[i]"), and main alone maps
errors to exit codes, each printed as one "error: " line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .channels import Channel, validate
from .conditions import (
    check_condition_b,
    check_condition_c,
    check_condition_d,
    dpi_trace,
    purify,
)
from .errors import NotCorrectableError
from .linalg import DEFAULT_ATOL
from .recovery import (
    factorize_product,
    synthesize_schmidt_recovery,
    synthesize_universal_recovery,
    verify_recovery,
)
from .serialize import (
    channel_to_json,
    condition_report_to_json,
    decomposition_from_json,
    decomposition_to_json,
    dump_json_file,
    load_channel_file,
    load_json_file,
)
from . import codes as codes_mod

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _tolerance(args) -> float:
    """--tol, else DEFAULT_ATOL; it must be finite and positive."""
    if args.tol is None:
        return DEFAULT_ATOL
    if not 0 < args.tol < math.inf:
        raise ValueError(f"--tol must be a finite positive tolerance, got {args.tol}")
    return args.tol


def _meta(tol: float) -> dict:
    return {
        "tool": "oqec",
        "version": __version__,
        "tolerance": tol,
    }


def _load_decomposition(args):
    return decomposition_from_json(load_json_file(args.decomposition, "decomposition"), "decomposition")


def _load_pair(args):
    return _load_decomposition(args), load_channel_file(args.channel, "channel")


def cmd_check(args) -> int:
    tol = _tolerance(args)
    dec, ch = _load_pair(args)
    wanted = ["b", "c", "d"] if args.condition == "all" else [args.condition]
    reports, ps = [], None
    for cond in wanted:
        if cond == "b":  # b's purified state serves c and d
            reports.append(check_condition_b(dec, ch, tol))
            ps = reports[-1].witnesses["state"]
        else:
            if ps is None:
                ps = purify(dec, ch)
            check = check_condition_c if cond == "c" else check_condition_d
            reports.append(check(ps, tol))
    passed = all(r.passed for r in reports)
    if args.json or args.out:  # the witnesses' trees are built only to be written
        payload = {
            "meta": _meta(tol),
            "conditions": [condition_report_to_json(r) for r in reports],
            "passed": passed,
        }
    if args.json:  # a dense witness is an array, printed as its tolist()
        print(json.dumps(payload, indent=1, default=np.ndarray.tolist))
    else:
        for r in reports:
            verdict = "PASS" if r.passed else "FAIL"
            print(
                f"condition {r.condition}: {verdict} "
                f"(residual {r.residual:.3e}, tol {r.tol:g})"
            )
    if args.out:
        dump_json_file(args.out, payload)
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_recover(args) -> int:
    tol = _tolerance(args)
    dec, ch = _load_pair(args)
    synth = (
        synthesize_schmidt_recovery
        if args.method == "schmidt"
        else synthesize_universal_recovery
    )
    rec = synth(dec, ch, tol=tol)
    chan_report = validate(rec.channel)  # the metadata's completeness_defect
    report = verify_recovery(dec, ch, rec)
    ok = (
        report.max_infidelity <= tol
        and report.b_marginal_drift <= tol
        and report.support_leak <= tol
    )
    metadata = {
        **_meta(tol),
        "method": rec.method,
        "kraus_count": rec.channel.n_kraus,
        "completeness_defect": chan_report.defect,
        "condition_b_residual": rec.data["condition_b_residual"],
        "verification": {
            "max_infidelity": report.max_infidelity,
            "b_marginal_drift": report.b_marginal_drift,
            "support_leak": report.support_leak,
        },
    }
    out = args.out or "recovery.json"
    dump_json_file(out, channel_to_json(rec.channel, metadata))
    if args.json:
        print(json.dumps(metadata, indent=1))
    else:
        print(
            f"{rec.method} recovery: {rec.channel.n_kraus} Kraus operators -> {out}\n"
            f"max infidelity {report.max_infidelity:.3e}, "
            f"B-marginal drift {report.b_marginal_drift:.3e}, "
            f"support leak {report.support_leak:.3e}"
        )
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_factorize(args) -> int:
    tol = _tolerance(args)
    dec, ch = _load_pair(args)
    fac = factorize_product(dec, ch, tol=tol)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    w_path = os.path.join(outdir, "factor_unitary.json")
    n_path = os.path.join(outdir, "factor_channel_b.json")
    meta = {**_meta(tol), "residual": fac.residual}
    dump_json_file(w_path, channel_to_json(Channel((fac.w,)), {**meta, "kind": "isometry"}))
    dump_json_file(n_path, channel_to_json(fac.n_b, {**meta, "kind": "b_factor"}))
    if args.json:
        print(json.dumps(meta, indent=1))
    else:
        print(f"residual {fac.residual:.3e}; wrote {w_path} and {n_path}")
    return EXIT_PASS if fac.residual <= tol else EXIT_FAIL


def cmd_dpi(args) -> int:
    tol = _tolerance(args)
    dec = _load_decomposition(args)
    chain = [load_channel_file(path, f"channel[{i}]") for i, path in enumerate(args.channels)]
    values = dpi_trace(dec, chain)
    monotone = all(values[i + 1] <= values[i] + tol for i in range(len(values) - 1))
    payload = {"meta": _meta(tol), "coherent_information": values, "monotone": monotone}
    if args.json:
        print(json.dumps(payload, indent=1))
    else:
        for i, v in enumerate(values):
            label = "input" if i == 0 else f"after step {i}"
            print(f"{label}: {v:.12f}")
        print(f"monotone within {tol:g}: {'yes' if monotone else 'NO'}")
    if args.out:
        dump_json_file(args.out, payload)
    return EXIT_PASS if monotone else EXIT_FAIL


def cmd_codes(args) -> int:
    if args.action == "list":
        for entry in codes_mod.catalog(extended=args.extended):
            verdict = "correctable" if all(entry.expected.values()) else "not correctable"
            print(
                f"{entry.name}: dim_a={entry.dec.dim_a} dim_b={entry.dec.dim_b} "
                f"dim_c={entry.dec.dim_c}, {entry.noise.n_kraus} Kraus, {verdict}"
            )
        return EXIT_PASS
    entry = codes_mod.get(args.name)
    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)
    dec_path = os.path.join(outdir, f"{entry.name}.decomposition.json")
    noise_path = os.path.join(outdir, f"{entry.name}.noise.json")
    dump_json_file(dec_path, decomposition_to_json(entry.dec))
    dump_json_file(noise_path, channel_to_json(entry.noise, {"name": entry.name, "note": entry.note}))
    print(f"wrote {dec_path} and {noise_path}")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oqec",
        description="Operator quantum error correction toolbox",
    )
    parser.add_argument("--version", action="version", version=f"oqec {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=None, help="pass/fail tolerance")
        p.add_argument("--out", default=None, help="write a JSON report/artifact here")
        p.add_argument("--json", action="store_true", help="print the JSON report to stdout")

    p = sub.add_parser("check", help="test correctability conditions")
    p.add_argument("decomposition")
    p.add_argument("channel")
    p.add_argument("--condition", choices=["b", "c", "d", "all"], default="all")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("recover", help="synthesize and verify a recovery channel")
    p.add_argument("decomposition")
    p.add_argument("channel")
    p.add_argument("--method", choices=["schmidt", "universal"], default="schmidt")
    common(p)
    # accepted and ignored: bench/workloads.py op_cli_recover passes --seed
    p.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("factorize", help="factor correctable noise on the code sector as W (1_A tensor N)")
    p.add_argument("decomposition")
    p.add_argument("channel")
    common(p)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("dpi", help="coherent information through a channel chain")
    p.add_argument("decomposition")
    p.add_argument("channels", nargs="+")
    common(p)
    p.set_defaults(func=cmd_dpi)

    p = sub.add_parser("codes", help="catalog of worked examples")
    codes_sub = p.add_subparsers(dest="action", required=True)
    pl = codes_sub.add_parser("list", help="list catalog entries")
    pl.add_argument("--extended", action="store_true", help="include large entries")
    pl.set_defaults(func=cmd_codes)
    pe = codes_sub.add_parser("export", help="write one entry's files")
    pe.add_argument("name")
    pe.add_argument("outdir")
    pe.set_defaults(func=cmd_codes)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotCorrectableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
