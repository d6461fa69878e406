"""Command line front end.

Verbs: check, recover, factorize, dpi, codes. Exit codes: 0 for a positive
verdict, 1 for a negative one (condition failed, not correctable, residual
over tolerance, monotonicity violated), 2 for usage or input errors (noise
that is not trace preserving, an input too large to allocate). The OQEC_TOL
environment variable overrides the default tolerance; an explicit --tol
beats both. The tolerance must be finite and positive.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .channels import Channel, validate
from .conditions import (
    check_condition_b,
    check_condition_c,
    check_condition_d,
    dpi_trace,
    purify,
)
from .errors import FormatError, NotCorrectableError
from .linalg import DEFAULT_ATOL
from .recovery import (
    factorize_product,
    synthesize_schmidt_recovery,
    synthesize_universal_recovery,
    verify_recovery,
)
from .serialize import (
    channel_from_json,
    channel_to_json,
    condition_report_to_json,
    decomposition_from_json,
    decomposition_to_json,
    dump_json_file,
    load_json_file,
)
from . import codes as codes_mod

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _tolerance(args) -> float:
    """--tol, else OQEC_TOL, else the default; it must be finite and positive."""
    if args.tol is not None:
        name, tol = "--tol", args.tol
    else:
        raw = os.environ.get("OQEC_TOL")
        if raw is None:
            return DEFAULT_ATOL
        try:
            name, tol = "OQEC_TOL", float(raw)
        except ValueError as exc:
            raise ValueError(f"OQEC_TOL={raw!r} is not a number") from exc
    if not 0 < tol < math.inf:
        raise ValueError(f"{name} must be a finite positive tolerance, got {tol}")
    return tol


def _meta(tol: float) -> dict:
    return {
        "tool": "oqec",
        "version": __version__,
        "tolerance": tol,
    }


def _load_channel(path, field, dec):
    """A channel file on the decomposition's V; every verb needs it trace
    preserving. validate caches the Gram matrix that later gates read."""
    ch = channel_from_json(load_json_file(path, field), field)
    if ch.dim_in != dec.dim_v or ch.dim_out != dec.dim_v:
        raise FormatError(
            field,
            f"acts on {ch.dim_in} -> {ch.dim_out} but the decomposition has dim_v={dec.dim_v}",
        )
    report = validate(ch)
    if not report.trace_preserving:
        change = "decreases" if report.trace_nonincreasing else "increases"
        raise FormatError(field, f"Kraus set {change} trace (completeness defect {report.defect:.3e})")
    return ch


def _load_pair(args):
    dec = decomposition_from_json(load_json_file(args.decomposition, "decomposition"), "decomposition")
    return dec, _load_channel(args.channel, "channel", dec)


def cmd_check(args) -> int:
    tol = _tolerance(args)
    dec, ch = _load_pair(args)
    wanted = ["b", "c", "d"] if args.condition == "all" else [args.condition]
    reports = []
    ps = None
    for cond in wanted:
        if cond == "b":
            reports.append(check_condition_b(dec, ch, tol))
        else:
            if ps is None:
                ps = purify(dec, ch)
            if cond == "c":
                reports.append(check_condition_c(ps, tol))
            else:
                reports.append(check_condition_d(ps, tol))
    payload = {
        "meta": _meta(tol),
        "conditions": [condition_report_to_json(r) for r in reports],
        "passed": all(r.passed for r in reports),
    }
    if args.json:
        print(json.dumps(payload, indent=1))
    else:
        for r in reports:
            verdict = "PASS" if r.passed else "FAIL"
            print(
                f"condition {r.condition}: {verdict} "
                f"(residual {r.residual:.3e}, tol {r.tol:g})"
            )
    if args.out:
        dump_json_file(args.out, payload)
    return EXIT_PASS if payload["passed"] else EXIT_FAIL


def cmd_recover(args) -> int:
    tol = _tolerance(args)
    dec, ch = _load_pair(args)
    synth = (
        synthesize_schmidt_recovery
        if args.method == "schmidt"
        else synthesize_universal_recovery
    )
    try:
        rec = synth(dec, ch, tol=tol)
    except NotCorrectableError as exc:
        print(f"not correctable: {exc}", file=sys.stderr)
        return EXIT_FAIL
    chan_report = validate(rec.channel)  # forms the Gram matrix verify_recovery reads
    report = verify_recovery(dec, ch, rec)
    ok = (
        report.max_infidelity <= tol
        and report.b_marginal_drift <= tol
        and report.support_leak <= tol
    )
    metadata = {
        **_meta(tol),
        "method": rec.method,
        "kraus_count": len(rec.channel.kraus),
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
            f"{rec.method} recovery: {len(rec.channel.kraus)} Kraus operators -> {out}\n"
            f"max infidelity {report.max_infidelity:.3e}, "
            f"B-marginal drift {report.b_marginal_drift:.3e}, "
            f"support leak {report.support_leak:.3e}"
        )
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_factorize(args) -> int:
    tol = _tolerance(args)
    dec, ch = _load_pair(args)
    try:
        fac = factorize_product(dec, ch, tol=tol)
    except NotCorrectableError as exc:
        print(f"not factorizable: {exc}", file=sys.stderr)
        return EXIT_FAIL
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    u_path = os.path.join(outdir, "factor_unitary.json")
    n_path = os.path.join(outdir, "factor_channel_b.json")
    meta = {**_meta(tol), "residual": fac.residual}
    dump_json_file(u_path, channel_to_json(Channel((fac.u,)), {**meta, "kind": "unitary"}))
    dump_json_file(n_path, channel_to_json(fac.n_b, {**meta, "kind": "b_factor"}))
    if args.json:
        print(json.dumps(meta, indent=1))
    else:
        print(f"residual {fac.residual:.3e}; wrote {u_path} and {n_path}")
    return EXIT_PASS if fac.residual <= tol else EXIT_FAIL


def cmd_dpi(args) -> int:
    tol = _tolerance(args)
    dec = decomposition_from_json(load_json_file(args.decomposition, "decomposition"), "decomposition")
    chain = [_load_channel(path, f"channel[{i}]", dec) for i, path in enumerate(args.channels)]
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
                f"dim_c={entry.dec.dim_c}, {len(entry.noise.kraus)} Kraus, {verdict}"
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

    p = sub.add_parser("factorize", help="split a correctable channel on A tensor B")
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
    except (FormatError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
