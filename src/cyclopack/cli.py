"""Command-line front end.

Exit codes: 0 success, 1 failed checks or certificate mismatch, 2 invalid
input or malformed file, 3 no witness within the sample budget. Output
files are written atomically (write-then-rename); rationals are serialized
as exact "p/q" strings so certificates round-trip bit-for-bit.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .cyclotomic import CyclotomicContext
from .ioutil import atomic_write, dump_json, parse_rat
from .lattice import build_lattice
from .search import (CertificateFormatError, SearchConfig, SearchError,
                     certificate_from_json_dict, certificate_to_json_dict,
                     recompute_certificate, run_checks, search)
from .tables import bound_table, bound_table_csv, primorial_row
from .verify import run_suites


def _emit(text: str, out: str | None) -> None:
    if out:
        atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _parse_x(ctx: CyclotomicContext, raw: str):
    if raw.strip() == "0":
        return ctx.zero()
    parts = [parse_rat(p.strip()) for p in raw.split(",")]
    if len(parts) != ctx.g:
        raise ValueError(f"x needs {ctx.g} comma-separated rationals for m={ctx.m}, "
                         f"got {len(parts)}")
    return ctx.element(parts)


def cmd_construct(args) -> int:
    ctx = CyclotomicContext(args.m)
    lat = build_lattice(ctx, parse_rat(args.r2), _parse_x(ctx, args.x))
    checks = run_checks(lat)
    doc = lat.to_json_dict()
    doc["checks"] = checks
    _emit(dump_json(doc), args.out)
    if all(checks.values()):
        return 0
    print(f"checks failed: {[k for k, v in checks.items() if not v]}", file=sys.stderr)
    return 1


def cmd_search(args) -> int:
    cert = search(SearchConfig(m=args.m, epsilon=parse_rat(args.epsilon),
                               denom=args.denom, budget=args.budget, seed=args.seed,
                               precision=args.precision))
    _emit(dump_json(certificate_to_json_dict(cert)), args.out)
    if cert.is_valid():
        return 0
    print("certificate is not valid", file=sys.stderr)
    return 1


def cmd_certify(args) -> int:
    with open(args.cert_path) as f:
        try:
            doc = json.load(f)
        except RecursionError as exc:  # nesting deeper than the parser's stack
            raise CertificateFormatError("malformed certificate: nested too deeply") from exc
    cert = certificate_from_json_dict(doc)
    fresh, mismatches = recompute_certificate(cert)
    if mismatches:
        print(f"certificate mismatch in fields: {mismatches}", file=sys.stderr)
        return 1
    if not fresh.is_valid():
        print("certificate reproduced but is not valid", file=sys.stderr)
        return 1
    print(f"certificate verified: m={cert.m}, certified 4^g*V > {float(cert.bound_lo):.6f}")
    return 0


def cmd_verify(args) -> int:
    results = run_suites(args.m, args.trials, args.seed)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}")
    failures = [r for r in results if not r.passed]
    if failures:
        print(json.dumps({"failing_instance": failures[0].detail,
                          "suite": failures[0].name}, sort_keys=True), file=sys.stderr)
        return 1
    return 0


def cmd_table(args) -> int:
    rows = bound_table([int(p) for p in args.g.split(",")])
    if args.format == "csv":
        _emit(bound_table_csv(rows), args.out)
    else:
        _emit(dump_json([asdict(r) for r in rows]), args.out)
    return 0


def cmd_primorial(args) -> int:
    _emit(dump_json(asdict(primorial_row(args.x))), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclopack",
        description="Certified packing bounds for principally polarized abelian "
                    "varieties built from cyclotomic ideal lattices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a lattice and run its checks")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r2", required=True, help="rational r^2 > 0, e.g. 2 or 7/2")
    p.add_argument("--x", default="0", help="0 or g comma-separated rationals "
                                            "(power-basis coordinates)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("search", help="search for a certified witness")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--epsilon", default=str(SearchConfig.epsilon))
    p.add_argument("--budget", type=int, default=SearchConfig.budget)
    p.add_argument("--seed", type=int, default=SearchConfig.seed)
    p.add_argument("--denom", type=int, default=SearchConfig.denom)
    p.add_argument("--precision", type=int, default=SearchConfig.precision,
                   help="interval precision in bits")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("certify", help="recompute and verify a stored certificate")
    p.add_argument("cert_path")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("verify", help="run the exact property suites")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("table", help="bound table by dimension")
    p.add_argument("--g", required=True, help="comma-separated dimensions")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("primorial", help="primorial witness row")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_primorial)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the one place that maps errors to exit codes; a malformed certificate
    # (CertificateFormatError, JSONDecodeError) is a ValueError
    try:
        return args.fn(args)
    except SearchError as exc:
        print(f"search failed: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
