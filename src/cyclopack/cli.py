"""Command-line front end.

COMMANDS is the whole command line, read by parse_args without argparse,
whose parser tree and gettext import cost a cold certify more than any one
of its arithmetic stages. Exit codes: 0 success, 1 failed checks or
certificate mismatch, 2 invalid input, usage error (one "error:" line) or
malformed file, 3 no witness within the sample budget. Output
files are written atomically (write-then-rename); rationals are serialized
as exact "p/q" strings so certificates round-trip bit-for-bit.
"""
from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from .checker import (MAX_G, CertificateFormatError, certificate_from_json_dict,
                      certificate_to_json_dict, fmt_rat, recompute_certificate, run_checks)
from .cyclotomic import CyclotomicContext, phi
from .lattice import build_lattice
from .search import SearchConfig, SearchError, search
from .tables import bound_table, bound_table_csv, primorial_row
from .verify import run_suites


def parse_rat(s: str) -> Fraction:
    """A command-line rational: an integer, "p/q" or a plain decimal such as
    0.5. An exponent raises ValueError, since from "1e999999999" Fraction
    would build a billion-digit integer."""
    if "e" in s.lower():
        raise ValueError(f"a rational takes no exponent, got {s[:40]!r}")
    return Fraction(s)


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def atomic_write(path: str, text: str) -> None:
    """Write-then-rename so interrupted runs never leave partial files. The
    file gets the mode open(path, "w") would give it, 0o666 less the umask;
    mkstemp alone would leave it readable by its owner only."""
    import tempfile  # here, not at the top: only a written file needs it
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".json")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


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


def _field_m(m: int) -> int:
    """m itself, or ValueError if phi(m) passes certify's cap MAX_G: such a
    field's context alone takes minutes, and no certificate of it would be
    accepted. phi(m) >= sqrt(m/2) rejects a huge m before phi is computed."""
    if m > 2 * MAX_G * MAX_G + 1 or m >= 1 and phi(m) > MAX_G:
        raise ValueError(f"m = {m} has phi(m) above the cap g <= {MAX_G}")
    return m


def lattice_json_dict(lat) -> dict:
    """A lattice as construct writes it: exact Gram and symplectic matrices."""
    return {
        "m": lat.ctx.m,
        "r_sq": fmt_rat(lat.r_sq),
        "x": [fmt_rat(c) for c in lat.x.coords],
        "real_gram": [[fmt_rat(e) for e in row] for row in lat.real_gram],
        "symplectic": lat.symplectic_int(),
    }


def cmd_construct(args) -> int:
    ctx = CyclotomicContext(_field_m(args.m))
    lat = build_lattice(ctx, parse_rat(args.r2), _parse_x(ctx, args.x))
    checks = run_checks(lat)
    doc = lattice_json_dict(lat)
    doc["checks"] = checks
    _emit(dump_json(doc), args.out)
    if all(checks.values()):
        return 0
    print(f"checks failed: {[k for k, v in checks.items() if not v]}", file=sys.stderr)
    return 1


def cmd_search(args) -> int:
    cert = search(SearchConfig(m=_field_m(args.m), epsilon=parse_rat(args.epsilon),
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
    results = run_suites(_field_m(args.m), args.trials, args.seed)
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
        _emit(dump_json([r._asdict() for r in rows]), args.out)
    return 0


def cmd_primorial(args) -> int:
    row = primorial_row(args.x)
    if args.format == "csv":
        _emit(f"{','.join(row._fields)}\n{','.join(map(str, row))}\n", args.out)
    else:
        _emit(dump_json(row._asdict()), args.out)
    return 0


REQUIRED = object()  # the default of a flag that must be given
SEARCH_DEFAULTS = SearchConfig._field_defaults

# name -> (handler, help, positionals, {flag: (type, default, help)}), where a
# type is int, str or the tuple of allowed values
COMMANDS = {
    "construct": (cmd_construct, "build a lattice and run its checks", (), {
        "m": (int, REQUIRED, "the field Q(zeta_m), m >= 3"),
        "r2": (str, REQUIRED, "rational r^2 > 0, e.g. 2 or 7/2"),
        "x": (str, "0", "0 or g comma-separated rationals (power-basis coordinates)"),
        "out": (str, None, "output file; stdout if absent")}),
    "search": (cmd_search, "search for a certified witness", (), {
        "m": (int, REQUIRED, "the field Q(zeta_m), m >= 3"),
        "epsilon": (str, str(SEARCH_DEFAULTS["epsilon"]),
                    "rational slack in 4^g V > m - epsilon"),
        "budget": (int, SEARCH_DEFAULTS["budget"], "twists to draw before giving up"),
        "seed": (int, SEARCH_DEFAULTS["seed"], "seed of the twist stream"),
        "denom": (int, SEARCH_DEFAULTS["denom"], "denominator of the twist coordinates"),
        "precision": (int, SEARCH_DEFAULTS["precision"], "interval precision in bits"),
        "out": (str, None, "output file; stdout if absent")}),
    "certify": (cmd_certify, "recompute and verify a stored certificate", ("cert_path",), {}),
    "verify": (cmd_verify, "run the exact property suites", (), {
        "m": (int, REQUIRED, "the field Q(zeta_m), m >= 3"),
        "trials": (int, 100, "random instances per suite"),
        "seed": (int, 0, "seed of the instances")}),
    "table": (cmd_table, "bound table by dimension", (), {
        "g": (str, REQUIRED, "comma-separated dimensions"),
        "format": (("csv", "json"), "csv", "csv or json"),
        "out": (str, None, "output file; stdout if absent")}),
    "primorial": (cmd_primorial, "primorial witness row", (), {
        "x": (int, REQUIRED, "m is the product of the primes <= x"),
        "format": (("csv", "json"), "json", "csv or json"),
        "out": (str, None, "output file; stdout if absent")}),
}


def _show_help(name: str | None) -> int:
    if name is None:
        head = "usage: cyclopack COMMAND [--flag value ...]; COMMAND --help lists its flags"
        rows = [(n, spec[1]) for n, spec in COMMANDS.items()]
    else:
        _, text, positionals, flags = COMMANDS[name]
        head = f"usage: cyclopack {name} {' '.join(positionals) or '[--flag value ...]'}\n\n{text}"
        rows = [(f"--{f}", about + ("" if d is None else " (required)" if d is REQUIRED
                                    else f" (default {d})")) for f, (_, d, about) in flags.items()]
    sys.stdout.write("\n".join([head, "", *(f"  {a:<12} {b}" for a, b in rows)]) + "\n")
    return 0


def _value(flag: str, kind, raw: str):
    choices = isinstance(kind, tuple)
    try:
        return kind[kind.index(raw)] if choices else kind(raw)
    except ValueError:
        wanted = f"one of {', '.join(kind)}" if choices else f"an {kind.__name__}"
        raise ValueError(f"argument --{flag}: {raw!r} is not {wanted}") from None


def parse_args(argv: list[str]):
    """(handler, arguments) for a command line, or ValueError saying why it
    does not fit COMMANDS. A flag takes one value, as --flag value or
    --flag=value, and may be shortened to a unique prefix; the last of a
    repeated flag wins; tokens after -- are positionals."""
    name = argv[0] if argv else None
    if name in ("-h", "--help"):
        return _show_help, None
    if name not in COMMANDS:
        raise ValueError(f"a command is required, one of {', '.join(COMMANDS)}"
                         + (f"; {name!r} is not one" if name else ""))
    fn, _, positionals, flags = COMMANDS[name]
    names, values, loose, extra, options = [*flags, "help"], {}, [], [], True
    tokens = iter(argv[1:])
    for tok in tokens:
        if options and tok == "--":
            options = False
        elif options and (tok == "-h" or tok.startswith("--")):
            key, eq, raw = ("help" if tok == "-h" else tok[2:]).partition("=")
            match = [key] if key in names else [n for n in names if key and n.startswith(key)]
            flag = match[0] if len(match) == 1 else None
            if flag is None:
                extra.append(tok)
            elif flag == "help":
                return _show_help, name
            else:
                if not eq and (raw := next(tokens, None)) is None:
                    raise ValueError(f"argument --{flag}: expected one argument")
                values[flag] = _value(flag, flags[flag][0], raw)
        else:
            (loose if len(loose) < len(positionals) else extra).append(tok)
    missing = [f"--{f}" for f, spec in flags.items() if spec[1] is REQUIRED and f not in values]
    missing += positionals[len(loose):]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if extra:
        raise ValueError(f"unrecognized arguments: {' '.join(extra)}")
    args = {f: spec[1] for f, spec in flags.items()} | values | dict(zip(positionals, loose))
    return fn, SimpleNamespace(**args)


def main(argv=None) -> int:
    # the one place that maps errors to exit codes; a usage error and a
    # malformed certificate (CertificateFormatError, JSONDecodeError) are
    # ValueErrors
    try:
        fn, args = parse_args(sys.argv[1:] if argv is None else list(argv))
        return fn(args)
    except SearchError as exc:
        print(f"search failed: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
