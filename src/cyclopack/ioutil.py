"""Serialization helpers: rationals as exact "p/q" strings, atomic file writes."""
from __future__ import annotations

import json
import os
from fractions import Fraction


def fmt_rat(x) -> str:
    """Lowest-terms "p/q" with q > 0; Fraction normalizes both on input."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s: str) -> Fraction:
    """A command-line rational: an integer, "p/q" or a plain decimal such as
    0.5. An exponent raises ValueError, since from "1e999999999" Fraction
    would build a billion-digit integer."""
    if "e" in s.lower():
        raise ValueError(f"a rational takes no exponent, got {s[:40]!r}")
    return Fraction(s)


def parse_fmt_rat(s: str, name: str) -> Fraction:
    """The rational of a "p/q" string as fmt_rat writes it: ASCII decimal
    digits, one "/" and ASCII decimal digits, with an optional leading "-".
    Anything else raises ValueError: Fraction would also read decimals and
    exponents, and a short "1e-5000000" stands for a number of millions of
    digits."""
    p, slash, q = s.partition("/")
    if not (slash and s.isascii() and p.removeprefix("-").isdigit() and q.isdigit()):
        raise ValueError(f'{name} must be a "p/q" rational, got {s[:40]!r}')
    return Fraction(int(p), int(q))


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
