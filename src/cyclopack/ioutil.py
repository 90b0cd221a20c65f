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
    """Write-then-rename so interrupted runs never leave partial files."""
    import tempfile  # here, not at the top: only a written file needs it
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
