"""Write the committed seed-0 certificates of the fields with phi(m) <= 12
that perfbench/reference/ does not hold.

    PYTHONPATH=src python3 certs/make_certs.py

Run from the repository root. Writes certs/m<m>.json, the exact bytes
`cyclopack search --m <m> --seed 0 --out FILE` produces. Together with the
eleven benchmark references these are the 24 fields with phi(m) <= 12;
tests/test_certs.py re-certifies all of them. Rerun only when a change is
meant to alter certificate bytes.
"""
import sys
from pathlib import Path

from cyclopack import cli

FIELDS = (7, 9, 13, 14, 15, 16, 20, 21, 24, 26, 28, 36, 42)
CERTS = Path(__file__).resolve().parent

if __name__ == "__main__":
    for m in FIELDS:
        code = cli.main(["search", "--m", str(m), "--seed", "0",
                         "--out", str(CERTS / f"m{m}.json")])
        if code != 0:
            sys.exit(f"search failed for m={m} with exit code {code}")
