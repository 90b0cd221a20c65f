"""Write the reference certificates the search workload compares against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run from the repository root. Writes perfbench/reference/m<m>.json, the
exact bytes `cyclopack search --m <m> --seed 0 --out FILE` produces, for
every field of the benchmark. Rerun only when a change is meant to alter
certificate bytes; any other change must leave these files as they are.
"""
import importlib
import sys

from run import FIELDS, REFERENCE, certificate_path

if __name__ == "__main__":
    cli = importlib.import_module("cyclopack.cli")
    REFERENCE.mkdir(exist_ok=True)
    for m in FIELDS:
        code = cli.main(["search", "--m", str(m), "--seed", "0",
                         "--out", str(certificate_path(m))])
        if code != 0:
            sys.exit(f"search failed for m={m} with exit code {code}")
