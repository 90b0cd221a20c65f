"""python -m cyclopack: the same command line as the cyclopack script."""
from .cli import entry

entry()
