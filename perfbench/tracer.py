"""Outside-in span tracer for cyclopack.

The tracer wraps named functions of the cyclopack modules from the outside:
no file under src/ knows it exists. Each call of a wrapped function is one
span. Spans are kept as a stack in memory and folded into per-name totals
when they end, so a run with millions of calls stays small:

    calls   number of spans
    s       summed span duration
    self_s  span duration minus the time covered by its direct child spans

Because spans of one process nest strictly, the self times of all spans
under a root span add up exactly to the root's duration.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

# metric name -> (module, attribute); "Class.method" wraps a method in place
LAYERS = {
    "cyclotomic.context": ("cyclopack.cyclotomic", "CyclotomicContext.__init__"),
    "cyclotomic.mul": ("cyclopack.cyclotomic", "CyclotomicContext.mul"),
    "cyclotomic.coords_in_codiff": ("cyclopack.cyclotomic", "CyclotomicContext.coords_in_codiff"),
    "linalg.determinant": ("cyclopack.linalg", "determinant"),
    "linalg.solve": ("cyclopack.linalg", "solve"),
    "lattice.build_lattice": ("cyclopack.lattice", "build_lattice"),
    "lattice.checks": ("cyclopack.lattice", ("PolarizedLattice.is_riemann_integral",
                                             "PolarizedLattice.is_unimodular",
                                             "PolarizedLattice.is_g_stable",
                                             "PolarizedLattice.has_real_multiplication")),
    "svp.ball_volume": ("cyclopack.svp", "ball_volume"),
    "svp.lll_reduce": ("cyclopack.svp", "lll_reduce"),
    "svp.enumerate": ("cyclopack.svp", "enumerate_in_ball_with_norms"),
    "svp.shortest_norm_sq": ("cyclopack.svp", "shortest_norm_sq"),
    "search.chi": ("cyclopack.search", "chi_norm_sq"),
    "search.j_value": ("cyclopack.search", "j_value"),
    "search.select_r": ("cyclopack.search", "select_r"),
    "search.count_N": ("cyclopack.search", "count_N"),
    "search.certified_lower_bound": ("cyclopack.search", "certified_lower_bound"),
    "verify.norm_invariance": ("cyclopack.verify", "suite_norm_invariance"),
    "verify.free_orbit": ("cyclopack.verify", "suite_free_orbit"),
    "verify.principality": ("cyclopack.verify", "suite_principality"),
    "verify.stability": ("cyclopack.verify", "suite_stability"),
    "verify.covolume_product": ("cyclopack.verify", "suite_covolume_product"),
    "verify.count_divisibility": ("cyclopack.verify", "suite_count_divisibility"),
}


class Tracer:
    """Stack of open spans plus per-name totals and counters."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.stack: list[list] = []  # [name, start, time covered by children]
        self.stats: dict[str, list] = {}  # name -> [calls, s, self_s]
        self.counters: dict[str, float] = {}
        self.lll_grams: set = set()

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        name, start, covered = self.stack.pop()
        dur = self.clock() - start
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - covered
        if self.stack:
            self.stack[-1][2] += dur
        return dur

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def report(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counters": dict(self.counters),
                "distinct_lll_grams": len(self.lll_grams)}


def _observe(tracer: Tracer, name: str, args, result) -> None:
    """Counters measured where the work happens."""
    if name == "svp.lll_reduce":
        tracer.lll_grams.add(tuple(map(tuple, args[0])))
    elif name == "svp.enumerate":
        tracer.count("svp.enumerate.points", len(result))
    elif name == "search.count_N":
        tracer.count("search.count_N.points", result)
        tracer.count("search.count_N.zero", result == 0)
    elif name == "search.chi":
        tracer.count("search.chi.inside", bool(result))


def wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)  # keeps __name__, which verify uses to seed its suites
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        _observe(tracer, name, args, result)
        return result
    return traced


def span_cost(n: int = 20000) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one."""
    bare = lambda: None  # noqa: E731
    traced = wrap(Tracer(), "calibration", bare)
    t0 = time.perf_counter()
    for _ in range(n):
        traced()
    t1 = time.perf_counter()
    for _ in range(n):
        bare()
    t2 = time.perf_counter()
    return max(0.0, ((t1 - t0) - (t2 - t1)) / n)


def install(tracer: Tracer) -> None:
    """Wrap every layer of LAYERS and rebind each name under which a caller
    looks the original up (re-exports such as search.count_N and
    verify.count_N, and the suite tuple verify.ALL_SUITES)."""
    replaced = {}
    for name, (modname, attrs) in LAYERS.items():
        # importlib, not "import cyclopack.search as S": the package re-exports
        # the search function under the same name, which shadows the submodule
        mod = importlib.import_module(modname)
        for attr in (attrs,) if isinstance(attrs, str) else attrs:
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(mod, owner) if owner else mod
            orig = getattr(holder, leaf)
            new = wrap(tracer, name, orig)
            setattr(holder, leaf, new)
            replaced[id(orig)] = new
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "cyclopack"]
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if id(val) in replaced:
                setattr(mod, key, replaced[id(val)])
            elif isinstance(val, tuple) and any(id(v) in replaced for v in val):
                setattr(mod, key, tuple(replaced.get(id(v), v) for v in val))
