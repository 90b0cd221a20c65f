"""cyclopack: certified sphere-packing bounds for principally polarized
abelian varieties, built from cyclotomic ideal lattices.

For every m >= 3 and g = phi(m) the pipeline constructs an explicit rank-2g
lattice carrying a principal polarization and an order-m unit action, searches
for a twist point making the obstruction count vanish, and emits an exact
rational certificate that the packing volume 4^g V exceeds m - epsilon.
"""

from .cyclotomic import CycloElement, CyclotomicContext, cyclotomic_polynomial
from .geometry import ComplexPoint, g_act, gram, norm_sq, pairing
from .intervals import IntervalValue, pi_interval
from .lattice import PolarizedLattice, build_lattice
from .search import (Certificate, SearchConfig, chi, chi_norm_sq, count_N,
                     default_r_grid, j_value, sample_x, search, select_r)
from .svp import (ball_volume, enumerate_in_ball, lll_reduce, packing_density,
                  shortest_norm_sq)
from .tables import BoundRow, bound_table, inverse_phi_max, phi, primorial_row

__version__ = "0.1.0"

__all__ = [
    "BoundRow", "Certificate", "ComplexPoint", "CycloElement",
    "CyclotomicContext", "IntervalValue", "PolarizedLattice", "SearchConfig",
    "ball_volume", "bound_table", "build_lattice", "chi", "chi_norm_sq",
    "count_N", "cyclotomic_polynomial", "default_r_grid",
    "enumerate_in_ball", "g_act", "gram", "inverse_phi_max",
    "j_value", "lll_reduce", "norm_sq", "packing_density", "pairing", "phi",
    "pi_interval", "primorial_row", "sample_x", "search", "select_r",
    "shortest_norm_sq",
]
