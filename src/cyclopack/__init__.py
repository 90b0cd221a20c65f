"""cyclopack: certified sphere-packing bounds for principally polarized
abelian varieties, built from cyclotomic ideal lattices.

For every m >= 3 and g = phi(m) the pipeline constructs an explicit rank-2g
lattice carrying a principal polarization and an order-m unit action, searches
for a twist point making the obstruction count vanish, and emits an exact
rational certificate that the packing volume 4^g V exceeds m - epsilon.

The package re-exports nothing: importing one module, such as the checker,
loads that module's imports only.
"""

__version__ = "0.1.0"
