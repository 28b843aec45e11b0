"""Exact solvable-lattice toolkit.

Subpackages and modules:

- ``field``: exact polynomials, rational functions, and matrices over
  them, with numeric counterparts.
- ``rmatrix``: the fundamental 4x4 solution of the spectral Yang-Baxter
  equation and its structural checks.
- ``chain``: twisted inhomogeneous spin-chain transfer matrices, their
  commutation checks, spectra, and functional relations.
- ``qchar``: two-term eigenvalue formulas from formal characters.
- ``cluster``: quiver and seed mutation with atlas exploration.
- ``stab``: chamber-dependent triangular bases for equivariant weight
  spaces and the wall-crossing matrices between them.
- ``cli``: the command line front end.
"""

from .verdict import CheckResult

__version__ = "0.1.0"

__all__ = ["CheckResult", "__version__"]
