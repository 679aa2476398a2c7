"""torsionlab: a numerical laboratory for the overdetermined torsion problem
on planar domains with excised holes.

Solves Delta u = 1 with u = 0 on the outer boundary through a particular
quadratic plus logarithmic source expansions (so the PDE holds identically),
verifies the integral identities, stability functionals, pointwise bounds and
explicit-constant inequalities that govern how close such domains are to
disks, and runs a volume-preserving boundary flow to the constant-flux shape.
"""

__version__ = "0.1.0"

from . import _kernels

KERNEL_BACKEND = _kernels.BACKEND
