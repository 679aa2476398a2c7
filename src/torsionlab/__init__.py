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
from .geometry import (
    AreaQuadrature,
    BoundaryQuadrature,
    DomainSpec,
    ExteriorPointError,
    Hole,
    InvalidDomainError,
    QuadratureError,
    Quadratures,
    build_area_quadrature,
    build_boundary_quadrature,
    build_quadratures,
    diameter,
    distance_to_boundary,
    enclosing_inscribed_radii,
    interior_sphere_radius,
    symmetric_difference_ratio,
    tubular_sets,
)
from .identities import (
    IdentityReport,
    OverdeterminationError,
    cauchy_schwarz_deficit,
    check_divergence,
    check_fundamental,
    check_overdetermined,
    check_pohozaev,
    check_value_c,
    p_function,
    sample_field,
)
from .shapeflow import energy, flow_to_constant_flux, shape_gradient
from .solver import (
    FieldModel,
    SolveDiagnostics,
    SolverConvergenceError,
    evaluate,
    overdetermined_instance,
    radial_model,
    solve_cauchy,
    solve_dirichlet,
)
from .stability import (
    BoundTable,
    StabilityReport,
    adjusted_center,
    bound_table,
    check_growth,
    check_hopf,
    check_oscillation_bound,
    oscillation_constants,
    poincare_ratio_experiment,
    pseudo_distance,
    radii_gap_exponent,
    stability_report,
)

KERNEL_BACKEND = _kernels.BACKEND
