"""inflap: a numerical laboratory for positive viscosity solutions of the
degenerate parabolic infinity-Laplacian equation D_inf(phi) = 3 phi^2 phi_t
on bounded space-time cylinders.

Subpackages:
    quadrature  closed forms of the singular integrals behind the radial
                formulas, and their Newton inverses
    radial      exact radial solution oracles (eigenvalue, profiles, bounds)
    grids       domains, cylinders, parabolic boundaries, sampled fields
    transforms  phi <-> log phi change of variables and residual evaluators
    solver      explicit monotone evolution scheme
    barriers    sub/super-solution catalog and Perron family machinery
    harness     executable property checks (maximum, comparison, decay, ...)
    catalog     built-in boundary-data generators
    cli         experiment runner emitting reproducible artifacts
"""

from .quadrature import F_DECAY_FULL, f_decay, g_grow
from .radial import (
    GROWTH_SIGMA,
    RadialProfile,
    ball_eigenvalue,
    decaying_profile,
    dm_dlambda,
    growing_profile,
    growth_bounds,
    picard_decaying,
    picard_growing,
    sup_lower_bound_check,
)

__version__ = "0.1.0"
