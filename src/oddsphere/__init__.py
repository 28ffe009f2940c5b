"""Numerical toolkit for Schrodinger kernels on products of odd spheres.

Layers, bottom up:

    space      exact geometry/spectrum: dimensions, eigenvalues, periods
    specialfn  zonal spherical functions (recurrence sweep + closed-sum oracle)
    measure    weighted torus quadrature, regional L^p and sup norms
    kernel     mollified propagator kernels, nu-decomposition
    arcs       Farey fractions, major-arc classification, denominator sums
    verify     exponent scans with log-log fits and pass/fail budgets
    cli        command-line front end over all of the above
"""

from .space import (
    ProductSpace,
    SphereFactor,
    build_space,
    eigenvalue,
    harmonic_dim,
)
from .specialfn import phi_explicit, phi_matrix
from .kernel import (
    Bump,
    KernelField,
    kernel_1d,
    kernel_direct_multi,
    kernel_nu,
    kernel_product,
)
from .arcs import MajorArc, MinorArcReport, classify, denominator_sum, farey
from .measure import Region, TorusQuadrature, lp_norm, resolution_check, sup_norm
from .verify import (
    ScalingReport,
    corner_scan,
    decay_scan,
    fit_loglog,
    kappa_scan,
    strichartz_zonal_scan,
    threshold_check,
)

__version__ = "0.1.0"

__all__ = [
    "ProductSpace", "SphereFactor", "build_space", "eigenvalue",
    "harmonic_dim",
    "phi_explicit", "phi_matrix",
    "Bump", "KernelField", "kernel_1d", "kernel_direct_multi",
    "kernel_nu", "kernel_product",
    "MajorArc", "MinorArcReport", "classify", "denominator_sum", "farey",
    "Region", "TorusQuadrature", "lp_norm", "resolution_check", "sup_norm",
    "ScalingReport", "corner_scan", "decay_scan", "fit_loglog",
    "kappa_scan", "strichartz_zonal_scan", "threshold_check",
]
