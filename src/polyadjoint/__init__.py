"""Exact-arithmetic adjoint polynomials of polytopes, determinantal
representations, residual and nice line arrangements, and associahedron
universal adjoints."""

from .adjoint import (
    AdjointResult,
    UniversalAdjoint,
    adjoint,
    polygon_adjoint,
    universal_adjoint,
    vanishes_on_flat,
    warren_adjoint_2d,
)
from .arrangements3d import (
    Line3,
    LineArrangement,
    NiceCertificate,
    concurrency_singularity_certificate,
    detrep_from_codim2_subspace,
    find_nice_subarrangement,
    h0_vanishing_dimension,
    is_nice,
    residual_lines,
)
from .assoc import (
    AVCertificate,
    Triangulation,
    abhy_polytope,
    affine_factor_obstruction,
    enumerate_triangulations,
    is_av_representation,
    multiaffine_delta_irreducible,
    obstruction_report,
    rayleigh_difference,
    universal_adjoint_assoc,
)
from .detrep2d import (
    TridiagonalRep,
    build_tridiagonal,
    contact_certificate,
    definiteness_certificate,
    tangency_certificate,
    tangency_certificates,
    verify_detrep,
)
from .polyring import Poly, PolyMatrix, VarRegistry, equal_up_to_scalar
from .polytope import HPolytope, polygon_from_vertices

__all__ = [
    "AdjointResult",
    "AVCertificate",
    "HPolytope",
    "Line3",
    "LineArrangement",
    "NiceCertificate",
    "Poly",
    "PolyMatrix",
    "Triangulation",
    "TridiagonalRep",
    "UniversalAdjoint",
    "VarRegistry",
    "abhy_polytope",
    "adjoint",
    "affine_factor_obstruction",
    "build_tridiagonal",
    "concurrency_singularity_certificate",
    "contact_certificate",
    "definiteness_certificate",
    "detrep_from_codim2_subspace",
    "enumerate_triangulations",
    "equal_up_to_scalar",
    "find_nice_subarrangement",
    "h0_vanishing_dimension",
    "is_av_representation",
    "is_nice",
    "multiaffine_delta_irreducible",
    "obstruction_report",
    "polygon_adjoint",
    "polygon_from_vertices",
    "rayleigh_difference",
    "residual_lines",
    "tangency_certificate",
    "tangency_certificates",
    "universal_adjoint",
    "universal_adjoint_assoc",
    "vanishes_on_flat",
    "verify_detrep",
    "warren_adjoint_2d",
]

__version__ = "1.0.0"
