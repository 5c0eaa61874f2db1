"""Stationary geodesic networks on chart manifolds.

Nets map a weighted multigraph into a Riemannian chart (flat torus, round
sphere in stereographic coordinates, or a Euclidean box, optionally with
conformal bump factors).  The package measures how far a net is from
stationary, assembles the first and second variation of its length,
extracts Jacobi fields by shooting, certifies nondegeneracy against a
brute-force reduced Hessian, and breaks degeneracies with conformal bumps
followed by Newton continuation.
"""

from .cases import Case, CASE_NAMES, make_case
from .geometry import (
    ConformalChart,
    ConstantField,
    DirectionalBumpField,
    EuclideanChart,
    FlatTorusChart,
    MetricChart,
    RadialBumpField,
    ScalarField,
    StereographicSphereChart,
    SumField,
    conformal_family,
    g_dot,
    g_norm,
    geodesic_integrate,
    parallel_transport,
)
from .jacobi import (
    JacobiKernel,
    ReducedField,
    assemble_jacobi_system,
    classify_field,
    is_nondegenerate,
    jacobi_kernel,
    jacobi_ode_coefficients,
    parallel_frame,
    reduced_hessian_fd,
    reduced_kernel_dimension,
)
from .localcoords import (
    NetChart,
    NetCoord,
    PathCoord,
    build_net_chart,
    constraint_C,
    coordinates_of,
    lagrangian_integral,
    lambda_map,
    mean_curvature_H,
    stationarity_equivalence_check,
    xi,
    xi_prime,
)
from .multigraph import GraphClass, VertexStar, WeightedMultigraph, classify, star, validate
from .net import (
    GeodesicNet,
    NetField,
    TangentialField,
    displace,
    edge_lengths,
    length,
    reparametrize_constant_speed,
    vertex_unit_tangents,
)
from .solver import (
    BreakOptions,
    BumpSpec,
    SolveOptions,
    SolveResult,
    break_degeneracy,
    build_condition_C_bump,
    continue_family,
    mixed_second_derivative,
    solve_stationary,
)
from .variation import (
    StationarityReport,
    apply_A_E,
    apply_B_v,
    first_variation,
    hessian_fd_oracle,
    hessian_form,
    stationarity_residual,
    vertex_balance,
)

__version__ = "0.1.0"
