"""Chain-infimum metric transforms and two compactifications of R^s."""

from .core import (
    BoundCertificate,
    Chain,
    MetricContext,
    chain_cost,
    certificate,
    delta,
    local_isometry_radius,
    lower_bound_certificate,
    verify_metric_axioms,
)
from .finite import (
    DphiMatrix,
    FiniteSpace,
    dphi_bruteforce,
    dphi_exact,
    load_distance_matrix,
    parse_distance_matrix,
)
from .std_map import (
    BoundaryRepStd,
    EpsilonNet,
    boundary_map_h_std,
    boundary_map_k_std,
    epsilon_net,
    h_pq_std,
    harmonic_radius,
    net_index,
    phi_std,
    sphere_bracket,
    sphere_index,
)
from .rays import (
    BoundaryRepRay,
    ConeParam,
    Ray,
    bend_angle,
    boundary_map_h_ray,
    h_pq_ray,
    psi,
    ray_distance,
    ray_of,
    ray_through,
    spherical_distance,
)
from .sampler import (
    EuclidContext,
    SampleGraph,
    SamplerConfig,
    approx_dphi,
    build_graph,
    build_sample,
    convergence_run,
    euclid_context,
    make_net_solver,
)
from .completion import NoneqReport, nonequivalence_experiment

__version__ = "0.1.0"
