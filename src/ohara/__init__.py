"""O'Hara (alpha, p) knot energies on closed curves.

Pair densities in the bilinear reformulation, first and second variations
with labeled terms, singular quadrature over the pair grid, fractional
seminorms, diagonal asymptotics, and an energy-descent flow.
"""

from .curve import (
    ClosedCurve,
    Field,
    bilipschitz_constant,
    circle,
    ellipse,
    from_samples,
    load_curve,
    pair_frame,
    random_curve,
    random_field,
    resampled,
    save_curve,
)
from .errors import NumericalError, ValidationError
from .kernels import EnergyParams, phi_alpha
from .quadrature import (
    PairGrid,
    density_grid,
    energy,
    first_variation,
    holder_chain_check,
    second_variation,
)
from .variations import pair_terms
from .norms import (
    gagliardo_seminorm,
    holder_seminorm,
    local_modulus,
    product_seminorm_check,
    seminorms,
    sobolev_linf_norm,
)
from .verify import (
    LimitReport,
    circle_reference,
    cusp_field,
    diagonal_limit,
    fd_energy_gradient,
    fd_energy_hessian,
)
from .flow import FlowState, circle_distance, flow_step, l2_gradient, run_flow

__version__ = "0.1.0"
