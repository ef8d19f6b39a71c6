"""cdlab: a numerical laboratory for Christoffel-Darboux kernels, canonical
systems, and their regularly varying scaling limits."""

from .special import (
    gamma_cx,
    kummer_m,
    hyp0f1,
    bessel_f,
    bessel_zero,
)
from .limit_kernels import (
    LimitKernelSpec,
    KernelSample,
    ScaleFit,
    build_limit_kernel,
    eval_limit_kernel,
    sine_kernel,
    fh_bessel_kernel,
    fit_internal_scale,
)
from .measures import (
    AcPiece,
    Measure,
    RegVarFn,
    LocalScalingEstimate,
    mass,
    local_scaling,
    asymptotic_inverse,
    cauchy_transform,
    gallery,
    gallery_names,
)
from .oprl import (
    RecurrenceCoeffs,
    stieltjes_coeffs,
    eval_polys,
    cd_kernel,
    interp_kernel,
    kernel_diag,
    rescaled_cd,
    nevai_ratio,
    poly_zeros,
    zeros_near,
)
from .opuc import (
    VerblunskyCoeffs,
    szego_eval,
    cd_kernel_circle,
    rescaled_cd_circle,
    opuc_canonical_kernel,
    opuc_interp_kernel,
)
from .canonical import (
    Hamiltonian,
    transfer_matrix,
    kernel_kh,
    weyl,
    rescale_h,
    jacobi_hamiltonian,
    opuc_hamiltonian,
    schrodinger_kernel,
)
from .universality import (
    ConvergenceReport,
    ZeroReport,
    ZeroWindowError,
    convergence_study,
    zero_study,
    sparse_jacobi,
    sparse_diagnostics,
    real_grid_pairs,
    complex_grid_pairs,
)

__version__ = "0.1.0"
