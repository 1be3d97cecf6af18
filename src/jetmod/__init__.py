"""Jet kernels, bundle curvature and unitary-equivalence tests for
reproducing-kernel Hilbert modules, computed through truncated
power-series arithmetic.

The layers, bottom up:

``multiindex``
    graded colexicographic enumeration of derivative orders.
``jets``
    truncated multivariate complex power series and matrices of them.
``kernels``
    a small expression language for matrix-valued kernels K(z, w),
    affine charts, and evaluation of kernels into jets.
``geometry``
    Gram jets, Chern curvature, covariant derivatives, transport maps,
    and kernel normalization at a point.
``jet_kernels``
    jet kernels of order k along a flattened submanifold, module-action
    matrices, and the affine chart transform of jet columns.
``bergman_quotient``
    independent brute-force computation of the order-two quotient along
    the diagonal of the weighted Bergman space on D^m (the validation
    oracle).
``equivalence``
    the equivalence criteria: normalized derivative arrays, unitary
    witness recovery, invariant-by-invariant checks, weight recovery.
"""

from .multiindex import (
    JetIndexTable,
    multi_binom,
    pochhammer,
    theta,
    theta_inv,
)
from .jets import (
    JetMatrix,
    JetSeries,
    jet_matrix_inverse,
    series_context,
)
from .kernels import (
    AffineChart,
    KernelSpec,
    ParseError,
    DomainError,
    builtin_bergman,
    conjugate_by_unitary,
    diagonal_chart,
    direct_sum,
    gauge_scale,
    identity_chart,
    matrix_combination,
    parse_expression,
    parse_kernel,
    pullback_affine,
)
from .geometry import (
    CurvatureTensor,
    GramJet,
    NormalizedKernel,
    curvature,
    curvature_covariant_derivs,
    gram_jet,
    hermitian_sqrt,
    normalize_at,
    transport_maps,
)
from .jet_kernels import (
    ChartJetTransform,
    JetKernelValue,
    ModuleActionMatrix,
    chart_jet_transform,
    jet_column,
    jet_kernel,
    module_action_matrix,
    sym_power_matrix,
)
from .bergman_quotient import (
    build_level,
    closed_forms,
    coeff_c,
    level_measured,
    quotient_kernel_partial,
)
from .equivalence import (
    EquivalenceReport,
    InvariantArray,
    UnitaryWitness,
    default_samples,
    invariant_array,
    lemma_em_check,
    mthm_check,
    rank1_equiv,
    rankr_equiv,
    recover_bergman_weights,
)

__version__ = "0.1.0"
