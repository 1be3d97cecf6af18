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

Each layer is imported the first time one of its names (``jetmod.curvature``)
or the module itself (``jetmod.geometry``) is looked up (PEP 562), so a CLI
process loads only the layers its command runs.  A lookup is not cached in
the package namespace: it always returns the module's current attribute.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "multiindex": "JetIndexTable multi_binom pochhammer theta theta_inv",
    "jets": "JetMatrix JetSeries jet_matrix_inverse series_context",
    "kernels": "AffineChart KernelSpec ParseError DomainError builtin_bergman "
               "conjugate_by_unitary diagonal_chart direct_sum gauge_scale identity_chart "
               "matrix_combination parse_expression parse_kernel pullback_affine",
    "geometry": "CurvatureTensor GramJet NormalizedKernel curvature curvature_covariant_derivs "
                "default_samples gram_jet hermitian_sqrt normalize_at transport_maps",
    "jet_kernels": "ChartJetTransform JetKernelValue ModuleActionMatrix chart_jet_transform "
                   "jet_column jet_kernel module_action_matrix sym_power_matrix",
    "bergman_quotient": "build_level closed_forms coeff_c level_measured quotient_kernel_partial",
    "equivalence": "EquivalenceReport InvariantArray UnitaryWitness invariant_array "
                   "lemma_em_check mthm_check rank1_equiv rankr_equiv recover_bergman_weights",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)
_LOADED = {}  # submodule name -> the module, once its import has returned


def _layer(module: str):
    """The submodule, imported on first use.  Later lookups read ``_LOADED``:
    between two numpy-bound jobs, ``importlib.import_module`` of a loaded
    module takes about 6 us, a lookup here about 2 us."""
    layer = _LOADED.get(module)
    if layer is None:
        layer = _LOADED[module] = importlib.import_module(f".{module}", __name__)
    return layer


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(_layer(_MODULE_OF[name]), name)
    if name in _EXPORTS or name == "cli":
        return _layer(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
