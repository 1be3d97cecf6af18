"""Unitary-equivalence tests for quotient modules, via normalized invariants.

Two kernels define unitarily equivalent order-k quotient modules along the
flattened submanifold exactly when one constant unitary matrix D
conjugates every transverse derivative block of the normalized Gram
matrix of one onto that of the other, at every point of the submanifold:

    d^l dbar^t H(q) = D  d^l dbar^t H~(q)  D*        0 <= l, t <= N.

Every criterion compares two block stacks of shape (samples, blocks, r, r).
The witness core appends the adjoint of every block to both stacks (a
unitary D with B = D A D* also has B* = D A* D*) and solves the linear
intertwining B D = D A of the adjoint-closed family by SVD.  If D in its
null space is invertible, then D*D commutes with every block, so the polar
factor U = D (D*D)^(-1/2) intertwines too and is unitary: a pair is
equivalent exactly when the null space holds an invertible element.  The
candidate is the projection of the identity onto the null space (a
seeded combination of its basis if that is singular, the last singular
vector if the null space is empty); the witness W is its polar factor,
``unitarity_defect`` is max |W W* - I| of that reported W, and
``candidate_sv_ratio`` is the candidate's smallest singular value over its
largest (near 0: no invertible intertwiner was found); at r = 1, where
scalars commute with every scalar, the witness is 1.  One rule, ``_verdict``,
turns a residual and the null-space dimension into a verdict for every
criterion; with no null space it is never "equivalent".

The same data feeds the invariant-by-invariant criterion: isometry of the
restricted Grams, intertwined transverse curvature with its covariant
derivatives up to order k - 2 (the order-0 entries of the covariant table
are the curvature itself), and intertwined transport maps
dbar_i(H^{-1} d^l H) along the tangential directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry
from .geometry import check_on_submanifold, default_samples, transverse_blocks
from .kernels import AffineChart, KernelSpec, diagonal_chart, identity_chart, pullback_affine
from .multiindex import JetIndexTable

NULL_SPACE_RTOL = 1e-8
DEFAULT_TOL = 1e-8
NOT_EQUIVALENT_MARGIN = 10.0


def check_tol(tol: float):
    """Refuse a tolerance that is not positive and finite: no residual
    would compare with it as a tolerance."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")


def _samples_on_z(samples, m: int, d: int) -> np.ndarray:
    """The samples as one (samples, m) stack; there must be one, each of
    length m and on the submanifold."""
    samples = [np.asarray(q, dtype=complex) for q in samples]
    if not samples:
        raise ValueError("at least one sample point is needed")
    if any(q.shape != (m,) for q in samples):
        raise ValueError(f"sample points must have length m = {m}")
    stack = np.array(samples)
    check_on_submanifold(stack, d, "sample")
    return stack


@dataclass
class InvariantArray:
    """Normalized derivative arrays and bundle invariants, stacked over samples.

    ``curvature`` is the covariant-derivative table of the transverse
    curvature to order k - 2, in sorted (i, j, alpha, beta) key order (its
    order-0 entries are the curvature itself); ``transport`` is the
    transport-map array flattened in (l, i) order, with no blocks when
    d == m (no tangential directions).  Both are None without bundle data.
    """

    d: int
    k: int
    N: int
    r: int
    m: int
    samples: np.ndarray       # (samples, m)
    deriv_tables: np.ndarray  # (samples, N+1, N+1, r, r)
    curvature: np.ndarray     # (samples, blocks, r, r)
    transport: np.ndarray     # (samples, blocks, r, r)
    scale: float = 1.0


def invariant_array(
    spec: KernelSpec, chart: AffineChart, k: int, samples=None, base_point=None,
    bundle_data: bool = True,
) -> InvariantArray:
    """Compute the equivalence invariants of a kernel along a submanifold.

    The kernel is pulled back by the chart, normalized at ``base_point``
    (chart origin by default), and evaluated at all samples at once into
    one batched Gram jet, at the largest truncation and in only the
    variables the readers differentiate in: the d transverse z- and
    conj-displacements, and the tangential conj ones of the transport maps.
    With ``bundle_data`` off only the derivative tables are filled (enough
    for the derivative-array criterion, at every rank).
    """
    d = chart.d
    pulled = pullback_affine(spec, chart)
    m, r = pulled.m, pulled.r
    if samples is None:
        samples = default_samples(m, d)
    samples = _samples_on_z(samples, m, d)
    if base_point is None:
        base_point = np.zeros(m, dtype=complex)
    norm = geometry.normalize_at(pulled, base_point)

    idx = JetIndexTable(d, k)
    g = geometry.gram_jet(norm, samples, max(2 * (k - 1), k, 2), d, m if bundle_data else d)
    deriv_tables = transverse_blocks(g, idx)
    curvature = transport = None
    if bundle_data:
        curvature = geometry.curvature_covariant_derivs(g, d, max(k - 2, 0))[1]
        # the transport table is empty when d == m
        transport = geometry.transport_maps(g, d, k).reshape(len(samples), -1, r, r)
    return InvariantArray(
        d=d, k=k, N=idx.N, r=r, m=m, samples=samples, deriv_tables=deriv_tables,
        curvature=curvature, transport=transport, scale=_scale(deriv_tables),
    )


@dataclass
class UnitaryWitness:
    matrix: np.ndarray
    unitarity_defect: float  # max |W W* - I| of the reported witness W
    max_residual: float
    null_dim: int
    candidate_sv_ratio: float  # smallest over largest singular value of W's candidate


@dataclass
class EquivalenceReport:
    verdict: str  # "equivalent" | "not-equivalent" | "inconclusive"
    witness: UnitaryWitness = None
    residuals: list = field(default_factory=list)  # per sample
    params: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def __repr__(self):
        worst = float(np.max(self.residuals)) if self.residuals else float("nan")
        return f"EquivalenceReport({self.verdict!r}, max_residual={worst:.3e})"


def _scale(*stacks) -> float:
    """The scale residuals are divided by: the largest entry, at least 1."""
    return max(1.0, *(float(np.max(np.abs(s), initial=0.0)) for s in stacks))


def _sample_residuals(diff, a, b) -> list:
    """Per-sample largest |diff|, over the scale of that sample's a and b."""
    def worst(x):
        return np.max(np.abs(x).reshape(len(x), -1), axis=1, initial=0.0)

    return (worst(diff) / np.maximum(1.0, np.maximum(worst(a), worst(b)))).tolist()


def _verdict(worst: float, tol: float, null_dim: int) -> str:
    """Equivalent up to tol with an intertwiner (null_dim >= 1), not-equivalent
    beyond the margin, else (and on NaN) inconclusive."""
    if worst <= tol:
        return "equivalent" if null_dim >= 1 else "inconclusive"
    if worst > NOT_EQUIVALENT_MARGIN * tol:
        return "not-equivalent"
    return "inconclusive"


# entries whose moduli agree to this relative tolerance tie for the phase pivot
PHASE_TIE_RTOL = 1e-12


def _fix_phase(d: np.ndarray) -> np.ndarray:
    """d times the unimodular scalar that makes its pivot real and positive.

    The pivot is the first entry, in row-major order, whose modulus is
    within ``PHASE_TIE_RTOL`` of the largest: entries of a unitary tie in
    modulus in pairs, and a last-bit change must not move the pivot.
    """
    size = np.abs(d).ravel()
    pivot = d.flat[np.argmax(size >= size.max(initial=0.0) * (1 - PHASE_TIE_RTOL))]
    if abs(pivot) == 0:
        return d
    return d * (abs(pivot) / pivot)


def _conjugation_residuals(a: np.ndarray, b: np.ndarray, d: np.ndarray, scale: float):
    """Per-sample max block residual of B - D A D* over two block stacks.

    The witness is oriented from the first kernel to the second: it
    conjugates the first kernel's blocks onto the second's.  A sample with
    no blocks has residual 0; a NaN block makes its sample's residual NaN.
    """
    diff = np.abs(b - d @ a @ d.conj().T)
    return (np.max(diff, axis=(1, 2, 3), initial=0.0) / scale).tolist()


def _stack_constraints(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows of the homogeneous system (B kron I - I kron A^T) vec(D) = 0.

    For unitary D the conjugation B = D A D* is equivalent to the linear
    intertwining B D = D A, which these rows express on vec(D).  Entry
    (i, p; j, q) of a block is B[i, j] I[p, q] - I[i, j] A[q, p]; the rows
    run over samples, then blocks, then (i, p).
    """
    r = a.shape[-1]
    eye = np.eye(r, dtype=complex)
    system = (
        b[..., :, None, :, None] * eye[:, None, :]
        - eye[:, None, :, None] * np.swapaxes(a, -1, -2)[..., None, :, None, :]
    )
    return system.reshape(-1, r * r)


def _find_witness(a: np.ndarray, b: np.ndarray, scale: float, tol: float):
    """Shared witness core on two (samples, blocks, r, r) stacks.

    Returns (verdict, witness, residuals, notes).
    """
    r = a.shape[-1]
    # scalars commute with every scalar: at r = 1 the witness is 1
    d, defect, null_dim, ratio = np.eye(1, dtype=complex), 0.0, 1, 1.0
    if r > 1:
        closed = [np.concatenate([x, np.conj(np.swapaxes(x, -1, -2))], axis=1) for x in (a, b)]
        # at least r^2 rows (one sample, one block), so the thin vh is square
        _, sing, vh = np.linalg.svd(_stack_constraints(*closed), full_matrices=False)
        null_dim = r * r if sing[0] < 1e-12 else int(np.sum(sing < NULL_SPACE_RTOL * sing[0]))

        # right null vectors of the system are the conjugated rows of vh; with no
        # null space the last one stands in.  The candidate is the projection of
        # the identity, or a seeded combination of the rows if that is singular.
        rows = vh[-max(null_dim, 1):]
        cand = (rows.conj().T @ (rows @ np.eye(r).ravel())).reshape(r, r)
        spread = np.linalg.svd(cand, compute_uv=False)
        if spread[-1] <= NULL_SPACE_RTOL * spread[0]:
            coef = np.random.default_rng(0).normal(size=(2, len(rows)))
            cand = (rows.conj().T @ (coef[0] + 1j * coef[1])).reshape(r, r)
        u, sv, vh = np.linalg.svd(cand * np.sqrt(r) / np.linalg.norm(cand))
        d = _fix_phase(u @ vh)  # the polar factor
        defect = float(np.max(np.abs(d @ d.conj().T - np.eye(r))))
        ratio = float(sv[-1] / sv[0])
    notes = [f"null space dimension {null_dim}"]
    residuals = _conjugation_residuals(a, b, d, scale)
    worst = float(np.max(residuals))  # numpy's max keeps a NaN wherever it sits
    verdict = _verdict(worst, tol, null_dim)
    if verdict == "equivalent" and null_dim > 1:
        notes.append("witness is not unique (reducible pair)")
    witness = UnitaryWitness(d, defect, worst, null_dim, ratio)
    return verdict, witness, residuals, notes


def _compatible(inv_a: InvariantArray, inv_b: InvariantArray):
    if inv_a.r != inv_b.r:
        raise ValueError(f"kernel ranks differ: {inv_a.r} vs {inv_b.r}")
    if inv_a.k != inv_b.k or inv_a.d != inv_b.d:
        raise ValueError("invariant arrays were built with different (d, k)")


def rank1_equiv(
    spec_a: KernelSpec, spec_b: KernelSpec, chart: AffineChart, k: int,
    samples=None, tol: float = DEFAULT_TOL,
) -> EquivalenceReport:
    """Equivalence test for rank-1 kernels: ``rankr_equiv`` at r = 1.

    After normalization the only gauge left is a constant phase, which the
    derivative arrays cannot see: the witness is 1, and the arrays must agree.
    """
    check_tol(tol)
    if spec_a.r != 1 or spec_b.r != 1:
        raise ValueError("rank1_equiv requires rank-1 kernels")
    return rankr_equiv(spec_a, spec_b, chart, k, samples, tol)


def rankr_equiv(
    spec_a: KernelSpec, spec_b: KernelSpec, chart: AffineChart, k: int,
    samples=None, tol: float = DEFAULT_TOL,
) -> EquivalenceReport:
    """Equivalence test for equal-rank kernels via a constant unitary witness."""
    check_tol(tol)
    inv_a = invariant_array(spec_a, chart, k, samples, bundle_data=False)
    inv_b = invariant_array(spec_b, chart, k, samples, bundle_data=False)
    _compatible(inv_a, inv_b)
    scale = max(inv_a.scale, inv_b.scale)
    shape = (len(inv_a.samples), -1, inv_a.r, inv_a.r)  # blocks in (l, t) order
    verdict, witness, residuals, notes = _find_witness(
        inv_a.deriv_tables.reshape(shape), inv_b.deriv_tables.reshape(shape), scale, tol
    )
    return EquivalenceReport(
        verdict=verdict, witness=witness, residuals=residuals,
        params={"d": chart.d, "k": k, "N": inv_a.N, "r": inv_a.r,
                "samples": len(inv_a.samples), "tol": tol},
        notes=notes,
    )


def mthm_check(
    spec_a: KernelSpec, spec_b: KernelSpec, chart: AffineChart, k: int,
    samples=None, tol: float = DEFAULT_TOL,
) -> EquivalenceReport:
    """Invariant-by-invariant equivalence check.

    All three conditions are linear intertwinings of the same constant
    matrix: (i) isometry of the restricted Grams, (ii) intertwining of the
    transverse curvature and its covariant derivatives to order k - 2,
    (iii) intertwining of the transport maps.  The candidate matrix is
    extracted from the jointly stacked system — restricting the search to
    one condition can pick a spurious candidate when a reducible pair
    leaves that condition degenerate — and the conditions are then scored
    separately, in order: the first failure decides, and with none the null-space guard.
    """
    check_tol(tol)
    inv_a = invariant_array(spec_a, chart, k, samples)
    inv_b = invariant_array(spec_b, chart, k, samples)
    _compatible(inv_a, inv_b)
    scale = max(inv_a.scale, inv_b.scale)

    # (stack of the first kernel, of the second, scale of its residuals);
    # the Grams keep the scale of the derivative tables they are read from
    gram = (inv_a.deriv_tables[:, :1, 0], inv_b.deriv_tables[:, :1, 0], scale)
    groups = {
        "(i) restricted Gram isometry": gram,
        "(ii) transverse curvature and covariant derivatives":
            (inv_a.curvature, inv_b.curvature, _scale(inv_a.curvature, inv_b.curvature)),
        "(iii) transport maps":
            (inv_a.transport, inv_b.transport, _scale(inv_a.transport, inv_b.transport)),
    }
    joint = [np.concatenate([g[side] for g in groups.values()], axis=1) for side in (0, 1)]
    _, witness, _, notes = _find_witness(*joint, scale, tol)

    conditions = {
        name: _conjugation_residuals(a, b, witness.matrix, s)
        for name, (a, b, s) in groups.items()
    }
    residuals = np.max(list(conditions.values()), axis=0).tolist()
    for name, vals in conditions.items():
        worst = float(np.max(vals))
        verdict = _verdict(worst, tol, witness.null_dim)
        if not worst <= tol:  # beyond tol, or NaN: this condition decides
            notes.append(f"first failing condition: {name} (residual {worst:.3e})")
            break
    witness = replace(witness, max_residual=float(np.max(residuals)))
    return EquivalenceReport(
        verdict=verdict, witness=witness, residuals=residuals,
        params={"d": chart.d, "k": k, "r": inv_a.r, "samples": len(inv_a.samples),
                "tol": tol},
        notes=notes,
    )


def lemma_em_check(
    spec_a: KernelSpec, spec_b: KernelSpec, chart: AffineChart,
    psi00, psi10, psi01, samples=None, tol: float = DEFAULT_TOL,
):
    """Order-two, codimension-two, rank-one triangular-congruence check.

    Verifies that the 3 x 3 matrices of transverse Gram coefficients
    satisfy  G~ = Psi G Psi*  on the submanifold, with

        Psi = [[p00, 0, 0], [p10, p00, 0], [p01, 0, p00]]

    built from the supplied holomorphic expressions evaluated along the
    submanifold, and independently that the full curvature tensors of the
    two kernels agree there.  Returns a dict with both residuals.
    """
    check_tol(tol)
    if chart.d != 2:
        raise ValueError("this check requires codimension d = 2")
    if spec_a.r != 1 or spec_b.r != 1:
        raise ValueError("this check requires rank-1 kernels")
    pulled_a = pullback_affine(spec_a, chart)
    pulled_b = pullback_affine(spec_b, chart)
    m = pulled_a.m
    if samples is None:
        samples = default_samples(m, chart.d)
    samples = _samples_on_z(samples, m, chart.d)

    p00, p10, p01 = (
        KernelSpec(m, 1, [[p]]).eval_point(samples, samples)[:, 0, 0]
        for p in (psi00, psi10, psi01)
    )
    psi = np.zeros((len(samples), 3, 3), dtype=complex)
    psi[:, [0, 1, 2], [0, 1, 2]] = p00[:, None]
    psi[:, 1, 0], psi[:, 2, 0] = p10, p01

    ga = geometry.gram_jet(pulled_a, samples, trunc=2)
    gb = geometry.gram_jet(pulled_b, samples, trunc=2)
    idx = JetIndexTable(2, 2)
    pa = transverse_blocks(ga.jet, idx)[..., 0, 0]
    pb = transverse_blocks(gb.jet, idx)[..., 0, 0]
    em_residuals = _sample_residuals(pb - psi @ pa @ np.conj(np.swapaxes(psi, 1, 2)), pa, pb)
    ka = geometry.curvature(ga).entries
    kb = geometry.curvature(gb).entries
    curv_residuals = _sample_residuals(ka - kb, ka, kb)
    return {
        "congruence_residuals": em_residuals,
        "curvature_residuals": curv_residuals,
        "congruence_ok": float(np.max(em_residuals)) <= tol,
        "curvature_ok": float(np.max(curv_residuals)) <= tol,
    }


def recover_bergman_weights(weights, samples=None, num_samples: int = 3,
                            seed: int = 11) -> np.ndarray:
    """Read polydisc kernel weights off the diagonal curvature.

    Pulls the product kernel back by the pairwise diagonal chart (with one
    weight, by the identity chart, whose submanifold is the origin); on the
    flattened diagonal the i-th diagonal curvature block equals
    (w_1 + ... + w_i) / (1 - |u_m|^2)^2, so scaling by (1 - |u_m|^2)^2
    yields the cumulative sums of the weights, and differencing recovers
    the weights themselves.
    """
    from .kernels import builtin_bergman

    weights = np.asarray([float(w) for w in np.atleast_1d(weights)])
    if np.any(weights <= 0):
        raise ValueError("weights must be positive for recovery")
    m = len(weights)
    chart = diagonal_chart(m, style="pairwise") if m > 1 else identity_chart(1, 1)
    pulled = pullback_affine(builtin_bergman(weights), chart)
    if samples is None:
        samples = default_samples(m, chart.d, count=num_samples, seed=seed)
    samples = _samples_on_z(samples, m, chart.d)

    curv = geometry.curvature(geometry.gram_jet(pulled, samples)).entries
    factor = (1.0 - np.abs(samples[:, m - 1]) ** 2) ** 2
    partial = curv[:, range(m), range(m), 0, 0].real * factor[:, None]
    return np.diff(partial, axis=1, prepend=0.0).sum(axis=0) / len(samples)
