"""Unitary-equivalence tests for quotient modules, via normalized invariants.

Two kernels define unitarily equivalent order-k quotient modules along the
flattened submanifold exactly when one constant unitary matrix D
conjugates every transverse derivative block of the normalized Gram
matrix of one onto that of the other, at every point of the submanifold:

    d^l dbar^t H(q) = D  d^l dbar^t H~(q)  D*        0 <= l, t <= N.

Every criterion compares two block stacks of shape (samples, blocks, r, r).
The witness search turns a pair of stacks into one linear system for D,
extracts its near-null space by SVD, and accepts a candidate only if it is
unitary and its conjugation residual is below tolerance.  A missing null
space refutes equivalence; a null space of dimension above one (reducible
kernels) triggers a search for a unitary inside the subspace and is
otherwise reported as inconclusive.  One rule, ``_verdict``, turns a
residual into a verdict.

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
from .geometry import check_on_submanifold, transverse_blocks
from .kernels import AffineChart, KernelSpec, diagonal_chart, identity_chart, pullback_affine
from .multiindex import JetIndexTable

NULL_SPACE_RTOL = 1e-8
UNITARY_TOL = 1e-6
DEFAULT_TOL = 1e-8
NOT_EQUIVALENT_MARGIN = 10.0


def default_samples(m: int, d: int, count: int = 5, seed: int = 2024):
    """Deterministic sample points on the flattened submanifold.

    Tangential coordinates are drawn with modulus at most 0.5; the first d
    coordinates are zero.  With no tangential directions the only sample
    is the origin.
    """
    if m == d:
        return [np.zeros(m, dtype=complex)]
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        q = np.zeros(m, dtype=complex)
        radius = 0.5 * np.sqrt(rng.random(m - d))
        angle = 2 * np.pi * rng.random(m - d)
        q[d:] = radius * np.exp(1j * angle)
        out.append(q)
    return out


def _samples_on_z(samples, d: int) -> list:
    """The samples as complex arrays; there must be one, each on the submanifold."""
    samples = [np.asarray(q, dtype=complex) for q in samples]
    if not samples:
        raise ValueError("at least one sample point is needed")
    for q in samples:
        check_on_submanifold(q, d, "sample")
    return samples


@dataclass
class InvariantArray:
    """Normalized derivative arrays and bundle invariants, stacked over samples.

    ``curvature`` is the covariant-derivative table of the transverse
    curvature to order k - 2, in sorted (i, j, alpha, beta) key order (its
    order-0 entries are the curvature itself); ``transport`` is the
    transport-map table in sorted (l, i) order, with no blocks when d == m
    (no tangential directions).  Both are None without bundle data.
    """

    d: int
    k: int
    N: int
    r: int
    m: int
    samples: list
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
    (chart origin by default), and evaluated once per sample into a Gram
    jet, at the largest truncation the derivative table and the bundle
    invariants read.  With ``bundle_data`` off only the derivative tables
    are filled (enough for the rank-1 and derivative-array criteria).
    """
    d = chart.d
    pulled = pullback_affine(spec, chart)
    m, r = pulled.m, pulled.r
    if samples is None:
        samples = default_samples(m, d)
    samples = _samples_on_z(samples, d)
    if base_point is None:
        base_point = np.zeros(m, dtype=complex)
    norm = geometry.normalize_at(pulled, base_point)

    idx = JetIndexTable(d, k)
    trunc = max(2 * (k - 1), k, 2)

    tables, curvs, transports = [], [], []
    for q in samples:
        g = geometry.gram_jet(norm, q, trunc)
        tables.append(transverse_blocks(g.jet, idx))
        if bundle_data:
            cov = geometry.curvature_covariant_derivs(g, d, max(k - 2, 0)).table
            curvs.append([cov[key] for key in sorted(cov)])
            maps = geometry.transport_maps(g, d, k).table
            transports.append([maps[key] for key in sorted(maps)])

    deriv_tables = np.array(tables)
    shape = (len(samples), -1, r, r)  # the transport table is empty when d == m
    return InvariantArray(
        d=d, k=k, N=idx.N, r=r, m=m, samples=samples, deriv_tables=deriv_tables,
        curvature=np.array(curvs).reshape(shape) if bundle_data else None,
        transport=np.array(transports).reshape(shape) if bundle_data else None,
        scale=_scale(deriv_tables),
    )


@dataclass
class UnitaryWitness:
    matrix: np.ndarray
    unitarity_defect: float
    max_residual: float
    null_dim: int


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


def _verdict(worst: float, tol: float) -> str:
    """Equivalent up to tol, not-equivalent beyond the margin, else (and on NaN) inconclusive."""
    if worst <= tol:
        return "equivalent"
    if worst > NOT_EQUIVALENT_MARGIN * tol:
        return "not-equivalent"
    return "inconclusive"


def _fix_phase(d: np.ndarray) -> np.ndarray:
    flat = np.argmax(np.abs(d))
    pivot = d.flat[flat]
    if abs(pivot) == 0:
        return d
    return d * (abs(pivot) / pivot)


def _nearest_unitary(d: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(d)
    return u @ vh


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


def _search_unitary_in_subspace(basis: np.ndarray, r: int, iters: int = 200):
    """Best unitary approximately inside span(columns of basis), or None.

    Alternating projection between the subspace and the unitary group,
    started from the projection of the identity and from each basis
    vector.
    """
    def project(mat):
        coef = basis.conj().T @ mat.reshape(-1)
        return (basis @ coef).reshape(r, r)

    starts = [np.eye(r, dtype=complex)]
    starts += [basis[:, i].reshape(r, r) for i in range(basis.shape[1])]
    best = None
    for start in starts:
        x = project(start)
        if np.max(np.abs(x)) < 1e-14:
            continue
        for _ in range(iters):
            w = _nearest_unitary(x)
            x_new = project(w)
            if np.max(np.abs(x_new - x)) < 1e-14:
                x = x_new
                break
            x = x_new
        w = _nearest_unitary(x)
        defect = float(np.max(np.abs(project(w) - w)))
        if best is None or defect < best[0]:
            best = (defect, w)
    if best is None or best[0] > 1e-8:
        return None
    return _fix_phase(best[1])


def _find_witness(a: np.ndarray, b: np.ndarray, scale: float, tol: float):
    """Shared witness-search core on two (samples, blocks, r, r) stacks.

    Returns (verdict, witness, residuals, notes).
    """
    r = a.shape[-1]
    _, sing, vh = np.linalg.svd(_stack_constraints(a, b))
    smax = sing[0] if len(sing) else 0.0
    if smax < 1e-12:
        null_dim = r * r
    else:
        null_dim = int(np.sum(sing < NULL_SPACE_RTOL * smax))
    notes = [f"null space dimension {null_dim}"]

    # right null vectors of the system are the conjugated rows of vh
    last = np.conj(vh[-1]).reshape(r, r)
    defect, d = 0.0, None
    if null_dim == 1:
        last = last * np.sqrt(r) / np.linalg.norm(last)
        defect = float(np.max(np.abs(last @ last.conj().T - np.eye(r))))
    elif null_dim > 1:  # degenerate (reducible) case: a unitary inside the null space
        d = _search_unitary_in_subspace(vh[-null_dim:].conj().T, r)
        if d is None:
            notes.append("no unitary witness found inside the degenerate null space")
            defect = float("nan")
    if d is None:
        d = _fix_phase(_nearest_unitary(last))

    residuals = _conjugation_residuals(a, b, d, scale)
    worst = float(np.max(residuals))  # numpy's max keeps a NaN wherever it sits
    verdict = _verdict(worst, tol)
    # no null space, a non-unitary candidate or no candidate at all decides nothing
    if np.isnan(defect) or (verdict == "equivalent" and (null_dim == 0 or defect > UNITARY_TOL)):
        verdict = "inconclusive"
    elif verdict == "equivalent" and null_dim > 1:
        notes.append("witness is not unique (reducible pair)")
    return verdict, UnitaryWitness(d, defect, worst, null_dim), residuals, notes


def _compatible(inv_a: InvariantArray, inv_b: InvariantArray):
    if inv_a.r != inv_b.r:
        raise ValueError(f"kernel ranks differ: {inv_a.r} vs {inv_b.r}")
    if inv_a.k != inv_b.k or inv_a.d != inv_b.d:
        raise ValueError("invariant arrays were built with different (d, k)")


def rank1_equiv(
    spec_a: KernelSpec, spec_b: KernelSpec, chart: AffineChart, k: int,
    samples=None, tol: float = DEFAULT_TOL,
) -> EquivalenceReport:
    """Equivalence test for rank-1 kernels.

    After normalization the only gauge left is a constant phase, which the
    derivative arrays cannot see; the arrays must agree entrywise.
    """
    if spec_a.r != 1 or spec_b.r != 1:
        raise ValueError("rank1_equiv requires rank-1 kernels")
    inv_a = invariant_array(spec_a, chart, k, samples, bundle_data=False)
    inv_b = invariant_array(spec_b, chart, k, samples, bundle_data=False)
    diff = np.abs(inv_a.deriv_tables - inv_b.deriv_tables)
    residuals = (np.max(diff, axis=(1, 2, 3, 4)) / max(inv_a.scale, inv_b.scale)).tolist()
    worst = float(np.max(residuals))
    witness = UnitaryWitness(np.eye(1, dtype=complex), 0.0, worst, 1)
    return EquivalenceReport(
        verdict=_verdict(worst, tol), witness=witness, residuals=residuals,
        params={"d": chart.d, "k": k, "N": inv_a.N, "samples": len(inv_a.samples),
                "tol": tol},
    )


def rankr_equiv(
    spec_a: KernelSpec, spec_b: KernelSpec, chart: AffineChart, k: int,
    samples=None, tol: float = DEFAULT_TOL,
) -> EquivalenceReport:
    """Equivalence test for equal-rank kernels via a constant unitary witness."""
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
    separately, in order, so the first failure is reported.
    """
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
    if np.isnan(witness.unitarity_defect):
        return EquivalenceReport(
            verdict="inconclusive", witness=witness,
            residuals=_conjugation_residuals(*gram[:2], witness.matrix, scale),
            params={"d": chart.d, "k": k, "tol": tol},
            notes=notes + ["no candidate isometry could be determined"],
        )

    conditions = {
        name: _conjugation_residuals(a, b, witness.matrix, s)
        for name, (a, b, s) in groups.items()
    }
    residuals = np.max(list(conditions.values()), axis=0).tolist()
    verdict = "equivalent"
    for name, vals in conditions.items():
        worst = float(np.max(vals))
        verdict = _verdict(worst, tol)
        if verdict != "equivalent":
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
    if chart.d != 2:
        raise ValueError("this check requires codimension d = 2")
    if spec_a.r != 1 or spec_b.r != 1:
        raise ValueError("this check requires rank-1 kernels")
    k = 2
    pulled_a = pullback_affine(spec_a, chart)
    pulled_b = pullback_affine(spec_b, chart)
    m = pulled_a.m
    if samples is None:
        samples = default_samples(m, chart.d)
    samples = _samples_on_z(samples, chart.d)

    idx = JetIndexTable(2, k)
    psi_specs = [KernelSpec(m, 1, [[p]]) for p in (psi00, psi10, psi01)]

    em_residuals, curv_residuals = [], []
    for q in samples:
        ga = geometry.gram_jet(pulled_a, q, trunc=2)
        gb = geometry.gram_jet(pulled_b, q, trunc=2)
        pa = transverse_blocks(ga.jet, idx)[:, :, 0, 0]
        pb = transverse_blocks(gb.jet, idx)[:, :, 0, 0]
        p00, p10, p01 = (s.eval_point(q, q)[0, 0] for s in psi_specs)
        psi = np.array(
            [[p00, 0, 0], [p10, p00, 0], [p01, 0, p00]], dtype=complex
        )
        em_residuals.append(
            float(np.max(np.abs(pb - psi @ pa @ psi.conj().T))) / _scale(pa, pb)
        )

        ka = geometry.curvature(ga).entries
        kb = geometry.curvature(gb).entries
        curv_residuals.append(float(np.max(np.abs(ka - kb))) / _scale(ka, kb))

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
    samples = _samples_on_z(samples, chart.d)

    recovered = np.zeros(m)
    for q in samples:
        curv = geometry.curvature(geometry.gram_jet(pulled, q)).entries
        u_m = q[m - 1]
        factor = (1.0 - abs(u_m) ** 2) ** 2
        partial = np.array([curv[i, i, 0, 0].real * factor for i in range(m)])
        recovered += np.diff(partial, prepend=0.0)
    return recovered / len(samples)
