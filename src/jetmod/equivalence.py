"""Unitary-equivalence tests for quotient modules, via normalized invariants.

Two kernels define unitarily equivalent order-k quotient modules along the
flattened submanifold exactly when one constant unitary matrix D
conjugates every transverse derivative block of the normalized Gram
matrix of one onto that of the other, at every point of the submanifold:

    d^l dbar^t H(q) = D  d^l dbar^t H~(q)  D*        0 <= l, t <= N.

The witness search stacks these linear constraints over all blocks and
sample points, extracts the near-null space by SVD, and accepts a
candidate only if it is unitary and its conjugation residual is below
tolerance.  A missing null space refutes equivalence; a null space of
dimension above one (reducible kernels) triggers a search for a unitary
inside the subspace and is otherwise reported as inconclusive.

The same data feeds the invariant-by-invariant criterion: isometry of the
restricted Grams, intertwined transverse curvature with its covariant
derivatives up to order k - 2, and intertwined transport maps
dbar_i(H^{-1} d^l H) along the tangential directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .geometry import check_on_submanifold, transverse_blocks
from .kernels import AffineChart, KernelSpec, diagonal_chart, pullback_affine
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
    """The samples as complex arrays; each must lie on the submanifold."""
    samples = [np.asarray(q, dtype=complex) for q in samples]
    for q in samples:
        check_on_submanifold(q, d, "sample")
    return samples


@dataclass
class InvariantArray:
    """Normalized derivative arrays and bundle invariants at sample points."""

    d: int
    k: int
    N: int
    r: int
    m: int
    samples: list
    deriv_tables: list      # per sample: (N+1, N+1, r, r)
    transverse_curvature: list  # per sample: (d, d, r, r)
    covariant: list         # per sample: CovariantDerivArray
    transport: list         # per sample: TransportMaps
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

    deriv_tables, curvs, covs, transports = [], [], [], []
    for q in samples:
        g = geometry.gram_jet(norm, q, trunc)
        deriv_tables.append(transverse_blocks(g.jet, idx))
        if bundle_data:
            curvs.append(geometry.curvature(g).entries[:d, :d].copy())
            covs.append(geometry.curvature_covariant_derivs(g, d, max(k - 2, 0)))
            transports.append(geometry.transport_maps(g, d, k))

    scale = max(1.0, max(float(np.max(np.abs(t))) for t in deriv_tables))
    return InvariantArray(
        d=d, k=k, N=idx.N, r=r, m=m, samples=samples,
        deriv_tables=deriv_tables, transverse_curvature=curvs,
        covariant=covs, transport=transports, scale=scale,
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
        worst = max(self.residuals) if self.residuals else float("nan")
        return f"EquivalenceReport({self.verdict!r}, max_residual={worst:.3e})"


def _fix_phase(d: np.ndarray) -> np.ndarray:
    flat = np.argmax(np.abs(d))
    pivot = d.flat[flat]
    if abs(pivot) == 0:
        return d
    return d * (abs(pivot) / pivot)


def _nearest_unitary(d: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(d)
    return u @ vh


def _conjugation_residuals(pairs, d: np.ndarray, scale: float):
    """Per-sample max block residual of B - D A D*.

    The witness is oriented from the first kernel to the second: it
    conjugates the first kernel's blocks onto the second's.
    """
    out = []
    for blocks_a, blocks_b in pairs:
        worst = 0.0
        for a, b in zip(blocks_a, blocks_b):
            worst = max(worst, float(np.max(np.abs(b - d @ a @ d.conj().T))))
        out.append(worst / scale)
    return out


def _stack_constraints(pairs, r: int):
    """Rows of the homogeneous system (B kron I - I kron A^T) vec(D) = 0.

    For unitary D the conjugation B = D A D* is equivalent to the linear
    intertwining B D = D A, which these rows express on vec(D).
    """
    rows = []
    eye = np.eye(r, dtype=complex)
    for blocks_a, blocks_b in pairs:
        for a, b in zip(blocks_a, blocks_b):
            rows.append(np.kron(b, eye) - np.kron(eye, a.T))
    return np.concatenate(rows, axis=0)


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


def _find_witness(pairs, r: int, scale: float, tol: float):
    """Shared witness-search core.

    Returns (verdict, witness, residuals, notes).
    """
    notes = []
    system = _stack_constraints(pairs, r)
    _, sing, vh = np.linalg.svd(system)
    smax = sing[0] if len(sing) else 0.0
    if smax < 1e-12:
        null_dim = r * r
    else:
        null_dim = int(np.sum(sing < NULL_SPACE_RTOL * smax))
    notes.append(f"null space dimension {null_dim}")

    # right null vectors of the system are the conjugated rows of vh
    if null_dim == 0:
        d = _fix_phase(_nearest_unitary(np.conj(vh[-1]).reshape(r, r)))
        residuals = _conjugation_residuals(pairs, d, scale)
        witness = UnitaryWitness(d, 0.0, max(residuals), null_dim)
        verdict = (
            "not-equivalent"
            if max(residuals) > NOT_EQUIVALENT_MARGIN * tol
            else "inconclusive"
        )
        return verdict, witness, residuals, notes

    if null_dim == 1:
        raw = np.conj(vh[-1]).reshape(r, r)
        raw = raw * np.sqrt(r) / np.linalg.norm(raw)
        defect = float(np.max(np.abs(raw @ raw.conj().T - np.eye(r))))
        d = _fix_phase(_nearest_unitary(raw))
        residuals = _conjugation_residuals(pairs, d, scale)
        worst = max(residuals)
        witness = UnitaryWitness(d, defect, worst, null_dim)
        if worst <= tol and defect <= UNITARY_TOL:
            return "equivalent", witness, residuals, notes
        if worst > NOT_EQUIVALENT_MARGIN * tol:
            return "not-equivalent", witness, residuals, notes
        return "inconclusive", witness, residuals, notes

    # Degenerate (reducible) case: look for a unitary inside the null space.
    basis = vh[-null_dim:].conj().T  # columns span the null space
    d = _search_unitary_in_subspace(basis, r)
    if d is None:
        notes.append("no unitary witness found inside the degenerate null space")
        best = _fix_phase(_nearest_unitary(np.conj(vh[-1]).reshape(r, r)))
        residuals = _conjugation_residuals(pairs, best, scale)
        return "inconclusive", UnitaryWitness(best, float("nan"), max(residuals), null_dim), residuals, notes
    residuals = _conjugation_residuals(pairs, d, scale)
    worst = max(residuals)
    witness = UnitaryWitness(d, 0.0, worst, null_dim)
    if worst <= tol:
        notes.append("witness is not unique (reducible pair)")
        return "equivalent", witness, residuals, notes
    if worst > NOT_EQUIVALENT_MARGIN * tol:
        return "not-equivalent", witness, residuals, notes
    return "inconclusive", witness, residuals, notes


def _table_pairs(inv_a: InvariantArray, inv_b: InvariantArray, blocks="all"):
    """Per-sample flattened block lists for the constraint system."""
    pairs = []
    for ta, tb in zip(inv_a.deriv_tables, inv_b.deriv_tables):
        if blocks == "all":
            blocks_a = [ta[l, t] for l in range(ta.shape[0]) for t in range(ta.shape[1])]
            blocks_b = [tb[l, t] for l in range(tb.shape[0]) for t in range(tb.shape[1])]
        else:
            blocks_a = [ta[0, 0]]
            blocks_b = [tb[0, 0]]
        pairs.append((blocks_a, blocks_b))
    return pairs


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
    scale = max(inv_a.scale, inv_b.scale)
    residuals = [
        float(np.max(np.abs(ta - tb))) / scale
        for ta, tb in zip(inv_a.deriv_tables, inv_b.deriv_tables)
    ]
    worst = max(residuals)
    if worst <= tol:
        verdict = "equivalent"
    elif worst > NOT_EQUIVALENT_MARGIN * tol:
        verdict = "not-equivalent"
    else:
        verdict = "inconclusive"
    witness = UnitaryWitness(np.eye(1, dtype=complex), 0.0, worst, 1)
    return EquivalenceReport(
        verdict=verdict, witness=witness, residuals=residuals,
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
    pairs = _table_pairs(inv_a, inv_b)
    verdict, witness, residuals, notes = _find_witness(pairs, inv_a.r, scale, tol)
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
    r = inv_a.r
    scale = max(inv_a.scale, inv_b.scale)

    gram_pairs = _table_pairs(inv_a, inv_b, blocks="gram")
    curv_pairs, transport_pairs = [], []
    for ca, cb, va, vb, ta, tb in zip(
        inv_a.transverse_curvature, inv_b.transverse_curvature,
        inv_a.covariant, inv_b.covariant,
        inv_a.transport, inv_b.transport,
    ):
        blocks_a = [ca[i, j] for i in range(inv_a.d) for j in range(inv_a.d)]
        blocks_b = [cb[i, j] for i in range(inv_b.d) for j in range(inv_b.d)]
        for key in sorted(va.table):
            blocks_a.append(va.table[key])
            blocks_b.append(vb.table[key])
        curv_pairs.append((blocks_a, blocks_b))
        keys = sorted(ta.table)
        transport_pairs.append(
            ([ta.table[key] for key in keys], [tb.table[key] for key in keys])
        )

    joint_pairs = [
        (ga + ca + ta, gb + cb + tb)
        for (ga, gb), (ca, cb), (ta, tb)
        in zip(gram_pairs, curv_pairs, transport_pairs)
    ]
    _, witness, _, notes = _find_witness(joint_pairs, r, scale, tol)
    if np.isnan(witness.unitarity_defect):
        gram_residuals = _conjugation_residuals(gram_pairs, witness.matrix, scale)
        return EquivalenceReport(
            verdict="inconclusive", witness=witness, residuals=gram_residuals,
            params={"d": chart.d, "k": k, "tol": tol},
            notes=notes + ["no candidate isometry could be determined"],
        )
    d_mat = witness.matrix

    curv_scale = max(
        [1.0]
        + [float(np.max(np.abs(b))) for pair in curv_pairs for b in pair[0] + pair[1]]
    )
    transport_scale = max(
        [1.0]
        + [float(np.max(np.abs(b)))
           for pair in transport_pairs for b in pair[0] + pair[1]]
    )
    conditions = {
        "(i) restricted Gram isometry":
            _conjugation_residuals(gram_pairs, d_mat, scale),
        "(ii) transverse curvature and covariant derivatives":
            _conjugation_residuals(curv_pairs, d_mat, curv_scale),
        "(iii) transport maps":
            _conjugation_residuals(transport_pairs, d_mat, transport_scale),
    }

    residuals = [max(vals) for vals in zip(*conditions.values())]
    verdict = "equivalent"
    for name, vals in conditions.items():
        worst = max(vals)
        if worst > tol:
            verdict = (
                "not-equivalent"
                if worst > NOT_EQUIVALENT_MARGIN * tol
                else "inconclusive"
            )
            notes.append(f"first failing condition: {name} (residual {worst:.3e})")
            break
    witness = UnitaryWitness(
        d_mat, witness.unitarity_defect, max(residuals), witness.null_dim
    )
    return EquivalenceReport(
        verdict=verdict, witness=witness, residuals=residuals,
        params={"d": chart.d, "k": k, "r": r, "samples": len(inv_a.samples),
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
        scale = max(1.0, float(np.max(np.abs(pa))), float(np.max(np.abs(pb))))
        em_residuals.append(
            float(np.max(np.abs(pb - psi @ pa @ psi.conj().T))) / scale
        )

        ka = geometry.curvature(ga).entries
        kb = geometry.curvature(gb).entries
        cscale = max(1.0, float(np.max(np.abs(ka))), float(np.max(np.abs(kb))))
        curv_residuals.append(float(np.max(np.abs(ka - kb))) / cscale)

    return {
        "congruence_residuals": em_residuals,
        "curvature_residuals": curv_residuals,
        "congruence_ok": max(em_residuals) <= tol,
        "curvature_ok": max(curv_residuals) <= tol,
    }


def recover_bergman_weights(weights, samples=None, num_samples: int = 3,
                            seed: int = 11) -> np.ndarray:
    """Read polydisc kernel weights off the diagonal curvature.

    Pulls the product kernel back by the pairwise diagonal chart; on the
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
    if m == 1:
        # no diagonal to flatten: the curvature of the disc kernel itself
        spec = builtin_bergman(weights)
        q = np.zeros(1, dtype=complex)
        kq = geometry.curvature(geometry.gram_jet(spec, q)).entries[0, 0, 0, 0].real
        return np.array([kq])
    chart = diagonal_chart(m, style="pairwise")
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
