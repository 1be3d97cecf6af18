"""Hermitian bundle geometry read off the Gram jet of a reproducing kernel.

The Gram matrix of the canonical frame of the bundle attached to a kernel
is ``H(z) = K(z, z)``, holomorphic in ``z`` and anti-holomorphic in
``conj(z)``.  All quantities here are coefficient extractions from one jet
of ``H``:

* Chern curvature              K_{i jbar} = dbar_j( d_i H . H^{-1} )
* covariant derivatives        z-direction adds a commutator with
                               ``d_i H . H^{-1}``; the conj-direction is a
                               plain partial
* transport maps               T[l, i] = dbar_i( H^{-1} d^l H ) for theta-
                               indexed transverse orders l and tangential
                               directions i
* normalization at a point p   frame change making K(., p) the identity,
                               which freezes the gauge freedom so that
                               derivative arrays become honest invariants.

``gram_jet`` is the one place a kernel becomes a Gram jet: of a
``KernelSpec`` or a ``normalize_at`` evaluator, at a point or a (B, m)
stack of them in one batched pass.  It may hold only the variables its
readers differentiate in: setting the other displacements to zero is a
ring homomorphism of truncated series, so every coefficient it holds
equals the one over all 2m variables.  Readers build 2m-variable rows
(``pad_pair``) and map them through ``GramJet.held``, which refuses a row
in a variable the jet does not hold.  ``curvature``,
``curvature_covariant_derivs`` and ``transport_maps`` never evaluate a
kernel: each slices the jet to the truncation it needs (exact, as the
grading puts lower orders first), refuses a lower one, and shares one
inverse per truncation.  They return stacks of (r, r) blocks:
``transverse_blocks`` (N+1, N+1, r, r) in theta order (l, t), also from a
kernel jet; ``curvature_covariant_derivs`` sorted (i, j, alpha, beta) keys
and (keys, r, r) blocks, whose d = m, order-0 case is ``curvature``;
``transport_maps`` (N+1, m - d, r, r).  A (B, m) stack puts B in front of
each shape, and a failed check names the first failing sample.

``checked_eigh`` is the one Hermitian positive-definite rule, for the
constant term of ``gram_jet`` and for K(p, p) in ``hermitian_sqrt``; its
bounds are relative, so scaling a kernel by a constant changes no verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .jets import COND_LIMIT, JetMatrix, refuse, series_context
from .kernels import KernelSpec
from .multiindex import JetIndexTable

# points on the flattened submanifold have transverse coordinates below this
ON_Z_TOL = 1e-10


def checked_eigh(a: np.ndarray, what: str):
    """``eigh`` of the Hermitian part of a matrix or of each of a stack; refuses the first
    sample not Hermitian to 1e-8 times its largest |entry|, or not positive definite with
    condition number at most ``COND_LIMIT``.  No bound has a floor."""
    a = np.asarray(a, dtype=complex)
    adj = np.conj(np.swapaxes(a, -1, -2))
    dev = np.max(np.abs(a - adj), axis=(-2, -1))
    big = np.max(np.abs(a), axis=(-2, -1))
    refuse(dev > 1e-8 * big, lambda i: f"{what} not Hermitian (deviation {dev.flat[i]:.3e})")
    vals, vecs = np.linalg.eigh((a + adj) / 2.0)
    low, high = vals[..., 0], vals[..., -1]
    refuse(~((low > 0) & (high <= COND_LIMIT * low)), lambda i: (  # NaN fails too
        f"{what} not positive definite (eigenvalues {low.flat[i]:.3e} to {high.flat[i]:.3e})"))
    return vals, vecs


def hermitian_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian square root of a Hermitian positive-definite matrix (``checked_eigh``)."""
    vals, vecs = checked_eigh(a, "matrix")
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def check_on_submanifold(point, d: int, what: str):
    """Raise unless the first d (transverse) coordinates of point (or of
    each point of a stack) vanish."""
    off = np.max(np.abs(np.asarray(point, dtype=complex)[..., :d]), axis=-1, initial=0.0)
    refuse(off > ON_Z_TOL, lambda i: (
        f"{what} is off the submanifold: |first {d} chart coordinates| "
        f"up to {off.flat[i]:.2e} (tolerance {ON_Z_TOL:.1e})"))


def default_samples(m: int, d: int, count: int = 5, seed: int = 2024):
    """Deterministic sample points on the flattened submanifold.

    Tangential coordinates are drawn with modulus at most 0.5; the first d
    coordinates are zero, so d = 0 samples every coordinate.  With no
    tangential directions the only sample is the origin.
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


def pad_pair(m: int, alpha=(), beta=()):
    """Concatenated 2m-variable index for d^alpha in z and d^beta in conj."""
    alpha, beta = tuple(alpha), tuple(beta)
    return alpha + (0,) * (m - len(alpha)) + beta + (0,) * (m - len(beta))


def _held(rows, m: int, variables: tuple) -> np.ndarray:
    """2m-variable exponent rows over ``variables``; see ``GramJet.held``."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != 2 * m:
        raise ValueError(f"exponent rows must have width {2 * m}, got shape {rows.shape}")
    for v in np.flatnonzero(rows.any(axis=0)):
        if v not in variables:
            name = f"z{v + 1}" if v < m else f"conj(z{v - m + 1})"
            raise ValueError(f"the jet does not hold the displacement of {name}")
    return rows[:, list(variables)]


@lru_cache(maxsize=None)
def _block_rows(ctx, m: int, variables: tuple, d: int, k: int):
    """Ranks and factorials of the rows (alpha, beta) of ``transverse_blocks``."""
    idx = JetIndexTable(d, k)
    rows = [pad_pair(m, a, b) for a in idx.indices for b in idx.indices]
    return ctx.derivative_ranks(_held(rows, m, variables))


def transverse_blocks(jet, idx: JetIndexTable) -> np.ndarray:
    """The (N+1, N+1, r, r) grid of blocks d^alpha dbar^beta of a kernel jet.

    ``jet`` is a ``GramJet`` or a ``JetMatrix`` in m z-displacements then m
    conj-displacements: the 2m variables of ``KernelSpec.eval_jet``, or the
    2d of ``varying_jet`` with d varying on each side.  alpha and beta run
    over the theta-ordered transverse orders of ``idx``.  The rows are
    ranked once per (context, variables, d, k).
    """
    if isinstance(jet, GramJet):
        jm, m, held = jet.jet, jet.point.shape[-1], jet.variables
    else:
        jm, m, held = jet, jet.ctx.num_vars // 2, tuple(range(jet.ctx.num_vars))
    n = len(idx)
    blocks = jm.read_derivatives(*_block_rows(jm.ctx, m, held, idx.d, idx.k))
    return blocks.reshape(jm.batch + (n, n) + jm.shape)


@dataclass
class GramJet:
    """Jet of H = K(z, z) around a base point, or around each of a stack."""

    point: np.ndarray
    jet: JetMatrix
    variables: tuple  # the indices, among the 2m of ``eval_jet``, of the jet's variables
    _inverses: dict = field(default_factory=dict, repr=False, compare=False)

    def held(self, rows) -> np.ndarray:
        """2m-variable exponent rows, as ``pad_pair`` builds them, over the held
        variables; refuses a row in another variable, naming it."""
        return _held(rows, self.point.shape[-1], self.variables)

    def axes(self, variables) -> list:
        """The held positions of 2m-variable indices, for ``JetMatrix.derivative``."""
        unit = np.eye(2 * self.point.shape[-1], dtype=np.int64)[list(variables)]
        return self.held(unit).argmax(axis=1).tolist()

    def extract(self, alpha=(), beta=()) -> np.ndarray:
        """The derivative d^alpha dbar^beta H at the base point."""
        rows = self.held([pad_pair(self.point.shape[-1], alpha, beta)])
        return self.jet.derivatives(rows)[..., 0, :, :]

    def truncated(self, trunc: int, what: str) -> JetMatrix:
        """The jet sliced to ``trunc``; refuses a jet of lower truncation."""
        have = self.jet.ctx.trunc
        if have < trunc:
            raise ValueError(
                f"{what} needs a Gram jet of truncation >= {trunc}, got {have}"
            )
        return self.jet.truncate(trunc)

    def inverse(self, trunc: int, what: str) -> JetMatrix:
        """The inverse of the jet sliced to ``trunc``, computed once per truncation."""
        if trunc not in self._inverses:
            self._inverses[trunc] = self.truncated(trunc, what).inverse()
        return self._inverses[trunc]


def gram_jet(kernel, z0, trunc: int = 2, vary_z=True, vary_w=True) -> GramJet:
    """Jet of H = K(z, z) at z0 (or each point of a stack), positive definite at z0,
    in the variables ``vary_z`` and ``vary_w`` select (``KernelSpec.eval_jet``)."""
    z0 = np.asarray(z0, dtype=complex)
    jm, variables = kernel.varying_jet(z0, z0, trunc, vary_z=vary_z, vary_w=vary_w)
    checked_eigh(jm.constant_term(), "Gram matrix: constant term")
    return GramJet(point=z0, jet=jm, variables=tuple(variables))


@dataclass
class CurvatureTensor:
    """All m x m curvature blocks at one point (or per sample of a batch);
    entries[..., i, j, :, :] is K_{i jbar}."""

    point: np.ndarray
    entries: np.ndarray  # (*batch, m, m, r, r)

    def block(self, i: int, j: int) -> np.ndarray:
        return self.entries[..., i, j, :, :]

    def selfadjoint_defect(self):
        """Largest entry of K_{i jbar} - K_{j ibar}*, per sample of a batch."""
        swapped = np.conj(np.swapaxes(self.entries, -1, -2))  # blockwise adjoint
        diff = np.abs(self.entries - np.swapaxes(swapped, -4, -3))
        return np.max(diff, axis=(-4, -3, -2, -1))


def curvature(g: GramJet) -> CurvatureTensor:
    """Chern curvature blocks dbar_j(d_i H . H^{-1}) at the base point of g: the
    covariant-derivative reader at d = m and order 0, whose keys run over (i, j)."""
    m = g.point.shape[-1]
    _, blocks = curvature_covariant_derivs(g, m, 0)
    shape = blocks.shape[:-3] + (m, m) + blocks.shape[-2:]
    return CurvatureTensor(point=g.point, entries=blocks.reshape(shape))


def curvature_covariant_derivs(g: GramJet, d: int, max_order: int):
    """Covariant derivatives of the transverse curvature up to a total order.

    Returns ``(keys, blocks)``: key (i, j, alpha, beta), for transverse
    directions i, j and d-variable multi-indices alpha, beta with
    |alpha| + |beta| <= max_order, names K_{i jbar} differentiated
    covariantly ``alpha`` times in z (ascending coordinate order, innermost
    first) and then ``beta`` times plainly in conj(z).  The keys are sorted;
    ``blocks`` is the (keys, r, r) array in the same order.

    Reads the Gram jet to truncation ``max_order + 2``; the commutator
    correction for each z-derivative uses ``d_i H . H^{-1}`` at the same
    point.
    """
    m = g.point.shape[-1]
    if not 1 <= d <= m:
        raise ValueError(f"d={d} out of range for m={m}")
    trunc = max_order + 2
    zs, conjs = g.axes(range(d)), g.axes(range(m, m + d))
    h = g.truncated(trunc, "curvature")
    hinv = g.inverse(trunc, "curvature")

    # connection coefficients d_i H . H^{-1}: dbar_j of conn[i] is K_{i jbar},
    # and they give the commutator of each z-direction correction
    conn = [h.derivative(zs[i]) @ hinv.truncate(trunc - 1) for i in range(d)]

    def z_cov(phi: JetMatrix, i: int) -> JetMatrix:
        t = phi.ctx.trunc
        a = conn[i].truncate(t - 1)
        p = phi.truncate(t - 1)
        return phi.derivative(zs[i]) - (a @ p - p @ a)

    orders = sorted(JetIndexTable(d, max_order + 1).indices)  # orders[0] is 0
    conj = np.array([pad_pair(m, beta=b) for b in orders])
    # K_{i jbar} = dbar_j conn[i]: its plain conj-derivatives dbar^beta are read
    # off conn[i] at the rows beta + e_j, ordered by j, then beta
    plain_rows = g.held((conj + np.eye(2 * m, dtype=np.int64)[m:m + d, None]).reshape(-1, 2 * m))
    keys, blocks = [], []
    for i in range(d):
        plain = conn[i].derivatives(plain_rows).reshape(h.batch + (d, len(orders)) + h.shape)
        for j in range(d):
            keys += [(i, j, orders[0], beta) for beta in orders]
            blocks.append(plain[..., j, :, :, :])
            curv = conn[i].derivative(conjs[j])  # K_{i jbar}, trunc-2 = max_order
            for alpha in orders[1:]:
                phi = curv
                for v in range(d):  # z-covariant, ascending, innermost first
                    for _ in range(alpha[v]):
                        phi = z_cov(phi, v)
                betas = [b for b in orders if sum(alpha) + sum(b) <= max_order]
                keys += [(i, j, alpha, beta) for beta in betas]
                blocks.append(phi.derivatives(g.held([pad_pair(m, beta=b) for b in betas])))
    return keys, np.concatenate(blocks, axis=-3)


def transport_maps(g: GramJet, d: int, k: int) -> np.ndarray:
    """Transport maps at a base point on the flattened submanifold.

    Returns the (N+1, m - d, r, r) array whose entry [l, i - d] is
    dbar_i(H^{-1} d^l H), for the theta rank l of the transverse derivative
    order and the tangential directions i in d..m-1 (0-based); with d == m
    it has no directions.  Reads the Gram jet to truncation ``max(k, 2)``:
    transverse order k - 1 plus one tangential conj-derivative.
    """
    m = g.point.shape[-1]
    if not 1 <= d <= m:
        raise ValueError(f"d={d} out of range for m={m}")
    check_on_submanifold(g.point, d, "base point")
    tangential = g.held(np.eye(2 * m, dtype=np.int64)[m + d :])  # dbar_i, i = d..m-1
    zs = g.axes(range(d))
    h = g.truncated(max(k, 2), "transport maps")
    hinv = g.inverse(max(k, 2), "transport maps")
    maps = []
    for alpha in JetIndexTable(d, k).indices:
        dl_h = h
        for v in range(d):
            for _ in range(alpha[v]):
                dl_h = dl_h.derivative(zs[v])
        t = dl_h.ctx.trunc
        hl = hinv.truncate(t) @ dl_h  # H^{-1} d^l H
        maps.append(hl.derivatives(tangential))
    return np.stack(maps, axis=-4)


class NormalizedKernel:
    """Evaluator for the kernel normalized at a point p.

    Implements ``C . K(z,p)^{-1} . K(z,w) . K(p,w)^{-1} . C`` with
    ``C = K(p,p)^{1/2}`` (Hermitian square root), so that the kernel
    against the base point is the identity matrix to every computed
    order.  ``base`` is a ``KernelSpec``; the normalized kernel shares its
    interface, with ``eval_jet`` and ``eval_point`` read off ``varying_jet``.
    Each call evaluates the three factors by one call of ``base`` on their
    stacked points; a refusal evaluates them one at a time, naming the caller's sample.
    """

    def __init__(self, base, p):
        self.base = base
        self.p = np.array(p, dtype=complex)
        self.m = base.m
        self.r = base.r
        self.c = hermitian_sqrt(base.eval_point(self.p, self.p))
        self.label = f"{base.label}|normalized" if base.label else ""

    def _factors(self, z0, w0, trunc: int, vary_z, vary_w):
        """The base jets of (z, p), (z, w), (p, w) stacked in front of the batch; on a refusal,
        of each alone with its own varying flags, in order, raising what that raises."""
        base = self.base
        try:
            z, w, p = np.broadcast_arrays(np.asarray(z0, complex), np.asarray(w0, complex), self.p)
            return base.varying_jet(np.stack([z, z, p]), np.stack([p, w, w]), trunc, vary_z, vary_w)
        except ValueError as exc:
            refused = exc
        base.varying_jet(z0, self.p, trunc, vary_z, False)
        base.varying_jet(z0, w0, trunc, vary_z, vary_w)
        base.varying_jet(self.p, w0, trunc, False, vary_w)
        raise refused

    eval_jet = KernelSpec.eval_jet  # the jet of ``varying_jet`` in 2m variables
    eval_point = KernelSpec.eval_point  # the constant term of the truncation-0 ``varying_jet``

    def varying_jet(self, z0, w0, trunc: int, vary_z=True, vary_w=True):
        """The normalized jet and its variables, as ``KernelSpec.varying_jet``.
        K(z, p) and K(p, w) are restricted to their varying argument's variables
        (bit for bit their own runs), inverted there and embedded again."""
        stacked, variables = self._factors(z0, w0, trunc, vary_z, vary_w)
        ctx, nz = stacked.ctx, sum(v < self.m for v in variables)  # the z-variables lead
        zs, ws = range(nz), range(nz, ctx.num_vars)
        left, mid, right = (JetMatrix(ctx, c) for c in stacked.c)
        left = left.restrict(series_context(nz, trunc), zs).inverse()
        right = right.restrict(series_context(len(ws), trunc), ws).inverse()
        out = left.embed(ctx, zs) @ mid @ right.embed(ctx, ws)
        return out.left_const(self.c).right_const(self.c), variables

    def __repr__(self):
        return f"NormalizedKernel(m={self.m}, r={self.r}, p={self.p})"


def normalize_at(kernel, p) -> NormalizedKernel:
    """Normalized-kernel evaluator with base point p; K_norm(., p) == I.
    The kernel keeps its last one, for the bytes of p, until a call at another p."""
    key = np.shape(p), np.asarray(p, dtype=complex).tobytes()
    kept = getattr(kernel, "_normalized", (None, None))
    if kept[0] != key:  # another thread may replace the slot: return this call's own
        kept = kernel._normalized = key, NormalizedKernel(kernel, p)
    return kept[1]
