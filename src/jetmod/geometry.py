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

``gram_jet`` is the one place a kernel becomes a Gram jet.  It accepts any
object with ``eval_jet(z0, w0, trunc)`` — a ``KernelSpec`` or the
evaluator returned by ``normalize_at``.  ``curvature``,
``curvature_covariant_derivs`` and ``transport_maps`` take the resulting
``GramJet`` and never evaluate a kernel: each slices the jet to the
truncation it needs, which is exact because the grading puts lower orders
first, and refuses a jet computed to a lower truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import JetMatrix, series_context
from .multiindex import JetIndexTable

PD_FLOOR = 1e-12
# points on the flattened submanifold have transverse coordinates below this
ON_Z_TOL = 1e-10


def hermitian_sqrt(a: np.ndarray, floor: float = PD_FLOOR) -> np.ndarray:
    """Hermitian square root of a Hermitian positive-definite matrix."""
    a = np.asarray(a, dtype=complex)
    herm_dev = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    scale = max(1.0, float(np.max(np.abs(a))))
    if herm_dev > 1e-8 * scale:
        raise ValueError(f"matrix is not Hermitian (deviation {herm_dev:.3e})")
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2.0)
    if np.min(vals) < floor * scale:
        raise ValueError(
            f"matrix is not positive definite (min eigenvalue {np.min(vals):.3e})"
        )
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def check_on_submanifold(point, d: int, what: str):
    """Raise unless the first d (transverse) coordinates of point vanish."""
    off = float(np.max(np.abs(np.asarray(point, dtype=complex)[:d])))
    if off > ON_Z_TOL:
        raise ValueError(
            f"{what} is off the submanifold: |first {d} chart coordinates| "
            f"up to {off:.2e} (tolerance {ON_Z_TOL:.1e})"
        )


def pad_pair(m: int, alpha=(), beta=()):
    """Concatenated 2m-variable index for d^alpha in z and d^beta in conj."""
    alpha = tuple(alpha)
    beta = tuple(beta)
    return alpha + (0,) * (m - len(alpha)) + beta + (0,) * (m - len(beta))


def transverse_blocks(jm: JetMatrix, idx: JetIndexTable) -> np.ndarray:
    """The (N+1, N+1, r, r) grid of blocks d^alpha dbar^beta of a kernel jet.

    ``jm`` is a jet in the 2m variables of ``KernelSpec.eval_jet``; alpha
    and beta run over the theta-ordered transverse orders of ``idx``.
    """
    m = jm.ctx.num_vars // 2
    n = len(idx)
    out = np.empty((n, n) + jm.shape, dtype=complex)
    for l, alpha in enumerate(idx.indices):
        for t, beta in enumerate(idx.indices):
            out[l, t] = jm.extract(pad_pair(m, alpha, beta))
    return out


def unit(m: int, i: int):
    return tuple(1 if j == i else 0 for j in range(m))


@dataclass
class GramJet:
    """Jet of H = K(z, z) around a base point."""

    point: np.ndarray
    jet: JetMatrix

    def extract(self, alpha=(), beta=()) -> np.ndarray:
        """The derivative d^alpha dbar^beta H at the base point."""
        m = len(self.point)
        return self.jet.extract(pad_pair(m, alpha, beta))

    def truncated(self, trunc: int, what: str) -> JetMatrix:
        """The jet sliced to ``trunc``; refuses a jet of lower truncation."""
        have = self.jet.ctx.trunc
        if have < trunc:
            raise ValueError(
                f"{what} needs a Gram jet of truncation >= {trunc}, got {have}"
            )
        return self.jet.truncate(trunc)


def gram_jet(kernel, z0, trunc: int = 2) -> GramJet:
    """The jet of H = K(z, z) at z0; its constant term must be positive definite."""
    z0 = np.asarray(z0, dtype=complex)
    jm = kernel.eval_jet(z0, z0, trunc)
    h0 = jm.constant_term()
    scale = max(1.0, float(np.max(np.abs(h0))))
    dev = float(np.max(np.abs(h0 - h0.conj().T)))
    if dev > 1e-8 * scale:
        raise ValueError(f"Gram matrix: constant term not Hermitian (dev {dev:.3e})")
    vals = np.linalg.eigvalsh((h0 + h0.conj().T) / 2.0)
    if np.min(vals) < PD_FLOOR * scale:
        raise ValueError(
            "Gram matrix: constant term not positive definite "
            f"(min eigenvalue {np.min(vals):.3e})"
        )
    return GramJet(point=z0, jet=jm)


@dataclass
class CurvatureTensor:
    """All m x m curvature blocks at one point; entries[i, j] is K_{i jbar}."""

    point: np.ndarray
    entries: np.ndarray  # (m, m, r, r)

    def block(self, i: int, j: int) -> np.ndarray:
        return self.entries[i, j]

    def selfadjoint_defect(self) -> float:
        swapped = np.conj(np.swapaxes(self.entries, 2, 3))  # blockwise adjoint
        return float(np.max(np.abs(self.entries - swapped.transpose(1, 0, 2, 3))))


def curvature(g: GramJet) -> CurvatureTensor:
    """Chern curvature blocks dbar_j(d_i H . H^{-1}) at the base point of g."""
    h = g.truncated(2, "curvature")
    m = len(g.point)
    hinv = h.inverse().truncate(1)
    out = np.empty((m, m) + h.shape, dtype=complex)
    for i in range(m):
        theta_i = h.derivative(i) @ hinv  # d_i H . H^{-1}, truncation 1
        for j in range(m):
            out[i, j] = theta_i.extract(pad_pair(m, beta=unit(m, j)))
    return CurvatureTensor(point=g.point, entries=out)


@dataclass
class CovariantDerivArray:
    """Covariant derivatives of curvature blocks along the first d directions.

    ``get(i, j, alpha, beta)`` is K_{i jbar} differentiated covariantly
    ``alpha`` times in z (ascending coordinate order, innermost first) and
    ``beta`` times plainly in conj(z); ``alpha`` and ``beta`` are
    d-variable multi-indices.
    """

    point: np.ndarray
    d: int
    max_order: int
    table: dict

    def get(self, i: int, j: int, alpha, beta) -> np.ndarray:
        return self.table[(i, j, tuple(alpha), tuple(beta))]


def curvature_covariant_derivs(
    g: GramJet, d: int, max_order: int
) -> CovariantDerivArray:
    """Covariant derivatives of the transverse curvature up to a total order.

    Reads the Gram jet to truncation ``max_order + 2``; the commutator
    correction for each z-derivative uses ``d_i H . H^{-1}`` at the same
    point.
    """
    m = len(g.point)
    if not 1 <= d <= m:
        raise ValueError(f"d={d} out of range for m={m}")
    trunc = max_order + 2
    h = g.truncated(trunc, "covariant derivatives")
    hinv = h.inverse()

    # connection coefficients d_i H . H^{-1}: dbar_j of conn[i] is K_{i jbar},
    # and they give the commutator of each z-direction correction
    conn = [
        h.derivative(i) @ hinv.truncate(trunc - 1) for i in range(d)
    ]

    def z_cov(phi: JetMatrix, i: int) -> JetMatrix:
        t = phi.ctx.trunc
        a = conn[i].truncate(t - 1)
        p = phi.truncate(t - 1)
        return phi.derivative(i) - (a @ p - p @ a)

    table = {}
    idx = JetIndexTable(d, max_order + 1)
    for i in range(d):
        for j in range(d):
            kij = conn[i].derivative(m + j)  # dbar_j, trunc-2 = max_order
            for alpha in idx.indices:
                for beta in idx.indices:
                    if sum(alpha) + sum(beta) > max_order:
                        continue
                    phi = kij
                    for v in range(d):  # z-covariant, ascending, innermost first
                        for _ in range(alpha[v]):
                            phi = z_cov(phi, v)
                    for v in range(d):  # plain conj-derivatives
                        for _ in range(beta[v]):
                            phi = phi.derivative(m + v)
                    table[(i, j, alpha, beta)] = phi.constant_term()
    return CovariantDerivArray(point=g.point, d=d, max_order=max_order, table=table)


@dataclass
class TransportMaps:
    """The maps dbar_i(H^{-1} d^l H) on the flattened submanifold.

    ``get(l, i)`` uses the theta rank l of the transverse derivative order
    and an ambient tangential direction index i in d..m-1 (0-based).
    """

    point: np.ndarray
    d: int
    k: int
    table: dict

    def get(self, l: int, i: int) -> np.ndarray:
        return self.table[(l, i)]


def transport_maps(g: GramJet, d: int, k: int) -> TransportMaps:
    """Transport maps at a base point on the flattened submanifold.

    Reads the Gram jet to truncation ``max(k, 2)``: transverse order k - 1
    plus one tangential conj-derivative.
    """
    m = len(g.point)
    if not 1 <= d <= m:
        raise ValueError(f"d={d} out of range for m={m}")
    check_on_submanifold(g.point, d, "base point")
    h = g.truncated(max(k, 2), "transport maps")
    hinv = h.inverse()
    idx = JetIndexTable(d, k)
    table = {}
    for l, alpha in enumerate(idx.indices):
        dl_h = h
        for v in range(d):
            for _ in range(alpha[v]):
                dl_h = dl_h.derivative(v)
        t = dl_h.ctx.trunc
        hl = hinv.truncate(t) @ dl_h  # H^{-1} d^l H
        for i in range(d, m):
            table[(l, i)] = hl.extract(pad_pair(m, beta=unit(m, i)))
    return TransportMaps(point=g.point, d=d, k=k, table=table)


class NormalizedKernel:
    """Evaluator for the kernel normalized at a point p.

    Implements ``C . K(z,p)^{-1} . K(z,w) . K(p,w)^{-1} . C`` with
    ``C = K(p,p)^{1/2}`` (Hermitian square root), so that the kernel
    against the base point is the identity matrix to every computed
    order.  ``base`` is a ``KernelSpec``; the normalized kernel shares
    its ``eval_jet`` and ``eval_point`` interface.
    """

    def __init__(self, base, p):
        self.base = base
        self.p = np.asarray(p, dtype=complex)
        self.m = base.m
        self.r = base.r
        self.c = hermitian_sqrt(base.eval_point(self.p, self.p))
        self.label = getattr(base, "label", "")
        if self.label:
            self.label += "|normalized"

    def eval_jet(self, z0, w0, trunc: int, vary_z=True, vary_w=True):
        """The normalized jet; ``vary_z``/``vary_w`` as in ``KernelSpec.eval_jet``.

        K(z, p) and K(p, w) vary in one argument each, so they are
        evaluated and inverted over those variables only and embedded in
        the 2m-variable context for the two products.
        """
        ctx = series_context(2 * self.m, trunc)
        left, left_vars = self.base.varying_jet(z0, self.p, trunc, vary_z, False)
        _check_pd_invertible(left.constant_term(), "normalization: K(z, p)")
        mid = self.base.eval_jet(z0, w0, trunc, vary_z, vary_w)
        right, right_vars = self.base.varying_jet(self.p, w0, trunc, False, vary_w)
        _check_pd_invertible(right.constant_term(), "normalization: K(p, w)")
        out = (
            left.inverse().embed(ctx, left_vars)
            @ mid
            @ right.inverse().embed(ctx, right_vars)
        )
        return out.left_const(self.c).right_const(self.c)

    def eval_point(self, z, w) -> np.ndarray:
        left = self.base.eval_point(z, self.p)
        mid = self.base.eval_point(z, w)
        right = self.base.eval_point(self.p, w)
        return self.c @ np.linalg.inv(left) @ mid @ np.linalg.inv(right) @ self.c

    def __repr__(self):
        return f"NormalizedKernel(m={self.m}, r={self.r}, p={self.p})"


def _check_pd_invertible(a: np.ndarray, what: str, cond_limit: float = 1e12):
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > cond_limit:
        raise ValueError(f"{what} is numerically singular (cond ~ {cond:.3e})")


def normalize_at(kernel, p) -> NormalizedKernel:
    """Normalized-kernel evaluator with base point p; K_norm(., p) == I."""
    return NormalizedKernel(kernel, p)
