"""Jet kernels, module-action matrices and the affine chart transform.

Given a kernel in coordinates where the submanifold of interest is
``z_1 = ... = z_d = 0``, the order-k jet kernel is the block matrix

    JK[l, t] = d^l dbar^t K(z, w),     0 <= l, t <= N,

with the theta-ranked transverse derivative orders of degree < k, and
``N = C(d+k-1, k-1) - 1``.  Restricted to the submanifold it is the
reproducing kernel of the quotient by the functions vanishing there to
order k.  Multiplication by a scalar function f acts on jet columns
through the lower-triangular matrix

    A(f)[l, t] = binom(alpha, beta) d^(alpha-beta) f,

and an affine change of chart transports jet columns by a block-diagonal
matrix of symmetric powers of the transverse Jacobian block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import check_on_submanifold, pad_pair, transverse_blocks
from .jets import JetSeries, series_context
from .kernels import AffineChart, KernelSpec, uses_wb
from .multiindex import JetIndexTable, degree_slice, multi_binom


@dataclass
class JetKernelValue:
    """The (N+1) x (N+1) grid of r x r derivative blocks of K at (z0, w0)."""

    z0: np.ndarray
    w0: np.ndarray
    d: int
    k: int
    N: int
    r: int
    blocks: np.ndarray  # (N+1, N+1, r, r)
    index_table: JetIndexTable

    def block(self, l: int, t: int) -> np.ndarray:
        return self.blocks[l, t]

    def as_matrix(self) -> np.ndarray:
        """The full (N+1)r x (N+1)r matrix in theta-block order."""
        n = self.N + 1
        return self.blocks.transpose(0, 2, 1, 3).reshape(n * self.r, n * self.r)


def jet_kernel(kernel, d: int, k: int, z0, w0, trunc: int = None) -> JetKernelValue:
    """All transverse derivative blocks of the kernel at one point pair."""
    m, r = kernel.m, kernel.r
    if not 1 <= d <= m:
        raise ValueError(f"d={d} out of range for m={m}")
    idx = JetIndexTable(d, k)
    if trunc is None:
        trunc = 2 * (k - 1)
    if trunc < 2 * (k - 1):
        raise ValueError(f"truncation {trunc} too small for jet order k={k}")
    z0 = np.asarray(z0, dtype=complex)
    w0 = np.asarray(w0, dtype=complex)
    # the blocks read only the 2d transverse variables
    jm = kernel.eval_jet(z0, w0, trunc, vary_z=d, vary_w=d)
    blocks = transverse_blocks(jm, idx)
    return JetKernelValue(
        z0=z0, w0=w0, d=d, k=k, N=idx.N, r=r, blocks=blocks, index_table=idx
    )


def restrict_to_Z(jkv: JetKernelValue, chart: AffineChart) -> JetKernelValue:
    """Restriction of the jet kernel to the submanifold; points must lie on it."""
    check_on_submanifold(jkv.z0, jkv.d, "z0")
    check_on_submanifold(jkv.w0, jkv.d, "w0")
    return jkv


@dataclass
class ModuleActionMatrix:
    """Matrix of multiplication by f on theta-ordered jet columns."""

    point: np.ndarray
    d: int
    k: int
    matrix: np.ndarray  # (N+1, N+1)

    def tensor(self, r: int) -> np.ndarray:
        """The action on rank-r jet columns: the matrix tensored with I_r."""
        return np.kron(self.matrix, np.eye(r, dtype=complex))


def module_action_matrix(f, z0, d: int, k: int, m: int = None) -> ModuleActionMatrix:
    """The lower-triangular jet action of a holomorphic scalar function.

    ``f`` is an expression AST in the z variables; entry (l, t) is
    ``binom(alpha, beta) * d^(alpha-beta) f(z0)`` for the theta indices
    alpha, beta of ranks l, t (zero unless beta <= alpha componentwise).
    """
    if uses_wb(f):
        raise ValueError("module action requires a holomorphic f (no wb variables)")
    z0 = np.asarray(z0, dtype=complex)
    if m is None:
        m = len(z0)
    idx = JetIndexTable(d, k)
    wrapper = KernelSpec(m, 1, [[f]])
    jm = wrapper.eval_jet(z0, np.zeros(m), k - 1, vary_w=False)
    n = idx.N + 1
    out = np.zeros((n, n), dtype=complex)
    for l, alpha in enumerate(idx.indices):
        for t, beta in enumerate(idx.indices):
            if any(b > a for a, b in zip(alpha, beta)):
                continue
            diff = tuple(a - b for a, b in zip(alpha, beta))
            deriv = jm.extract(pad_pair(m, diff))[0, 0]
            out[l, t] = multi_binom(alpha, beta) * deriv
    return ModuleActionMatrix(point=z0, d=d, k=k, matrix=out)


def sym_power_matrix(j: np.ndarray, t: int) -> np.ndarray:
    """Matrix of the t-th symmetric power of a linear map on monomials.

    Rows and columns are indexed by the theta order of degree-t
    multi-indices; entry (alpha, beta) is the coefficient of x^beta in
    prod_v (sum_i J[v, i] x_i)^(alpha_v).  The degree-1 matrix is J itself
    and the construction is multiplicative: S_t(J1 @ J2) = S_t(J1) @ S_t(J2).
    """
    j = np.asarray(j, dtype=complex)
    d = j.shape[0]
    if j.shape != (d, d):
        raise ValueError("symmetric power needs a square matrix")
    if t < 0:
        raise ValueError("symmetric power order must be >= 0")
    if t == 0:
        return np.ones((1, 1), dtype=complex)
    slice_t = degree_slice(d, t)
    ctx = series_context(d, t)
    forms = []
    for v in range(d):
        s = JetSeries.constant(ctx, 0.0)
        for i in range(d):
            if j[v, i] != 0:
                s = s + JetSeries.variable(ctx, i) * j[v, i]
        forms.append(s)
    out = np.empty((len(slice_t), len(slice_t)), dtype=complex)
    for row, alpha in enumerate(slice_t):
        poly = JetSeries.constant(ctx, 1.0)
        for v in range(d):
            for _ in range(alpha[v]):
                poly = poly * forms[v]
        for col, beta in enumerate(slice_t):
            out[row, col] = poly.coeff(beta)
    return out


@dataclass
class ChartJetTransform:
    """Block-diagonal transport of jet columns between coordinate systems.

    For an affine chart the correction terms below the diagonal vanish and
    the matrix is block diagonal with the symmetric powers of the
    transposed transverse Jacobian block; applied to the chart-coordinate
    jet column of a function it returns its original-coordinate jet column.
    """

    point: np.ndarray
    chart: AffineChart
    k: int
    blocks: tuple
    matrix: np.ndarray

    def tensor(self, r: int) -> np.ndarray:
        return np.kron(self.matrix, np.eye(r, dtype=complex))


def chart_jet_transform(chart: AffineChart, z0, k: int) -> ChartJetTransform:
    d, m = chart.d, chart.m
    z0 = np.asarray(z0, dtype=complex)
    L = chart.linear_array()
    lower_left = L[d:, :d]
    if lower_left.size and np.max(np.abs(lower_left)) > 1e-12:
        raise ValueError(
            "chart mixes transverse coordinates into tangential ones; the "
            "transverse jet transform requires a zero lower-left Jacobian block"
        )
    jac = L[:d, :d]  # d(chart_i)/d(z_v) for transverse rows/columns
    cond = np.linalg.cond(jac)
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError("transverse Jacobian block is numerically singular")
    blocks = [sym_power_matrix(jac.T, t) for t in range(k)]
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    at = 0
    for b in blocks:
        s = b.shape[0]
        out[at : at + s, at : at + s] = b
        at += s
    return ChartJetTransform(
        point=z0, chart=chart, k=k, blocks=tuple(blocks), matrix=out
    )


def jet_column(kernel_like, z0, d: int, k: int) -> np.ndarray:
    """Theta-ordered transverse jet column of a scalar holomorphic expression.

    Helper used to exercise the chart transform and the module action:
    returns (f(z0), d^1 f(z0), ..., d^N f(z0)).
    """
    if uses_wb(kernel_like):
        raise ValueError("jet columns are defined for holomorphic expressions")
    z0 = np.asarray(z0, dtype=complex)
    m = len(z0)
    idx = JetIndexTable(d, k)
    wrapper = KernelSpec(m, 1, [[kernel_like]])
    jm = wrapper.eval_jet(z0, np.zeros(m), k - 1, vary_w=False)
    return np.array(
        [jm.extract(pad_pair(m, alpha))[0, 0] for alpha in idx.indices]
    )
