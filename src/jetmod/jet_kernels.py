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

from .geometry import transverse_blocks
from .jets import COND_LIMIT, JetSeries, check_context_size, series_context
from .kernels import AffineChart, KernelSpec, uses_wb
from .multiindex import JetIndexTable, degree_slice, multi_binom


@dataclass
class JetKernelValue:
    """The (N+1) x (N+1) grid of r x r derivative blocks of K at (z0, w0),
    or at each pair of a stack."""

    z0: np.ndarray
    w0: np.ndarray
    d: int
    k: int
    N: int
    r: int
    blocks: np.ndarray  # (*batch, N+1, N+1, r, r)
    index_table: JetIndexTable

    def block(self, l: int, t: int) -> np.ndarray:
        return self.blocks[..., l, t, :, :]

    def as_matrix(self) -> np.ndarray:
        """The full (N+1)r x (N+1)r matrix in theta-block order, after the
        batch axes of a stack of point pairs."""
        size = (self.N + 1) * self.r
        return self.blocks.swapaxes(-3, -2).reshape(self.blocks.shape[:-4] + (size, size))


def jet_kernel(kernel, d: int, k: int, z0, w0) -> JetKernelValue:
    """All transverse derivative blocks of the kernel at one point pair, or
    at each pair of (B, m) stacks ``z0`` and ``w0`` (one tape run).

    The blocks read only the 2d transverse variables, so the kernel is
    evaluated over those (``KernelSpec.varying_jet`` with d varying
    coordinates on each side) and the blocks are read from that jet
    directly, to order 2(k - 1).  A 2m-variable context that ``eval_jet``
    would refuse is refused here too, before anything is evaluated.
    """
    m, r = kernel.m, kernel.r
    if not 1 <= d <= m:
        raise ValueError(f"d={d} out of range for m={m}")
    idx = JetIndexTable(d, k)
    trunc = 2 * (k - 1)
    check_context_size(2 * m, trunc)
    z0 = np.asarray(z0, dtype=complex)
    w0 = np.asarray(w0, dtype=complex)
    jm, _ = kernel.varying_jet(z0, w0, trunc, d, d)
    blocks = transverse_blocks(jm, idx)
    return JetKernelValue(
        z0=z0, w0=w0, d=d, k=k, N=idx.N, r=r, blocks=blocks, index_table=idx
    )


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


def module_action_matrix(f, z0, d: int, k: int) -> ModuleActionMatrix:
    """The lower-triangular jet action of a holomorphic scalar function.

    ``f`` is an expression AST in the z variables; entry (l, t) is
    ``binom(alpha, beta) * d^(alpha-beta) f(z0)`` for the theta indices
    alpha, beta of ranks l, t (zero unless beta <= alpha componentwise).
    """
    if uses_wb(f):
        raise ValueError("module action requires a holomorphic f (no wb variables)")
    z0 = np.asarray(z0, dtype=complex)
    idx = JetIndexTable(d, k)
    # the entries differentiate only in the d transverse variables of z
    jm, _ = KernelSpec(len(z0), 1, [[f]]).varying_jet(z0, z0, k - 1, d, False)
    n = idx.N + 1
    # rows with beta > alpha are clipped to 0; binom masks their entries
    rows = [np.maximum(np.subtract(a, b), 0) for a in idx.indices for b in idx.indices]
    derivs = jm.derivatives(rows)[:, 0, 0].reshape(n, n)
    binom = np.array([[multi_binom(a, b) for b in idx.indices] for a in idx.indices])
    out = np.where(binom != 0, binom * derivs, 0)
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
    ranks = slice(ctx.degree_starts[t], ctx.degree_starts[t + 1])  # the order of slice_t
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
        out[row] = poly.c[ranks]
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
    if not np.isfinite(cond) or cond > COND_LIMIT:
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
    returns (f(z0), d^1 f(z0), ..., d^N f(z0)), column 0 of the module action.
    """
    return module_action_matrix(kernel_like, z0, d, k).matrix[:, 0]
