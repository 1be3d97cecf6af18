"""Brute-force order-two quotient of the weighted Bergman space on D^m.

Everything here works in the orthogonal monomial basis of the space with
weights w_1..w_m: z^a has squared norm 1 / c(a), c(a) = prod_i c_{a_i}(w_i)
with c_n(w) = w (w+1) ... (w+n-1) / n!.  Per homogeneous degree p, the
complement of the functions vanishing to order two on the diagonal is
spanned by g_beta = sum over |a| = p of a^(beta) c(a) z^a, a^(beta) the
falling power on the coordinates 2..m, for the theta-ordered indices beta
of degree < 2 there with |beta| <= p.  With G the rows g_beta, the level
Gram is M = G diag(1/c) G^T; with J[l, beta] = d^alpha_l g_beta at the
diagonal point (t, ..., t), alpha_l the same indices on the coordinates
1..m-1, the level adds J M^-1 J^H to the diagonal quotient kernel.

This module is deliberately independent of the jet-arithmetic machinery:
it is the oracle the jet-kernel construction is validated against.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .multiindex import MAX_TABLE, JetIndexTable, pochhammer

ORDER = 2  # the quotient is by the functions vanishing to this order


def coeff_c(lam: float, n: int) -> float:
    """The diagonal coefficient c_n = (lam)_n / n! of (1 - x)^(-lam).

    Evaluated exactly and rounded once, so it stays finite wherever c_n is:
    as floats, the rising factorial and n! overflow from about n = 170.
    A c_n beyond the float range rounds to inf.
    """
    if n < 0:
        return 0.0
    try:
        return float(pochhammer(Fraction(lam), n) / math.factorial(n))
    except OverflowError:
        return math.inf


def coeff_table(weights, n_max: int) -> np.ndarray:
    """c_n(w) for n = 0..n_max, one row per weight, each one cumulative product."""
    w = np.asarray(weights, dtype=float)[:, None]
    n = np.arange(1, n_max + 1)
    return np.cumprod(np.hstack([np.ones_like(w), (w + n - 1) / n]), axis=1)


class QuotientLevel(NamedTuple):
    """Degree-p data: the exponents a with |a| = p (rows), c(a), the
    spanning vectors g_beta (rows over the exponents) and their Gram."""

    p: int
    exponents: np.ndarray
    c: np.ndarray
    g: np.ndarray
    gram: np.ndarray


def _check_size(p_max: int, m: int):
    count = math.comb(p_max + m, m)
    if count > MAX_TABLE:
        raise ValueError(
            f"the monomials of degree <= {p_max} in m = {m} variables number "
            f"{count}, exceeding the supported size {MAX_TABLE}"
        )


def _exponents(p: int, m: int) -> np.ndarray:
    """The exponents a in N^m with |a| = p, one per row (stars and bars)."""
    bars = np.array(list(itertools.combinations(range(p + m - 1), m - 1)))
    ends = np.ones((len(bars), 1), dtype=int)
    return np.diff(np.hstack([-ends, bars, (p + m - 1) * ends])) - 1


def _falling(a: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """a^(beta) for each index beta (rows) and exponent a (columns); indices
    of degree < 2 have entries 0 or 1, where it is the plain power."""
    return np.prod(a[None, :, :] ** indices[:, None, :], axis=2)


def build_level(p: int, *weights) -> QuotientLevel:
    """The degree-p level of the quotient on D^m, m = len(weights) >= 2."""
    m = len(weights)
    if m < 2:
        raise ValueError("need at least two weights")
    if not all(w > 0 for w in weights):
        raise ValueError("weights must be positive")
    if p < 0:
        raise ValueError("level must be >= 0")
    _check_size(p, m)
    a = _exponents(p, m)
    c = np.prod(coeff_table(weights, p)[np.arange(m), a], axis=1)
    betas = np.array(JetIndexTable(m - 1, ORDER).indices)
    betas = betas[betas.sum(axis=1) <= p]
    g = _falling(a[:, 1:], betas) * c
    return QuotientLevel(p, a, c, g, (g / c) @ g.T)


def _level_kernel(level: QuotientLevel, t: complex) -> np.ndarray:
    """The level's term J M^-1 J^H of the quotient kernel at (t, ..., t)."""
    a = level.exponents
    alphas = np.array(JetIndexTable(a.shape[1] - 1, ORDER).indices)
    # d^alpha z^a = a^(alpha) z^(a - alpha); the clip only meets zero rows
    powers = t ** np.maximum(level.p - alphas.sum(axis=1), 0)
    jet = (_falling(a[:, :-1], alphas) * powers[:, None]) @ level.g.T
    return jet @ np.linalg.solve(level.gram, jet.conj().T)


def closed_forms(p: int, alpha: float, beta: float, gamma: float) -> dict:
    """The m = 3 level quantities in closed form, via c_n(lam), lam = sum.
    Products are taken with float multiplication, so an overflow gives inf."""
    lam = alpha + beta + gamma
    c0, c2 = coeff_c(lam, p), coeff_c(lam + 2, p - 1)
    return {
        "norm_f1_sq": c0,
        "inner_g1_g2": beta * coeff_c(lam + 1, p - 1),
        "inner_g1_g3": gamma * coeff_c(lam + 1, p - 1),
        "inner_g2_g3": beta * gamma * coeff_c(lam + 2, p - 2),
        "norm_f2_sq": beta * (alpha + gamma) / lam * c0 * c0 * c2,
        "norm_f3_sq": (
            alpha * beta ** 2 * gamma * (alpha + gamma) / lam ** 2
            * math.prod([c0] * 6 + [c2] * 3)
        ),
    }


def level_measured(level: QuotientLevel) -> dict:
    """The quantities of ``closed_forms`` read off the Gram of an m = 3 level:
    f2 = <g2, g1> g1 - |g1|^2 g2 and f3, g3 eliminated likewise against g1
    and then f2, have Gram-determinant norms.  Absent vectors count as 0."""
    if level.exponents.shape[1] != 3:
        raise ValueError("the closed forms are for three weights")
    gram = np.zeros((3, 3))
    n = len(level.gram)
    gram[:n, :n] = level.gram
    with np.errstate(over="ignore"):  # past the float range a norm is inf
        det2 = np.linalg.det(gram[:2, :2])
        out = {
            "norm_f1_sq": gram[0, 0],
            "inner_g1_g2": gram[0, 1],
            "inner_g1_g3": gram[0, 2],
            "inner_g2_g3": gram[1, 2],
            "norm_f2_sq": gram[0, 0] * det2,
            "norm_f3_sq": gram[0, 0] ** 4 * det2 * np.linalg.det(gram),
        }
    return {key: float(value) for key, value in out.items()}


def quotient_kernel_partial(z: complex, *weights, p_max: int = 60) -> np.ndarray:
    """Levels p <= p_max of the diagonal quotient kernel at (z, ..., z), rows
    and columns in the theta order of the derivatives along z_1..z_{m-1}.
    The tail decays geometrically in |z|^2."""
    z = complex(z)
    if abs(z) >= 1:
        raise ValueError(f"|z| = {abs(z):.3f} is outside the unit disc")
    if p_max < 1:
        raise ValueError("need p_max >= 1")
    _check_size(p_max, len(weights))
    return sum(_level_kernel(build_level(p, *weights), z) for p in range(p_max + 1))


def quotient_kernel_tail_estimate(z: complex, *weights, p_max: int) -> float:
    """Crude geometric bound on the truncation error of the partial sum."""
    z = complex(z)
    q = abs(z) ** 2
    if q >= 1:
        return float("inf")
    last = float(np.max(np.abs(_level_kernel(build_level(p_max, *weights), z))))
    # the level-p terms grow polynomially times q^p; pad the ratio a little
    ratio = min(0.999, q * (1.0 + 4.0 / max(p_max, 1)))
    return last * ratio / (1.0 - ratio)
