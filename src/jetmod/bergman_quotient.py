"""Brute-force quotient computation for the weighted Bergman space on D^3.

Everything here works directly in the monomial orthogonal basis of the
weighted space with weights (a, b, g): the monomial z^n in the i-th
variable has squared norm 1 / c_n(w_i) with c_n(w) = w (w+1) ... (w+n-1) / n!.

Per homogeneous degree p, the orthogonal complement of the functions
vanishing to order two on the diagonal is spanned by three vectors

    g1 = sum over |a| = p of  c(a) z^a
    g2 = sum over |a| = p of  a_2 c(a) z^a        (exponent of the middle variable)
    g3 = sum over |a| = p of  a_3 c(a) z^a        (exponent of the last variable)

with c(a) = c_{a1}(alpha) c_{a2}(beta) c_{a3}(gamma); these are
orthogonalized in the fixed sequence f1 = g1, f2 against g1, f3 against g1
and f2, and normalized.  The degree-p contribution to the quotient kernel
is the rank-3 update from the jet columns (h, d1 h, d2 h) of the resulting
orthonormal vectors restricted to the diagonal.

This module is deliberately independent of the jet-arithmetic machinery:
it is the oracle the jet-kernel construction is validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .multiindex import pochhammer


def coeff_c(lam: float, n: int) -> float:
    """The diagonal coefficient c_n = (lam)_n / n! of (1 - x)^(-lam)."""
    if n < 0:
        return 0.0
    return float(pochhammer(lam, n)) / math.factorial(n)


class MonomialVector:
    """A finitely supported coefficient table over N^3 with ambient weights."""

    def __init__(self, weights, coeffs: dict = None):
        self.weights = tuple(float(w) for w in weights)
        if len(self.weights) != 3:
            raise ValueError("expected three weights")
        self.coeffs = {tuple(k): complex(v) for k, v in (coeffs or {}).items()}

    def __add__(self, other: "MonomialVector") -> "MonomialVector":
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0) + v
        return MonomialVector(self.weights, out)

    def scale(self, s) -> "MonomialVector":
        return MonomialVector(
            self.weights, {k: s * v for k, v in self.coeffs.items()}
        )

    def __sub__(self, other: "MonomialVector") -> "MonomialVector":
        return self + other.scale(-1.0)

    def _check(self, other: "MonomialVector"):
        if self.weights != other.weights:
            raise ValueError("monomial vectors live in different weighted spaces")

    def inner(self, other: "MonomialVector") -> complex:
        """<u, v> = sum of coeff_u(a) conj(coeff_v(a)) / prod_i c_{a_i}(w_i)."""
        self._check(other)
        a_w, b_w, g_w = self.weights
        total = 0.0 + 0.0j
        small = self.coeffs if len(self.coeffs) <= len(other.coeffs) else other.coeffs
        for key in small:
            u = self.coeffs.get(key)
            v = other.coeffs.get(key)
            if u is None or v is None:
                continue
            denom = coeff_c(a_w, key[0]) * coeff_c(b_w, key[1]) * coeff_c(g_w, key[2])
            total += u * np.conj(v) / denom
        return complex(total)

    def norm_sq(self) -> float:
        return self.inner(self).real

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(v) <= tol for v in self.coeffs.values())

    def jet_column_on_diagonal(self, z: complex) -> np.ndarray:
        """(h, d1 h, d2 h) evaluated on the diagonal point (z, z, z)."""
        h = d1 = d2 = 0.0 + 0.0j
        for (a1, a2, a3), v in self.coeffs.items():
            p = a1 + a2 + a3
            h += v * z ** p
            if a1:
                d1 += v * a1 * z ** (p - 1)
            if a2:
                d2 += v * a2 * z ** (p - 1)
        return np.array([h, d1, d2])


@dataclass
class QuotientBasisLevel:
    """Degree-p spanning vectors of the quotient, raw / orthogonal / normalized.

    At p = 0 only the constant survives: f2 and f3 vanish identically and
    the corresponding entries of ``e`` are None.
    """

    p: int
    g: tuple
    f: tuple
    e: tuple


def build_level(p: int, alpha: float, beta: float, gamma: float) -> QuotientBasisLevel:
    if p < 0:
        raise ValueError("level must be >= 0")
    if alpha <= 0 or beta <= 0 or gamma <= 0:
        raise ValueError("weights must be positive")
    return _build_level_cached(p, float(alpha), float(beta), float(gamma))


@lru_cache(maxsize=4096)
def _build_level_cached(p, alpha, beta, gamma) -> QuotientBasisLevel:
    weights = (alpha, beta, gamma)
    g1c, g2c, g3c = {}, {}, {}
    for a1 in range(p + 1):
        for a2 in range(p + 1 - a1):
            a3 = p - a1 - a2
            c = coeff_c(alpha, a1) * coeff_c(beta, a2) * coeff_c(gamma, a3)
            key = (a1, a2, a3)
            g1c[key] = c
            if a2:
                g2c[key] = a2 * c
            if a3:
                g3c[key] = a3 * c
    g1 = MonomialVector(weights, g1c)
    g2 = MonomialVector(weights, g2c)
    g3 = MonomialVector(weights, g3c)

    f1 = g1
    f2 = g1.scale(g1.inner(g2)) - g2.scale(g1.norm_sq())
    f3_tilde = g1.scale(g1.inner(g3)) - g3.scale(g1.norm_sq())
    f3 = f2.scale(f3_tilde.inner(f2)) - f3_tilde.scale(f2.norm_sq())

    e = []
    for f in (f1, f2, f3):
        n2 = f.norm_sq()
        e.append(f.scale(1.0 / np.sqrt(n2)) if n2 > 1e-300 else None)
    return QuotientBasisLevel(p=p, g=(g1, g2, g3), f=(f1, f2, f3), e=tuple(e))


# Closed forms for the level inner products, written with the diagonal
# coefficients c_n(lam); lam is the weight sum.  These are what the direct
# monomial computations in build_level are checked against.


def closed_forms(p: int, alpha: float, beta: float, gamma: float) -> dict:
    lam = alpha + beta + gamma
    return {
        "norm_f1_sq": coeff_c(lam, p),
        "inner_g1_g2": beta * coeff_c(lam + 1, p - 1),
        "inner_g1_g3": gamma * coeff_c(lam + 1, p - 1),
        "inner_g2_g3": beta * gamma * coeff_c(lam + 2, p - 2),
        "norm_f2_sq": (
            beta * (alpha + gamma) / lam * coeff_c(lam, p) ** 2 * coeff_c(lam + 2, p - 1)
        ),
        "norm_f3_sq": (
            alpha * beta ** 2 * gamma * (alpha + gamma) / lam ** 2
            * coeff_c(lam, p) ** 6 * coeff_c(lam + 2, p - 1) ** 3
        ),
    }


def level_measured(level: QuotientBasisLevel) -> dict:
    """The same six quantities computed directly from the monomial vectors."""
    g1, g2, g3 = level.g
    f1, f2, f3 = level.f
    return {
        "norm_f1_sq": f1.norm_sq(),
        "inner_g1_g2": g1.inner(g2).real,
        "inner_g1_g3": g1.inner(g3).real,
        "inner_g2_g3": g2.inner(g3).real,
        "norm_f2_sq": f2.norm_sq(),
        "norm_f3_sq": f3.norm_sq(),
    }


def quotient_kernel_partial(
    z: complex, alpha: float, beta: float, gamma: float, p_max: int = 60
) -> np.ndarray:
    """Partial sum of the diagonal quotient kernel at (z, z, z).

    Sums the rank-one contributions of the normalized level vectors for
    p <= p_max; the tail decays geometrically in |z|^2.
    """
    z = complex(z)
    if abs(z) >= 1:
        raise ValueError(f"|z| = {abs(z):.3f} is outside the unit disc")
    if p_max < 1:
        raise ValueError("need p_max >= 1")
    out = np.zeros((3, 3), dtype=complex)
    for p in range(p_max + 1):
        level = build_level(p, alpha, beta, gamma)
        for e in level.e:
            if e is None:
                continue
            col = e.jet_column_on_diagonal(z)
            out += np.outer(col, np.conj(col))
    return out


def quotient_kernel_tail_estimate(
    z: complex, alpha: float, beta: float, gamma: float, p_max: int
) -> float:
    """Crude geometric bound on the truncation error of the partial sum."""
    z = complex(z)
    q = abs(z) ** 2
    if q >= 1:
        return float("inf")
    level = build_level(p_max, alpha, beta, gamma)
    last = 0.0
    for e in level.e:
        if e is None:
            continue
        col = e.jet_column_on_diagonal(z)
        last = max(last, float(np.max(np.abs(np.outer(col, np.conj(col))))))
    # the level-p terms grow polynomially times q^p; pad the ratio a little
    ratio = min(0.999, q * (1.0 + 4.0 / max(p_max, 1)))
    return last * ratio / (1.0 - ratio)
