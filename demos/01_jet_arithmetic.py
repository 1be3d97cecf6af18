"""Truncated power-series arithmetic: the engine under everything else.

Every derivative this package ever takes is a Taylor coefficient of a
truncated multivariate series.  This script walks through the basic
operations and shows that familiar calculus identities fall out of the
coefficient arithmetic.
"""

import numpy as np

from jetmod import JetSeries, series_context

# A context fixes the number of variables and the truncation order; series
# within one context share index and convolution tables.
ctx = series_context(num_vars=2, trunc=4)
x = JetSeries.variable(ctx, 0)
y = JetSeries.variable(ctx, 1)
one = JetSeries.constant(ctx, 1.0)

print("geometric series: 1/(1-x) to order 4")
print("  coefficients of x^n:", [np.round(
    (one - x).recip().coeff((n, 0)).real, 12) for n in range(5)])

lam = 1.7
p = (one - x * y).power(-lam)
print(f"\nbinomial series: (1 - xy)^(-{lam})")
print("  coefficient of (xy)^n vs rising factorial / n!:")
value = 1.0
for n in range(3):
    print(f"    n={n}: {p.coeff((n, n)).real:.12f} vs {value:.12f}")
    value *= (lam + n) / (n + 1)

print("\nderivatives are factorial-scaled coefficients:")
e_xy = (x * y).exp()
print("  d^2/dxdy exp(xy) at 0 =", e_xy.extract((1, 1)).real)

print("\nlog/exp round trip on 2 + x + y^2:")
a = JetSeries.constant(ctx, 2.0) + x + y * y
rt = a.log().exp()
print("  max coefficient deviation:", float(np.max(np.abs(a.c - rt.c))))

print("\nthe product (x + y) * (x + y) expands the binomial (x + y)^2:")
sq = (x + y) * (x + y)
print("  x^2, xy, y^2 coefficients:",
      sq.coeff((2, 0)).real, sq.coeff((1, 1)).real, sq.coeff((0, 2)).real)
