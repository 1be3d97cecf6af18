"""The order-two quotient along the diagonal of the tridisc, two ways.

Way one (brute force): per homogeneous degree, build the three spanning
vectors of the quotient as arrays over the weighted monomials of that
degree, and add their jet columns on the diagonal, weighted by the
inverse of the level's Gram matrix.

Way two (jets): pull the product kernel back by an affine chart that
flattens the diagonal, and extract the 3 x 3 grid of transverse kernel
derivatives at a point of the flattened diagonal.

The two matrices agree to working precision: the quotient by the
functions vanishing to order two on the diagonal is the restricted jet
kernel.
"""

import numpy as np

from jetmod import (
    builtin_bergman,
    build_level,
    closed_forms,
    diagonal_chart,
    jet_kernel,
    level_measured,
    pullback_affine,
    quotient_kernel_partial,
)

a, b, g = 1.3, 0.8, 2.1
lam = a + b + g
print(f"weights ({a}, {b}, {g})")

print("\nper-level closed forms vs direct monomial inner products:")
print(f"{'p':>3} {'norm_f1_sq':>14} {'norm_f2_sq':>14} {'norm_f3_sq':>16} {'max rel err':>12}")
for p in range(6):
    meas = level_measured(build_level(p, a, b, g))
    forms = closed_forms(p, a, b, g)
    err = max(
        abs(meas[key] - val) / max(1.0, abs(val)) for key, val in forms.items()
    )
    print(f"{p:>3} {forms['norm_f1_sq']:>14.6g} {forms['norm_f2_sq']:>14.6g} "
          f"{forms['norm_f3_sq']:>16.6g} {err:>12.2e}")

z = 0.3 + 0.25j
oracle = quotient_kernel_partial(z, a, b, g, p_max=60)

chart = diagonal_chart(3, style="anchored")
pulled = pullback_affine(builtin_bergman([a, b, g]), chart)
point = np.array([0, 0, z])
jets = jet_kernel(pulled, d=2, k=2, z0=point, w0=point).as_matrix()

print(f"\nquotient kernel at the diagonal point z = {z}:")
print("orthonormal-level partial sum (p <= 60):")
print(np.round(oracle.real, 8))
print("jet kernel through the flattening chart:")
print(np.round(jets.real, 8))
print("max entrywise deviation:", float(np.max(np.abs(oracle - jets))))

r2 = abs(z) ** 2
print("\nselected closed-form entries:")
print("  (1,1) =", (1 - r2) ** -lam)
print("  (2,3) =", a * b * r2 * (1 - r2) ** -(lam + 2))
