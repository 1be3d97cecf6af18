"""Curvature of kernel bundles, straight from the kernel expression.

The Gram matrix H(z) = K(z, z) of the point-evaluation frame carries the
bundle metric; its curvature blocks are dbar_j(d_i H . H^{-1}), read off a
jet of H built once by ``gram_jet``.  For the weighted disc kernel (1 - z wbar)^(-lam) the curvature
is lam / (1 - |z|^2)^2, and scaling the kernel by |psi(z)|^2 for a
non-vanishing holomorphic psi does not move it at all.
"""

import numpy as np

from jetmod import builtin_bergman, curvature, gauge_scale, gram_jet, parse_kernel
from jetmod.kernels import BinOp, Num, Var

lam = 2.3
disc = builtin_bergman([lam])
print(f"weighted disc kernel, weight {lam}")
for z in (0.0, 0.3, 0.5 + 0.2j):
    got = curvature(gram_jet(disc, [z])).entries[0, 0, 0, 0].real
    expect = lam / (1 - abs(z) ** 2) ** 2
    print(f"  curvature at z={z}: {got:.10f}   closed form: {expect:.10f}")

print("\ngauge invariance: K -> psi(z) K conj(psi(w)) with psi = 2 + 0.3 z1")
psi = BinOp("+", Num(2.0), BinOp("*", Num(0.3), Var("z", 1)))
scaled = gauge_scale(disc, psi)
for z in (0.1, 0.4j):
    a = curvature(gram_jet(disc, [z])).entries[0, 0, 0, 0].real
    b = curvature(gram_jet(scaled, [z])).entries[0, 0, 0, 0].real
    print(f"  z={z}: plain {a:.12f}  rescaled {b:.12f}  diff {abs(a-b):.2e}")

print("\na rank-2 kernel from the text format:")
text = """
m = 1
r = 2
K[1][1] = (1 - z1*wb1)^-1
K[1][2] = 0
K[2][1] = 0
K[2][2] = (1 - z1*wb1)^-2
"""
spec = parse_kernel(text)
g = gram_jet(spec, [0.2], trunc=2)
c = curvature(g)
print("  curvature block at z=0.2:\n", np.round(c.entries[0, 0], 8))
print("  self-adjointness defect:", c.selfadjoint_defect())

print("\nthe second-derivative identity of the Gram matrix:")
print("  dbar d H - H*curv - dbar H . H^-1 . d H should vanish:")
h = g.extract()
resid = (
    g.extract(alpha=(1,), beta=(1,))
    - h @ c.entries[0, 0]
    - g.extract(beta=(1,)) @ np.linalg.inv(h) @ g.extract(alpha=(1,))
)
print("  residual:", float(np.max(np.abs(resid))))
