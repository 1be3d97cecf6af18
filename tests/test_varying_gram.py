"""Normalized Gram jets over only the variables their readers differentiate in.

Setting the displacements a reader never differentiates in to zero is a
ring homomorphism of truncated series, so a Gram jet held in fewer
variables must equal the full 2m-variable one, bit for bit, at the ranks
its monomials embed to, and every reader must give the same bytes.
"""

import numpy as np
import pytest

from jetmod import geometry
from jetmod.equivalence import invariant_array
from jetmod.geometry import (
    curvature_covariant_derivs,
    gram_jet,
    normalize_at,
    transport_maps,
    transverse_blocks,
)
from jetmod.jets import embedding
from jetmod.kernels import builtin_bergman, diagonal_chart, pullback_affine
from jetmod.multiindex import JetIndexTable
from util import coupled_rank2_kernel, rand_point


def normalized(m, r, seed=0):
    """A normalized kernel that couples its variables: rank r, pulled back by
    the pairwise diagonal chart of D^m, normalized at the chart origin."""
    rng = np.random.default_rng([seed, m, r])
    spec = (builtin_bergman(0.5 + 3.0 * rng.random(m)) if r == 1
            else coupled_rank2_kernel(rng, m=m))
    return normalize_at(pullback_affine(spec, diagonal_chart(m)), np.zeros(m))


def on_z(m, d, count, seed=1):
    """count points with their first d (transverse) coordinates zero."""
    rng = np.random.default_rng([seed, m, d, count])
    points = np.array([rand_point(rng, m) for _ in range(count)])
    points[:, :d] = 0
    return points


CASES = [(m, d) for m in (2, 3, 4) for d in range(1, m + 1)]


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("m, d", CASES)
def test_reduced_jet_equals_full_at_embedded_ranks(m, d, r):
    norm = normalized(m, r)
    for batch in (1, 3):
        points = on_z(m, d, batch)
        for trunc in range(5):
            full = gram_jet(norm, points, trunc)
            assert full.variables == tuple(range(2 * m))
            for vary_w in (d, m):
                g = gram_jet(norm, points, trunc, d, vary_w)
                assert g.variables == (*range(d), *range(m, m + vary_w))
                assert g.jet.ctx.num_vars == d + vary_w
                ranks = embedding(g.jet.ctx, full.jet.ctx, tuple(g.variables))
                assert np.array_equal(g.jet.c, full.jet.c[..., ranks])


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("m, d", [(2, 1), (3, 1), (3, 2), (3, 3), (4, 2)])
def test_readers_byte_equal_on_reduced_jet(m, d, r):
    norm = normalized(m, r, seed=2)
    points = on_z(m, d, 3, seed=3)
    for k in (2, 3):
        trunc = max(2 * (k - 1), k, 2)
        full = gram_jet(norm, points, trunc)
        g = gram_jet(norm, points, trunc, d, m)
        tables = gram_jet(norm, points, trunc, d, d)
        idx = JetIndexTable(d, k)
        want = transverse_blocks(full, idx)
        assert transverse_blocks(tables, idx).tobytes() == want.tobytes()
        assert transverse_blocks(g, idx).tobytes() == want.tobytes()
        assert transverse_blocks(full.jet, idx).tobytes() == want.tobytes()
        keys, blocks = curvature_covariant_derivs(full, d, trunc - 2)
        got_keys, got = curvature_covariant_derivs(g, d, trunc - 2)
        assert got_keys == keys and got.tobytes() == blocks.tobytes()
        want = transport_maps(full, d, k)
        assert transport_maps(g, d, k).tobytes() == want.tobytes()


def test_extract_reads_held_variables():
    norm = normalized(3, 2)
    point = on_z(3, 1, 1)[0]
    full, g = gram_jet(norm, point, 3), gram_jet(norm, point, 3, 1, 3)
    for alpha, beta in [((), ()), ((2,), ()), ((1,), (0, 1)), ((), (1, 0, 2))]:
        assert g.extract(alpha, beta).tobytes() == full.extract(alpha, beta).tobytes()


class TestRefusal:
    def test_transport_needs_tangential_conj_variables(self):
        norm = normalized(3, 2)
        g = gram_jet(norm, on_z(3, 2, 2), 3, 2, 2)
        with pytest.raises(ValueError, match=r"does not hold the displacement of conj\(z3\)"):
            transport_maps(g, 2, 3)

    def test_curvature_needs_transverse_variables(self):
        g = gram_jet(normalized(3, 1), on_z(3, 1, 1), 3, 1, 3)
        with pytest.raises(ValueError, match=r"displacement of z2"):
            curvature_covariant_derivs(g, 2, 1)

    @pytest.mark.parametrize("alpha, beta, name", [((0, 1), (), "z2"), ((), (0, 0, 1), r"conj\(z3\)")])
    def test_extract_of_an_unheld_variable(self, alpha, beta, name):
        g = gram_jet(normalized(3, 1), on_z(3, 1, 1), 2, 1, 2)
        with pytest.raises(ValueError, match=f"does not hold the displacement of {name}$"):
            g.extract(alpha, beta)

    def test_malformed_rows(self):
        g = gram_jet(normalized(2, 1), on_z(2, 1, 1), 2)
        with pytest.raises(ValueError, match="width 4"):
            g.held([(1, 0, 0)])
        with pytest.raises(ValueError, match="non-negative"):
            g.jet.derivatives(g.held([(0, -1, 1, 0)]))


@pytest.mark.parametrize("bundle_data, k, width", [
    (False, 3, lambda m, d: 2 * d),
    (True, 3, lambda m, d: d + m),
    (False, 4, lambda m, d: 2 * d),
])
@pytest.mark.parametrize("r", [1, 2])
def test_invariant_array_context(bundle_data, k, width, r, monkeypatch):
    seen = []
    evaluate = geometry.gram_jet

    def recording(*args, **kwargs):
        g = evaluate(*args, **kwargs)
        seen.append((g.jet.ctx.num_vars, g.jet.ctx.trunc, g.jet.ctx.size))
        return g

    monkeypatch.setattr(geometry, "gram_jet", recording)
    m, d = 3, 2
    spec = (builtin_bergman([1.0, 2.0, 3.0]) if r == 1
            else coupled_rank2_kernel(np.random.default_rng(4), m=3))
    invariant_array(spec, diagonal_chart(3), k, samples=on_z(m, d, 2), bundle_data=bundle_data)
    trunc = max(2 * (k - 1), k, 2)
    assert [s[:2] for s in seen] == [(width(m, d), trunc)]
    if k == 4 and not bundle_data:
        assert seen[0][2] == 210  # the full (6, 6) context has 924
