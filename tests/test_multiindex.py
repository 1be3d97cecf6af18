"""Rank formula against a brute-force graded-colex enumerator."""

import itertools

import pytest

from jetmod.multiindex import (
    JetIndexTable,
    multi_binom,
    pochhammer,
    theta,
    theta_inv,
)


def colex_sorted(d, max_degree):
    """Independent enumeration: all indices of degree <= max_degree, sorted
    degree-first, then by the rightmost differing entry."""
    out = [
        alpha
        for alpha in itertools.product(range(max_degree + 1), repeat=d)
        if sum(alpha) <= max_degree
    ]
    out.sort(key=lambda a: (sum(a), tuple(reversed(a))))
    return out


def test_theta_base_values():
    assert theta((0, 0)) == 0
    assert theta((1, 0)) == 1
    assert theta((0, 1)) == 2
    assert theta((2, 0)) == 3
    assert theta((1, 1)) == 4
    assert theta((0, 2)) == 5


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_theta_is_the_graded_colex_rank(d):
    ordered = colex_sorted(d, max_degree=5)
    for rank, alpha in enumerate(ordered):
        assert theta(alpha) == rank, alpha


@pytest.mark.parametrize("d,k", [(d, k) for d in (1, 2, 3, 4) for k in range(1, 7)])
def test_bijective_on_tables_and_round_trip(d, k):
    table = JetIndexTable(d, k)
    seen = set()
    for l, alpha in enumerate(table.indices):
        assert theta(alpha) == l
        assert theta_inv(l, d) == alpha
        seen.add(alpha)
    assert len(seen) == table.N + 1


def test_theta_inv_examples():
    assert theta_inv(2, 2) == (0, 1)
    assert theta_inv(0, 5) == (0, 0, 0, 0, 0)
    assert theta_inv(4, 2) == (1, 1)


def test_enumerate_examples():
    t = JetIndexTable(2, 2)
    assert t.N == 2
    assert t.indices == ((0, 0), (1, 0), (0, 1))
    t = JetIndexTable(1, 3)
    assert t.N == 2
    assert t.indices == ((0,), (1,), (2,))
    t = JetIndexTable(3, 2)
    assert t.N == 3
    assert t.indices == ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_table_size_guard():
    with pytest.raises(ValueError, match="size"):
        JetIndexTable(40, 40)


def test_multi_binom():
    assert multi_binom((2, 1), (1, 1)) == 2
    assert multi_binom((1, 0), (0, 1)) == 0
    assert multi_binom((3, 2, 1), (3, 2, 1)) == 1
    with pytest.raises(ValueError):
        multi_binom((1, 2), (1,))


def test_pochhammer():
    assert pochhammer(2 + 1j, 1) == 2 + 1j
    assert pochhammer(3, 2) == 12
    assert pochhammer(-2, 3) == 0
    assert pochhammer(5.5, 0) == 1
    with pytest.raises(ValueError):
        pochhammer(1, -1)


def test_validation():
    with pytest.raises(ValueError):
        theta(())
    with pytest.raises(ValueError):
        theta((1, -1))
    with pytest.raises(ValueError):
        theta_inv(-1, 2)
    with pytest.raises(ValueError):
        JetIndexTable(0, 2)
