import itertools
import time

import pytest

from slncrystals.abacus import DominantWeight, highest_weight_config, weight
from slncrystals import checks
from slncrystals.partitions import partitions_of
from slncrystals.qseries import (
    Boundary,
    QSeries,
    Z_borodin,
    Z_bruteforce,
    Z_rep,
    boundary_of,
    dimq_crystal,
    euler_inverse,
    level_weights,
)

from helpers import all_level_coeffs, borodin_by_two_words, descending_configs


def test_euler_inverse_counts_partitions():
    s = euler_inverse(1, 12)
    for k in range(13):
        assert s.coeff(k) == sum(1 for _ in partitions_of(k))


def test_euler_inverse_scaled():
    s = euler_inverse(2, 12)
    for k in range(13):
        if k % 2:
            assert s.coeff(k) == 0
        else:
            assert s.coeff(k) == sum(1 for _ in partitions_of(k // 2))
    assert euler_inverse(99, 10) == QSeries.one(10)


def test_ring_axioms():
    a = QSeries([1, 2, 0, 1], 8)
    # multiplying by 1/(1-q^k) then by (1-q^k) is the identity
    assert a.times_inv_one_minus(3).times_one_minus(3) == a
    # 1 - q^0 = 0, and a series' truncation is its coefficient count
    assert a.times_one_minus(0) == QSeries([], 8)
    assert QSeries.__slots__ == ("coeffs",)
    assert a.nmax == 8 and a.coeffs == [1, 2, 0, 1, 0, 0, 0, 0, 0]
    assert QSeries([1, 2, 3], 1) == QSeries([1, 2]) != QSeries([1, 2, 0])


def test_dimq_leading_coefficients():
    for coeffs in all_level_coeffs(3, 2):
        s = dimq_crystal(DominantWeight(coeffs), 3, 2, 6)
        assert s.coeff(0) == 1
        assert s.coeff(1) == sum(1 for m in coeffs if m > 0)


def test_boundary_of_figure8():
    bd = boundary_of(DominantWeight((2, 3, 1)), 3, 6)
    assert bd.N == 9
    assert bd == (1, 0, 0, 1, 0, 0, 0, 1, 0)
    assert bd.A == (0, 1, 1, 0, 1, 1, 1, 0, 1)


def test_boundary_of_level_weights():
    # ell * L0: the down-steps land at 1 + ell, 2 + ell, ..., n + ell mod N
    n, ell = 3, 2
    bd = boundary_of(DominantWeight((ell, 0, 0)), n, ell)
    expect = {(a + ell) % (n + ell) for a in range(1, n + 1)}
    assert {i for i, b in enumerate(bd) if b} == expect
    for coeffs in all_level_coeffs(3, 2):
        bd = boundary_of(DominantWeight(coeffs), 3, 2)
        assert sum(bd) == 3 and sum(bd.A) == 2


def test_level_weights_in_lexicographic_order():
    # every weight once, in lexicographic order, also at a rank beyond the
    # interpreter's recursion limit
    for n, level in [(1, 3), (3, 0), (3, 2), (4, 3), (5, 4)]:
        coeffs = level_weights(n, level)
        want = [
            c for c in itertools.product(range(level + 1), repeat=n) if sum(c) == level
        ]
        assert coeffs == want
    big = level_weights(1200, 1)
    assert len(big) == 1200 and big[0] == (0,) * 1199 + (1,)


def test_boundary_of_has_n_down_steps():
    # the down-step residues of every level weight are distinct mod n + ell
    for n in range(2, 6):
        for ell in range(1, 5):
            for coeffs in all_level_coeffs(n, ell):
                bd = boundary_of(DominantWeight(coeffs), n, ell)
                assert (sum(bd), sum(bd.A)) == (n, ell)


def test_boundary_of_matches_its_definition():
    # down-steps at a + m_0 + ... + m_{a-1} mod n + ell, a = 1..n, each sum
    # taken afresh: the quadratic definition of the running sums
    for n in range(1, 6):
        for ell in range(1, 6):
            for coeffs in all_level_coeffs(n, ell):
                downs = {(a + sum(coeffs[:a])) % (n + ell) for a in range(1, n + 1)}
                want = tuple(int(r in downs) for r in range(n + ell))
                assert boundary_of(DominantWeight(coeffs), n, ell) == want


def test_boundary_of_linear_in_n():
    # summing m_0 + ... + m_{a-1} afresh for each a took 5.8 s at n = 40,000
    n = 10**6
    w = DominantWeight((1,) + (0,) * (n - 1))
    t0 = time.perf_counter()
    bd = boundary_of(w, n, 1)
    assert time.perf_counter() - t0 < 1
    # the down-steps sit at 2, ..., n + 1 mod n + 1: only 1 is an up-step
    assert bd.N == n + 1 and sum(bd) == n and bd[1] == 0


def test_boundary_bit_patterns_pinned():
    # frozen patterns guard against silent convention drift
    expected = {
        (0, 0, 2): (1, 1, 1, 0, 0),
        (0, 1, 1): (1, 1, 0, 1, 0),
        (0, 2, 0): (1, 1, 0, 0, 1),
        (1, 0, 1): (1, 0, 1, 1, 0),
        (1, 1, 0): (1, 0, 1, 0, 1),
        (2, 0, 0): (1, 0, 0, 1, 1),
    }
    for coeffs, bits in expected.items():
        assert boundary_of(DominantWeight(coeffs), 3, 2) == bits


def test_boundary_derives_length_and_up_steps():
    # a boundary is the tuple of its down-step word alone; its up-steps A
    # are the complement of the word and its length N is the word's length
    for bits in [(1,), (0, 1), (1, 1, 0), (1, 0, 0, 1, 0, 0, 0, 1, 0)]:
        bd = Boundary(bits)
        assert isinstance(bd, tuple) and bd == bits
        assert bd.N == len(bits)
        assert bd.A == tuple(1 - b for b in bits)
        assert all(a != b for a, b in zip(bd.A, bd))


def test_boundary_from_a_list_is_the_boundary_from_a_tuple():
    # the word is held as a tuple whatever sequence gives it, so the two
    # boundaries are one value and hash alike
    bd = Boundary([1, 0])
    assert bd == Boundary((1, 0)) and hash(bd) == hash(Boundary((1, 0)))
    assert Boundary.__slots__ == () and not hasattr(bd, "B")
    assert repr(bd) == "Boundary((1, 0))"


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_borodin_matches_two_word_product(n):
    # the product paired from the up- and down-step lists equals the one read
    # from both words over every index pair, on every level weight
    for ell in range(1, 5):
        for coeffs in all_level_coeffs(n, ell):
            bd = boundary_of(DominantWeight(coeffs), n, ell)
            assert Z_borodin(bd, 20) == borodin_by_two_words(bd, 20)


def test_borodin_constant_term():
    for coeffs in all_level_coeffs(3, 2):
        s = Z_borodin(boundary_of(DominantWeight(coeffs), 3, 2), 8)
        assert s.coeff(0) == 1


def test_bruteforce_first_coefficients():
    # q^1 counts the one-move descending configurations directly
    for coeffs in all_level_coeffs(3, 2):
        psi0 = highest_weight_config(coeffs, 3, 2)
        s = Z_bruteforce(psi0, 6)
        assert s.coeff(0) == 1
        direct = sum(1 for c in descending_configs(3, 2, coeffs, 1) if weight(c) == 1)
        assert s.coeff(1) == direct


def test_bruteforce_matches_enumeration():
    for coeffs in all_level_coeffs(3, 2):
        psi0 = highest_weight_config(coeffs, 3, 2)
        s = Z_bruteforce(psi0, 6)
        for k in range(7):
            direct = sum(
                1 for c in descending_configs(3, 2, coeffs, 6) if weight(c) == k
            )
            assert s.coeff(k) == direct


@pytest.mark.parametrize("n,ell", [(2, 2), (3, 1), (3, 2)])
def test_three_way_partition_function(n, ell):
    for w in level_weights(n, ell):
        psi0 = highest_weight_config(w, n, ell)
        zr = Z_rep(w, n, ell, 8)
        zb = Z_borodin(boundary_of(w, n, ell), 8)
        zf = Z_bruteforce(psi0, 8)
        assert zr == zb == zf


def test_level_one_small():
    for n in (2, 3):
        assert all(checks.level_one(w, 12) is None for w in level_weights(n, 1))


def test_rank_level_small():
    assert all(checks.rank_level(w, 8) is None for w in level_weights(2, 2))
    assert all(checks.rank_level(w, 8) is None for w in level_weights(3, 2))


def test_borodin_swapping_roles_is_reflection_symmetry():
    # exchanging up- and down-steps reverses every residue, which the product
    # does not see: this is the reflection symmetry of the cylinder
    w = DominantWeight((1, 1, 0))
    bd = boundary_of(w, 3, 2)
    zr = Z_rep(w, 3, 2, 8)
    assert Z_borodin(Boundary(bd.A), 8) == zr == Z_borodin(bd, 8)


def _borodin_k_from_two(bd, nmax):
    # deliberately wrong reading of the inner product range (k >= 2)
    s = QSeries.one(nmax)
    for e in range(bd.N, nmax + 1, bd.N):
        s = s.times_inv_one_minus(e)
    for i in range(bd.N):
        if not bd.A[i]:
            continue
        for j in range(bd.N):
            if not bd[j]:
                continue
            d0 = (i - j) % bd.N + bd.N
            for e in range(d0, nmax + 1, bd.N):
                s = s.times_inv_one_minus(e)
    return s


def test_borodin_convention_mutations_detected():
    w = DominantWeight((2, 0, 0))
    bd = boundary_of(w, 3, 2)
    zr = Z_rep(w, 3, 2, 8)
    assert Z_borodin(bd, 8) == zr
    # dropping the first inner factors shows up at the lowest degree
    mutated = _borodin_k_from_two(bd, 8)
    first_bad = next(k for k in range(9) if mutated.coeff(k) != zr.coeff(k))
    assert first_bad == 1
    # the boundary of a different weight gives a different series
    other = boundary_of(DominantWeight((1, 1, 0)), 3, 2)
    assert Z_borodin(other, 8) != zr


def test_level_weights_enumeration():
    assert len(level_weights(3, 2)) == 6
    assert all(w.level == 2 for w in level_weights(3, 2))
    assert len(level_weights(2, 2)) == 3
