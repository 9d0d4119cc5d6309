"""Truncated q-series and the cylindric plane partition partition function.

Three independent computations of the same series are provided: Z_rep from
the graded crystal (character times a free-boson factor), Z_borodin from the
hook-type product over the cylinder boundary, and Z_bruteforce by explicit
enumeration of descending abacus configurations.  Their coefficientwise
agreement is the central consistency check of the whole package.
"""

from __future__ import annotations

from itertools import accumulate
from operator import index

from .abacus import (
    DominantWeight,
    _check_generator,
    _compositions,
    _level_coeffs,
    highest_weight_config,
    right_moves,
)
from .crystal import crystal_graph


class QSeries:
    """A power series in q with exact integer coefficients through q^nmax,
    nmax being one less than the number of coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, nmax=None):
        coeffs = list(map(index, coeffs))
        if nmax is None:
            nmax = len(coeffs) - 1
        if nmax < 0:
            raise ValueError("nmax must be nonnegative")
        self.coeffs = coeffs[: nmax + 1] + [0] * (nmax + 1 - len(coeffs))

    @property
    def nmax(self):
        return len(self.coeffs) - 1

    @classmethod
    def one(cls, nmax):
        return cls([1], nmax)

    def coeff(self, k):
        if not 0 <= k <= self.nmax:
            raise IndexError("coefficient %d beyond truncation %d" % (k, self.nmax))
        return self.coeffs[k]

    def times_one_minus(self, k):
        """Multiply by (1 - q^k); k = 0 gives the zero series."""
        if k < 0:
            raise ValueError("need k >= 0")
        out = list(self.coeffs)
        for d in range(len(out) - 1, k - 1, -1):
            out[d] -= self.coeffs[d - k]
        return QSeries(out)

    def times_inv_one_minus(self, k):
        """Multiply by the geometric series 1/(1 - q^k)."""
        if k < 1:
            raise ValueError("need k >= 1")
        out = list(self.coeffs)
        for d in range(k, len(out)):
            out[d] += out[d - k]
        return QSeries(out)

    def __eq__(self, other):
        return isinstance(other, QSeries) and self.coeffs == other.coeffs

    def __repr__(self):
        return "QSeries(%r)" % (self.coeffs,)


def euler_inverse(m, nmax):
    """prod_{k >= 1} 1/(1 - q^{mk}), truncated: the partition series in q^m."""
    if m < 1:
        raise ValueError("need m >= 1")
    s = QSeries.one(nmax)
    for e in range(m, nmax + 1, m):
        s = s.times_inv_one_minus(e)
    return s


def dimq_crystal(w, n, ell, nmax):
    """Principal-graded dimensions of the irreducible crystal, as a series."""
    psi0 = highest_weight_config(w, n, ell)
    graph = crystal_graph(psi0, nmax)
    return QSeries(graph.layer_sizes(), nmax)


def Z_rep(w, n, ell, nmax):
    """dim_q of the irreducible crystal times the free partition factor
    prod_{k >= 1} 1/(1 - q^{nk}), one geometric series at a time, as
    euler_inverse builds it."""
    s = dimq_crystal(w, n, ell, nmax)
    for e in range(n, nmax + 1, n):
        s = s.times_inv_one_minus(e)
    return s


class Boundary(tuple):
    """The 0/1 boundary word of a cylinder, 1 at its down-steps: its
    up-steps A (the complement) and its length N are read off the word."""

    __slots__ = ()

    def __new__(cls, word):
        word = tuple(map(index, word))
        if not word or any(b not in (0, 1) for b in word):
            raise ValueError("B must be a nonempty 0/1 word, not %r" % (word,))
        return tuple.__new__(cls, word)

    N = property(len)

    @property
    def A(self):
        return tuple(1 - b for b in self)

    def __repr__(self):
        return "Boundary(%r)" % (tuple(self),)


def boundary_of(w, n, ell):
    """Down-steps sit at the residues a + m_0 + ... + m_{a-1}, a = 1..n."""
    coeffs = _level_coeffs(w, n, ell)
    N = n + ell
    # a + m_0 + ... + m_{a-1} rises strictly with a, from 1 + m_0 to at most
    # n + ell = N, so the n residues are distinct mod N: n down-steps.  The
    # prefix sums m_0 + ... + m_{a-1} are running sums, so this is linear in n
    b_positions = {(a + s) % N for a, s in enumerate(accumulate(coeffs), 1)}
    return Boundary(1 if r in b_positions else 0 for r in range(N))


def Z_borodin(bd, nmax):
    """The boundary hook product for the cylinder partition function."""
    N = bd.N
    ups = [i for i, a in enumerate(bd.A) if a]
    downs = [j for j, b in enumerate(bd) if b]
    s = euler_inverse(N, nmax)
    for i in ups:
        for j in downs:
            # an up-step and a down-step sit at different positions, so the
            # first exponent (i - j) % N lies in 1..N-1
            for e in range((i - j) % N, nmax + 1, N):
                s = s.times_inv_one_minus(e)
    return s


def Z_bruteforce(psi0, nmax):
    """Count descending configurations over psi0 by weight, breadth-first.
    `_check_generator` asks that psi0 be compact and descending and nmax
    nonnegative."""
    _check_generator(psi0, nmax, "Z_bruteforce")
    counts, frontier = [1], {psi0}
    while len(counts) <= nmax:
        frontier = {moved for cfg in frontier for moved in right_moves(cfg)}
        counts.append(len(frontier))
    return QSeries(counts, nmax)


def level_weights(n, level):
    """All dominant weights of the given level, in lexicographic order."""
    if n < 1 or level < 0:
        raise ValueError("need n >= 1 and level >= 0")
    return [DominantWeight(c) for c in _compositions(level, n)]
