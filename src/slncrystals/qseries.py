"""Truncated q-series and the cylindric plane partition partition function.

Three independent computations of the same series are provided: Z_rep from
the graded crystal (character times a free-boson factor), Z_borodin from the
hook-type product over the cylinder boundary, and Z_bruteforce by explicit
enumeration of descending abacus configurations.  Their coefficientwise
agreement is the central consistency check of the whole package.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from .abacus import (
    DominantWeight,
    _compositions,
    _level_coeffs,
    highest_weight_config,
    is_descending,
    right_moves,
    weight,
)
from .crystal import crystal_graph


class QSeries:
    """A power series in q with exact integer coefficients through q^nmax."""

    __slots__ = ("nmax", "coeffs")

    def __init__(self, coeffs, nmax=None):
        coeffs = list(map(index, coeffs))
        if nmax is None:
            nmax = len(coeffs) - 1
        if nmax < 0:
            raise ValueError("nmax must be nonnegative")
        coeffs = coeffs[: nmax + 1]
        coeffs += [0] * (nmax + 1 - len(coeffs))
        self.nmax = nmax
        self.coeffs = coeffs

    @classmethod
    def one(cls, nmax):
        return cls([1], nmax)

    def coeff(self, k):
        if not 0 <= k <= self.nmax:
            raise IndexError("coefficient %d beyond truncation %d" % (k, self.nmax))
        return self.coeffs[k]

    def times_one_minus(self, k):
        """Multiply by (1 - q^k)."""
        out = list(self.coeffs)
        for d in range(self.nmax, k - 1, -1):
            out[d] -= self.coeffs[d - k]
        return QSeries(out, self.nmax)

    def times_inv_one_minus(self, k):
        """Multiply by the geometric series 1/(1 - q^k)."""
        if k < 1:
            raise ValueError("need k >= 1")
        out = list(self.coeffs)
        for d in range(k, self.nmax + 1):
            out[d] += out[d - k]
        return QSeries(out, self.nmax)

    def __eq__(self, other):
        return (
            isinstance(other, QSeries)
            and self.nmax == other.nmax
            and self.coeffs == other.coeffs
        )

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


@dataclass(frozen=True)
class Boundary:
    """The 0/1 boundary word of a cylinder: A up-steps, B down-steps."""

    N: int
    A: tuple
    B: tuple

    def __post_init__(self):
        if len(self.A) != self.N or len(self.B) != self.N:
            raise ValueError("A and B must have length N")
        if any(a not in (0, 1) or b not in (0, 1) for a, b in zip(self.A, self.B)):
            raise ValueError("A and B must be 0/1 sequences")
        if any(a == b for a, b in zip(self.A, self.B)):
            raise ValueError("A and B must be complementary")


def boundary_of(w, n, ell):
    """Down-steps sit at the residues a + m_0 + ... + m_{a-1}, a = 1..n."""
    coeffs = _level_coeffs(w, n, ell)
    N = n + ell
    # a + m_0 + ... + m_{a-1} rises strictly with a, from 1 + m_0 to at most
    # n + ell = N, so the n residues are distinct mod N: n down-steps
    b_positions = {(a + sum(coeffs[:a])) % N for a in range(1, n + 1)}
    B = tuple(1 if r in b_positions else 0 for r in range(N))
    A = tuple(1 - b for b in B)
    return Boundary(N, A, B)


def Z_borodin(bd, nmax):
    """The boundary hook product for the cylinder partition function."""
    N = bd.N
    s = euler_inverse(N, nmax)
    for i in range(N):
        if not bd.A[i]:
            continue
        for j in range(N):
            if not bd.B[j]:
                continue
            # Boundary makes A and B complementary, so A[i] = B[j] = 1 needs
            # i != j, and d0 lies in 1..N-1
            d0 = (i - j) % N
            for e in range(d0, nmax + 1, N):
                s = s.times_inv_one_minus(e)
    return s


def Z_bruteforce(psi0, nmax):
    """Count descending configurations over psi0 by weight, breadth-first."""
    if weight(psi0) != 0 or not is_descending(psi0):
        raise ValueError("Z_bruteforce needs a compact descending generator")
    counts = [0] * (nmax + 1)
    frontier = {psi0.key(): psi0}
    for w in range(nmax + 1):
        counts[w] = len(frontier)
        if w == nmax:
            break
        nxt = {}
        for cfg in frontier.values():
            for moved in right_moves(cfg):
                nxt[moved.key()] = moved
        frontier = nxt
    return QSeries(counts, nmax)


def level_weights(n, level):
    """All dominant weights of the given level, in lexicographic order."""
    if n < 1 or level < 0:
        raise ValueError("need n >= 1 and level >= 0")
    return [DominantWeight(c) for c in _compositions(level, n)]
