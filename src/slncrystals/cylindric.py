"""Cylindric plane partitions and their crystal structure.

A cylindric plane partition of type (n, ell) is stored diagonal-major: ell
charged partitions pi_0..pi_{ell-1}, where pi_i starts at column profile[i]
and the array repeats via pi(i + ell, j - n) = pi(i, j).  Diagonal i of the
array is the conjugate of row i of the matching abacus configuration, and
profile[i] is that row's charge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, count, takewhile
from operator import ge, index

from .abacus import (
    DominantWeight,
    _charge_weight,
    _config,
    _level_coeffs,
    is_descending,
)
from .crystal import signature_reduce
from .partitions import Partition, _bead_row, _hop, _json_int, _json_ints


@dataclass(frozen=True)
class CylindricPlanePartition:
    n: int
    ell: int
    profile: tuple  # profile[i] = first defined column of diagonal i
    rows: tuple  # rows[i] = Partition of the entries of diagonal i

    def __post_init__(self):
        # one form, so that a cylinder built from lists or from tuples is
        # one value, with one hash
        n, ell = index(self.n), index(self.ell)
        profile, rows = tuple(map(index, self.profile)), tuple(self.rows)
        if n < 1 or ell < 1:
            raise ValueError("need n >= 1 and ell >= 1")
        if len(profile) != ell or len(rows) != ell:
            raise ValueError("profile and rows must have length ell")
        for i, row in enumerate(rows):
            if not isinstance(row, Partition):
                raise TypeError("row %d is not a Partition: %r" % (i, row))
        vars(self).update(n=n, ell=ell, profile=profile, rows=rows)

    def entry(self, i, j):
        """The entry at diagonal i, column j (0 on defined empty cells)."""
        q, r = divmod(i, self.ell)
        w = j + q * self.n - self.profile[r]
        if w < 0:
            raise ValueError("entry (%d, %d) is outside the boundary" % (i, j))
        return self.rows[r].part(w + 1)

    def to_json(self):
        return {
            "n": self.n,
            "ell": self.ell,
            "profile": list(self.profile),
            "rows": [r.to_json() for r in self.rows],
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            _json_int(data["n"], "n"),
            _json_int(data["ell"], "ell"),
            _json_ints(data["profile"], "profile"),
            tuple(Partition.from_json(r) for r in data["rows"]),
        )


def _cpp(n, ell, profile, rows):
    """A CylindricPlanePartition built unchecked: its fields are set in its
    __dict__, past the frozen dataclass's __init__ and __post_init__, for
    cylinders whose n, ell, profile and rows (ell Partitions) are valid by
    construction."""
    pi = object.__new__(CylindricPlanePartition)
    vars(pi).update(n=n, ell=ell, profile=profile, rows=rows)
    return pi


def is_valid_cpp(pi):
    """The interlacing rule between neighbouring diagonals.

    For each i let d = profile[i] - profile[i + 1], where the wrap pair's
    profile[ell] is profile[0] - n.  On column profile[i] + w diagonal i
    holds its part w + 1 and diagonal i + 1 its part w + d + 1 (zero past
    the end).  So pi is valid iff every d >= 0 and diagonal i + 1 from part
    d + 1 on is no longer than diagonal i and at most it part by part.
    """
    profile, rows = pi.profile, pi.rows
    top = pi.ell - 1
    for i, row in enumerate(rows):
        if i < top:
            d, upper = profile[i] - profile[i + 1], rows[i + 1]
        else:
            d, upper = profile[i] - profile[0] + pi.n, rows[0]
        if d < 0:
            return False
        low, tail = row, upper[d:]
        if len(tail) > len(low) or not all(map(ge, low, tail)):
            return False
    return True


def from_abacus(psi):
    """The cylindric plane partition of a descending configuration.

    Diagonal i is the conjugate of row i's partition, charged by the row's
    charge; equivalently entry (i, j) counts the beads to the right of the
    appropriate white bead of row i.
    """
    if not is_descending(psi):
        raise ValueError("from_abacus needs a descending configuration")
    rows = tuple([p.conjugate() for _, p in psi.rows])
    return _cpp(psi.n, psi.ell, psi.charges(), rows)


def to_abacus(pi):
    """Inverse of from_abacus.  The result is descending: `is_valid_cpp`'s
    rule on diagonals is the conjugate of `is_descending`'s on rows.  Its
    rows, BeadRows of the conjugates of checked diagonals, are valid by
    construction, so `abacus._config` builds it unchecked."""
    if not is_valid_cpp(pi):
        raise ValueError("not a valid cylindric plane partition")
    rows = (_bead_row(c, lam.conjugate()) for c, lam in zip(pi.profile, pi.rows))
    return _config(pi.n, pi.ell, tuple(rows))


def hw_of_cpp(pi):
    """m_i counts the diagonals whose first entry lies on a column = i mod n."""
    return _charge_weight(pi.profile, pi.n)


def cpp_weight(pi):
    """Sum of the entries over one period."""
    return sum(r.size for r in pi.rows)


# ---------------------------------------------------------------------------
# the box model


def cpp_brackets(pi, i):
    """"(" per color-i addable box and ")" per color-i removable box, as
    ("(" or ")", (x, y)), ordered by t = n*x/ell + y - z.

    Box (x, y, z) lies on diagonal x, column y, at height z, and has color
    y - z + 1 mod n.  Along a diagonal, a part that differs from the part
    before it has an addable box on top, and the part before it has a
    removable one.  Each box is keyed by ell*t = n*x + ell*(y - z).
    """
    n, ell, i = pi.n, pi.ell, i % pi.n
    tokens = []
    for x, (start, parts) in enumerate(zip(pi.profile, pi.rows)):
        prev = None
        for y, cur in enumerate(parts + (0,), start):
            if cur != prev:
                if (y - cur) % n == i:  # the addable box (x, y, cur + 1)
                    tokens.append((n * x + ell * (y - cur - 1), ("(", (x, y))))
                if prev is not None and (y - prev) % n == i:  # (x, y - 1, prev)
                    tokens.append((n * x + ell * (y - 1 - prev), (")", (x, y - 1))))
            prev = cur
    keyed = dict(tokens)
    if len(keyed) != len(tokens):
        raise AssertionError("t values collide on addable/removable boxes")
    return [keyed[k] for k in sorted(keyed)]


def f_cpp(pi, i):
    """Add the box at the first uncanceled "(", or None."""
    first_open, _ = signature_reduce(cpp_brackets(pi, i))
    return _with_box(pi, first_open, +1)


def e_cpp(pi, i):
    """Remove the box at the last uncanceled ")", or None."""
    _, last_close = signature_reduce(cpp_brackets(pi, i))
    return _with_box(pi, last_close, -1)


def _with_box(pi, box, delta):
    """pi with the box on diagonal x, column y added (delta +1) or removed
    (delta -1); None for no box.  The box raises or lowers part
    y - profile[x] + 1 of diagonal x by one: an addable box may open a
    part, a removable one empty it.  Either way the diagonal stays a
    partition, so it is built unchecked; `is_valid_cpp` checks that the
    image is still a cylinder."""
    if box is None:
        return None
    x, y = box
    rows = list(pi.rows)
    rows[x] = Partition._trusted(_hop(rows[x], y - pi.profile[x] + 1, delta))
    out = _cpp(pi.n, pi.ell, pi.profile, tuple(rows))
    if not is_valid_cpp(out):
        name = "f_cpp" if delta > 0 else "e_cpp"
        raise ValueError("%s left the set of cylindric plane partitions" % name)
    return out


# ---------------------------------------------------------------------------
# reflection and rank-level duality


def reflect(pi):
    """Transpose the cylinder, swapping the roles of (n, ell).

    Diagonals become columns and vice versa; the total weight over one period
    is preserved.  Diagonal r + q*ell starts at column profile[r] - q*n, and
    these starts fall weakly as the diagonal rises, so column j's first
    diagonal is the least r + q*ell with profile[r] - q*n <= j; the column
    reads down from it to its first zero.
    """
    if not is_valid_cpp(pi):
        raise ValueError("reflect needs a valid cylindric plane partition")
    n, ell = pi.n, pi.ell
    new_profile = []
    new_rows = []
    for j in range(n):
        i = min(r - ell * ((j - p) // n) for r, p in enumerate(pi.profile))
        new_profile.append(i)
        column = (pi.entry(k, j) for k in count(i))
        new_rows.append(Partition(takewhile(bool, column)))
    out = CylindricPlanePartition(ell, n, tuple(new_profile), tuple(new_rows))
    if not is_valid_cpp(out):
        raise ValueError("reflect gave an invalid cylindric plane partition")
    return out


def dual_weight(w, n, ell):
    """The level-n weight of the reflected cylinder.

    For w = sum c_i Lambda_i of level ell, the dual collects one fundamental
    weight Lambda'_{c_i + c_{i+1} + ... + c_{n-1}} per i, indices mod ell.
    """
    coeffs = _level_coeffs(w, n, ell)
    out = [0] * ell
    # the suffix sums c_i + ... + c_{n-1}, as running sums from the top
    for s in accumulate(reversed(coeffs)):
        out[s % ell] += 1
    return DominantWeight(out)


def render_text(pi):
    """Plain text: one line per diagonal, its first column, then its entries."""
    lines = []
    for i in range(pi.ell):
        cells = "".join("%4d" % v for v in pi.rows[i])
        lines.append("pi_%d @%d |%s" % (i, pi.profile[i], cells))
    return "\n".join(lines) + "\n"
