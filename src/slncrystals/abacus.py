"""Multi-row abacus configurations for a fixed pair (n, ell).

An AbacusConfig holds ell bead rows (index 0 at the bottom).  Row indices
extend to all integers through the wrap rule: row i + ell is row i with every
bead shifted n slots to the left.  A configuration is descending when each
extended row dominates the next one bead-by-bead; these are the
configurations in bijection with cylindric plane partitions.

The tightening operator tighten(psi, k) slides the k-th bead of every row
down one row (the top row's bead wrapping to the bottom, n slots further
left); loosen is its inverse.  Tight configurations, those admitting no
tightening at all, form the irreducible highest weight crystal.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import index

from .partitions import (
    BeadRow,
    Partition,
    _bead_row,
    _json_int,
    _set_slots,
    add_ribbon,
    partitions_of,
    remove_ribbon,
)


class DominantWeight(tuple):
    """Sum m_i * Lambda_i, the tuple of its nonnegative coefficients
    m_0..m_{n-1}."""

    __slots__ = ()

    def __new__(cls, coeffs):
        if type(coeffs) is DominantWeight:  # checked when it was built
            return coeffs
        coeffs = tuple(map(index, coeffs))
        if any(c < 0 for c in coeffs):
            raise ValueError("dominant weight needs nonnegative coefficients")
        return tuple.__new__(cls, coeffs)

    n = property(len)
    level = property(sum)

    def rotated(self, k):
        """Relabel Lambda_i -> Lambda_{i+k} (cyclic color rotation)."""
        n = self.n
        out = [0] * n
        for i, c in enumerate(self):
            out[(i + k) % n] += c
        return DominantWeight(out)

    def __repr__(self):
        return "DominantWeight(%r)" % (tuple(self),)

    def __str__(self):
        terms = []
        for i, c in enumerate(self):
            if c == 0:
                continue
            terms.append(("L%d" % i) if c == 1 else ("%d*L%d" % (c, i)))
        return "+".join(terms) if terms else "0"


@dataclass(frozen=True, slots=True)
class AbacusConfig:
    n: int
    ell: int
    rows: tuple  # of BeadRow, index 0 = bottom
    # the bracket rules' memos (see crystal): None until a rule fills one,
    # and no part of ==, hash, repr, copy or pickle
    _gap_signatures: tuple = field(default=None, init=False, repr=False, compare=False)
    _set_signatures: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # one form, so that a configuration built from a list of rows or
        # from a tuple is one value, with one hash
        n, ell, rows = index(self.n), index(self.ell), tuple(self.rows)
        if n < 1 or ell < 1:
            raise ValueError("need n >= 1 and ell >= 1")
        if len(rows) != ell:
            raise ValueError("expected %d rows" % ell)
        for i, row in enumerate(rows):
            if not (isinstance(row, BeadRow) and isinstance(row.partition, Partition)):
                raise TypeError("row %d is not a BeadRow of a Partition: %r" % (i, row))
        _set_n(self, n)
        _set_ell(self, ell)
        _set_rows(self, rows)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, without the memos
        return (AbacusConfig, (self.n, self.ell, self.rows))

    def replace_row(self, r, new_row):
        """The configuration with rows[r] = new_row, r a list index.

        n, ell and the row count do not change, so the result skips the
        checks of __post_init__.
        """
        rows = list(self.rows)
        rows[r] = new_row
        return _config(self.n, self.ell, tuple(rows))

    def charges(self):
        return tuple(r.charge for r in self.rows)

    def max_bead_index(self):
        """Largest j such that some row's j-th bead is off its vacuum slot."""
        return max(len(r.partition) for r in self.rows)

    def label(self):
        """Compact deterministic string, bottom row first."""
        return "|".join(
            "%d:%s" % (r.charge, ",".join(map(str, r.partition)))
            for r in self.rows
        )

    def to_json(self):
        return {"n": self.n, "ell": self.ell, "rows": [r.to_json() for r in self.rows]}

    @classmethod
    def from_json(cls, data):
        return cls(
            _json_int(data["n"], "n"),
            _json_int(data["ell"], "ell"),
            tuple(BeadRow.from_json(r) for r in data["rows"]),
        )


_set_n = AbacusConfig.n.__set__
_set_ell = AbacusConfig.ell.__set__
_set_rows = AbacusConfig.rows.__set__
_set_gap_memo = AbacusConfig._gap_signatures.__set__
_set_set_memo = AbacusConfig._set_signatures.__set__


def _config(n, ell, rows):
    """An AbacusConfig built unchecked: its slots are set directly, past
    the frozen dataclass's __init__ and __post_init__, for configurations
    that are valid by construction (ell rows of BeadRows of Partitions, n
    and ell positive).  Its memos are None, their declared default."""
    psi = object.__new__(AbacusConfig)
    _set_n(psi, n)
    _set_ell(psi, ell)
    _set_rows(psi, rows)
    _set_gap_memo(psi, None)
    _set_set_memo(psi, None)
    return psi


def is_descending(psi):
    """True iff every extended row dominates the next one.

    Bead j of a row of charge c sits at slot part(j) - j + c, so row i
    dominates the extended row i + 1, of charge d (n less for the wrap from
    the top row to the bottom one), iff part(j) of row i minus part(j) of
    row i + 1 is at least d - c for every j.  Beyond the parts of both rows
    this says d - c <= 0, and then it holds beyond the parts of row i + 1.

    In column form: with w(k)_i = part k of row i plus its charge, which is
    `_set_slots(rows, k)[i] + k`, and sigma(w) = (w_1, ..., w_{ell-1},
    w_0 - n), the column moved one extended row down, psi is descending iff
    sigma(w(k)) <= w(k) coordinatewise for every k >= 1, including the
    column of charges beyond the parts.
    """
    rows = psi.rows
    for i, lower in enumerate(rows):
        wrap = i + 1 == psi.ell
        upper = rows[0] if wrap else rows[i + 1]
        shift = upper.charge - lower.charge - (psi.n if wrap else 0)
        if shift > 0:
            return False
        low = lower.partition
        for j, u in enumerate(upper.partition):
            if (low[j] if j < len(low) else 0) - u < shift:
                return False
    return True


def compactify(psi):
    """Push all beads fully left on each row (charges are preserved)."""
    return AbacusConfig(
        psi.n, psi.ell, tuple(BeadRow.vacuum(r.charge) for r in psi.rows)
    )


def weight(psi):
    """Number of one-slot left moves needed to reach the compactification."""
    return sum(r.partition.size for r in psi.rows)


def _fits(psi, k, m):
    """True iff bead set k >= 1, moved m extended rows down, lies strictly
    right of bead set k+1: the k-th bead of extended row i + m is right of
    the (k+1)-st bead of row i, for every row i.

    Bead j of a row of charge c sits at slot part(j) - j + c, and extended
    row i + m is row r = (i + m) mod ell shifted n*q slots left, with q =
    floor((i + m) / ell).  So row i asks that part k of row r plus its
    charge, less n*q, be at least part k + 1 of row i plus its charge.
    In the column form of `is_descending`, that is w(k+1) <= sigma^m(w(k))
    coordinatewise.
    """
    n, ell, rows = psi.n, psi.ell, psi.rows
    for i, row in enumerate(rows):
        q, r = divmod(i + m, ell)
        src = rows[r]
        a, b = src.partition, row.partition
        incoming = (a[k - 1] if k <= len(a) else 0) + src.charge - n * q
        if incoming < (b[k] if k < len(b) else 0) + row.charge:
            return False
    return True


def _shift_bead_set(psi, k, m):
    """Move bead set k m extended rows down: row i takes the k-th bead of
    extended row i + m (m < 0 moves it up).

    With a[r] the slot of bead k of row r (`_set_slots`), row i's bead
    moves by a[r] - n*q - a[i], (q, r) as in `_fits`.
    `BeadRow.move_bead` checks each move.
    """
    if k < 1:
        raise ValueError("bead index must be positive")
    n, ell, rows = psi.n, psi.ell, psi.rows
    a = _set_slots(rows, k)
    moved = []
    for i, row in enumerate(rows):
        q, r = divmod(i + m, ell)
        moved.append(row.move_bead(k, a[r] - n * q - a[i]))
    return _config(n, ell, tuple(moved))


def tighten(psi, k):
    """Slide the k-th bead of every row down one row, or None if blocked.

    psi must be descending.  Then T_k is defined exactly when every row's
    incoming bead stays strictly right of that row's (k+1)-st bead; on
    another configuration a slide can name a move that `BeadRow.move_bead`
    refuses with ValueError.
    """
    if k < 1:
        raise ValueError("bead index must be positive")
    return _shift_bead_set(psi, k, 1) if _fits(psi, k, 1) else None


def loosen(psi, k):
    """Slide the k-th bead of every row up one row; inverse of tighten.

    psi must be descending.  Then it is defined when each row's incoming
    bead stays strictly left of that row's (k-1)-st bead, i.e. when bead set
    k-1 fits one row down; on another configuration a slide can name a move
    that `BeadRow.move_bead` refuses with ValueError.  `_shift_bead_set`
    refuses k < 1.
    """
    if k > 1 and not _fits(psi, k - 1, 1):
        return None
    return _shift_bead_set(psi, k, -1)


def is_tight(psi):
    """True iff no tighten(psi, k) is possible: no bead set k fits one row
    down, `_fits(psi, k, 1)` for no k >= 1.

    Beyond max_bead_index() every part is 0, and no set fits: the charges
    around the rows would have to rise, but they drop by n.  So the sets up
    to max_bead_index() decide it, and the search stops at the first set
    that fits.  `_fits` builds no image, as `tighten` would.  In the column
    form of `is_descending`: psi is tight iff no k <= max_bead_index() has
    w(k+1) <= sigma(w(k)).
    """
    return not any(_fits(psi, k, 1) for k in range(1, psi.max_bead_index() + 1))


def highest_weight(psi0):
    """The dominant weight of a compact descending configuration, which
    `_check_generator` asks of psi0.

    m_i counts the rows whose last bead sits at a slot b with b + 1 = i
    mod n, i.e. the rows whose charge is congruent to i.
    """
    _check_generator(psi0, 0, "highest_weight")
    return _charge_weight(psi0.charges(), psi0.n)


def _check_generator(psi0, nmax, name):
    """Refuse a generator psi0 that is not compact and descending, as the
    highest weight vector of a crystal is, and a bound nmax below 0: the
    one rule of every walk from a generator and of `highest_weight`.  name,
    the caller, goes in the error."""
    if weight(psi0) != 0 or not is_descending(psi0):
        raise ValueError("%s needs a compact descending generator" % name)
    if nmax < 0:
        raise ValueError("%s needs a nonnegative bound" % name)


def _charge_weight(charges, n):
    """The dominant weight whose m_i counts the charges congruent to i."""
    m = [0] * n
    for c in charges:
        m[c % n] += 1
    return DominantWeight(m)


def _level_coeffs(w, n, ell):
    """w, a DominantWeight or a sequence of coefficients, read as a
    DominantWeight checked to have n coefficients, of level ell: the one
    rank-and-level rule of every reader of a weight, whose error names the
    weight, n and ell."""
    if n < 1 or ell < 1:
        raise ValueError("need n >= 1 and ell >= 1")
    w = DominantWeight(w)
    if w.n != n or w.level != ell:
        raise ValueError("weight %s needs %d coefficients and level %d" % (w, n, ell))
    return w


def highest_weight_config(w, n, ell):
    """The canonical compact descending configuration of a given weight.

    Charges are the residues of the weight, with multiplicity, sorted in
    decreasing order from the bottom row up.
    """
    charges = _highest_weight_charges(_level_coeffs(w, n, ell))
    return AbacusConfig(n, ell, tuple(BeadRow.vacuum(c) for c in charges))


def _highest_weight_charges(coeffs):
    """The row charges of highest_weight_config: each residue i, coeffs[i]
    times, in decreasing order from the bottom row up."""
    return tuple(i for i in range(len(coeffs) - 1, -1, -1) for _ in range(coeffs[i]))


def _residues(psi):
    """The residues mod n of bead sets 1, ..., max_bead_index(), row by row."""
    n, rows = psi.n, psi.rows
    return [
        tuple([s % n for s in _set_slots(rows, k)])
        for k in range(1, psi.max_bead_index() + 1)
    ]


def _tight_from_residues(n, charges, residues):
    """The tight configuration with these row charges whose bead set k has
    the residues residues[k - 1], and is the vacuum beyond len(residues).

    From the vacuum in, bead set k, read along the extended rows, is the
    weakly decreasing run of the integers with its residues, as low as it
    can go while each row's bead stays strictly right of its bead in set k+1.
    With res the residues sorted decreasing, each in [0, n), slot t of the
    run, res[t mod ell] - n*floor(t/ell), exceeds b iff t < T(b) = #{j :
    res[j] >= (b+1) mod n} - ell*floor((b+1)/n).  So the start is the closed
    form min over rows i of T(b_i) - 1 - i (b_i the row's bead in set k+1).
    """
    ell, K = len(charges), len(residues)
    below = [c - K - 1 for c in charges]  # bead set k+1, row by row
    columns = []
    for res in reversed(residues):
        up = sorted(res)
        s = min(
            -ell * ((b + 1) // n) + ell - bisect_left(up, (b + 1) % n) - 1 - i
            for i, b in enumerate(below)
        )
        below = [up[-1 - t % ell] - t // ell * n for t in range(s, s + ell)]
        columns.append(below)
    columns.reverse()  # columns[k - 1] is bead set k
    rows = []
    for i, c in enumerate(charges):
        parts = [col[i] - c + k for k, col in enumerate(columns, start=1)]
        rows.append(BeadRow(c, Partition(p for p in parts if p > 0)))
    return AbacusConfig(n, ell, tuple(rows))


def _decompose(psi, name):
    """gamma(psi) and lambda_part(psi) from one placement; name goes in the error."""
    if not is_descending(psi):
        raise ValueError("%s needs a descending configuration" % name)
    g = _tight_from_residues(psi.n, psi.charges(), _residues(psi))
    drops = (
        sum(r.partition.part(k) for r in psi.rows)
        - sum(r.partition.part(k) for r in g.rows)
        for k in range(1, psi.max_bead_index() + 1)
    )
    return g, Partition(d // psi.n for d in drops if d)


def gamma(psi):
    """The tight configuration reached by exhausting the tightening moves.

    Tightening keeps the charges and the residues of every bead set, and a
    tight configuration is fixed by those, each bead set as low as tightness
    allows; so gamma(psi) is that placement of psi's charges and residues.
    """
    return _decompose(psi, "gamma")[0]


def lambda_part(psi):
    """The partition of tightening slack: part k is the number of rows the
    k-th bead set moves down in gamma(psi).  A set moved down one row gives
    up n, so part k is the drop in the sum of the k-th parts from psi to
    gamma(psi), divided by n.
    """
    return _decompose(psi, "lambda_part")[1]


def recombine(gamma_cfg, lam):
    """The unique descending psi with gamma(psi) = gamma_cfg, lambda = lam."""
    if not is_tight(gamma_cfg) or not is_descending(gamma_cfg):
        raise ValueError("recombine needs a tight descending configuration")
    lam = Partition(lam)
    psi = gamma_cfg
    for j in range(1, len(lam) + 1):
        # loosen(-, j) applies lam_j times iff set j-1 fits lam_j rows down
        if j > 1 and not _fits(psi, j - 1, lam.part(j)):
            raise AssertionError("loosening blocked; invalid slack partition")
        psi = _shift_bead_set(psi, j, -lam.part(j))
    return psi


def gl_move(psi, p, direction):
    """Act on the slack partition by a one-step bead move, keeping gamma.

    direction "down" moves the bead at slot p+1 of the slack row to slot p;
    "up" moves the bead at slot p to slot p+1.  Returns None when the move
    kills the basis vector.
    """
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    g, lam = _decompose(psi, "gl_move")
    move = remove_ribbon if direction == "down" else add_ribbon
    try:
        lam = move(lam, 1, p + 1)
    except ValueError:
        return None
    return recombine(g, lam)


def enumerate_descending(psi0, max_weight):
    """All descending configurations with the given compactification.

    Yields configurations of weight at most max_weight, grouped by weight in
    increasing order.  `_check_generator` asks that psi0 be compact and
    descending and max_weight nonnegative, on the first next().  Each
    candidate is a product of one row of each charge and size, from
    `_rows_of_size`: a table is built on first use, kept in a bounded
    per-process cache and shared by every candidate and every later call
    that needs it, so the first yield does not wait for the tables of
    larger weights.  The one weight-0 candidate is psi0 itself, already
    checked, so it is yielded without a second descent check.
    """
    _check_generator(psi0, max_weight, "enumerate_descending")
    charges = psi0.charges()
    ell, n = psi0.ell, psi0.n
    for w in range(max_weight + 1):
        for sizes in _compositions(w, ell):
            for rows in itertools.product(*map(_rows_of_size, charges, sizes)):
                cfg = _config(n, ell, rows)
                if not w or is_descending(cfg):
                    yield cfg


def enumerate_tight(psi0, max_weight):
    """The tight configurations among enumerate_descending(psi0, max_weight),
    in its order: enumerate_descending filtered by is_tight.  It refuses a
    bad psi0 or max_weight in its own name, as its first step, and then
    calls enumerate_descending (which checks them again) with the same two
    arguments.  It consumes every descending configuration, and the
    benchmark's audit (benchmarks/workloads.py) counts each of those yields
    as well as the tight ones it passes on."""
    _check_generator(psi0, max_weight, "enumerate_tight")
    for cfg in enumerate_descending(psi0, max_weight):
        if is_tight(cfg):
            yield cfg


@functools.lru_cache(maxsize=256)
def _rows_of_size(charge, size):
    """The rows of this charge whose partition has this size, one per
    partition, in `partitions_of` order.  A row is frozen and carries no
    memo, so every enumeration may share the table.  The largest size the
    tests enumerate is 8: there one charge's tables hold 67 rows, about
    20 KB, and the whole test suite leaves 66 tables, under 200 KB."""
    return tuple(_bead_row(charge, lam) for lam in partitions_of(size))


# the most integers, tuples times parts, that a kept `_compositions` result
# holds: a bound on the tuples alone would keep the 2,000 weights of level 1
# at n = 2,000, 4 million integers.  The largest split the benchmark asks for
# has 21 tuples of 3 parts, 63 integers.
_CACHED_SPLITS = 4096


def _compositions(total, parts):
    """The tuples of `parts` nonnegative integers summing to total, in
    lexicographic order.

    A result of at most _CACHED_SPLITS integers comes from a bounded
    per-process cache, since every enumeration asks for the same few
    splits; a larger one is yielded lazily and none of it is kept, so its
    first tuple comes at once.
    """
    if total < 0 or math.comb(total + parts - 1, parts - 1) * parts > _CACHED_SPLITS:
        return _splits(total, parts)
    return _split_table(total, parts)


@functools.lru_cache(maxsize=256)
def _split_table(total, parts):
    """`_compositions` of a small split, built once and kept."""
    return tuple(_splits(total, parts))


def _splits(total, parts):
    """`_compositions` one tuple at a time, without recursion: stars and
    bars, with parts - 1 bars at increasing positions among total + parts
    - 1, part j the stars between bar j - 1 and bar j."""
    span = total + parts - 1
    for bars in itertools.combinations(range(span), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (span,)))


def right_moves(psi):
    """All single-bead one-slot right moves that keep the config descending."""
    out = []
    for r, row in enumerate(psi.rows):
        jmax = len(row.partition) + 1
        for j in range(1, jmax + 1):
            if j > 1 and row.bead_slot(j - 1) == row.bead_slot(j) + 1:
                continue  # target slot occupied
            cand = psi.replace_row(r, row.move_bead(j, 1))
            if is_descending(cand):
                out.append(cand)
    return out
