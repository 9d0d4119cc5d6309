"""Partitions, bead rows (Maya diagrams), ribbons, cores and quotients.

A Partition is a weakly decreasing tuple of positive integers, a tuple
subclass whose constructor checks the parts; a BeadRow is the named pair
(charge, partition).  Both compare and hash as the tuples they hold.
A row of beads lives on "slots" indexed by the integers: slot b stands for
the physical half-integer position b + 1/2, so the vacuum of charge c has
beads exactly on the slots b < c.  The partition with parts p_1 >= p_2 >= ...
and charge c occupies the slots p_j - j + c.
Moving bead j by delta slots raises part j by delta: `_hop` builds every
moved row's parts, and `BeadRow.move_bead` checks the move first.  Adding
or removing a box of a cylindric plane partition raises or lowers one part
of its diagonal by one, and `_hop` builds that diagonal too.
"""

from __future__ import annotations

import functools
from operator import index
from typing import NamedTuple


class Partition(tuple):
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(map(index, parts))
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError("parts must be positive: %r" % (parts,))
            if i > 0 and parts[i - 1] < p:
                raise ValueError("parts must weakly decrease: %r" % (parts,))
        return tuple.__new__(cls, parts)

    @classmethod
    def _trusted(cls, parts):
        """A Partition of a tuple already known to be valid, unchecked."""
        return tuple.__new__(cls, parts)

    def part(self, j):
        """The j-th part (1-indexed), zero beyond the last part."""
        return self[j - 1] if 1 <= j <= len(self) else 0

    @property
    def size(self):
        return sum(self)

    @functools.lru_cache(maxsize=4096)
    def conjugate(self):
        """Column c has one cell per part >= c, so the part(j) - part(j + 1)
        columns that end at part j have j cells each.

        Memoised per process on the 4,096 partitions last conjugated: the
        cylinder bijection conjugates every row of every configuration it
        maps, and the same small partitions recur (a pass over the
        benchmark's enumerate-path requests makes 27,790 calls on 27
        distinct partitions).  An entry holds lambda and its conjugate,
        8 x (len(lambda) + lambda_1) bytes beyond the tuples' headers, at
        most 8 x (s + 1) for a partition of size s: a memo full of the
        partitions of size up to 22 holds about 0.9 MB under tracemalloc,
        and 4,096 partitions of size 1,000 would hold about 33 MB."""
        cols = []
        j, below = len(self), 0
        for p in reversed(self):  # part j, then part j - 1, ...
            cols += [j] * (p - below)
            j, below = j - 1, p
        return Partition._trusted(cols)

    def __repr__(self):
        return "Partition(%r)" % (tuple(self),)

    def to_json(self):
        return list(self)

    @classmethod
    def from_json(cls, data):
        return cls(_json_ints(data, "parts"))


EMPTY = Partition()


def _json_int(value, what):
    """`value` if it is a JSON integer; a float, bool or string is refused."""
    if type(value) is not int:
        raise ValueError("%s must be an integer, not %r" % (what, value))
    return value


def _json_ints(values, what):
    """A JSON array of integers, as a tuple."""
    if not isinstance(values, list):
        raise ValueError("%s must be a list, not %r" % (what, values))
    return tuple(_json_int(v, "an entry of " + what) for v in values)


class BeadRow(NamedTuple):
    """One row of beads, the pair (charge, partition).

    The occupied slots are {part(j) - j + charge : j >= 1}; in particular all
    slots below charge - len(partition) are occupied and all slots at or above
    charge + part(1) are empty.
    """

    charge: int
    partition: Partition

    def bead_slot(self, j):
        """Slot of the j-th bead counting from the right, j >= 1."""
        if j < 1:
            raise ValueError("bead index must be positive")
        return self.partition.part(j) - j + self.charge

    def occupied(self, slot):
        return slot < self.charge - len(self.partition) or slot in self.beads(slot)

    def beads(self, floor):
        """The occupied slots at or above `floor`, from right to left: the
        partition's beads, then the tail of slots below charge - len."""
        c, parts = self.charge, self.partition
        slots = [p - j + c for j, p in enumerate(parts, 1) if p - j + c >= floor]
        return slots + list(range(c - len(parts) - 1, floor - 1, -1))

    def shifted(self, d):
        """The same row with every bead moved d slots to the right."""
        return BeadRow(self.charge + d, self.partition)

    def move_bead(self, j, delta):
        """Move the j-th bead by delta slots, staying strictly between its
        neighbours (so the target slot is free).

        Only part j changes, so checking it against parts j-1 and j+1 is
        the whole of the `Partition` check on the result, which `_hop`
        then builds, provided the row holds a `Partition`.
        """
        if j < 1:
            raise ValueError("bead index must be positive")
        parts = self.partition
        if not isinstance(parts, Partition):
            raise TypeError("the row's partition is not a Partition: %r" % (parts,))
        m = len(parts)
        # parts j-1, j and j+1 read as zero beyond the last part
        if j <= m:
            p = parts[j - 1] + delta
            below = parts[j] if j < m else 0
        else:
            p, below = delta, 0
        if p < below or (j > 1 and p > (parts[j - 2] if j <= m + 1 else 0)):
            raise ValueError("bead %d cannot move by %d in %r" % (j, delta, parts))
        return _bead_row(self.charge, Partition._trusted(_hop(parts, j, delta)))

    @classmethod
    def vacuum(cls, charge):
        return cls(charge, EMPTY)

    @classmethod
    def from_occupied(cls, slots, floor):
        """Build a row from its occupied slots at or above `floor`; every
        slot below `floor` is taken to be occupied.

        With the K slots in decreasing order s_1 > ... > s_K, the charge is
        floor + K and part j is s_j + j - charge.  Part K is s_K - floor >= 0
        and part j exceeds part j+1 by s_j - s_{j+1} - 1 >= 0, so every such
        slot set is a row.
        """
        slots = sorted(set(slots), reverse=True)
        if slots and slots[-1] < floor:
            raise ValueError("slot below floor")
        charge = floor + len(slots)
        parts = [s + j - charge for j, s in enumerate(slots, 1)]
        return cls(charge, Partition._trusted(tuple(p for p in parts if p)))

    def to_json(self):
        return {"charge": self.charge, "parts": self.partition.to_json()}

    @classmethod
    def from_json(cls, data):
        charge = _json_int(data["charge"], "charge")
        return cls(charge, Partition.from_json(data["parts"]))


def _bead_row(charge, partition):
    """A BeadRow built past the NamedTuple's argument binding, as
    `Partition._trusted` builds a Partition, for rows that are valid by
    construction."""
    return tuple.__new__(BeadRow, (charge, partition))


def _set_slots(rows, k):
    """The slot of bead k of each (charge, partition) row, bead set k of a
    configuration: `BeadRow.bead_slot(k)` of every row in one pass."""
    return [(p[k - 1] if k <= len(p) else 0) - k + c for c, p in rows]


def _hop(parts, j, delta):
    """The parts with part j raised by delta, for a move known to be legal
    (`BeadRow.move_bead` checks one; a gap rule token and an addable or
    removable cylinder box name only legal moves): beyond the parts only
    bead len + 1 can move."""
    if j > len(parts):
        return parts + (delta,) if delta else parts
    p = parts[j - 1] + delta
    return parts[: j - 1] + (p,) + parts[j:] if p else parts[: j - 1]


def _ribbon_beads(lam, length):
    """The floor -len(lam) - length, below which every slot of lam's
    charge-0 row is occupied, and the set of its occupied slots at or above
    the floor: where every `length`-ribbon of lam starts or ends."""
    if length < 1:
        raise ValueError("ribbon length must be positive")
    lam = Partition(lam)
    floor = -len(lam) - length
    return floor, set(BeadRow(0, lam).beads(floor))


def addable_ribbons(lam, length):
    """The rightmost column of every `length`-ribbon addable to lam."""
    _, beads = _ribbon_beads(lam, length)
    return sorted(s + length for s in beads if s + length not in beads)


def removable_ribbons(lam, length):
    """The rightmost column of every `length`-ribbon removable from lam."""
    floor, beads = _ribbon_beads(lam, length)
    return sorted(s for s in beads if floor <= s - length and s - length not in beads)


def add_ribbon(lam, length, rightmost_col):
    """Add a `length`-ribbon whose rightmost box sits above `rightmost_col`.

    On the bead row this moves the bead at slot rightmost_col - length to
    slot rightmost_col.  Raises ValueError if no such ribbon can be added.
    """
    src = rightmost_col - length
    return _ribbon_move(lam, length, src, rightmost_col, "addable to")


def remove_ribbon(lam, length, rightmost_col):
    """Exact inverse of add_ribbon."""
    dst = rightmost_col - length
    return _ribbon_move(lam, length, rightmost_col, dst, "removable from")


def _ribbon_move(lam, length, src, dst, what):
    """Move the bead at slot src of lam's charge-0 row to the empty slot dst;
    the ribbon between them has `length` boxes.  Every slot below the
    ribbon floor is occupied, so a source below it has an occupied
    destination and a destination below it is occupied."""
    floor, beads = _ribbon_beads(lam, length)
    if src not in beads or dst in beads or dst < floor:
        raise ValueError(
            "no %d-ribbon with rightmost column %d %s %r"
            % (length, max(src, dst), what, lam)
        )
    return BeadRow.from_occupied(beads - {src} | {dst}, floor).partition


def ell_quotient(lam, ell):
    """The ell rows of the ell-strand abacus of lam, as bead rows.

    Slot s of the single charge-0 bead row goes to row s mod ell, slot
    floor(s / ell); row 0 is the bottom row.  Charges are the raw ones read
    off from this block decomposition (their sum is 0).
    """
    if ell < 1:
        raise ValueError("ell must be positive")
    lam = Partition(lam)
    lo = -(len(lam) + ell + 1)
    strands = [[] for _ in range(ell)]
    for s in BeadRow(0, lam).beads(lo):
        strands[s % ell].append(s // ell)
    # the ell + 1 slots from lo to -len(lam) - 1 are occupied, as is every
    # slot below, so each strand is full below its lowest slot listed here
    return tuple(BeadRow.from_occupied(slots, slots[-1]) for slots in strands)


def combine_quotient(rows, ell):
    """Inverse of ell_quotient; the row charges must sum to zero."""
    if len(rows) != ell:
        raise ValueError("expected %d rows" % ell)
    if sum(r.charge for r in rows) != 0:
        raise ValueError("row charges must sum to zero for a partition")
    floor_b = min(r.charge - len(r.partition) for r in rows) - 1
    slots = [ell * b + j for j, row in enumerate(rows) for b in row.beads(floor_b)]
    # row j holds c_j - floor_b beads at or above floor_b, so the combined
    # row's charge is the sum of the c_j, which is 0
    return BeadRow.from_occupied(slots, ell * floor_b).partition


def ell_core(lam, ell):
    """Push every abacus row fully left and read the result back."""
    rows = [BeadRow.vacuum(r.charge) for r in ell_quotient(lam, ell)]
    return combine_quotient(rows, ell)


def partitions_of(m, max_part=None):
    """All partitions of m with parts at most max_part, largest part first."""
    if m < 0:
        return
    if m == 0:
        yield Partition()
        return
    if max_part is None or max_part > m:
        max_part = m
    for first in range(max_part, 0, -1):
        for rest in partitions_of(m - first, first):
            yield Partition((first,) + rest)

