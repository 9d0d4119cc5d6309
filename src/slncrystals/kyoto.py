"""The level-ell perfect crystal of one-row fillings and semi-infinite paths.

An element of the perfect crystal is a weakly increasing ell-tuple with
values in {1/2, 3/2, ..., n - 1/2}, stored as the integers 0..n-1 (add 1/2
to recover the usual entries).  A path is a semi-infinite tensor product
... x b_3 x b_2 x b_1 of such elements that agrees with the ground state
path of its highest weight beyond some position K.  A Path stores the dense
tuple (b_1, ..., b_K), with K the last position off the ground state.

The string functions have closed forms: f_i turns an entry i-1 into i and
e_i an entry i into i-1, so eps_i(b) counts the entries equal to i and
phi_i(b) those equal to i-1 mod n.  Hence phi(b) determines b, and eps(b) is
phi(b) rotated by one color.  The ground state path of highest weight w,
fixed by phi(b_1) = w and eps(b_k) = phi(b_{k+1}), therefore has w[(v + k)
mod n] copies of each value v in b_k.

to_path is the crystal isomorphism sending a tight descending abacus
configuration to the path whose k-th element collects the residues of the
k-th beads, one per row; so the tensor product rule is the bead-set rule
crystal.column_brackets.  Its domain is the crystal of
highest_weight_config(w): charges weakly decreasing in [0, n) from the
bottom row up.  A tight configuration is fixed by its charges and the
residues of its bead sets, so from_path inverts to_path with the abacus
placement (abacus._tight_from_residues): bead set k is the weakly
decreasing run of the integers with the residues of b_k, placed as low as
tightness allows.

The path rule reads the tokens of every color in one pass, and the n
signatures are memoised on the Path, as the gap rule's are on a
configuration.  A Path also keeps the ground elements it has built, one per
residue class of the position.  The table depends on n and the weight only,
so every path derived from another (an f_path or e_path image, a pruned
path) shares it, and to_path starts from one deviation-free path per weight.
"""

from __future__ import annotations

import bisect
import functools
import re
from dataclasses import dataclass, field
from operator import index

from .abacus import (
    DominantWeight,
    _charge_weight,
    _highest_weight_charges,
    _level_coeffs,
    _residues,
    _tight_from_residues,
    is_descending,
    is_tight,
)
from .crystal import _reduce_colors, column_brackets
from .partitions import _json_int, _json_ints


@dataclass(frozen=True)
class PerfectElem:
    entries: tuple  # sorted, each in [0, n)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(sorted(map(index, self.entries))))

    @classmethod
    def _trusted(cls, entries):
        """A PerfectElem of a tuple of ints already sorted, unchecked."""
        b = object.__new__(cls)
        object.__setattr__(b, "entries", entries)
        return b

    def to_json(self):
        return list(self.entries)


def f_perfect(b, i, n):
    """Turn one entry i-1 into i (mod n), or None."""
    return _replace_entry(b, (i - 1) % n, i % n)


def e_perfect(b, i, n):
    """Inverse of f_perfect: turn one entry i into i-1 (mod n), or None."""
    return _replace_entry(b, i % n, (i - 1) % n)


def _replace_entry(b, old, new):
    """b with one copy of old replaced by new, or None if b has no old."""
    entries = list(b.entries)
    if old not in entries:
        return None
    entries.remove(old)
    bisect.insort(entries, new)
    return PerfectElem._trusted(tuple(entries))


# The largest position, n and ell Path.from_json accepts: from_path builds one
# bead set per position and ell rows; 10^5 positions take about two seconds.
MAX_PATH_POSITION = 100_000


@dataclass(frozen=True)
class Path:
    """A path in the semi-infinite tensor power of the perfect crystal."""

    n: int
    ell: int
    weight: DominantWeight
    elements: tuple  # (b_1, ..., b_K), the ground elements after b_K dropped
    # ground elements by residue class of the position, built on first use
    _grounds: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def ground(self, k):
        """The k-th ground state element: w[(v + k) mod n] copies of each v.

        It depends on k mod n only, and is built once per residue class:
        b_n lists each v w[v] times, and b_k is b_n with k subtracted from
        every entry, so only b_n costs O(n).
        """
        r = k % self.n
        b = self._grounds.get(r)
        if b is None:
            if r:
                base = self.ground(0).entries
                entries = tuple(sorted((v - r) % self.n for v in base))
            else:
                w = self.weight.coeffs
                entries = tuple(v for v in range(self.n) for _ in range(w[v]))
            b = self._grounds[r] = PerfectElem._trusted(entries)
        return b

    def element(self, k):
        return self.elements[k - 1] if 0 < k <= len(self.elements) else self.ground(k)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, without the memo
        # of signatures or the table of ground elements
        return (Path, (self.n, self.ell, self.weight, self.elements))

    def last_position(self):
        return len(self.elements)

    def to_json(self):
        """The JSON form lists only the elements off the ground state."""
        devs = enumerate(self.elements, 1)
        return {
            "n": self.n,
            "ell": self.ell,
            "weight": list(self.weight.coeffs),
            "deviations": {str(k): e.to_json() for k, e in devs if e != self.ground(k)},
        }

    @classmethod
    def from_json(cls, data):
        n, ell = _json_int(data["n"], "n"), _json_int(data["ell"], "ell")
        if n < 2 or ell < 1:
            raise ValueError("a path needs n >= 2 and ell >= 1")
        for name, v in (("n", n), ("ell", ell)):
            if v > MAX_PATH_POSITION:
                raise ValueError("path %s %d exceeds %d" % (name, v, MAX_PATH_POSITION))
        w = DominantWeight(_json_ints(data["weight"], "weight"))
        if w.n != n or w.level != ell:
            raise ValueError(
                "weight %s needs %d coefficients and level %d" % (w, n, ell)
            )
        devs = []
        deviations = data.get("deviations", {})
        if not isinstance(deviations, dict):
            raise ValueError("deviations must be an object, not %r" % (deviations,))
        for k, v in deviations.items():
            if not re.fullmatch("[0-9]+", k):
                raise ValueError("path position %r is not a decimal integer" % k)
            k, e = int(k), PerfectElem(_json_ints(v, "a path element"))
            if not 1 <= k <= MAX_PATH_POSITION:
                raise ValueError(
                    "path position %d is not in [1, %d]" % (k, MAX_PATH_POSITION)
                )
            if len(e.entries) != ell or not all(0 <= x < n for x in e.entries):
                raise ValueError(
                    "deviation %s at position %d: need %d entries in [0, %d)"
                    % (list(e.entries), k, ell, n)
                )
            devs.append((k, e))
        elements = dict(devs)
        if len(elements) != len(devs):
            raise ValueError("path positions must be distinct")
        base = _empty_path(n, ell, w)
        dense = [
            elements[k] if k in elements else base.ground(k)
            for k in range(1, max(elements, default=0) + 1)
        ]
        return _pruned_path(base, dense)


def _pruned_path(path, elements):
    """The path of path's weight with b_k = elements[k - 1], trailing ground
    elements dropped.  It shares path's table of ground elements."""
    while elements and elements[-1] == path.ground(len(elements)):
        elements.pop()
    out = Path(path.n, path.ell, path.weight, tuple(elements))
    object.__setattr__(out, "_grounds", path._grounds)  # out is frozen
    return out


@functools.lru_cache(maxsize=64)
def _empty_path(n, ell, w):
    """The path of weight w with no deviation, one per (n, ell, w): the
    paths pruned from it share its ground elements."""
    return Path(n, ell, w, ())


def ground_state_path(w, n, ell):
    """The unique path with phi(b_1) = w and eps(b_k) = phi(b_{k+1})."""
    return Path(n, ell, DominantWeight(_level_coeffs(w, n, ell)), ())


def path_brackets(path):
    """Bracket tokens of the signature rule, every color, rightmost factor
    last; the payload is (k, color).

    The bead-set rule read on b_{K+1}, ..., b_1 (K the last deviation):
    b_k gives ")" of color i per entry i and "(" of color i per entry i-1,
    its eps_i and phi_i, and the ground tail collapses to the "(" of
    b_{K+1}.
    """
    K = path.last_position()
    columns = [(k, path.element(k).entries) for k in range(K + 1, 0, -1)]
    return column_brackets(columns, path.n)


def _with_element(path, k, elem):
    """path with b_k replaced by elem, for 1 <= k <= K + 1."""
    return _pruned_path(path, [*path.elements[: k - 1], elem, *path.elements[k:]])


def f_path(path, i):
    return _path_move(path, i, +1)


def e_path(path, i):
    return _path_move(path, i, -1)


def _path_move(path, i, delta):
    """f_path for delta +1, e_path for delta -1.

    The n signatures of the path rule are memoised on the path.
    """
    sigs = getattr(path, "_signatures", None)
    if sigs is None:
        sigs = _reduce_colors(path_brackets(path), path.n)
        object.__setattr__(path, "_signatures", sigs)  # path is frozen
    sig = sigs[i % path.n]
    token = sig.first_open if delta > 0 else sig.last_close
    if token is None:
        return None
    k = token[0]
    # column_brackets gives column k a "(" of color i only for an entry of b_k
    # congruent to i-1 and a ")" only for one congruent to i, so the perfect
    # crystal operator finds an entry to change
    elem = (f_perfect if delta > 0 else e_perfect)(path.element(k), i, path.n)
    if elem is None:
        raise AssertionError(
            "color %d brackets name b_%d, which has no entry to change" % (i, k)
        )
    return _with_element(path, k, elem)


def to_path(psi):
    """The path whose k-th element lists the k-th bead residues of psi.

    psi must be tight, descending and have the charges of the
    highest_weight_config of its weight, the configurations from_path gives.
    """
    if not is_descending(psi) or not is_tight(psi):
        raise ValueError("to_path needs a tight descending configuration")
    w = _charge_weight(psi.charges(), psi.n)
    charges = _highest_weight_charges(w.coeffs)
    if psi.charges() != charges:
        raise ValueError(
            "to_path needs the charges %s of highest_weight_config(%s), not %s"
            % (charges, w, psi.charges())
        )
    elements = [PerfectElem._trusted(tuple(sorted(res))) for res in _residues(psi)]
    return _pruned_path(_empty_path(psi.n, psi.ell, w), elements)


def from_path(path):
    """Inverse of to_path: the tight configuration with the charges of
    highest_weight_config(path.weight) whose k-th bead set has the residues
    b_k, placed as low as tightness allows (abacus._tight_from_residues)."""
    charges = _highest_weight_charges(_level_coeffs(path.weight, path.n, path.ell))
    return _tight_from_residues(path.n, charges, [b.entries for b in path.elements])
