"""The level-ell perfect crystal of one-row fillings and semi-infinite paths.

An element of the perfect crystal is a weakly increasing ell-tuple with
values in {1/2, 3/2, ..., n - 1/2}, stored as the integers 0..n-1 (add 1/2
to recover the usual entries).  A PerfectElem is that tuple: a tuple
subclass whose constructor sorts its entries.  A path is a semi-infinite
tensor product ... x b_3 x b_2 x b_1 of such elements that agrees with the
ground state path of its highest weight beyond some position K.  A Path
stores the dense tuple (b_1, ..., b_K), with K the last position off the
ground state.  Its constructor and Path.from_json make one check
(`_check_path`) of n, ell, the weight and the entries of every element,
and every way of building a Path gives this one trimmed form: the
constructor, like `_pruned_path`, drops the trailing ground elements it is
given (`_trimmed`), so equal paths compare and hash equal.

The string functions have closed forms: f_i turns an entry i-1 into i and
e_i an entry i into i-1, so eps_i(b) counts the entries equal to i and
phi_i(b) those equal to i-1 mod n.  Hence phi(b) determines b, and eps(b) is
phi(b) rotated by one color.  The ground state path of highest weight w,
fixed by phi(b_1) = w and eps(b_k) = phi(b_{k+1}), therefore has w[(v + k)
mod n] copies of each value v in b_k.

to_path is the crystal isomorphism sending a tight descending abacus
configuration to the path whose k-th element collects the residues of the
k-th beads, one per row; so the tensor product rule is the grouped
bead-set rule on configurations, and both are computed by one canceller,
crystal._bead_set_signatures.  Its domain is the crystal of
highest_weight_config(w), n >= 2, whose charges are the residues of w
sorted down; so to_path checks the charges by their order alone: each in
[0, n), weakly decreasing from the bottom row up.  A tight configuration
is fixed by its charges and the residues of its bead sets, so from_path
inverts to_path with the abacus placement (abacus._tight_from_residues):
bead set k is the weakly decreasing run of the integers with the residues
of b_k, placed as low as tightness allows.

Both directions keep one size rule, `_check_size`: n, ell and the last
position K are each at most MAX_PATH_POSITION, and ell x K is at most
MAX_PATH_BEADS.  Path.from_json refuses a larger path it reads, and to_path
a larger path it would write, so to_path gives no path that Path.from_json
would refuse.  The rule costs O(1), and both apply it before any work that
grows with n, ell or K.

The path rule, path_brackets, reads the brackets of every color in one
pass over b_{K+1}, ..., b_1 and builds no token list (the token list is
the test oracle tests/helpers.path_tokens).  It keeps its name because the
benchmark's layer tracer counts its calls as the path model's signal.  The
n signatures are memoised on the Path, as the gap rule's are on a
configuration: `_signatures` is a declared field that reads None until the
rule fills it.  A Path also keeps the ground elements it has built, one per
residue class of the position.  The table depends on n and the weight only,
so every path derived from another (an f_path or e_path image, a pruned
path) shares it.  ground_state_path, to_path and Path.from_json all start
from one cache of deviation-free paths, keyed by n and the charges of
highest_weight_config, which fix the weight.
"""

from __future__ import annotations

import bisect
import functools
import re
from dataclasses import dataclass, field
from operator import ge, index

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
from .crystal import _bead_set_signatures
from .partitions import _json_int, _json_ints


class PerfectElem(tuple):
    """An element of the perfect crystal: its entries, sorted, each in [0, n)."""

    __slots__ = ()

    def __new__(cls, entries):
        return tuple.__new__(cls, sorted(map(index, entries)))

    @classmethod
    def _trusted(cls, entries):
        """A PerfectElem of ints already sorted, unchecked."""
        return tuple.__new__(cls, entries)

    def to_json(self):
        return list(self)


def f_perfect(b, i, n):
    """Turn one entry i-1 into i (mod n), or None."""
    return _replace_entry(b, (i - 1) % n, i % n)


def e_perfect(b, i, n):
    """Inverse of f_perfect: turn one entry i into i-1 (mod n), or None."""
    return _replace_entry(b, i % n, (i - 1) % n)


def _replace_entry(b, old, new):
    """b with one copy of old replaced by new, or None if b has no old."""
    entries = list(b)
    if old not in entries:
        return None
    entries.remove(old)
    bisect.insort(entries, new)
    return PerfectElem._trusted(entries)


# The largest n, ell and last position, and the largest product of ell and
# the last position, of a path that Path.from_json reads and to_path writes
# (`_check_size`): from_path places ell beads in each bead set up to the last
# position, to_path reads them, and their time grows as that product.
MAX_PATH_POSITION = 100_000
MAX_PATH_BEADS = 1_000_000


@dataclass(frozen=True)
class Path:
    """A path in the semi-infinite tensor power of the perfect crystal."""

    n: int
    ell: int
    weight: DominantWeight
    elements: tuple  # (b_1, ..., b_K), the ground elements after b_K dropped
    # ground elements by residue class of the position, built on first use
    _grounds: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the path rule's n signatures: None until _path_move fills them
    _signatures: tuple = field(default=None, init=False, repr=False, compare=False)

    def ground(self, k):
        """The k-th ground state element: w[(v + k) mod n] copies of each v.

        It depends on k mod n only, and is built once per residue class:
        b_n lists each v w[v] times, the charges of highest_weight_config
        sorted up, and b_k is b_n with k subtracted from every entry, so
        only b_n costs O(n).
        """
        r = k % self.n
        b = self._grounds.get(r)
        if b is None:
            base = self.ground(0) if r else _highest_weight_charges(self.weight)
            entries = sorted((v - r) % self.n for v in base)
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
            "weight": list(self.weight),
            "deviations": {str(k): e.to_json() for k, e in devs if e != self.ground(k)},
        }

    def __post_init__(self):
        object.__setattr__(self, "weight", DominantWeight(self.weight))
        elements = list(map(PerfectElem, self.elements))
        _check_path(self.n, self.ell, self.weight, enumerate(elements, 1))
        object.__setattr__(self, "elements", _trimmed(self, elements))

    @classmethod
    def from_json(cls, data):
        n, ell = _json_int(data["n"], "n"), _json_int(data["ell"], "ell")
        w = DominantWeight(_json_ints(data["weight"], "weight"))
        devs = []
        deviations = data.get("deviations", {})
        if not isinstance(deviations, dict):
            raise ValueError("deviations must be an object, not %r" % (deviations,))
        for k, v in deviations.items():
            if not re.fullmatch("[0-9]+", k):
                raise ValueError("path position %r is not a decimal integer" % k)
            k = int(k)
            if k < 1:
                raise ValueError(
                    "path position %d is not in [1, %d]" % (k, MAX_PATH_POSITION)
                )
            devs.append((k, PerfectElem(_json_ints(v, "a path element"))))
        _check_path(n, ell, w, devs)
        elements = dict(devs)
        if len(elements) != len(devs):
            raise ValueError("path positions must be distinct")
        K = max(elements, default=0)
        _check_size(n, ell, K)
        base = _empty_path(n, _highest_weight_charges(w))
        dense = [elements.get(k, base.ground(k)) for k in range(1, K + 1)]
        return _pruned_path(base, dense)


def _check_size(n, ell, K):
    """Refuse a path of rank n and level ell whose last deviation is at
    position K if n, ell or K exceeds MAX_PATH_POSITION (the error names the
    largest), or ell x K exceeds MAX_PATH_BEADS: the one size rule of
    Path.from_json and to_path.  to_path runs it on every call, so an
    accepted path costs three comparisons and a product, no tuple."""
    if n > MAX_PATH_POSITION or ell > MAX_PATH_POSITION or K > MAX_PATH_POSITION:
        v, name = max((n, "n"), (ell, "ell"), (K, "position"))
        raise ValueError("path %s %d exceeds %d" % (name, v, MAX_PATH_POSITION))
    if ell * K > MAX_PATH_BEADS:
        msg = "path ell %d times last position %d exceeds %d"
        raise ValueError(msg % (ell, K, MAX_PATH_BEADS))


def _check_path(n, ell, w, elements):
    """Refuse a path unless n >= 2, ell >= 1, w is a DominantWeight of n
    coefficients and level ell (the rank-and-level rule `_level_coeffs`),
    and each (k, b_k) in `elements` has ell entries in [0, n): the checks
    of the Path constructor and of Path.from_json."""
    if n < 2 or ell < 1:
        raise ValueError("a path needs n >= 2 and ell >= 1")
    _level_coeffs(w, n, ell)
    for k, e in elements:
        if len(e) != ell or not all(0 <= x < n for x in e):
            raise ValueError(
                "element %s at position %d: need %d entries in [0, %d)"
                % (list(e), k, ell, n)
            )


def _trimmed(path, elements):
    """Pop from the list `elements` its trailing elements that equal path's
    ground elements at their positions, and return the rest as a tuple."""
    while elements and elements[-1] == path.ground(len(elements)):
        elements.pop()
    return tuple(elements)


def _pruned_path(path, elements):
    """The path of path's weight with b_k = elements[k - 1], trailing ground
    elements dropped.  It shares path's table of ground elements.

    The one place a Path is built unchecked: its fields are set in its
    __dict__, past the frozen dataclass's __init__, whose default_factory
    would make a table only to have it replaced.  Its memo of signatures is
    the class default, None.
    """
    out = object.__new__(Path)
    vars(out).update(
        n=path.n,
        ell=path.ell,
        weight=path.weight,
        elements=_trimmed(path, elements),
        _grounds=path._grounds,
    )
    return out


@functools.lru_cache(maxsize=64)
def _empty_path(n, charges):
    """The path with no deviation of the weight whose highest_weight_config
    has these charges, one per (n, charges), which fix the weight and ell:
    the paths pruned from it share its ground elements."""
    return Path(n, len(charges), _charge_weight(charges, n), ())


def ground_state_path(w, n, ell):
    """The unique path with phi(b_1) = w and eps(b_k) = phi(b_{k+1}), from
    the cache of deviation-free paths."""
    return _empty_path(n, _highest_weight_charges(_level_coeffs(w, n, ell)))


def path_brackets(path):
    """The signature rule's signature (first_open, last_close) of each
    color 0..n-1, payload (k, color): `crystal._bead_set_signatures` of
    b_{K+1}, ..., b_1 (K the last deviation), the rule the grouped rule
    applies to bead sets.

    b_k gives a ")" of color i per entry i and a "(" of color i per entry
    i-1, its eps_i and phi_i, and the ground tail collapses to the "(" of
    b_{K+1}.  `benchmarks/layertrace.py` counts its calls, one per path
    whose memo `_path_move` fills, as the path model's layer signal, and the
    benchmark's self-test requires that count to be positive, which is why
    it keeps the name path_brackets.
    """
    return _bead_set_signatures(path.element, path.last_position() + 1, path.n)


def _with_element(path, k, elem):
    """path with b_k replaced by elem, for 1 <= k <= K + 1."""
    return _pruned_path(path, [*path.elements[: k - 1], elem, *path.elements[k:]])


def f_path(path, i):
    return _path_move(path, i, +1)


def e_path(path, i):
    return _path_move(path, i, -1)


def _path_move(path, i, delta):
    """f_path for delta +1, e_path for delta -1.

    The n signatures of the path rule, `path_brackets`, are memoised on
    the path: one call per path, on its first f_path or e_path.
    """
    sigs = path._signatures
    if sigs is None:
        sigs = path_brackets(path)
        object.__setattr__(path, "_signatures", sigs)  # path is frozen
    first_open, last_close = sigs[i % path.n]
    token = first_open if delta > 0 else last_close
    if token is None:
        return None
    k = token[0]
    # the bead-set rule gives b_k a "(" of color i only for an entry i-1 and a
    # ")" only for an entry i, so the perfect crystal operator finds an entry
    # to change
    elem = (f_perfect if delta > 0 else e_perfect)(path.element(k), i, path.n)
    if elem is None:
        raise AssertionError(
            "color %d brackets name b_%d, which has no entry to change" % (i, k)
        )
    return _with_element(path, k, elem)


def to_path(psi):
    """The path whose k-th element lists the k-th bead residues of psi.

    psi must have n >= 2, be tight and descending, and have the charges of
    the highest_weight_config of its weight, the configurations from_path
    gives.  Those charges are the weight's residues sorted down, so the
    rule is read off the charges: each in [0, n), weakly decreasing from
    the bottom row up.  The weight is built only for the error message and
    once per (n, charges) for the cached deviation-free path.
    """
    n, charges = psi.n, psi.charges()
    if n < 2:
        raise ValueError("to_path needs n >= 2, not n = %d" % n)
    # a tight configuration is fixed by its charges and bead-set residues,
    # so its path's last deviation is its deepest moved bead: refuse what
    # Path.from_json refuses, before the weight, whose time grows as n, and
    # is_tight, whose time grows as ell x K
    _check_size(n, psi.ell, psi.max_bead_index())
    if not is_descending(psi) or not is_tight(psi):
        raise ValueError("to_path needs a tight descending configuration")
    if not (0 <= charges[-1] and charges[0] < n and all(map(ge, charges, charges[1:]))):
        w = _charge_weight(charges, n)
        raise ValueError(
            "to_path needs the charges %s of highest_weight_config(%s), not %s"
            % (_highest_weight_charges(w), w, charges)
        )
    elements = [PerfectElem._trusted(sorted(res)) for res in _residues(psi)]
    return _pruned_path(_empty_path(n, charges), elements)


def from_path(path):
    """Inverse of to_path: the tight configuration with the charges of
    highest_weight_config(path.weight) whose k-th bead set has the residues
    b_k, placed as low as tightness allows (abacus._tight_from_residues)."""
    charges = _highest_weight_charges(path.weight)
    return _tight_from_residues(path.n, charges, path.elements)
