"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own fast paths: ribbons
are found by enumerating skew shapes, cores by stripping ribbons in every
order, bracket strings by repeated substring deletion, and so on.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

from hypothesis import strategies as st

from slncrystals.abacus import (
    AbacusConfig,
    DominantWeight,
    enumerate_descending,
    enumerate_tight,
    highest_weight_config,
)
from slncrystals.crystal import signature_reduce
from slncrystals.cylindric import CylindricPlanePartition, hw_of_cpp
from slncrystals.kyoto import PerfectElem, e_perfect, f_perfect
from slncrystals.partitions import BeadRow, Partition, partitions_of
from slncrystals.qseries import euler_inverse, level_weights

P = Partition


def partitions_up_to(m):
    """All partitions of size at most m."""
    return itertools.chain.from_iterable(partitions_of(k) for k in range(m + 1))


def bead_position(psi, i, j):
    """Slot of the j-th bead from the right on extended row i of psi.

    Row i + ell is row i with every bead shifted n slots to the left.
    """
    q, r = divmod(i, psi.ell)
    return psi.rows[r].bead_slot(j) - psi.n * q


def fits_by_bead_position(psi, k, m):
    """`abacus._fits` read bead by bead: the k-th bead of extended row i + m
    is right of the (k+1)-st bead of row i, for every row i, each bead read
    through `bead_position`."""
    return all(
        bead_position(psi, i + m, k) > bead_position(psi, i, k + 1)
        for i in range(psi.ell)
    )


def column(psi, k):
    """w(k), the column of bead set k in shifted coordinates: part k of each
    row plus its charge, bottom row first.  Beyond the parts it is the
    charges."""
    return tuple(row.partition.part(k) + row.charge for row in psi.rows)


def sigma(w, n, m=1):
    """sigma^m(w), sigma(w) = (w_1, ..., w_{ell-1}, w_0 - n): the column w
    moved m extended rows down, one step at a time."""
    for _ in range(m):
        w = w[1:] + (w[0] - n,)
    return w


def below(u, v):
    """u <= v coordinatewise."""
    return all(a <= b for a, b in zip(u, v))


def shift_bead_set_by_bead_position(psi, k, m):
    """`abacus._shift_bead_set` read bead by bead: row i moves its k-th bead
    (`BeadRow.bead_slot`) onto the k-th bead of extended row i + m
    (`bead_position`) through the checked `BeadRow.move_bead`."""
    rows = tuple(
        row.move_bead(k, bead_position(psi, i + m, k) - row.bead_slot(k))
        for i, row in enumerate(psi.rows)
    )
    return AbacusConfig(psi.n, psi.ell, rows)


def is_tight_by_fits(psi):
    """True iff no bead set fits one row down, read bead by bead through
    `fits_by_bead_position` for every set up to max_bead_index() + 1."""
    sets = range(1, psi.max_bead_index() + 2)
    return not any(fits_by_bead_position(psi, k, 1) for k in sets)


def residues_by_bead_position(psi):
    """The residues mod n of bead sets 1..max_bead_index(), row by row,
    read through `bead_position`."""
    rows, sets = range(psi.ell), range(1, psi.max_bead_index() + 1)
    return [tuple(bead_position(psi, r, k) % psi.n for r in rows) for k in sets]


def move_bead_by_constructor(row, j, delta):
    """BeadRow.move_bead through the full Partition constructor: edit part
    j, pad with zeros, strip trailing zeros, and let Partition validate."""
    if j < 1:
        raise ValueError("bead index must be positive")
    parts = list(row.partition) + [0] * j
    parts[j - 1] += delta
    while parts and parts[-1] == 0:
        parts.pop()
    return BeadRow(row.charge, Partition(parts))


def validated(x):
    """A BeadRow or AbacusConfig built again through the validating
    constructors, from fresh tuples of its parts."""
    if isinstance(x, AbacusConfig):
        return AbacusConfig(x.n, x.ell, tuple(validated(r) for r in x.rows))
    return BeadRow(x.charge, Partition(list(x.partition)))


def assert_same_as_validated(x):
    """x compares, hashes and reprs equal to `validated(x)`."""
    want = validated(x)
    assert type(x) is type(want)
    assert x == want and hash(x) == hash(want) and repr(x) == repr(want)


def descending_by_validated_product(psi0, max_weight):
    """The sequence `enumerate_descending` yields, each candidate built
    through the validating constructors: weights in increasing order, row
    sizes in lexicographic order within a weight, then the product of each
    row's partitions of its size, largest part first; a candidate is kept
    when it is descending bead by bead."""
    n, ell, charges = psi0.n, psi0.ell, psi0.charges()
    for w in range(max_weight + 1):
        for sizes in itertools.product(range(w + 1), repeat=ell):
            if sum(sizes) != w:
                continue
            for lams in itertools.product(*(partitions_of(s) for s in sizes)):
                rows = zip(charges, (Partition(lam) for lam in lams))
                cfg = AbacusConfig(n, ell, tuple(BeadRow(c, lam) for c, lam in rows))
                if is_descending_by_bead_slots(cfg):
                    yield cfg


def bracket_window(row):
    """A slot range [lo, hi] outside of which every gap of the bead row is
    homogeneous: slots at or below lo are occupied, those at or above hi empty."""
    lo = row.charge - len(row.partition) - 1
    hi = row.charge + row.partition.part(1) + 1
    return lo, hi


def config(n, ell, *rows):
    return AbacusConfig(n, ell, tuple(BeadRow(c, P(parts)) for c, parts in rows))


# worked examples from the source figures
FIG1 = P((12, 11, 10, 9, 7, 5, 3, 3, 3, 1))
FIG1_SLOTS = [-13, -12, -11, -9, -6, -5, -4, -1, 2, 5, 7, 9, 11]
FIG2 = P((12, 11, 10, 9, 8, 8, 3, 3, 3, 1))


def fig4():
    """The 4-strand abacus of FIG2 with n = 3 (not descending)."""
    return config(3, 4, (-1, (1,)), (0, (3, 3)), (-1, (2, 1)), (2, (1, 1, 1)))


def fig7():
    """A descending but not tight configuration; T_2 applies."""
    return config(3, 4, (1, (2, 2)), (0, (2, 1, 1)), (0, (1, 1)), (0, (1,)))


def fig9():
    """Compact generator of highest weight L0 + 2 L1 + L2 for n = 3."""
    return config(3, 4, (2, ()), (1, ()), (1, ()), (0, ()))


def fig10():
    """An element of the irreducible crystal generated by fig9; weight 18."""
    return config(3, 4, (2, (2, 1, 1)), (1, (2, 2, 1)), (1, (2, 1)), (0, (2, 2, 1, 1)))


FIG12_PROFILE = (2, 1, 1, 0)
FIG12_ROWS = ((3, 1), (3, 2), (2, 1), (4, 2))


def fig8():
    return CylindricPlanePartition(
        3,
        6,
        (4, 4, 3, 3, 2, 1),
        (P((4, 4, 1)), P((4, 1)), P((5, 3)), P((3, 3)), P((7, 3)), P((6, 5, 1))),
    )


def reindexed(pi, s):
    """The same periodic array as pi, with diagonal i of the result
    diagonal i + s of pi."""
    n, ell = pi.n, pi.ell
    shifted = [divmod(i + s, ell) for i in range(ell)]
    return CylindricPlanePartition(
        n,
        ell,
        tuple(pi.profile[r] - q * n for q, r in shifted),
        tuple(pi.rows[r] for _, r in shifted),
    )


def profile_offset(pi):
    """The s with profile[i] = c(i + s) for every i, where c is the row
    charges of the highest-weight configuration of pi's labels, extended by
    c(i + ell) = c(i) - n.  The charges span less than n and drop by n every
    ell rows, so profile[0] = c(s) puts s within 2 ell of ell * (c(0) -
    profile[0]) / n; exactly one s in that window fits the whole profile."""
    n, ell = pi.n, pi.ell
    c = highest_weight_config(hw_of_cpp(pi), n, ell).charges()

    def ext(i):
        q, r = divmod(i, ell)
        return c[r] - q * n

    base = ell * (c[0] - pi.profile[0]) // n
    fits = [
        s
        for s in range(base - 2 * ell, base + 2 * ell + 1)
        if all(ext(i + s) == p for i, p in enumerate(pi.profile))
    ]
    if len(fits) != 1:
        raise ValueError("profile %r is no window of the charges" % (pi.profile,))
    return fits[0]


def rotated(w, k):
    """The dominant weight w relabelled Lambda_i -> Lambda_{i+k}, a cyclic
    rotation of its colors."""
    n = len(w)
    return DominantWeight(w[(i - k) % n] for i in range(n))


@lru_cache(maxsize=None)
def descending_configs(n, ell, coeffs, max_weight):
    psi0 = highest_weight_config(coeffs, n, ell)
    return tuple(enumerate_descending(psi0, max_weight))


@lru_cache(maxsize=None)
def tight_configs(n, ell, coeffs, max_weight):
    psi0 = highest_weight_config(coeffs, n, ell)
    return tuple(enumerate_tight(psi0, max_weight))


def all_level_coeffs(n, level):
    return level_weights(n, level)


@st.composite
def abacus_configs(draw):
    """Arbitrary configurations: any charges and partitions, n up to 5 and
    ell up to 4.  About a quarter of them are descending."""
    n = draw(st.integers(1, 5))
    ell = draw(st.integers(1, 4))
    rows = []
    for _ in range(ell):
        parts = draw(st.lists(st.integers(1, 7), max_size=6))
        rows.append(BeadRow(draw(st.integers(-8, 8)), P(sorted(parts, reverse=True))))
    return AbacusConfig(n, ell, tuple(rows))


# ---------------------------------------------------------------------------
# independent oracles


def cells_of(lam):
    """Iterate over the cells (row, col) of lam, both 1-indexed."""
    for r, p in enumerate(lam, start=1):
        for c in range(1, p + 1):
            yield (r, c)


def occupied_slots_oracle(lam, charge, lo, hi):
    """Occupied slots of the bead row, straight from the defining formula."""
    lam = P(lam)
    slots = set()
    j = 1
    while True:
        s = lam.part(j) - j + charge
        if s < lo:
            break
        slots.add(s)
        j += 1
    return sorted(s for s in slots if lo <= s <= hi)


def ribbons_by_skew_shapes(lam, length):
    """All mu obtained from lam by adding one ribbon, via skew-shape search.

    Returns {rightmost column: mu}.  A ribbon is a connected skew shape with
    at most one cell over each diagonal position.
    """
    lam = P(lam)
    out = {}
    rows = len(lam) + length
    for mu in _partitions_containing(lam, length, rows):
        cells = set(cells_of(mu)) - set(cells_of(lam))
        if len(cells) != length:
            continue
        diagonals = [c - r for (r, c) in cells]
        if len(set(diagonals)) != length:
            continue
        if not _connected(cells):
            continue
        out[max(diagonals)] = mu
    return out


def _partitions_containing(lam, extra, max_rows):
    """All partitions of |lam| + extra containing lam."""
    results = []

    def build(prefix, remaining, row):
        if remaining == 0:
            tail = list(lam[row - 1 :])
            if not tail or not prefix or prefix[-1] >= tail[0]:
                results.append(P([p for p in prefix + tail if p > 0]))
            return
        if row > max_rows:
            return
        lo = lam.part(row)
        hi = min(prefix[-1] if prefix else lo + remaining, lo + remaining)
        for v in range(lo, hi + 1):
            build(prefix + [v], remaining - (v - lo), row + 1)

    build([], extra, 1)
    return results


def _connected(cells):
    cells = set(cells)
    start = next(iter(cells))
    seen = {start}
    stack = [start]
    while stack:
        r, c = stack.pop()
        for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen == cells


@lru_cache(maxsize=None)
def _strip_cores_cached(parts, length):
    lam = P(parts)
    removable = ribbons_by_skew_shapes_removals(lam, length)
    if not removable:
        return frozenset([lam])
    cores = frozenset()
    for mu in removable:
        cores |= _strip_cores_cached(mu, length)
    return cores


def strip_cores(lam, length):
    """All partitions reachable by removing ribbons until none can be removed."""
    return set(_strip_cores_cached(P(lam), length))


def ribbons_by_skew_shapes_removals(lam, length):
    """All mu obtained from lam by removing one ribbon (skew-shape search)."""
    lam = P(lam)
    out = []
    for mu in partitions_up_to(lam.size - length):
        if mu.size != lam.size - length:
            continue
        if any(mu.part(r) > lam.part(r) for r in range(1, len(mu) + 1)):
            continue
        cells = set(cells_of(lam)) - set(cells_of(mu))
        diagonals = [c - r for (r, c) in cells]
        if len(set(diagonals)) == length and _connected(cells):
            out.append(mu)
    return out


def signature_oracle(brackets):
    """Reduce a bracket string, or a list of ("(" | ")", payload) tokens,
    by repeatedly deleting adjacent "()" pairs; a string gives a string and
    a list the list of tokens left.  Item [0] is the bracket either way."""
    s = list(brackets)
    changed = True
    while changed:
        changed = False
        for i in range(len(s) - 1):
            if s[i][0] == "(" and s[i + 1][0] == ")":
                del s[i : i + 2]
                changed = True
                break
    return "".join(s) if isinstance(brackets, str) else s


def _uncanceled_counts(tokens):
    """(number of ")", number of "(") that `signature_oracle` leaves."""
    left = [char for char, _ in signature_oracle(tokens)]
    return left.count(")"), left.count("(")


def eps_phi(psi, i):
    """(eps_i, phi_i) of an abacus configuration under the gap rule: the
    ")" and "(" left of its color-i tokens by the deletion oracle.  Read off
    the token list, independent of `crystal._gap_signatures`."""
    n = psi.n
    return _uncanceled_counts([t for t in abacus_brackets(psi) if t[1][0] % n == i % n])


def wt(psi):
    """phi - eps at every color: the weight's tuple of Lambda_i coefficients."""
    return tuple(phi - eps for eps, phi in (eps_phi(psi, i) for i in range(psi.n)))


def abacus_brackets(psi):
    """The gap rule's tokens of every color as ("(" | ")", (gap, row, bead))
    pairs, sorted by payload: gaps left to right, rows bottom to top.

    A token-list oracle for `crystal._gap_signatures`, which files the same
    tokens as integers.  A bead at slot b gives "(" at gap b+1 when slot
    b+1 is empty, and ")" at gap b when slot b-1 is empty; only the beads of
    the partition and the first bead of the compact tail can have an empty
    neighbour.
    """
    tokens = []
    for r_idx, row in enumerate(psi.rows):
        c = row.charge
        prev = None  # part of the bead to the right, None for the first bead
        for j, p in enumerate(row.partition + (0,), 1):
            if p == prev:
                continue
            tokens.append(("(", (p - j + c + 1, r_idx, j)))
            if prev is not None:
                tokens.append((")", (prev - j + 1 + c, r_idx, j - 1)))
            prev = p
    tokens.sort(key=lambda t: t[1])
    return tokens


def column_brackets(columns, n):
    """Tokens of the signature rule on bead sets, every color; the payload
    is (k, color) for the set index k.

    `columns` lists (k, residues) from the vacuum side in.  A residue r of
    column k gives a ")" of color r and a "(" of color r+1 (mod n), and the
    column gives all its ")" before its "(".  The first column stands for
    the untouched tail beyond the last displaced set, so it gives only its
    "(".  The token-list form of `crystal._bead_set_signatures`.
    """
    tokens = []
    for c, (k, residues) in enumerate(columns):
        if c:
            tokens += [(")", (k, r % n)) for r in residues]
        tokens += [("(", (k, (r + 1) % n)) for r in residues]
    return tokens


def _reduce_colors(tokens, n):
    """`signature_reduce` of the tokens of each color 0..n-1: each token is
    filed under its color, in order, and each color is reduced on its own.
    The payloads are the bead-set rules' (k, color), with color in 0..n-1
    as `column_brackets` gives it."""
    by_color = [[] for _ in range(n)]
    for token in tokens:
        by_color[token[1][1]].append(token)
    return tuple(map(signature_reduce, by_color))


def path_tokens(path):
    """The path rule's tokens of every color as ("(" | ")", (k, color))
    pairs, read on b_{K+1}, ..., b_1 (K the last deviation): the token-list
    oracle for `kyoto.path_brackets`."""
    K = path.last_position()
    return column_brackets([(k, path.element(k)) for k in range(K + 1, 0, -1)], path.n)


def descending_brackets(psi):
    """The grouped rule's tokens of every color as ("(" | ")", (k, color))
    pairs: column k holds the slots of the k-th beads, one per row, for
    bead sets kmax+1 (the tail) down to 1.

    A token-list oracle for `crystal._grouped_signatures`, whose canceller,
    `crystal._bead_set_signatures`, cancels the same tokens as it reads
    them."""
    kmax = psi.max_bead_index()
    columns = [
        (k, [row.bead_slot(k) for row in psi.rows]) for k in range(kmax + 1, 0, -1)
    ]
    return column_brackets(columns, psi.n)


def grouped_move_by_bead_slots(psi, i, raising):
    """f_i (e_i when raising) of the grouped rule, read off the token list:
    reduce the color-i tokens of `descending_brackets`, and in the bead set
    k that the acting token names move the bead of the least (bead_slot,
    row) pair on a slot of color i-1 one slot right, or the bead of the
    greatest pair on a slot of color i one slot left."""
    first_open, last_close = signature_reduce(
        tokens_of_color(descending_brackets(psi), i, psi.n)
    )
    k = last_close if raising else first_open
    if k is None:
        return None
    color, pick = (i, max) if raising else (i - 1, min)
    beads = [(row.bead_slot(k), r) for r, row in enumerate(psi.rows)]
    _, r = pick(b for b in beads if (b[0] - color) % psi.n == 0)
    return psi.replace_row(r, psi.rows[r].move_bead(k, -1 if raising else 1))


def abacus_brackets_by_gap_scan(psi, i):
    """The gap rule's tokens, probing every color-i gap of the joint window.

    Gap g of a row gives "(" when slot g-1 is occupied and slot g is empty,
    ")" when it is the other way round; gaps left to right, rows bottom to
    top, payload (gap, row, bead).  The bead index of the occupied slot b is
    1 + the number of occupied slots right of b, counted up to the window's
    top, above which every slot is empty.  Outside the window every gap has
    both slots occupied or both empty.
    """
    lo = min(bracket_window(r)[0] for r in psi.rows)
    hi = max(bracket_window(r)[1] for r in psi.rows)
    start = lo + ((i - lo) % psi.n)

    def bead_index(row, b):
        return 1 + sum(1 for s in range(b + 1, hi + 1) if row.occupied(s))

    tokens = []
    for g in range(start, hi + 1, psi.n):
        for r_idx, row in enumerate(psi.rows):
            left = row.occupied(g - 1)
            right = row.occupied(g)
            if left and not right:
                tokens.append(("(", (g, r_idx, bead_index(row, g - 1))))
            elif right and not left:
                tokens.append((")", (g, r_idx, bead_index(row, g))))
    return tokens


def gap_rule_by_slots(psi, i, raising):
    """f_i (or e_i when raising) of the gap rule, moving a bead by slot.

    Reduces the scan's tokens and moves the bead beside the acting gap g:
    from slot g-1 to g for f, from g to g-1 for e.  The row is rebuilt from
    its occupied slots; the bead index in the payload is not used.
    """
    first_open, last_close = signature_reduce(abacus_brackets_by_gap_scan(psi, i))
    token = last_close if raising else first_open
    if token is None:
        return None
    g, r_idx, _ = token
    src, dst = (g, g - 1) if raising else (g - 1, g)
    row = psi.rows[r_idx]
    lo, hi = bracket_window(row)
    slots = set(occupied_slots_oracle(row.partition, row.charge, lo, hi))
    assert src in slots and dst not in slots
    moved = BeadRow.from_occupied(slots - {src} | {dst}, lo)
    return psi.replace_row(r_idx, moved)


def partition_brackets_by_column_scan(lam, i, n, ell):
    """The column rule's tokens, probing both ends of every ribbon of the
    window.

    Column k, of color floor(k / ell) mod n, gives "(" when slot k - ell of
    the charge-0 bead row is occupied and slot k is empty, ")" when it is
    the other way round; payload k, columns left to right.
    """
    lam = P(lam)
    row = BeadRow(0, lam)
    tokens = []
    for k in range(-len(lam) - ell - 1, lam.part(1) + ell + 2):
        if (k // ell) % n != i % n:
            continue
        src = row.occupied(k - ell)
        dst = row.occupied(k)
        if src and not dst:
            tokens.append(("(", k))
        elif dst and not src:
            tokens.append((")", k))
    return tokens


def is_descending_by_bead_slots(psi):
    """Descent bead by bead: row i's j-th bead at or right of row i+1's.

    Row i + 1 is the extended row, so the top row is compared with the
    bottom row shifted n slots to the left.
    """
    for i in range(psi.ell):
        q, r = divmod(i + 1, psi.ell)
        upper = psi.rows[r].shifted(-psi.n * q)
        lower = psi.rows[i]
        jmax = max(len(lower.partition), len(upper.partition)) + 1
        for j in range(1, jmax + 1):
            if lower.bead_slot(j) < upper.bead_slot(j):
                return False
    return True


def greedy_left_push_moves(psi):
    """Compactify by greedy single-slot left moves, counting the moves.

    Works on each row's set of occupied slots: the leftmost bead with an
    empty slot on its left steps into it, until the beads fill a solid run.
    """
    moves = 0
    for row in psi.rows:
        lo, hi = bracket_window(row)  # every slot at or below lo is occupied
        slots = {s for s in range(lo, hi + 1) if row.occupied(s)}
        while True:
            movable = [s for s in slots if s > lo and s - 1 not in slots]
            if not movable:
                break
            s = min(movable)
            slots.remove(s)
            slots.add(s - 1)
            moves += 1
        assert BeadRow.from_occupied(slots, lo) == BeadRow.vacuum(row.charge)
    return moves


def slot_roundtrip(row):
    """The row rebuilt by from_occupied from its occupied slots in its window."""
    lo, hi = bracket_window(row)
    return BeadRow.from_occupied([s for s in range(lo, hi + 1) if row.occupied(s)], lo)


def eps_phi_by_iteration(x, i, apply_e, apply_f):
    """(eps_i, phi_i) by applying the operators until they vanish."""
    eps = 0
    y = apply_e(x, i)
    while y is not None:
        eps += 1
        y = apply_e(y, i)
    phi = 0
    y = apply_f(x, i)
    while y is not None:
        phi += 1
        y = apply_f(y, i)
    return eps, phi


def minus_simple_root(coeffs, i):
    """Subtract alpha_i = 2 Lambda_i - Lambda_{i-1} - Lambda_{i+1} from the
    coefficients of Lambda_0..Lambda_{n-1}."""
    n = len(coeffs)
    out = list(coeffs)
    out[i % n] -= 2
    out[(i - 1) % n] += 1
    out[(i + 1) % n] += 1
    return tuple(out)


def all_perfect_elems(n, ell):
    """Every weakly increasing ell-tuple over 0..n-1: the perfect crystal."""
    out = []

    def build(prefix, lo):
        if len(prefix) == ell:
            out.append(PerfectElem(tuple(prefix)))
            return
        for v in range(lo, n):
            build(prefix + [v], v)

    build([], 0)
    return out


def perfect_eps_phi_by_iteration(b, n):
    """(eps, phi) of a perfect crystal element as tuples, by iteration.

    Applies e_perfect / f_perfect until they vanish, color by color.
    """
    pairs = [
        eps_phi_by_iteration(
            b, i, lambda x, j: e_perfect(x, j, n), lambda x, j: f_perfect(x, j, n)
        )
        for i in range(n)
    ]
    return tuple(e for e, _ in pairs), tuple(p for _, p in pairs)


def descending_tokens_widened(psi, i, extra):
    """The grouped rule's tokens over a window of `extra` more bead sets.

    Read straight off bead_position: block k gives ")" per k-th bead on a
    slot congruent to i and "(" per one congruent to i-1; the set beyond
    the window gives its "(" only.  The payload is k throughout.
    """
    n = psi.n

    def count(k, color):
        return sum(
            1 for r in range(psi.ell) if bead_position(psi, r, k) % n == color % n
        )

    kmax = psi.max_bead_index() + extra
    tokens = [("(", kmax + 1)] * count(kmax + 1, i - 1)
    for k in range(kmax, 0, -1):
        tokens += [(")", k)] * count(k, i) + [("(", k)] * count(k, i - 1)
    return tokens


def path_tokens_widened(path, i, extra):
    """The path's bracket tokens over a window of `extra` more positions.

    Read off Path.element, with (eps_i, phi_i) of each element found by
    iterating the perfect crystal operators.
    """
    n = path.n
    kmax = path.last_position() + extra
    _, phi = perfect_eps_phi_by_iteration(path.element(kmax + 1), n)
    tokens = [("(", kmax + 1)] * phi[i % n]
    for k in range(kmax, 0, -1):
        eps, phi = perfect_eps_phi_by_iteration(path.element(k), n)
        tokens += [(")", k)] * eps[i % n] + [("(", k)] * phi[i % n]
    return tokens


def t_value(box, n, ell):
    """The box ordering function n*x/ell + y - z of box (x, y, z), exact."""
    x, y, z = box
    return Fraction(n * x, ell) + y - z


def slack(psi, j):
    """How many times tighten(-, j) applies before hitting the (j+1)-st beads."""
    m = 0
    while fits_by_bead_position(psi, j, m + 1):
        m += 1
    return m


def gamma_by_slacks(psi):
    """gamma by moving each bead set down by its slack, from the vacuum end
    toward the rightmost bead."""
    for k in range(psi.max_bead_index() + 1, 0, -1):
        psi = shift_bead_set_by_bead_position(psi, k, slack(psi, k))
    return psi


def lambda_by_slack_sums(psi):
    """The slack partition as suffix sums: part j is the slack of psi at
    all bead sets at or beyond j."""
    slacks = [slack(psi, j) for j in range(1, psi.max_bead_index() + 2)]
    parts = []
    total = sum(slacks)
    for w in slacks:
        if total == 0:
            break
        parts.append(total)
        total -= w
    return P(parts)


def cpp_by_white_beads(psi):
    """Literal construction of the cylindric plane partition from bead counts.

    Entry (i, p_i + w - 1) is the number of beads to the right of the w-th
    empty slot of row i, counting empty slots from the left.
    """
    profile = []
    rows = []
    for row in psi.rows:
        profile.append(row.charge)
        floor = row.charge - len(row.partition) - 1
        hi = row.charge + row.partition.part(1) + 1
        occupied = [s for s in range(floor, hi + 1) if row.occupied(s)]
        empties = [s for s in range(floor, hi + 1) if not row.occupied(s)]
        parts = []
        for e in empties:
            count = sum(1 for s in occupied if s > e)
            if count == 0:
                break
            parts.append(count)
        rows.append(P(parts))
    return CylindricPlanePartition(psi.n, psi.ell, tuple(profile), tuple(rows))


def eps_phi_perfect(b, n):
    """(eps, phi) as dominant weights: eps_i counts entries i, phi_i entries i-1."""
    eps = tuple(b.count(i) for i in range(n))
    phi = eps[-1:] + eps[:-1]  # phi_i = eps_{i-1}
    return DominantWeight(eps), DominantWeight(phi)


def eps_phi_path(path, i):
    """(eps_i, phi_i) of a path: the ")" and "(" that the deletion oracle
    leaves of its color-i tokens."""
    return _uncanceled_counts(tokens_of_color(path_tokens(path), i, path.n))


def tokens_of_color(tokens, i, n):
    """The color-i tokens of a bead-set rule's all-color string, with the
    set index k as payload, as the per-color oracles give them."""
    return [(char, k) for char, (k, color) in tokens if color == i % n]


def box_color(box, n):
    """The color of box (x, y, z), on diagonal x, column y, at height z:
    y - z + 1 mod n, constant along (x, y + s, z + s)."""
    x, y, z = box
    return (y - z + 1) % n


def addable_boxes(pi, i):
    """Color-i boxes (x, y, z) addable so that every diagonal stays a
    partition, read cell by cell: the cell on column y of diagonal x takes
    a box on top when it is the diagonal's first cell or lower than the
    cell before it.  Past the first zero cell no cell is lower."""
    boxes = []
    for x, start in enumerate(pi.profile):
        for y in range(start, start + len(pi.rows[x]) + 1):
            height = pi.entry(x, y)
            if y == start or pi.entry(x, y - 1) > height:
                boxes.append((x, y, height + 1))
    return [box for box in boxes if box_color(box, pi.n) == i % pi.n]


def removable_boxes(pi, i):
    """Color-i boxes (x, y, z) removable so that every diagonal stays a
    partition, read cell by cell: the top box of a nonzero cell on column y
    of diagonal x, when the cell after it is lower."""
    boxes = []
    for x, start in enumerate(pi.profile):
        for y in range(start, start + len(pi.rows[x])):
            height = pi.entry(x, y)
            if height > pi.entry(x, y + 1):
                boxes.append((x, y, height))
    return [box for box in boxes if box_color(box, pi.n) == i % pi.n]


def reflect_by_search(pi):
    """`cylindric.reflect` by search: column j's first diagonal is found by
    stepping up a period at a time from diagonal 0 while the diagonal starts
    right of j, then down one diagonal at a time while the one below starts
    at or left of j; the column is read down entry by entry to its first
    zero.  Its time grows with the profile's distance from 0."""
    n, ell = pi.n, pi.ell

    def start(i):  # the first column of diagonal i of the periodic array
        q, r = divmod(i, ell)
        return pi.profile[r] - q * n

    profile, rows = [], []
    for j in range(n):
        i = 0
        while start(i) > j:
            i += ell
        while start(i - 1) <= j:
            i -= 1
        profile.append(i)
        parts = []
        while pi.entry(i + len(parts), j):
            parts.append(pi.entry(i + len(parts), j))
        rows.append(P(parts))
    return CylindricPlanePartition(ell, n, tuple(profile), tuple(rows))


def is_valid_cpp_by_cells(pi):
    """The defining conditions cell by cell: nested boundary and double
    monotonicity, comparing entries (i, j) and (i + 1, j) on every column j
    from diagonal i's first one to past the end of both diagonals."""
    ell, n = pi.ell, pi.n
    for i in range(ell):
        p_here = pi.profile[i]
        p_next = pi.profile[(i + 1) % ell] - (n if i + 1 == ell else 0)
        if p_here < p_next:
            return False
        jmax = max(p_here + len(pi.rows[i]), p_next + len(pi.rows[(i + 1) % ell])) + 1
        for j in range(p_here, jmax + 1):
            if pi.entry(i, j) < pi.entry(i + 1, j):
                return False
    return True


def borodin_by_two_words(bd, nmax):
    """The boundary hook product read off the up-step word A and the
    down-step word B together: every index pair (i, j) with A[i] = B[j] = 1
    gives the factors 1/(1 - q^e), e = (i - j) mod N + kN, k >= 0."""
    N = bd.N
    s = euler_inverse(N, nmax)
    for i in range(N):
        if not bd.A[i]:
            continue
        for j in range(N):
            if not bd[j]:
                continue
            d0 = (i - j) % N
            for e in range(d0, nmax + 1, N):
                s = s.times_inv_one_minus(e)
    return s
