"""Crystal operators on partitions and abacus configurations.

The bracket rules on partitions and configurations live here: the gap
rule on arbitrary abacus configurations, the signature rule on bead sets
(the grouped rule on descending configurations; kyoto's path rule reads
the same canceller), and the column rule on partitions.  The box rule on
cylindric plane partitions, with f_cpp and e_cpp, lives in cylindric, and
f_path and e_path live in kyoto.  Each rule builds a string of brackets,
cancels matched "()" pairs, and acts at the first uncanceled "(" (for a
lowering move) or the last uncanceled ")" (for a raising move).

Each bracket rule on configurations and paths reads the tokens of all n
colors in one walk, so the operators of every color cost one walk, and
none of them builds a token list.  `_gap_signatures` files each token as
one integer under its color, sorts and cancels each color's integers, and
decodes only the acting tokens to their (gap, row, bead) payloads.  The
signature rule on bead sets is stated once, in `_bead_set_signatures`,
which cancels each token as it reads it, on a per-color state: the
grouped rule (`_grouped_signatures`) feeds it a descending configuration's
bead sets, and the path rule (`kyoto.path_brackets`) a path's elements.
Their token lists exist only as test oracles in `tests/helpers.py`:
`abacus_brackets`, `descending_brackets` and `path_tokens`, reduced per
color by `signature_reduce`, the one canceller of token lists.  The n
signatures are memoised on the object they describe: the gap rule's on the
abacus configuration (crystal_graph resets a node's memo to None once it
has expanded it), the grouped rule's on the descending configuration, and
the path rule's on the Path (in kyoto).  The two configuration memos are
slots that AbacusConfig declares, `_gap_signatures` and `_set_signatures`,
and Path declares its `_signatures` field the same way: each defaults to
None until a rule fills it, is read as a plain attribute, and is no part
of ==, hash, repr, copy or pickle.
The column rule on partitions, partition_brackets, stays per color: no
benchmark workload uses it.

Every bead move builds the row's new parts with `partitions._hop`.  A gap
rule token stands at a gap only when the slot across it is empty, so the
move it names is legal on any configuration: f_abacus and e_abacus call
`_hop` unchecked.  The grouped rule moves through `BeadRow.move_bead`,
which checks the move before it calls `_hop`.  The box rule on cylindric
plane partitions (cylindric.f_cpp and e_cpp) also moves through `_hop`:
adding or removing a box raises or lowers one part of its diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import NamedTuple

from .abacus import _check_generator, _set_gap_memo, _set_set_memo, is_descending
from .partitions import (
    Partition,
    _bead_row,
    _hop,
    _set_slots,
    add_ribbon,
    addable_ribbons,
    remove_ribbon,
    removable_ribbons,
)


class Signature(NamedTuple):
    """Result of canceling matched "()" pairs in a bracket string."""

    first_open: object  # payload of first uncanceled "(", or None
    last_close: object  # payload of last uncanceled ")", or None
    n_close: int
    n_open: int


def signature_reduce(tokens):
    """Cancel "()" pairs in a sequence of ("(" | ")", payload) tokens.

    The uncanceled "(" form a stack of which only the bottom is read, so
    the stack is kept as its depth and its bottom: the "(" that last
    raised the depth from zero.
    """
    depth = n_close = 0
    first = last = None
    for char, payload in tokens:
        if char == "(":
            if not depth:
                first = payload
            depth += 1
        elif char == ")":
            if depth:
                depth -= 1
            else:
                n_close += 1
                last = payload
        else:
            raise ValueError("bad token %r" % char)
    # tuple.__new__ skips the NamedTuple's argument binding
    return tuple.__new__(Signature, (first if depth else None, last, n_close, depth))


# ---------------------------------------------------------------------------
# gap rule on arbitrary abacus configurations


def _signatures(psi):
    """The gap rule's Signature of each color 0..n-1, memoised on psi."""
    sigs = psi._gap_signatures
    if sigs is None:
        sigs = _gap_signatures(psi)
        _set_gap_memo(psi, sigs)  # psi is frozen
    return sigs


def _gap_signatures(psi):
    """The gap rule's tokens of every color, reduced in one pass per color.

    Gap g sits between slots g-1 and g and carries color g mod n.  A bead
    that can hop right across the gap gives "(", one that can hop left gives
    ")".  Payload is (gap, row, bead): bead is the index j of the bead that
    hops across the gap, counted from the right of its row as in
    `BeadRow.bead_slot`.  Each color reads its tokens in payload order: gaps
    left to right, rows bottom to top.

    The tokens are read off one walk over each row's parts: a bead at slot
    b gives "(" at gap b+1 when slot b+1 is empty, and ")" at gap b when
    slot b-1 is empty.  A gap carries a token only when exactly one of its
    two slots holds a bead, so every token belongs to a bead with an empty
    neighbour.  Above the first bead every slot is empty, and every slot
    below the first bead of the compact tail (slot charge - len - 1) is
    occupied, so the partition's beads and that one tail bead are the only
    beads that can have one.

    Each token is one integer, ((gap*ell + row) << S) | (bead << 1) | is_open,
    appended to its color's bucket; S leaves room for the largest bead index,
    len(parts) + 1.  A gap holds a "(" or a ")" of a row, never both, so a
    sorted bucket is in payload order.  One pass cancels each bucket with a
    stack kept as its depth and its bottom "(", and only the first
    uncanceled "(" and the last uncanceled ")" are decoded to payloads.  The
    token list itself is built only by the test oracle
    `tests/helpers.abacus_brackets`.
    """
    n, ell, rows = psi.n, psi.ell, psi.rows
    shift = (max([len(row.partition) for row in rows]) + 1).bit_length() + 1
    unit = ell << shift  # key = gap*unit + (row << shift) + 2*bead + is_open
    buckets = [[] for _ in range(n)]
    for r, row in enumerate(rows):
        c = row.charge + 1  # the gap right of bead j is part(j) - j + c
        low = (r << shift) + 1  # a "(" key is g*unit + low + 2j
        prev = None  # part of the bead to the right, None for the first bead
        j = 0
        # bead j sits at slot part(j) - j + charge; bead j-1 is one slot to
        # its right exactly when the two parts are equal, so only a change of
        # part opens an empty slot between neighbouring beads
        for p in row.partition + (0,):
            j += 1
            if p == prev:
                continue
            g = p - j + c  # "(" of bead j
            buckets[g % n].append(g * unit + low + 2 * j)
            if prev is not None:
                # ")" of bead j-1, whose left slot is empty: 2*(j-1), no is_open
                g = prev - j + c
                buckets[g % n].append(g * unit + low + 2 * j - 3)
            prev = p
    mask = (1 << shift) - 1
    sigs = []
    for bucket in buckets:
        bucket.sort()
        depth = n_close = 0
        first = last = None
        for key in bucket:
            if key & 1:
                if not depth:
                    first = key
                depth += 1
            elif depth:
                depth -= 1
            else:
                n_close += 1
                last = key
        if depth:
            g, rest = divmod(first, unit)
            first = (g, rest >> shift, (rest & mask) >> 1)
        else:
            first = None
        if n_close:
            g, rest = divmod(last, unit)
            last = (g, rest >> shift, (rest & mask) >> 1)
        # tuple.__new__ skips the NamedTuple's argument binding (~8% of this rule)
        sigs.append(tuple.__new__(Signature, (first, last, n_close, depth)))
    return tuple(sigs)


def f_abacus(psi, i):
    """Advance the bead at the first uncanceled "(", or None."""
    return _move_named_bead(psi, _signatures(psi)[i % psi.n].first_open, +1)


def e_abacus(psi, i):
    """Retract the bead at the last uncanceled ")", or None."""
    return _move_named_bead(psi, _signatures(psi)[i % psi.n].last_close, -1)


def _move_named_bead(psi, token, delta):
    """Move by delta the bead a gap-rule token names; None for no token.

    A token stands at a gap only when the slot across it is empty, so the
    move is legal on any configuration and `_hop` builds it unchecked.
    """
    if token is None:
        return None
    _, r, j = token
    row = psi.rows[r]
    parts = _hop(row.partition, j, delta)
    return psi.replace_row(r, _bead_row(row.charge, Partition._trusted(parts)))


# ---------------------------------------------------------------------------
# signature rule on bead sets: descending configurations and paths


def f_descending(psi, i):
    """Lowering via the grouped bead-set rule (descending configurations).

    Advances, in the set of the first uncanceled "(", the leftmost bead on a
    slot of color i-1 (the bottom one of a tie).
    """
    return _descending_move(psi, i, +1, "f_descending")


def e_descending(psi, i):
    """Raising via the grouped bead-set rule (descending configurations).

    Retracts, in the set of the last uncanceled ")", the rightmost bead on a
    slot of color i (the top one of a tie).
    """
    return _descending_move(psi, i, -1, "e_descending")


def _descending_move(psi, i, delta, name):
    """f_descending for delta +1, e_descending for delta -1.

    The n signatures of the grouped rule are memoised on psi, once psi is
    known to be descending; a rejected configuration gets no memo.
    """
    n = psi.n
    sigs = psi._set_signatures
    if sigs is None:
        if not is_descending(psi):
            raise ValueError("%s needs a descending configuration" % name)
        sigs = _grouped_signatures(psi)
        _set_set_memo(psi, sigs)  # psi is frozen
    sig = sigs[i % n]
    token = sig.first_open if delta > 0 else sig.last_close
    if token is None:
        return None
    k = token[0]
    # f moves the lowest slot of color i-1 (the bottom row of a tie), e the
    # highest of color i (the top row of a tie)
    color = (i - 1 if delta > 0 else i) % n
    slots = _set_slots(psi.rows, k)
    beads = [(s, r) for r, s in enumerate(slots) if s % n == color]
    if not beads:
        raise AssertionError("bead set %d has no bead of color %d" % (k, color))
    _, r = min(beads) if delta > 0 else max(beads)
    return psi.replace_row(r, psi.rows[r].move_bead(k, delta))


def _grouped_signatures(psi):
    """The grouped rule's Signature of each color 0..n-1, payload (k, color).

    It is `_bead_set_signatures` of the bead sets: set k holds the k-th
    bead of every row, at slot s = part(k) - k + charge, and the tail set
    is kmax + 1.  `tests/helpers.descending_brackets` builds its token list.
    """
    sets = partial(_set_slots, psi.rows)
    return _bead_set_signatures(sets, psi.max_bead_index() + 1, psi.n)


def _bead_set_signatures(column, top, n):
    """The signature rule on bead sets: the Signature of each color 0..n-1,
    payload (k, color).

    column(k) lists the entries of set k, for k from top down to 1: a
    descending configuration's bead slots, or a path's element b_k.  An
    entry s gives a ")" of color s mod n and a "(" of color s + 1 mod n,
    and each set gives all its ")" before its "(".  Set `top` stands for
    the untouched tail beyond it, where the ")" of each set cancel the "("
    of the set beyond it, so set `top` gives only its "(".  Widening the
    window by whole sets changes nothing (checked in the tests).

    No token list is built: each color keeps the state `signature_reduce`
    keeps, the depth and bottom set of its uncanceled "(", and the count
    and last set of its uncanceled ")".
    """
    depth, bottom, closes, last = [0] * n, [0] * n, [0] * n, [0] * n
    for k in range(top, 0, -1):
        entries = column(k)
        if k < top:  # the tail set gives no ")"
            for s in entries:
                x = s % n
                if depth[x]:
                    depth[x] -= 1
                else:
                    closes[x] += 1
                    last[x] = k
        for s in entries:
            x = (s + 1) % n
            if not depth[x]:
                bottom[x] = k
            depth[x] += 1
    # tuple.__new__ skips the NamedTuple's argument binding
    return tuple([
        tuple.__new__(Signature, ((b, i) if d else None, (c, i) if m else None, m, d))
        for i, (d, b, m, c) in enumerate(zip(depth, bottom, closes, last))
    ])


# ---------------------------------------------------------------------------
# column rule on partitions


def partition_brackets(lam, i, n, ell):
    """Tokens over columns, left to right; payload is the column index.

    Boxes above column k are colored by floor(k / ell) mod n.  "(" marks an
    addable ell-ribbon with rightmost column k, ")" a removable one.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    tokens = [("(", k) for k in addable_ribbons(lam, ell)]
    tokens += [(")", k) for k in removable_ribbons(lam, ell)]
    tokens = [t for t in tokens if (t[1] // ell) % n == i % n]
    return sorted(tokens, key=itemgetter(1))


def f_partition(lam, i, n, ell):
    sig = signature_reduce(partition_brackets(lam, i, n, ell))
    if sig.first_open is None:
        return None
    return add_ribbon(lam, ell, sig.first_open)


def e_partition(lam, i, n, ell):
    sig = signature_reduce(partition_brackets(lam, i, n, ell))
    if sig.last_close is None:
        return None
    return remove_ribbon(lam, ell, sig.last_close)


# ---------------------------------------------------------------------------
# string functions and weights


def eps_phi(psi, i):
    """(eps_i, phi_i) of an abacus configuration from uncanceled brackets."""
    sig = _signatures(psi)[i % psi.n]
    return sig.n_close, sig.n_open


def wt(psi):
    """phi - eps coordinatewise: the weight's tuple of Lambda_i coefficients."""
    return tuple(s.n_open - s.n_close for s in _signatures(psi))


# ---------------------------------------------------------------------------
# graded crystal graph


@dataclass
class CrystalGraph:
    layers: list  # layers[d] = sorted list of AbacusConfig at principal degree d
    edges: list  # (source config, color i, target config)

    def layer_sizes(self):
        return [len(layer) for layer in self.layers]


def crystal_graph(psi0, max_degree):
    """BFS closure of a compact descending generator under all f_i;
    `_check_generator` refuses any other psi0 and a negative max_degree.

    Layer d holds the configurations of principal degree d; every f_i edge
    raises the degree by one.

    An image is keyed by its rows' parts before it is built: the gap rule's
    first uncanceled "(" of color i names the bead (row r, index j) that
    f_i moves, so the image's parts are the node's with part j of row r
    raised by one, which `_hop` computes unchecked as `f_abacus` does.  f
    keeps every charge, so these keys sort as the nodes' rows do.  `f_abacus`
    builds each node once, for the first edge into it, and every later
    edge reuses that node.  An expanded node's gap-rule memo is reset to
    None, so no node of the graph keeps one.
    """
    _check_generator(psi0, max_degree, "crystal_graph")
    layers = [[psi0]]
    edges = []
    for _ in range(max_degree):
        seen = {}  # the rows' parts -> the node built for them
        for node in layers[-1]:
            parts = [row.partition for row in node.rows]
            for i, sig in enumerate(_signatures(node)):
                if sig.first_open is None:
                    continue
                _, r, j = sig.first_open
                old = parts[r]
                parts[r] = _hop(old, j, 1)
                key = tuple(parts)
                parts[r] = old
                img = seen.get(key)
                if img is None:
                    img = seen[key] = f_abacus(node, i)
                edges.append((node, i, img))
            _set_gap_memo(node, None)  # filled by _signatures
        if not seen:
            break
        layers.append([seen[key] for key in sorted(seen)])
    return CrystalGraph(layers, edges)


def graph_to_dot(graph):
    """Deterministic DOT rendering, one rank per principal degree."""
    ids = {}
    lines = ["digraph crystal {", "  rankdir=TB;"]
    for d, layer in enumerate(graph.layers):
        decls = []
        for node in layer:
            ids[node] = "n%d" % len(ids)
            decls.append('%s [label="%s"];' % (ids[node], node.label()))
        lines.append("  { rank=same; %s }" % " ".join(decls))
    for src, i, dst in graph.edges:
        lines.append('  %s -> %s [label="%d"];' % (ids[src], ids[dst], i))
    lines.append("}")
    return "\n".join(lines) + "\n"
