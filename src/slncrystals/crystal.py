"""Crystal operators on partitions and abacus configurations.

All the bracket rules live here: the gap rule on arbitrary abacus
configurations, the signature rule on bead sets (the grouped rule on
descending configurations, and the path rule in kyoto), and the column
rule on partitions.  Each builds a string of brackets, cancels matched "()"
pairs, and acts at the first uncanceled "(" (for a lowering move) or the
last uncanceled ")" (for a raising move).

Each bracket rule on configurations and paths reads the tokens of all n
colors in one walk, so the operators of every color cost one walk.  The gap
rule builds no token list: `_gap_signatures` files each token as one
integer under its color, sorts and cancels each color's integers, and
decodes only the acting tokens to their (gap, row, bead) payloads.  Its
token-list oracle is `tests/helpers.abacus_brackets`.  The grouped and path
rules build (k, color) token lists and reduce them with one all-color
reducer, `_reduce_colors`.  The n signatures are memoised on the object
they describe: the gap rule's on the abacus configuration (crystal_graph
resets a node's memo to None once it has expanded it), the grouped bead-set
rule's on the descending configuration, and the path rule's on the Path (in
kyoto).  The two configuration memos are slots that AbacusConfig declares,
`_gap_signatures` and `_set_signatures`: None until a rule here fills them,
read as plain attributes, and no part of ==, hash, repr, copy or pickle.
The column rule on partitions, partition_brackets, stays per color: no
benchmark workload uses it.

A gap rule token stands at a gap only when the slot across it is empty, so
the move it names is legal on any configuration: f_abacus and e_abacus
build their images unchecked, raising or lowering one part with
`partitions._hop`.  The grouped rule moves through the checked
`BeadRow.move_bead`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .abacus import _set_gap_memo, _set_set_memo, is_descending, weight
from .partitions import (
    Partition,
    _bead_row,
    _hop,
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
    """Cancel "()" pairs in a sequence of ("(" | ")", payload) tokens."""
    stack = []
    closes = []
    for char, payload in tokens:
        if char == "(":
            stack.append(payload)
        elif char == ")":
            if stack:
                stack.pop()
            else:
                closes.append(payload)
        else:
            raise ValueError("bad token %r" % char)
    return Signature(
        first_open=stack[0] if stack else None,
        last_close=closes[-1] if closes else None,
        n_close=len(closes),
        n_open=len(stack),
    )


def _reduce_colors(tokens, n):
    """`signature_reduce` of the tokens of each color 0..n-1, in one pass
    with a stack per color.  The payloads are the bead-set rules' (k, color),
    with color in 0..n-1 as `column_brackets` gives it."""
    opens = [[] for _ in range(n)]
    closes = [[] for _ in range(n)]
    for char, payload in tokens:
        i = payload[1]
        if char == "(":
            opens[i].append(payload)
        elif opens[i]:
            opens[i].pop()
        else:
            closes[i].append(payload)
    return tuple(
        Signature(o[0] if o else None, c[-1] if c else None, len(c), len(o))
        for o, c in zip(opens, closes)
    )


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
    shift = (max([len(row.partition.parts) for row in rows]) + 1).bit_length() + 1
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
        for p in row.partition.parts + (0,):
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
    parts = _hop(row.partition.parts, j, delta)
    return psi.replace_row(r, _bead_row(row.charge, Partition._trusted(parts)))


# ---------------------------------------------------------------------------
# signature rule on bead sets: descending configurations and paths


def column_brackets(columns, n):
    """Tokens of the signature rule on bead sets, every color; the payload
    is (k, color) for the set index k.

    `columns` lists (k, residues) from the vacuum side in.  A residue r of
    column k gives a ")" of color r and a "(" of color r+1 (mod n), and the
    column gives all its ")" before its "(".  The first column stands for
    the untouched tail beyond the last displaced set.  There the ")" of
    each column cancel the "(" of the column beyond it, so the first column
    gives only its "(".  Widening the window by whole columns does not
    change the outcome (checked in the tests).
    """
    tokens = []
    for c, (k, residues) in enumerate(columns):
        if c:
            tokens += [(")", (k, r % n)) for r in residues]
        tokens += [("(", (k, (r + 1) % n)) for r in residues]
    return tokens


def descending_brackets(psi):
    """The grouped rule: column k holds the slots of the k-th beads, one
    per row, for bead sets kmax+1 (the tail) down to 1."""
    kmax = psi.max_bead_index()
    columns = [
        (k, [row.bead_slot(k) for row in psi.rows]) for k in range(kmax + 1, 0, -1)
    ]
    return column_brackets(columns, psi.n)


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
    sigs = psi._set_signatures
    if sigs is None:
        if not is_descending(psi):
            raise ValueError("%s needs a descending configuration" % name)
        sigs = _reduce_colors(descending_brackets(psi), psi.n)
        _set_set_memo(psi, sigs)  # psi is frozen
    sig = sigs[i % psi.n]
    token = sig.first_open if delta > 0 else sig.last_close
    if token is None:
        return None
    k = token[0]
    color, pick = (i - 1, min) if delta > 0 else (i, max)
    beads = [(row.bead_slot(k), r) for r, row in enumerate(psi.rows)]
    _, r = pick(b for b in beads if (b[0] - color) % psi.n == 0)
    return psi.replace_row(r, psi.rows[r].move_bead(k, delta))


# ---------------------------------------------------------------------------
# column rule on partitions


def partition_brackets(lam, i, n, ell):
    """Tokens over columns, left to right; payload is the column index.

    Boxes above column k are colored by floor(k / ell) mod n.  "(" marks an
    addable ell-ribbon with rightmost column k, ")" a removable one.
    """
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
    """BFS closure of a compact descending generator under all f_i.

    Layer d holds the configurations of principal degree d; every f_i edge
    raises the degree by one.

    An image is keyed by its rows' parts before it is built: the gap rule's
    first uncanceled "(" of color i names the bead (row r, index j) that
    f_i moves, so the image's parts are the node's with part j of row r
    raised by one, which `_hop` computes unchecked as `f_abacus` does.  f
    keeps every charge, so these keys sort as `key()` does.  `f_abacus`
    builds each node once, for the first edge into it, and every later
    edge reuses that node.  An expanded node's gap-rule memo is reset to
    None, so no node of the graph keeps one.
    """
    if weight(psi0) != 0 or not is_descending(psi0):
        raise ValueError("crystal_graph needs a compact descending generator")
    layers = [[psi0]]
    edges = []
    for _ in range(max_degree):
        seen = {}  # the rows' parts -> the node built for them
        for node in layers[-1]:
            parts = [row.partition.parts for row in node.rows]
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
            ids[node.key()] = "n%d" % len(ids)
            decls.append('%s [label="%s"];' % (ids[node.key()], node.label()))
        lines.append("  { rank=same; %s }" % " ".join(decls))
    for src, i, dst in graph.edges:
        lines.append('  %s -> %s [label="%d"];' % (ids[src.key()], ids[dst.key()], i))
    lines.append("}")
    return "\n".join(lines) + "\n"
