"""Crystal operators on partitions and abacus configurations.

All the bracket rules live here: the gap rule on arbitrary abacus
configurations, the signature rule on bead sets (the grouped rule on
descending configurations, and the path rule in kyoto), and the column
rule on partitions.  Each builds a string of brackets, cancels matched "()"
pairs, and acts at the first uncanceled "(" (for a lowering move) or the
last uncanceled ")" (for a raising move).

Each bracket rule on configurations and paths reads the tokens of all n
colors in one walk, and the gap, grouped and path rules reduce them with
one all-color reducer, so the operators of every color cost one walk.  The
n signatures are memoised on the object they describe: the gap rule's on
the abacus configuration (crystal_graph drops a node's memo once it has
expanded it), the grouped bead-set rule's on the descending configuration,
and the path rule's on the Path (in kyoto).  The column rule on partitions,
partition_brackets, stays per color: no benchmark workload uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .abacus import is_descending, weight
from .partitions import add_ribbon, addable_ribbons, remove_ribbon, removable_ribbons


@dataclass(frozen=True)
class AffineWeight:
    """Integer coefficients of Lambda_0..Lambda_{n-1}; delta is not tracked."""

    coeffs: tuple

    def minus_simple_root(self, i):
        """Subtract alpha_i = 2 Lambda_i - Lambda_{i-1} - Lambda_{i+1}."""
        n = len(self.coeffs)
        out = list(self.coeffs)
        out[i % n] -= 2
        out[(i - 1) % n] += 1
        out[(i + 1) % n] += 1
        return AffineWeight(tuple(out))


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


def _reduce_colors(tokens, n, at):
    """`signature_reduce` of the tokens of each color 0..n-1, in one pass
    with a stack per color.  The color is payload[at] % n, read inline, as a
    call per token would cost the BFS about 10%: `at` is 0 for the gap
    rule's (gap, row, bead) and 1 for the bead-set rule's (k, color)."""
    opens = [[] for _ in range(n)]
    closes = [[] for _ in range(n)]
    for char, payload in tokens:
        i = payload[at] % n
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


def abacus_brackets(psi):
    """Tokens over the gaps of every color, left to right, bottom row to top.

    Gap g sits between slots g-1 and g and carries color g mod n.  A bead
    that can hop right across the gap contributes "(", one that can hop left
    contributes ")".  Payload is (gap, row, bead): bead is the index j of
    the bead that hops across the gap, counted from the right of its row as
    in `BeadRow.bead_slot`.  The tokens of color i are those whose gap is
    congruent to i mod n.

    The tokens are read off one walk over each row's beads: a bead at slot
    b gives "(" at gap b+1 when slot b+1 is empty, and ")" at gap b when
    slot b-1 is empty.  A gap carries a token only when exactly one of its
    two slots holds a bead, so every token belongs to a bead with an empty
    neighbour.  Above the first bead every slot is empty, and every slot
    below the first bead of the compact tail (slot charge - len - 1) is
    occupied, so the partition's beads and that one tail bead are the only
    beads that can have one.
    """
    tokens = []
    for r_idx, row in enumerate(psi.rows):
        c = row.charge
        prev = None  # part of the bead to the right, None for the first bead
        # bead j sits at slot part(j) - j + c; bead j-1 is one slot to its
        # right exactly when the two parts are equal, so only a change of
        # part opens an empty slot between neighbouring beads
        for j, p in enumerate(row.partition.parts + (0,), 1):
            if p == prev:
                continue
            b = p - j + c
            tokens.append(("(", (b + 1, r_idx, j)))
            if prev is not None:
                # bead j-1, whose left slot is empty
                tokens.append((")", (prev - j + 1 + c, r_idx, j - 1)))
            prev = p
    tokens.sort(key=itemgetter(1))
    return tokens


def _signatures(psi):
    """The gap rule's Signature of each color 0..n-1, memoised on psi."""
    sigs = getattr(psi, "_gap_signatures", None)
    if sigs is None:
        sigs = _reduce_colors(abacus_brackets(psi), psi.n, 0)
        object.__setattr__(psi, "_gap_signatures", sigs)  # psi is frozen
    return sigs


def f_abacus(psi, i):
    """Advance the bead at the first uncanceled "(", or None."""
    return _move_named_bead(psi, _signatures(psi)[i % psi.n].first_open, +1)


def e_abacus(psi, i):
    """Retract the bead at the last uncanceled ")", or None."""
    return _move_named_bead(psi, _signatures(psi)[i % psi.n].last_close, -1)


def _move_named_bead(psi, token, delta):
    """Move by delta the bead a gap-rule token names; None for no token."""
    if token is None:
        return None
    _, r_idx, j = token
    return psi.replace_row(r_idx, psi.rows[r_idx].move_bead(j, delta))


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
    sigs = getattr(psi, "_set_signatures", None)
    if sigs is None:
        if not is_descending(psi):
            raise ValueError("%s needs a descending configuration" % name)
        sigs = _reduce_colors(descending_brackets(psi), psi.n, 1)
        object.__setattr__(psi, "_set_signatures", sigs)  # psi is frozen
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
    """phi - eps coordinatewise, as an affine weight without delta."""
    return AffineWeight(tuple(s.n_open - s.n_close for s in _signatures(psi)))


# ---------------------------------------------------------------------------
# graded crystal graph


@dataclass
class CrystalGraph:
    n: int
    layers: list  # layers[d] = sorted list of AbacusConfig at principal degree d
    edges: list  # (source config, color i, target config)

    def layer_sizes(self):
        return [len(layer) for layer in self.layers]


def crystal_graph(psi0, max_degree):
    """BFS closure of a compact descending generator under all f_i.

    Layer d holds the configurations of principal degree d; every f_i edge
    raises the degree by one.
    """
    if weight(psi0) != 0 or not is_descending(psi0):
        raise ValueError("crystal_graph needs a compact descending generator")
    layers = [[psi0]]
    edges = []
    for _ in range(max_degree):
        seen = {}  # key -> the first image with that key
        for node in layers[-1]:
            for i in range(psi0.n):
                img = f_abacus(node, i)
                if img is not None:
                    edges.append((node, i, seen.setdefault(img.key(), img)))
            object.__delattr__(node, "_gap_signatures")  # set by f_abacus
        if not seen:
            break
        layers.append([seen[key] for key in sorted(seen)])
    return CrystalGraph(psi0.n, layers, edges)


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
