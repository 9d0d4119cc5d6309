import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slncrystals.abacus import (
    highest_weight_config,
    is_descending,
    is_tight,
    tighten,
    weight,
)
from slncrystals.crystal import (
    _grouped_signatures,
    _signatures,
    crystal_graph,
    e_abacus,
    e_descending,
    e_partition,
    f_abacus,
    f_descending,
    f_partition,
    graph_to_dot,
    partition_brackets,
    signature_reduce,
)
from slncrystals.kyoto import path_brackets, to_path
from slncrystals.partitions import Partition, ell_quotient
from slncrystals.abacus import AbacusConfig, loosen

from helpers import (
    FIG2,
    _reduce_colors,
    abacus_brackets,
    abacus_brackets_by_gap_scan,
    abacus_configs,
    all_level_coeffs,
    assert_same_as_validated,
    bracket_window,
    config,
    descending_brackets,
    descending_configs,
    descending_tokens_widened,
    eps_phi,
    eps_phi_by_iteration,
    fig4,
    fig9,
    gap_rule_by_slots,
    grouped_move_by_bead_slots,
    minus_simple_root,
    partition_brackets_by_column_scan,
    partitions_up_to,
    signature_oracle,
    tight_configs,
    tokens_of_color,
    wt,
)

P = Partition


def tokens(s):
    return [(ch, i) for i, ch in enumerate(s)]


def test_signature_trivial():
    first_open, last_close = signature_reduce(tokens("()"))
    assert first_open is None and last_close is None


def test_signature_simple():
    first_open, last_close = signature_reduce(tokens(")(("))
    assert first_open == 1  # leftmost surviving "("
    assert last_close == 0


@settings(max_examples=300)
@given(st.text(alphabet="()", max_size=24))
def test_signature_against_deletion_oracle(s):
    # the acting tokens are the first "(" and the last ")" that deleting
    # adjacent "()" pairs leaves, payloads included
    left = signature_oracle(tokens(s))
    opens = [j for char, j in left if char == "("]
    closes = [j for char, j in left if char == ")"]
    first_open, last_close = signature_reduce(tokens(s))
    assert first_open == (opens[0] if opens else None)
    assert last_close == (closes[-1] if closes else None)


@settings(max_examples=300)
@given(
    st.integers(1, 5),
    st.lists(st.tuples(st.sampled_from("()"), st.integers(0, 12)), max_size=30),
)
def test_reduce_colors_matches_per_color_reduce(n, chars):
    # payload (token index, color), the color reduced mod n as
    # column_brackets gives it; each color against the deletion oracle
    tokens = [(char, (j, x % n)) for j, (char, x) in enumerate(chars)]
    sigs = _reduce_colors(tokens, n)
    assert len(sigs) == n
    for c in range(n):
        left = signature_oracle([t for t in tokens if t[1][1] == c])
        opens = [p for char, p in left if char == "("]
        closes = [p for char, p in left if char == ")"]
        want = (opens[0] if opens else None, closes[-1] if closes else None)
        assert sigs[c] == want


@settings(max_examples=200)
@given(st.text(alphabet="()", max_size=20))
def test_signature_action_positions(s):
    # acting at the reported position agrees with the deletion oracle's ends
    first_open, last_close = signature_reduce(tokens(s))
    reduced = signature_oracle(s)
    if first_open is not None:
        # flipping the first uncanceled "(" to ")" removes one open bracket
        t = s[:first_open] + ")" + s[first_open + 1 :]
        assert signature_oracle(t).count("(") == reduced.count("(") - 1
    if last_close is not None:
        t = s[:last_close] + "(" + s[last_close + 1 :]
        assert signature_oracle(t).count(")") == reduced.count(")") - 1


def test_f0_on_figure4():
    out = f_abacus(fig4(), 0)
    assert out == config(3, 4, (-1, (1,)), (0, (4, 3)), (-1, (2, 1)), (2, (1, 1, 1)))
    assert e_abacus(out, 0) == fig4()


def test_phi_exhausts_on_compact():
    for coeffs in all_level_coeffs(3, 2):
        psi0 = highest_weight_config(coeffs, 3, 2)
        for i in range(3):
            cur = psi0
            for _ in range(coeffs[i]):
                cur = f_abacus(cur, i)
                assert cur is not None
            assert f_abacus(cur, i) is None
            assert e_abacus(psi0, i) is None


def test_f_e_inverse_exhaustive():
    for coeffs in all_level_coeffs(3, 2):
        for cfg in descending_configs(3, 2, coeffs, 5):
            for i in range(3):
                img = f_abacus(cfg, i)
                if img is not None:
                    assert e_abacus(img, i) == cfg
                img = e_abacus(cfg, i)
                if img is not None:
                    assert f_abacus(img, i) == cfg


@pytest.mark.parametrize("n,ell", [(2, 2), (3, 2), (3, 3)])
def test_descending_rule_matches_gap_rule(n, ell):
    for coeffs in all_level_coeffs(n, ell):
        for cfg in descending_configs(n, ell, coeffs, 5):
            for i in range(n):
                assert f_descending(cfg, i) == f_abacus(cfg, i)
                assert e_descending(cfg, i) == e_abacus(cfg, i)


# (n, ell, degree): every descending configuration of every level weight
GROUPED_RULE_CASES = [
    (1, 3, 6), (2, 2, 6), (3, 2, 5), (2, 3, 5), (4, 2, 4), (3, 3, 4), (5, 2, 4),
]


@pytest.mark.parametrize("n,ell,degree", GROUPED_RULE_CASES)
def test_grouped_signatures_match_token_list(n, ell, degree):
    for coeffs in all_level_coeffs(n, ell):
        for cfg in descending_configs(n, ell, coeffs, degree):
            want = _reduce_colors(descending_brackets(cfg), n)
            assert _grouped_signatures(cfg) == want


@pytest.mark.parametrize("n,ell,degree", GROUPED_RULE_CASES)
def test_grouped_moves_match_bead_slot_pick(n, ell, degree):
    for coeffs in all_level_coeffs(n, ell):
        for cfg in descending_configs(n, ell, coeffs, degree):
            for i in range(n):
                assert f_descending(cfg, i) == grouped_move_by_bead_slots(cfg, i, False)
                assert e_descending(cfg, i) == grouped_move_by_bead_slots(cfg, i, True)


def test_descending_rule_preserves_descent():
    for cfg in descending_configs(3, 2, (1, 1, 0), 5):
        for i in range(3):
            img = f_descending(cfg, i)
            if img is not None:
                assert is_descending(img)


def test_descending_bracket_window_stability():
    for cfg in descending_configs(3, 2, (2, 0, 0), 4):
        tokens = descending_brackets(cfg)
        for i in range(3):
            own = tokens_of_color(tokens, i, 3)
            assert descending_tokens_widened(cfg, i, 0) == own
            base = signature_reduce(own)
            for extra in (3, 6):
                wide = signature_reduce(descending_tokens_widened(cfg, i, extra))
                assert base == wide  # first_open and last_close


def test_descending_rule_rejects_non_descending():
    psi = fig4()
    assert not is_descending(psi)
    for op in (f_descending, e_descending):
        for i in range(3):
            with pytest.raises(ValueError):
                op(psi, i)


def test_gap_rule_window_is_exhaustive():
    # no brackets exist outside the scanned slot window
    for cfg in descending_configs(3, 2, (1, 1, 0), 4):
        lo = min(bracket_window(r)[0] for r in cfg.rows)
        hi = max(bracket_window(r)[1] for r in cfg.rows)
        for g in list(range(lo - 6, lo)) + list(range(hi + 1, hi + 7)):
            for row in cfg.rows:
                assert row.occupied(g - 1) == row.occupied(g)
        tokens = abacus_brackets(cfg)
        assert all(lo <= g <= hi for _, (g, *_) in tokens)


GAP_RULE_PAIRS = [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (3, 4)]


def _assert_gap_rule_matches_scan(cfg):
    # the integer-keyed kernel against the gap scan, color by color; the
    # token-list oracle lists the same tokens as the scan
    tokens = abacus_brackets(cfg)
    assert [t[1] for t in tokens] == sorted(t[1] for t in tokens)
    sigs = _signatures(cfg)
    assert len(sigs) == cfg.n
    for i in range(cfg.n):
        scan = abacus_brackets_by_gap_scan(cfg, i)
        assert sigs[i] == signature_reduce(scan)
        assert [t for t in tokens if t[1][0] % cfg.n == i] == scan


@pytest.mark.parametrize("n,ell", GAP_RULE_PAIRS)
def test_gap_rule_matches_scan_on_crystal_graph(n, ell):
    for coeffs in all_level_coeffs(n, ell):
        graph = crystal_graph(highest_weight_config(coeffs, n, ell), 7)
        for layer in graph.layers:
            for cfg in layer:
                _assert_gap_rule_matches_scan(cfg)


@pytest.mark.parametrize("n,ell", GAP_RULE_PAIRS)
def test_memoised_signatures_match_scan_on_crystal_graph(n, ell):
    for coeffs in all_level_coeffs(n, ell):
        graph = crystal_graph(highest_weight_config(coeffs, n, ell), 7)
        for layer in graph.layers:
            for cfg in layer:
                # crystal_graph keeps no memo past a node's expansion
                assert cfg._gap_signatures is None
                f_abacus(cfg, 0)
                memo = cfg._gap_signatures
                assert _signatures(cfg) is memo
                assert memo == tuple(
                    signature_reduce(abacus_brackets_by_gap_scan(cfg, i))
                    for i in range(n)
                )


@pytest.mark.parametrize("n,ell", GAP_RULE_PAIRS)
def test_crystal_graph_edges_are_f_abacus(n, ell):
    # the BFS keys an image by its parts before f_abacus builds it; its
    # edges are still every f_abacus image of the expanded layers, in layer
    # and color order, each the very node that the next layer holds
    degree = 7
    for coeffs in all_level_coeffs(n, ell):
        graph = crystal_graph(highest_weight_config(coeffs, n, ell), degree)
        nodes = [cfg for layer in graph.layers for cfg in layer]
        assert all(cfg._gap_signatures is None for cfg in nodes)
        want = []
        for layer in graph.layers[:degree]:
            for x in layer:
                for i in range(n):
                    img = f_abacus(x, i)
                    if img is not None:
                        want.append((x, i, img))
        assert graph.edges == want
        assert all(got[0] is x for got, (x, _, _) in zip(graph.edges, want))
        for d, layer in enumerate(graph.layers[1:]):
            held = {cfg: cfg for cfg in layer}
            targets = [t for s, _, t in graph.edges if weight(s) == d]
            assert all(held[t] is t for t in targets)
            assert set(targets) == set(held)


@pytest.mark.parametrize("n,ell", [(3, 2), (2, 3)])
def test_memo_is_not_shared_with_images(n, ell):
    for coeffs in all_level_coeffs(n, ell):
        for cfg in descending_configs(n, ell, coeffs, 4):
            _signatures(cfg)
            for op in (f_abacus, e_abacus):
                for i in range(n):
                    img = op(cfg, i)
                    if img is None:
                        continue
                    fresh = AbacusConfig.from_json(img.to_json())
                    assert img == fresh and img._gap_signatures is None
                    assert _signatures(img) == _signatures(fresh)
                    assert _signatures(img) is not _signatures(cfg)


@pytest.mark.parametrize("n,ell", GAP_RULE_PAIRS)
def test_memoised_grouped_signatures_match_widened_tokens(n, ell):
    for coeffs in all_level_coeffs(n, ell):
        for cfg in descending_configs(n, ell, coeffs, 5):
            f_descending(cfg, 0)
            memo = cfg._set_signatures
            e_descending(cfg, n - 1)
            assert cfg._set_signatures is memo
            for i in range(n):
                # the widened oracle's payload is k; the memo's is (k, i)
                own = [(c, (k, i)) for c, k in descending_tokens_widened(cfg, i, 0)]
                assert memo[i] == signature_reduce(own)


@pytest.mark.parametrize("n,ell", [(3, 2), (2, 3)])
def test_grouped_memo_is_not_shared_with_images(n, ell):
    for coeffs in all_level_coeffs(n, ell):
        for cfg in descending_configs(n, ell, coeffs, 4):
            f_descending(cfg, 0)
            for op in (f_descending, e_descending):
                for i in range(n):
                    img = op(cfg, i)
                    if img is None:
                        continue
                    fresh = AbacusConfig.from_json(img.to_json())
                    assert img == fresh and img._set_signatures is None
                    assert op(img, i) == op(fresh, i)
                    assert img._set_signatures == fresh._set_signatures
                    assert img._set_signatures is not cfg._set_signatures


@pytest.mark.parametrize("n,ell", GAP_RULE_PAIRS)
def test_gap_rule_matches_scan_on_descending(n, ell):
    for coeffs in all_level_coeffs(n, ell):
        for cfg in descending_configs(n, ell, coeffs, 5):
            _assert_gap_rule_matches_scan(cfg)


@settings(max_examples=300, deadline=None)
@given(abacus_configs())
def test_gap_rule_matches_scan_on_arbitrary_configs(cfg):
    _assert_gap_rule_matches_scan(cfg)


def _staircase(length):
    """Distinct parts length, ..., 1: every bead has an empty neighbour,
    so bead indices 1..length+1 all name tokens."""
    return tuple(range(length, 0, -1))


# the largest len(parts) + 2 just below, at and just above a power of two
SHIFT_EDGE_LENGTHS = [m + d - 2 for m in (4, 8, 16, 32) for d in (-1, 0, 1)]


@pytest.mark.parametrize("length", SHIFT_EDGE_LENGTHS)
@pytest.mark.parametrize("n,ell", [(1, 1), (3, 2), (2, 3)])
def test_gap_rule_matches_scan_at_bead_index_width_edges(length, n, ell):
    # the key leaves room for bead index length + 1; the widest row sets it,
    # and shorter rows share it
    rows = [(1 - r, _staircase(length if r == 0 else r)) for r in range(ell)]
    _assert_gap_rule_matches_scan(config(n, ell, *rows))
    rows = [(r, _staircase(max(length - r, 0))) for r in range(ell)]
    _assert_gap_rule_matches_scan(config(n, ell, *rows))


@pytest.mark.parametrize("base", [-(2**45) - 3, -(10**15), 2**40 + 1, 3 * 2**50])
@pytest.mark.parametrize("n,ell", [(1, 2), (3, 2), (5, 3)])
def test_gap_rule_matches_scan_at_far_gaps(base, n, ell):
    rows = [(base + 2 * r, _staircase(3 + r)) for r in range(ell)]
    _assert_gap_rule_matches_scan(config(n, ell, *rows))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gap_rule_matches_token_oracle_across_far_apart_rows(n):
    # rows too far apart for the window scan: reduce the token-list oracle
    cfg = config(n, 3, (-(2**41), (4, 4, 1)), (7, (2, 1)), (2**41 + 5, (3,)))
    tokens = abacus_brackets(cfg)
    for i in range(n):
        own = [t for t in tokens if t[1][0] % n == i]
        assert _signatures(cfg)[i] == signature_reduce(own)


def test_gap_rule_with_one_color():
    # n = 1: every gap has color 0.  Row 0 holds slots 1, -2, -3, ... and
    # row 1 slots -1, -2, ...: gaps -1, 0, 1, 2 read "(()(", and the ")" of
    # gap 1 cancels the "(" of gap 0
    cfg = config(1, 2, (0, (2,)), (0, ()))
    sig = _signatures(cfg)[0]
    tokens = abacus_brackets(cfg)
    assert sig == signature_reduce(tokens)
    assert [c for c, _ in tokens] == ["(", "(", ")", "("]
    assert sig == ((-1, 0, 2), None)
    for i in range(3):
        assert f_abacus(cfg, i) == gap_rule_by_slots(cfg, 0, raising=False)
        assert e_abacus(cfg, i) == gap_rule_by_slots(cfg, 0, raising=True)


@settings(max_examples=300, deadline=None)
@given(abacus_configs())
def test_gap_rule_moves_the_bead_beside_the_gap(cfg):
    # f_abacus / e_abacus move bead j of the token; the oracle moves the
    # bead on the slot next to the acting gap
    for i in range(cfg.n):
        assert f_abacus(cfg, i) == gap_rule_by_slots(cfg, i, raising=False)
        assert e_abacus(cfg, i) == gap_rule_by_slots(cfg, i, raising=True)


def _gap_images_match_checked_moves(cfg):
    """f_abacus and e_abacus of every color build, unchecked, the image
    that `BeadRow.move_bead` builds with its checks.  Returns (len, part j,
    j, delta) of each move made, for the callers to see which kinds of move
    they covered."""
    moves = []
    for i, (first_open, last_close) in enumerate(_signatures(cfg)):
        for op, token, delta in (
            (f_abacus, first_open, 1),
            (e_abacus, last_close, -1),
        ):
            img = op(cfg, i)
            if token is None:
                assert img is None
                continue
            _, r, j = token
            row = cfg.rows[r]
            assert img == cfg.replace_row(r, row.move_bead(j, delta))
            assert_same_as_validated(img)
            moves.append((len(row.partition), row.partition.part(j), j, delta))
    return moves


@pytest.mark.parametrize("n,ell", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)])
def test_unchecked_gap_images_match_move_bead_on_crystal_graph(n, ell):
    moves = []
    for coeffs in all_level_coeffs(n, ell):
        graph = crystal_graph(highest_weight_config(coeffs, n, ell), 6)
        for layer in graph.layers:
            for cfg in layer:
                moves += _gap_images_match_checked_moves(cfg)
    # the tail bead j = len + 1 moves right, and a lowering empties a last
    # part 1, so the image has one part less
    assert any(j == m + 1 and delta == 1 for m, _, j, delta in moves)
    assert any(j == m and p == 1 and delta == -1 for m, p, j, delta in moves)


@settings(max_examples=300, deadline=None)
@given(abacus_configs())
def test_unchecked_gap_images_match_move_bead_on_arbitrary_configs(cfg):
    _gap_images_match_checked_moves(cfg)


def test_f_partition_figure3():
    assert f_partition(FIG2, 0, 3, 4) == P((14, 13, 10, 9, 8, 8, 3, 3, 3, 1))
    assert e_partition(P((14, 13, 10, 9, 8, 8, 3, 3, 3, 1)), 0, 3, 4) == FIG2


def test_f_partition_on_empty():
    # the first addable 0-colored ribbon is the full column
    for n, ell in ((3, 2), (3, 4), (2, 3)):
        out = f_partition(P(()), 0, n, ell)
        assert out == P((1,) * ell)
        for i in range(1, n):
            assert f_partition(P(()), i, n, ell) is None
        assert e_partition(P(()), 0, n, ell) is None


def test_partition_brackets_match_column_scan():
    for lam in partitions_up_to(10):
        for ell in range(1, 5):
            for n in range(2, 5):
                for i in range(n):
                    assert partition_brackets(
                        lam, i, n, ell
                    ) == partition_brackets_by_column_scan(lam, i, n, ell)


def _abacus_of(lam, n, ell):
    return AbacusConfig(n, ell, ell_quotient(lam, ell))


@pytest.mark.parametrize("ell", [2, 4])
def test_partition_rule_matches_abacus_rule(ell):
    n = 3
    for lam in partitions_up_to(10):
        psi = _abacus_of(lam, n, ell)
        for i in range(n):
            img = f_partition(lam, i, n, ell)
            expect = _abacus_of(img, n, ell) if img is not None else None
            assert f_abacus(psi, i) == expect
            img = e_partition(lam, i, n, ell)
            expect = _abacus_of(img, n, ell) if img is not None else None
            assert e_abacus(psi, i) == expect


def test_eps_phi_matches_iteration():
    for cfg in descending_configs(3, 2, (1, 1, 0), 5):
        for i in range(3):
            fast = eps_phi(cfg, i)
            slow = eps_phi_by_iteration(cfg, i, e_abacus, f_abacus)
            assert fast == slow
            assert fast[0] >= 0 and fast[1] >= 0


def test_wt_of_generator_is_highest_weight():
    for coeffs in all_level_coeffs(3, 2):
        psi0 = highest_weight_config(coeffs, 3, 2)
        assert wt(psi0) == coeffs


def test_wt_drops_by_simple_root():
    for cfg in descending_configs(3, 2, (2, 0, 0), 4):
        before = wt(cfg)
        for i in range(3):
            img = f_abacus(cfg, i)
            if img is not None:
                assert wt(img) == minus_simple_root(before, i)


def test_tight_closed_under_f():
    for coeffs in all_level_coeffs(3, 2):
        for cfg in tight_configs(3, 2, coeffs, 5):
            for i in range(3):
                img = f_abacus(cfg, i)
                if img is not None:
                    assert is_tight(img)


def test_tk_f_commutation_with_zero_patterns():
    for coeffs in all_level_coeffs(3, 2):
        for cfg in descending_configs(3, 2, coeffs, 5):
            kmax = cfg.max_bead_index() + 1
            for i in range(3):
                fi = f_abacus(cfg, i)
                ei = e_abacus(cfg, i)
                for k in range(1, kmax + 1):
                    tk = tighten(cfg, k)
                    if tk is None:
                        continue
                    # f_i(T_k psi) = T_k(f_i psi), including matching zeros
                    lhs = f_abacus(tk, i)
                    rhs = tighten(fi, k) if fi is not None else None
                    assert lhs == rhs
                    lhs = e_abacus(tk, i)
                    rhs = tighten(ei, k) if ei is not None else None
                    assert lhs == rhs


def test_sources_are_loosenings_of_generator():
    # vertices with all e_i = 0 are exactly the T_k*-orbit of the generator
    for coeffs in all_level_coeffs(3, 2):
        psi0 = highest_weight_config(coeffs, 3, 2)
        orbit = {psi0}
        frontier = [psi0]
        while frontier:
            cur = frontier.pop()
            if weight(cur) >= weight(psi0) + 3 * 2:
                continue
            for k in range(1, cur.max_bead_index() + 2):
                nxt = loosen(cur, k)
                if nxt is not None and nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        for cfg in descending_configs(3, 2, coeffs, 6):
            is_source = all(e_abacus(cfg, i) is None for i in range(3))
            assert is_source == (cfg in orbit)


def test_crystal_graph_layers():
    psi0 = fig9()
    graph = crystal_graph(psi0, 4)
    assert graph.layers[0] == [psi0]
    # every degree up to the bound has a layer, and no layer is empty
    assert len(graph.layers) == 4 + 1
    assert all(graph.layer_sizes())
    # one edge out of the generator per color with positive multiplicity
    assert len(graph.layers[1]) == sum(1 for m in (1, 2, 1) if m)
    # layers enumerate exactly the tight configurations of each weight
    for d, layer in enumerate(graph.layer_sizes()):
        got = set(graph.layers[d])
        expect = {
            c for c in tight_configs(3, 4, (1, 2, 1), 4) if weight(c) == d
        }
        assert got == expect


@settings(max_examples=300, deadline=None)
@given(abacus_configs())
def test_every_configuration_has_an_f_image(cfg):
    # the "(" one gap above the highest bead of all rows is uncanceled: no
    # ")" follows it, since a ")" at gap g needs a bead at slot g
    assert any(f_abacus(cfg, i) is not None for i in range(cfg.n))


def _is_pair(sig):
    return type(sig) is tuple and len(sig) == 2


@settings(max_examples=200, deadline=None)
@given(abacus_configs(), st.text(alphabet="()", max_size=16))
def test_gap_rule_and_token_list_signatures_are_plain_pairs(cfg, s):
    # a signature is the pair (first_open, last_close) itself
    sigs = _signatures(cfg)
    assert len(sigs) == cfg.n and all(map(_is_pair, sigs))
    assert _is_pair(signature_reduce(tokens(s)))


def test_bead_set_signatures_are_plain_pairs():
    for cfg in tight_configs(3, 2, (1, 0, 1), 4):
        for sigs in (_grouped_signatures(cfg), path_brackets(to_path(cfg))):
            assert len(sigs) == 3 and all(map(_is_pair, sigs))


def test_crystal_graph_connectivity():
    graph = crystal_graph(fig9(), 4)
    incoming = {t for _, _, t in graph.edges}
    for layer in graph.layers[1:]:
        for node in layer:
            assert node in incoming


def test_dot_output_deterministic():
    g1 = graph_to_dot(crystal_graph(fig9(), 3))
    g2 = graph_to_dot(crystal_graph(fig9(), 3))
    assert g1 == g2
    assert g1.startswith("digraph crystal {")
    assert 'label="0"' in g1
