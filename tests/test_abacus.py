import copy
import itertools
import pickle
import random

import pytest
from hypothesis import assume, given, settings

from slncrystals.abacus import (
    AbacusConfig,
    DominantWeight,
    _config,
    _residues,
    compactify,
    enumerate_descending,
    gamma,
    gl_move,
    highest_weight,
    highest_weight_config,
    is_descending,
    is_tight,
    lambda_part,
    loosen,
    recombine,
    right_moves,
    tighten,
    weight,
)
from slncrystals.crystal import f_abacus, f_descending
from slncrystals.cylindric import from_abacus
from slncrystals.kyoto import Path, f_path, to_path
from slncrystals.partitions import BeadRow, Partition

from helpers import (
    abacus_configs,
    all_level_coeffs,
    assert_same_as_validated,
    config,
    descending_by_validated_product,
    descending_configs,
    fig7,
    fig9,
    fig10,
    gamma_by_slacks,
    greedy_left_push_moves,
    is_descending_by_bead_slots,
    is_tight_by_fits,
    lambda_by_slack_sums,
    partitions_up_to,
    residues_by_bead_position,
    slack,
)

P = Partition


def test_extended_row_identity():
    psi = fig10()
    for i in range(-4, 9):
        for j in range(1, 11):
            assert psi.bead_position(i + 4, j) == psi.bead_position(i, j) - 3


def test_bead_position_figure10_bottom_row():
    # bottom row of the figure: rightmost bead at slot 3, then 1, 0, -2, ...
    psi = fig10()
    assert [psi.bead_position(0, j) for j in range(1, 6)] == [3, 1, 0, -2, -3]


def test_vacuum_bead_positions():
    psi = config(3, 2, (0, ()), (0, ()))
    for j in range(1, 8):
        assert psi.bead_position(0, j) == -j


def test_figures_are_descending():
    assert is_descending(fig9())
    assert is_descending(fig10())
    assert is_descending(fig7())


def test_descent_broken_by_one_move():
    # push the top row's first bead right until it passes the bottom row's
    psi = fig9()
    top = psi.rows[3]
    psi = psi.replace_row(3, top.move_bead(1, 6))
    assert not is_descending(psi)


@settings(max_examples=300, deadline=None)
@given(abacus_configs())
def test_is_descending_matches_bead_slot_oracle(psi):
    assert is_descending(psi) == is_descending_by_bead_slots(psi)


@pytest.mark.parametrize("n,ell,charge,size", [(3, 2, 3, 3), (2, 3, 2, 2)])
def test_is_descending_matches_bead_slot_oracle_exhaustively(n, ell, charge, size):
    # every charge in [-charge, charge] and every partition of at most `size`
    # on each row; the top row meets the bottom one through the wrap
    lams = list(partitions_up_to(size))
    for charges in itertools.product(range(-charge, charge + 1), repeat=ell):
        for parts in itertools.product(lams, repeat=ell):
            psi = AbacusConfig(n, ell, tuple(map(BeadRow, charges, parts)))
            assert is_descending(psi) == is_descending_by_bead_slots(psi)


def test_compactify_figure10():
    assert compactify(fig10()) == fig9()
    assert compactify(fig9()) == fig9()  # idempotent


def test_weight():
    assert weight(fig9()) == 0
    assert weight(fig10()) == 18
    for cfg in descending_configs(3, 2, (1, 1, 0), 4):
        assert weight(cfg) == greedy_left_push_moves(cfg)
        assert weight(compactify(cfg)) == 0


def test_weight_one_after_f():
    psi0 = fig9()
    for i in range(3):
        img = f_abacus(psi0, i)
        if img is not None:
            assert weight(img) == 1


def test_tighten_figure7():
    psi = fig7()
    out = tighten(psi, 2)
    assert out == config(3, 4, (1, (2,)), (0, (2, 1, 1)), (0, (1,)), (0, (1,)))
    assert weight(psi) - weight(out) == 3
    assert loosen(out, 2) == psi


def test_figure7_not_tight():
    assert not is_tight(fig7())
    assert is_tight(fig9())


def test_tighten_loosen_inverse():
    for cfg in descending_configs(3, 2, (2, 0, 0), 5):
        kmax = cfg.max_bead_index() + 1
        for k in range(1, kmax + 1):
            t = tighten(cfg, k)
            if t is not None:
                assert weight(cfg) - weight(t) == 3
                assert loosen(t, k) == cfg
            l = loosen(cfg, k)
            if l is not None:
                assert weight(l) - weight(cfg) == 3
                assert tighten(l, k) == cfg


def test_is_tight_agrees_with_scan():
    for cfg in descending_configs(3, 2, (1, 1, 0), 5):
        kmax = cfg.max_bead_index() + 3
        expect = all(tighten(cfg, k) is None for k in range(1, kmax + 1))
        assert is_tight(cfg) == expect


@pytest.mark.parametrize("n,ell,nmax", [(3, 2, 7), (2, 3, 6), (4, 2, 6), (3, 3, 5)])
def test_parts_reads_match_bead_reads(n, ell, nmax):
    # is_tight and _residues read padded parts; the oracles read each bead
    # through bead_position, on every descending configuration, tight or not
    tight = total = 0
    for coeffs in all_level_coeffs(n, ell):
        for cfg in descending_configs(n, ell, coeffs, nmax):
            assert is_tight(cfg) == is_tight_by_fits(cfg)
            assert _residues(cfg) == residues_by_bead_position(cfg)
            tight += is_tight(cfg)
            total += 1
    assert 0 < tight < total


@settings(max_examples=300, deadline=None)
@given(abacus_configs())
def test_parts_reads_match_bead_reads_on_arbitrary_configs(cfg):
    assert is_tight(cfg) == is_tight_by_fits(cfg)
    assert _residues(cfg) == residues_by_bead_position(cfg)


def test_replace_row_indexes_like_a_list():
    psi = fig9()
    row = BeadRow(psi.rows[-1].charge, Partition((3,)))
    for r in range(-psi.ell, psi.ell):
        got = psi.replace_row(r, row)
        rows = list(psi.rows)
        rows[r] = row
        want = AbacusConfig(psi.n, psi.ell, tuple(rows))
        assert got == want and hash(got) == hash(want) and got.key() == want.key()
        assert repr(got) == repr(want)
    for r in (psi.ell, -psi.ell - 1):
        with pytest.raises(IndexError):
            psi.replace_row(r, row)


def test_unchecked_builders_match_validating_constructors():
    # replace_row, _shift_bead_set (tighten, loosen, recombine) and
    # enumerate_descending build configurations unchecked, through
    # abacus._config; each is the configuration the validating
    # constructors build
    built = 0
    for cfg in descending_configs(3, 2, (1, 1, 0), 5):
        assert_same_as_validated(cfg)
        for moved in right_moves(cfg):
            assert_same_as_validated(moved)
            built += 1
        for k in range(1, cfg.max_bead_index() + 2):
            for out in (tighten(cfg, k), loosen(cfg, k)):
                if out is not None:
                    assert_same_as_validated(out)
                    built += 1
        assert_same_as_validated(recombine(gamma(cfg), lambda_part(cfg)))
    assert built > 0


def test_memos_take_no_part_in_eq_hash_repr():
    psi = fig10()
    plain = config(3, 4, *((r.charge, r.partition.parts) for r in psi.rows))
    f_abacus(psi, 0)
    f_descending(psi, 0)
    assert psi._gap_signatures is not None and psi._set_signatures is not None
    assert plain._gap_signatures is None
    assert plain._set_signatures is None
    assert psi == plain and hash(psi) == hash(plain) and repr(psi) == repr(plain)
    assert not hasattr(psi, "__dict__") and not hasattr(psi.rows[0], "__dict__")


def _with_memos(psi):
    """psi, with both bracket-rule memos filled."""
    f_abacus(psi, 0)
    f_descending(psi, 0)
    assert psi._gap_signatures is not None and psi._set_signatures is not None
    return psi


def test_every_builder_leaves_both_memos_none():
    # no builder hands on a memo, not even from a source whose memos are full
    psi = _with_memos(fig10())
    loose = next(
        _with_memos(cfg)
        for cfg in descending_configs(3, 2, (1, 0, 1), 4)
        if tighten(cfg, 1) is not None
    )
    psi0 = _with_memos(highest_weight_config((1, 0, 1), 3, 2))
    built = [
        AbacusConfig(psi.n, psi.ell, psi.rows),
        AbacusConfig.from_json(psi.to_json()),
        _config(psi.n, psi.ell, psi.rows),
        psi.replace_row(0, psi.rows[0]),
        f_abacus(psi, 0),
        tighten(loose, 1),
    ]
    built += enumerate_descending(psi0, 4)
    assert len(built) > 6 and None not in built
    for cfg in built:
        assert cfg._gap_signatures is None and cfg._set_signatures is None


def test_copies_and_pickles_rebuild_without_memos():
    psi = _with_memos(fig10())
    path = to_path(psi)
    f_path(path, 0)
    assert path._signatures is not None
    values = [psi.rows[0].partition, psi.rows[0], psi, from_abacus(psi), path]

    def pickled(x):
        return pickle.loads(pickle.dumps(x))

    for x in values:
        for copier in (copy.copy, copy.deepcopy, pickled):
            y = copier(x)
            assert type(y) is type(x)
            assert y == x and hash(y) == hash(x) and repr(y) == repr(x)
            if isinstance(y, AbacusConfig):
                assert y._gap_signatures is None and y._set_signatures is None
            if isinstance(y, Path):
                assert getattr(y, "_signatures", None) is None
    assert psi._gap_signatures is not None and path._signatures is not None


@pytest.mark.parametrize("n,ell", [(3, 2), (2, 3), (4, 2), (3, 3)])
def test_enumeration_matches_validated_product(n, ell):
    # the rows enumerate_descending shares between candidates change
    # neither the candidates kept nor their order
    for coeffs in all_level_coeffs(n, ell):
        psi0 = highest_weight_config(coeffs, n, ell)
        got = list(enumerate_descending(psi0, 5))
        want = list(descending_by_validated_product(psi0, 5))
        assert got == want
        assert list(map(hash, got)) == list(map(hash, want))
        assert list(map(repr, got)) == list(map(repr, want))


@pytest.mark.parametrize("n,ell", [(3, 2), (2, 3), (3, 4)])
def test_slack_counts_successive_tightenings(n, ell):
    for coeffs in all_level_coeffs(n, ell):
        for cfg in descending_configs(n, ell, coeffs, 5):
            for j in range(1, cfg.max_bead_index() + 3):
                steps, cur = 0, tighten(cfg, j)
                while cur is not None:
                    steps, cur = steps + 1, tighten(cur, j)
                assert slack(cfg, j) == steps


def test_highest_weight_figure9():
    assert highest_weight(fig9()) == DominantWeight((1, 2, 1))


def test_highest_weight_vacuum():
    psi = config(3, 4, (0, ()), (0, ()), (0, ()), (0, ()))
    assert highest_weight(psi) == DominantWeight((4, 0, 0))


def test_highest_weight_requires_compact():
    with pytest.raises(ValueError):
        highest_weight(fig10())


def test_highest_weight_counts_f_strings():
    # m_i = max { m : f_i^m(psi0) != 0 }
    for coeffs in all_level_coeffs(3, 2):
        psi0 = highest_weight_config(coeffs, 3, 2)
        for i in range(3):
            m = 0
            cur = f_abacus(psi0, i)
            while cur is not None:
                m += 1
                cur = f_abacus(cur, i)
            assert m == coeffs[i]
    assert highest_weight(highest_weight_config((1, 2, 1), 3, 4)) == DominantWeight(
        (1, 2, 1)
    )


def test_gamma_fixes_tight():
    for cfg in descending_configs(3, 2, (1, 0, 1), 5):
        g = gamma(cfg)
        assert is_tight(g)
        assert compactify(g) == compactify(cfg)
        if is_tight(cfg):
            assert g == cfg


def test_gamma_order_independence():
    rng = random.Random(7)
    for cfg in descending_configs(3, 2, (2, 0, 0), 6):
        expect = gamma(cfg)
        for _ in range(3):
            cur = cfg
            while not is_tight(cur):
                ks = [
                    k
                    for k in range(1, cur.max_bead_index() + 2)
                    if tighten(cur, k) is not None
                ]
                cur = tighten(cur, rng.choice(ks))
            assert cur == expect


def test_gamma_invariant_under_loosen():
    for cfg in descending_configs(3, 2, (1, 1, 0), 4):
        for k in range(1, cfg.max_bead_index() + 2):
            l = loosen(cfg, k)
            if l is not None:
                assert gamma(l) == gamma(cfg)


def test_gamma_commutes_with_f():
    for cfg in descending_configs(3, 2, (2, 0, 0), 5):
        for i in range(3):
            img = f_abacus(cfg, i)
            if img is not None:
                assert gamma(img) == f_abacus(gamma(cfg), i)


def test_lambda_part_basics():
    for cfg in descending_configs(3, 2, (1, 1, 0), 5):
        lam = lambda_part(cfg)
        if is_tight(cfg):
            assert lam == P(())
        for k in range(1, cfg.max_bead_index() + 2):
            l = loosen(cfg, k)
            if l is not None and is_tight(cfg):
                assert lambda_part(l).size == 1


def test_weight_decomposition_identity():
    # |psi| = |gamma(psi)| + n * |lambda(psi)|
    for coeffs in all_level_coeffs(3, 2):
        for cfg in descending_configs(3, 2, coeffs, 6):
            assert weight(cfg) == weight(gamma(cfg)) + 3 * lambda_part(cfg).size


def test_recombine_roundtrip():
    for coeffs in all_level_coeffs(3, 2):
        seen = {}
        for cfg in descending_configs(3, 2, coeffs, 6):
            g, lam = gamma(cfg), lambda_part(cfg)
            assert recombine(g, lam) == cfg
            key = (g.key(), lam.parts)
            assert key not in seen
            seen[key] = cfg


# (n, ell, charges, max weight): every level weight of five pairs, then
# charges outside [0, n), which highest_weight_config never gives
DECOMPOSITION_CASES = [
    (n, ell, highest_weight_config(c, n, ell).charges(), w)
    for n, ell, w in ((3, 2, 6), (2, 3, 6), (4, 2, 5), (3, 3, 5), (2, 1, 6))
    for c in all_level_coeffs(n, ell)
] + [(3, 2, (5, 3), 6), (4, 2, (1, -1), 5), (2, 3, (4, 3, 2), 6), (3, 3, (7, 6, 4), 5)]


def _check_decomposition(psi):
    g, lam = gamma(psi), lambda_part(psi)
    assert g == gamma_by_slacks(psi)
    assert lam == lambda_by_slack_sums(psi)
    assert recombine(g, lam) == psi


@pytest.mark.parametrize(
    "n,ell,charges,max_weight",
    DECOMPOSITION_CASES,
    ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
def test_decomposition_matches_slack_oracles(n, ell, charges, max_weight):
    psi0 = config(n, ell, *((c, ()) for c in charges))
    cfgs = list(enumerate_descending(psi0, max_weight))
    assert any(weight(cfg) == max_weight for cfg in cfgs)
    for cfg in cfgs:
        _check_decomposition(cfg)


@settings(max_examples=300, deadline=None)
@given(abacus_configs())
def test_decomposition_matches_slack_oracles_on_random_configs(psi):
    assume(is_descending(psi))
    _check_decomposition(psi)


def test_recombine_trivial():
    g = fig9()
    assert recombine(g, P(())) == g


def test_recombine_long_slack_partitions():
    # slack partitions far larger than the enumerated weight range
    g = highest_weight_config((1, 1, 0), 3, 2)
    for lam in (P((5,)), P((1, 1, 1, 1)), P((3, 2, 2, 1)), P((2, 2, 2, 2, 1))):
        psi = recombine(g, lam)
        assert gamma(psi) == g and lambda_part(psi) == lam
        assert weight(psi) == 3 * lam.size
    one_strand = highest_weight_config((1, 0), 2, 1)
    for lam in (P((3,)), P((2, 2)), P((4, 3, 1))):
        psi = recombine(one_strand, lam)
        assert gamma(psi) == one_strand and lambda_part(psi) == lam
        assert weight(psi) == 2 * lam.size


def test_gl_move_grows_and_shrinks_lambda():
    g = highest_weight_config((1, 1, 0), 3, 2)
    cfg = recombine(g, P((3, 2)))
    up = gl_move(cfg, -3, "up")  # slack row bead at slot -3 moves to -2
    assert lambda_part(up) == P((3, 2, 1)) and gamma(up) == g
    assert gl_move(up, -3, "down") == cfg
    assert lambda_part(gl_move(cfg, 0, "up")) == P((3, 3))
    assert gl_move(cfg, -5, "up") is None  # deep vacuum is immobile


def test_gl_move_on_tight_is_zero():
    psi = fig9()
    for p in range(0, 5):
        assert gl_move(psi, p, "down") is None
    # the only way up from the vacuum slack row is at p = -1
    assert gl_move(psi, -1, "up") is not None


def test_gl_move_inverse():
    for cfg in descending_configs(3, 2, (2, 0, 0), 5):
        for p in range(-4, 4):
            up = gl_move(cfg, p, "up")
            if up is not None:
                assert gl_move(up, p, "down") == cfg
            down = gl_move(cfg, p, "down")
            if down is not None:
                assert gl_move(down, p, "up") == cfg


def test_gl_move_commutes_with_f():
    for cfg in descending_configs(3, 2, (1, 1, 0), 5):
        for p in range(-3, 3):
            for i in range(3):
                moved = gl_move(cfg, p, "up")
                img = f_abacus(cfg, i)
                if moved is not None and img is not None:
                    assert f_abacus(moved, i) == gl_move(img, p, "up")


def _total_charge_mod_n(psi):
    return sum(psi.charges()) % psi.n


def test_total_charge_invariance():
    for cfg in descending_configs(3, 2, (1, 1, 0), 5):
        c = _total_charge_mod_n(cfg)
        for i in range(3):
            img = f_abacus(cfg, i)
            if img is not None:
                assert _total_charge_mod_n(img) == c
        for k in range(1, cfg.max_bead_index() + 2):
            t = tighten(cfg, k)
            if t is not None:
                assert _total_charge_mod_n(t) == c
    assert _total_charge_mod_n(config(3, 2, (0, ()), (0, ()))) == 0
    assert _total_charge_mod_n(fig9()) == (2 + 1 + 1 + 0) % 3


def test_enumeration_matches_bfs():
    # every descending configuration is reachable by one-slot right moves
    psi0 = highest_weight_config((1, 1, 0), 3, 2)
    by_weight = {}
    for cfg in enumerate_descending(psi0, 5):
        by_weight.setdefault(weight(cfg), set()).add(cfg.key())
    frontier = {psi0.key(): psi0}
    for w in range(6):
        assert set(frontier) == by_weight.get(w, set())
        nxt = {}
        for cfg in frontier.values():
            for moved in right_moves(cfg):
                nxt[moved.key()] = moved
        frontier = nxt


def test_json_roundtrip():
    psi = fig10()
    assert AbacusConfig.from_json(psi.to_json()) == psi
