import copy
import itertools
import operator
import pickle
import random
import signal
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slncrystals.abacus import (
    AbacusConfig,
    DominantWeight,
    _compositions,
    _config,
    _fits,
    _level_coeffs,
    _residues,
    _rows_of_size,
    _shift_bead_set,
    _split_table,
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
from slncrystals.partitions import BeadRow, Partition, _set_slots
from slncrystals.qseries import Z_bruteforce, boundary_of

from helpers import (
    abacus_configs,
    all_level_coeffs,
    assert_same_as_validated,
    bead_position,
    below,
    column,
    config,
    descending_by_validated_product,
    descending_configs,
    fig7,
    fig9,
    fig10,
    fits_by_bead_position,
    gamma_by_slacks,
    greedy_left_push_moves,
    is_descending_by_bead_slots,
    is_tight_by_fits,
    lambda_by_slack_sums,
    partitions_up_to,
    residues_by_bead_position,
    shift_bead_set_by_bead_position,
    sigma,
    slack,
)

P = Partition


def test_extended_row_identity():
    psi = fig10()
    for i in range(-4, 9):
        for j in range(1, 11):
            assert bead_position(psi, i + 4, j) == bead_position(psi, i, j) - 3


def test_bead_position_figure10_bottom_row():
    # bottom row of the figure: rightmost bead at slot 3, then 1, 0, -2, ...
    psi = fig10()
    assert [bead_position(psi, 0, j) for j in range(1, 6)] == [3, 1, 0, -2, -3]


def test_vacuum_bead_positions():
    psi = config(3, 2, (0, ()), (0, ()))
    for j in range(1, 8):
        assert bead_position(psi, 0, j) == -j


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


def _random_config(rng):
    """A configuration with 1 <= n, ell <= 5, charges -3..3 and at most
    four parts of at most 5 per row; a few of them are descending."""
    n, ell = rng.randint(1, 5), rng.randint(1, 5)
    rows = []
    for _ in range(ell):
        parts = [rng.randint(1, 5) for _ in range(rng.randint(0, 4))]
        rows.append(BeadRow(rng.randint(-3, 3), P(sorted(parts, reverse=True))))
    return AbacusConfig(n, ell, tuple(rows))


def _sigma_forms_agree(psi):
    """Check _fits, is_descending and is_tight against their sigma forms,
    and the column against `_set_slots`; return is_descending(psi)."""
    n, top = psi.n, psi.max_bead_index()
    for k in range(1, top + 3):
        w = column(psi, k)
        assert w == tuple(s + k for s in _set_slots(psi.rows, k))
        for m in range(2 * psi.ell + 2):
            assert _fits(psi, k, m) == below(column(psi, k + 1), sigma(w, n, m))
    # beyond max_bead_index() every column is the charges, so k up to
    # top + 1 covers every k >= 1
    descending = all(below(sigma(column(psi, k), n), column(psi, k))
                     for k in range(1, top + 2))
    assert is_descending(psi) == descending
    tight = not any(below(column(psi, k + 1), sigma(column(psi, k), n))
                    for k in range(1, top + 1))
    assert is_tight(psi) == tight
    return descending


def test_rules_match_their_sigma_form_on_random_configs():
    # w(k) is bead set k's column, part k of each row plus its charge, and
    # sigma moves a column one extended row down: _fits(psi, k, m) iff
    # w(k+1) <= sigma^m(w(k)); descending iff sigma(w(k)) <= w(k) for all
    # k >= 1; tight iff no k <= max_bead_index() has w(k+1) <= sigma(w(k))
    rng = random.Random(2007)
    descending = sum(_sigma_forms_agree(_random_config(rng)) for _ in range(3000))
    assert descending > 0


@pytest.mark.parametrize("n,ell,nmax", [(2, 2, 7), (3, 2, 6), (2, 3, 5), (4, 2, 4)])
def test_rules_match_their_sigma_form_on_descending_configs(n, ell, nmax):
    tight = total = 0
    for coeffs in all_level_coeffs(n, ell):
        for cfg in descending_configs(n, ell, coeffs, nmax):
            assert _sigma_forms_agree(cfg)
            tight += is_tight(cfg)
            total += 1
    assert 0 < tight < total


def _outcome(call, *args):
    """call(*args), or the type and message of the error it raises."""
    try:
        return call(*args)
    except (ValueError, AssertionError) as err:
        return type(err), str(err)


def _tighten_by_bead_position(psi, k):
    if k < 1:
        raise ValueError("bead index must be positive")
    if not fits_by_bead_position(psi, k, 1):
        return None
    return shift_bead_set_by_bead_position(psi, k, 1)


def _loosen_by_bead_position(psi, k):
    if k < 1:
        raise ValueError("bead index must be positive")
    if k > 1 and not fits_by_bead_position(psi, k - 1, 1):
        return None
    return shift_bead_set_by_bead_position(psi, k, -1)


def _recombine_by_bead_position(g, lam):
    if not is_tight_by_fits(g) or not is_descending_by_bead_slots(g):
        raise ValueError("recombine needs a tight descending configuration")
    lam = P(lam)
    for j in range(1, len(lam) + 1):
        if j > 1 and not fits_by_bead_position(g, j - 1, lam.part(j)):
            raise AssertionError("loosening blocked; invalid slack partition")
        g = shift_bead_set_by_bead_position(g, j, -lam.part(j))
    return g


@settings(max_examples=300, deadline=None)
@given(abacus_configs(), st.lists(st.integers(1, 3), max_size=4))
def test_set_moves_match_bead_position_oracles(psi, slack_parts):
    # _fits and _shift_bead_set read the rows' parts; the oracles read each
    # bead through bead_position and bead_slot.  Results, error types and
    # messages agree for sets 0..max+2 moved -3..3 rows, and so do the
    # tighten, loosen and recombine built on them.
    for k in range(0, psi.max_bead_index() + 3):
        for m in range(-3, 4):
            assert _outcome(_shift_bead_set, psi, k, m) == _outcome(
                shift_bead_set_by_bead_position, psi, k, m
            )
            if k > 0:  # _fits is defined for k >= 1
                assert _fits(psi, k, m) == fits_by_bead_position(psi, k, m)
        assert _outcome(tighten, psi, k) == _outcome(_tighten_by_bead_position, psi, k)
        assert _outcome(loosen, psi, k) == _outcome(_loosen_by_bead_position, psi, k)
    lam = P(sorted(slack_parts, reverse=True))
    targets = [psi] + ([gamma(psi)] if is_descending(psi) else [])
    for g in targets:
        assert _outcome(recombine, g, lam) == _outcome(_recombine_by_bead_position, g, lam)


def test_replace_row_indexes_like_a_list():
    psi = fig9()
    row = BeadRow(psi.rows[-1].charge, Partition((3,)))
    for r in range(-psi.ell, psi.ell):
        got = psi.replace_row(r, row)
        rows = list(psi.rows)
        rows[r] = row
        want = AbacusConfig(psi.n, psi.ell, tuple(rows))
        assert got == want and hash(got) == hash(want)
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
    plain = config(3, 4, *psi.rows)
    f_abacus(psi, 0)
    f_descending(psi, 0)
    assert psi._gap_signatures is not None and psi._set_signatures is not None
    assert plain._gap_signatures is None
    assert plain._set_signatures is None
    assert psi == plain and hash(psi) == hash(plain) and repr(psi) == repr(plain)
    assert not hasattr(psi, "__dict__") and not hasattr(psi.rows[0], "__dict__")


def test_config_from_a_list_of_rows_is_the_config_from_a_tuple():
    # the rows are held as a tuple whatever sequence gives them, so the two
    # configurations are one value, hash alike and serve a set-keeping walk
    generator = compactify(fig10())
    for psi in (fig10(), generator):
        listed = AbacusConfig(psi.n, psi.ell, list(psi.rows))
        assert type(listed.rows) is tuple
        assert listed == psi and hash(listed) == hash(psi) and repr(listed) == repr(psi)
    listed = AbacusConfig(generator.n, generator.ell, list(generator.rows))
    assert Z_bruteforce(listed, 4) == Z_bruteforce(generator, 4)


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
    values += [path.weight, boundary_of(path.weight, path.n, path.ell)]

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
                assert y._signatures is None
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


# (n, ell, weight): ell 1 to 4, charges that differ from one weight to the
# next, and weights that repeat a charge
SHARED_TABLE_CASES = [
    (3, 1, (0, 1, 0)),
    (2, 2, (2, 0)),
    (3, 2, (1, 1, 0)),
    (2, 3, (1, 2)),
    (4, 2, (0, 0, 2, 0)),
    (3, 3, (1, 1, 1)),
    (2, 4, (2, 2)),
    (3, 4, (2, 1, 1)),
]


def test_shared_row_tables_across_weights_and_calls():
    # the row tables outlive a call: interleaved weights, each enumerated
    # twice (the second call is served from the caches), give the validated
    # sequence, and the second call hands out the first call's rows
    first = {}
    for rnd in range(2):
        for n, ell, coeffs in SHARED_TABLE_CASES:
            psi0 = highest_weight_config(coeffs, n, ell)
            max_weight = 5 if ell < 4 else 4
            hits = _rows_of_size.cache_info().hits
            got = list(enumerate_descending(psi0, max_weight))
            want = list(descending_by_validated_product(psi0, max_weight))
            assert got == want
            assert list(map(hash, got)) == list(map(hash, want))
            assert list(map(repr, got)) == list(map(repr, want))
            for cfg in got:
                assert_same_as_validated(cfg)
            if rnd == 0:
                first[coeffs] = got
            else:
                assert _rows_of_size.cache_info().hits > hits
                for old, new in zip(first[coeffs], got):
                    assert all(map(operator.is_, old.rows, new.rows))


def test_memo_on_one_configuration_leaves_row_sharers_alone():
    psi0 = highest_weight_config((1, 1, 0), 3, 2)
    cfgs = list(enumerate_descending(psi0, 5))
    target = cfgs[-1]
    f_descending(target, 0)
    f_abacus(target, 0)
    assert target._set_signatures is not None and target._gap_signatures is not None
    sharers = [
        cfg for cfg in cfgs
        if cfg is not target and any(map(operator.is_, cfg.rows, target.rows))
    ]
    assert sharers
    for cfg in cfgs:
        if cfg is not target:
            assert cfg._set_signatures is None and cfg._gap_signatures is None
    for row in target.rows:
        assert not hasattr(row, "__dict__")


def test_enumeration_caches_are_bounded():
    for cached in (_rows_of_size, _split_table):
        assert isinstance(cached.cache_info().maxsize, int)


def compositions_by_first_part(total, parts):
    if parts == 1:
        return [(total,)]
    return [
        (first,) + rest
        for first in range(total + 1)
        for rest in compositions_by_first_part(total - first, parts - 1)
    ]


# (5, 3) has 21 tuples, 63 integers, and is kept; (10, 6) has 3,003 tuples
# and (11, 6) 4,368, yielded lazily
@pytest.mark.parametrize(
    "total,parts", [(0, 1), (4, 1), (5, 3), (3, 9), (10, 6), (11, 6)]
)
def test_compositions_match_first_part_recursion(total, parts):
    want = compositions_by_first_part(total, parts)
    assert list(_compositions(total, parts)) == want
    assert list(_compositions(total, parts)) == want  # a second call agrees


# 6,188 tuples, and the 2,000 level-one weights at n = 2,000: both more
# than the cache keeps, so none of them stays
@pytest.mark.parametrize("total,parts,count", [(12, 6, 6188), (1, 2000, 2000)])
def test_large_compositions_are_not_kept(total, parts, count):
    # a split of another total first fills the interpreter's free list of
    # 6-tuples, which would otherwise count as retained
    list(_compositions(13, 6))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert len(list(_compositions(total, parts))) == count
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 100_000


def test_large_compositions_are_lazy():
    # _compositions(20, 8) has 888,030 tuples; the first comes at once
    start = time.perf_counter()
    assert next(iter(_compositions(20, 8))) == (0,) * 7 + (20,)
    assert time.perf_counter() - start < 0.1


def test_first_yield_does_not_wait_for_larger_weights():
    # a row table is built on first use, so the compact configuration comes
    # first at once, however large max_weight is; the alarm turns a wait
    # into a failure
    psi0 = highest_weight_config((1, 1), 2, 2)

    def too_slow(signum, frame):
        raise TimeoutError("the first yield waited for larger weights")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        first = next(enumerate_descending(psi0, 10**6))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert first == psi0 and weight(first) == 0


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
            key = (g, lam)
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
        by_weight.setdefault(weight(cfg), set()).add(cfg)
    frontier = {psi0}
    for w in range(6):
        assert frontier == by_weight.get(w, set())
        frontier = {moved for cfg in frontier for moved in right_moves(cfg)}


def test_dominant_weight_is_the_tuple_of_its_coefficients():
    # a weight has one form, read from any sequence of its coefficients, and
    # a configuration is its own key
    w = DominantWeight([1, 0])
    assert isinstance(w, tuple) and DominantWeight.__slots__ == ()
    assert w == (1, 0) and hash(w) == hash((1, 0)) and w == DominantWeight((1, 0))
    assert (w.n, w.level, str(w), repr(w)) == (2, 1, "L0", "DominantWeight((1, 0))")
    assert not hasattr(w, "coeffs")
    assert not hasattr(fig10(), "key") and not hasattr(from_abacus(fig10()), "key")


def test_dominant_weight_of_a_dominant_weight_is_itself():
    # a weight is checked once, when it is built; a plain sequence is read
    # and checked every time
    w = DominantWeight((2, 0, 1))
    assert DominantWeight(w) is w
    assert _level_coeffs(w, 3, 3) is w
    for plain in ((2, 0, 1), [2, 0, 1]):
        assert DominantWeight(plain) is not w and DominantWeight(plain) == w


def test_json_roundtrip():
    psi = fig10()
    assert AbacusConfig.from_json(psi.to_json()) == psi
