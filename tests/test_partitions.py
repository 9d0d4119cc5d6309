import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slncrystals.kyoto import PerfectElem
from slncrystals.partitions import (
    BeadRow,
    Partition,
    _hop,
    add_ribbon,
    combine_quotient,
    ell_core,
    ell_quotient,
    partitions_of,
    remove_ribbon,
)

from helpers import (
    FIG1,
    FIG1_SLOTS,
    FIG2,
    move_bead_by_constructor,
    occupied_slots_oracle,
    partitions_up_to,
    slot_roundtrip,
    ribbons_by_skew_shapes,
    ribbons_by_skew_shapes_removals,
    strip_cores,
)

P = Partition


def test_partition_validation():
    with pytest.raises(ValueError):
        P((1, 2))
    with pytest.raises(ValueError):
        P((2, 0))
    with pytest.raises(ValueError):
        P((0,))
    assert P(()).size == 0
    assert P((3, 1)).conjugate() == P((2, 1, 1))
    assert bool(P(())) is False
    assert bool(P((1,))) is True


# (id, a value, the plain tuple it holds)
TUPLE_VALUES = [
    ("Partition", P((3, 1, 1)), (3, 1, 1)),
    ("BeadRow", BeadRow(2, P((2, 1))), (2, (2, 1))),
    ("PerfectElem", PerfectElem((2, 0, 1)), (0, 1, 2)),
]
REBUILDS = [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy]


@pytest.mark.parametrize(
    "value,plain", [pytest.param(v, t, id=i) for i, v, t in TUPLE_VALUES]
)
def test_value_types_are_the_tuples_they_hold(value, plain):
    assert isinstance(value, tuple) and not hasattr(value, "__dict__")
    assert value == plain and hash(value) == hash(plain)
    for rebuild in REBUILDS:
        again = rebuild(value)
        assert type(again) is type(value) and again == value
        assert repr(again) == repr(value)


def test_copy_and_pickle_rebuild_through_the_validating_constructors():
    # tuple.__new__ skips each check; a rebuild runs it again
    for rebuild in REBUILDS:
        for parts in ((1, 2), (0,)):
            with pytest.raises(ValueError):
                rebuild(tuple.__new__(Partition, parts))
        assert rebuild(tuple.__new__(PerfectElem, (2, 0))) == (0, 2)
    assert PerfectElem((2, 0)) == (0, 2)



def test_conjugate_counts_parts_per_column():
    for lam in partitions_up_to(12):
        cols = [sum(1 for p in lam if p >= c) for c in range(1, lam.part(1) + 1)]
        conj = lam.conjugate()
        assert type(conj) is Partition and conj == P(cols)
        assert lam.conjugate() is conj  # the memo's entry
        assert lam.conjugate().conjugate() == lam
    big = P((10**6,))
    assert big.conjugate() == P((1,) * 10**6)
    assert big.conjugate().conjugate() == big
    Partition.conjugate.cache_clear()  # drop the million-part entries


def test_conjugate_memo_is_bounded():
    maxsize = Partition.conjugate.cache_parameters()["maxsize"]
    assert maxsize is not None and maxsize <= 10_000
    # more distinct partitions than the memo holds: it stays at its bound
    for lam in partitions_up_to(22):
        lam.conjugate()
    assert Partition.conjugate.cache_info().currsize == maxsize


def test_figure1_bead_positions():
    row = BeadRow(0, FIG1)
    got = [b for b in range(-13, 12) if row.occupied(b)]
    assert got == FIG1_SLOTS
    # everything below the listed window is occupied, everything above empty
    assert row.occupied(-14) and row.occupied(-50)
    assert not row.occupied(12) and not row.occupied(100)


def test_empty_partition_rows():
    row = BeadRow(0, P(()))
    assert all(row.occupied(b) for b in range(-10, 0))
    assert not any(row.occupied(b) for b in range(0, 10))
    shifted = BeadRow(3, P(()))
    assert shifted.occupied(2) and not shifted.occupied(3)


def test_beads_and_occupied_match_oracle():
    # floors from below the tail up to past the top bead: a floor above the
    # tail reads only the partition's beads
    for c in range(-3, 4):
        for lam in partitions_up_to(6):
            row = BeadRow(c, lam)
            top = c + lam.part(1)  # the slot just right of the top bead
            window = range(c - len(lam) - 3, top + 3)
            slots = set(occupied_slots_oracle(lam, c, window[0], top + 3))
            for floor in window:
                want = sorted((s for s in slots if s >= floor), reverse=True)
                assert row.beads(floor) == want
                assert row.occupied(floor) == (floor in slots)


def test_bead_row_to_partition_is_inverse():
    for lam in partitions_up_to(12):
        for c in range(-3, 4):
            row = BeadRow(c, lam)
            assert slot_roundtrip(row) == row


def test_from_occupied_against_oracle():
    for lam in partitions_up_to(6):
        for c in (-2, 0, 1):
            lo = -len(lam) - 5 + c
            slots = occupied_slots_oracle(lam, c, lo, 20)
            row = BeadRow.from_occupied(slots, lo)
            assert (row.charge, row.partition) == (c, lam)


def test_slot_sets_of_partitions_of_three():
    # independent bijection table: slot sets of all charge-0 partitions of 3
    table = {}
    for lam in partitions_of(3):
        slots = tuple(occupied_slots_oracle(lam, 0, -5, 10))
        table[slots] = lam
    assert len(table) == 3
    # (2,1) is the one with slot 0 empty and slot 1 full
    row = BeadRow.from_occupied([-5, -4, -3, -1, 1], -5)
    assert (row.charge, row.partition) == (0, P((2, 1)))
    assert table[tuple(occupied_slots_oracle(P((2, 1)), 0, -5, 10))] == P((2, 1))


@settings(max_examples=150)
@given(
    st.lists(st.integers(min_value=1, max_value=30), max_size=8),
    st.integers(min_value=-4, max_value=4),
)
def test_roundtrip_property(parts, charge):
    lam = P(sorted(parts, reverse=True))
    row = BeadRow(charge, lam)
    assert slot_roundtrip(row) == row


@settings(max_examples=300)
@given(
    st.lists(st.integers(1, 6), max_size=5),
    st.integers(-4, 4),
    st.integers(-2, 8),
    st.integers(-3, 3),
)
def test_move_bead_moves_by_slot(parts, charge, j, delta):
    # bead j is the j-th occupied slot from the right; a move that passes no
    # other bead gives the row of the moved slot set, any other is refused
    row = BeadRow(charge, P(sorted(parts, reverse=True)))
    lo = charge - len(row.partition) - 12
    slots = set(occupied_slots_oracle(row.partition, charge, lo, charge + 12))
    if j < 1:
        with pytest.raises(ValueError):
            row.move_bead(j, delta)
        return
    src = sorted(slots, reverse=True)[j - 1]
    crossed = range(min(src, src + delta), max(src, src + delta) + 1)
    if not slots.intersection(crossed) - {src}:
        want = BeadRow.from_occupied(slots - {src} | {src + delta}, lo)
        assert row.move_bead(j, delta) == want
    else:
        with pytest.raises(ValueError):
            row.move_bead(j, delta)


def test_move_bead_matches_constructor_oracle():
    # the check of part j against its neighbours refuses exactly the moves
    # whose result the full Partition constructor refuses; a row move_bead
    # builds unchecked (Partition._trusted, partitions._bead_row) compares,
    # hashes and reprs as the validated one, and so does its partition
    for lam in partitions_up_to(7):
        for charge in (-1, 0, 2):
            row = BeadRow(charge, lam)
            for j in range(0, len(lam) + 5):
                for delta in range(-3, 4):
                    try:
                        want = move_bead_by_constructor(row, j, delta)
                    except ValueError:
                        with pytest.raises(ValueError):
                            row.move_bead(j, delta)
                    else:
                        moved = row.move_bead(j, delta)
                        assert moved == want and hash(moved) == hash(want)
                        assert repr(moved) == repr(want)
                        assert moved.partition == want.partition
                        assert type(moved.partition) is Partition


def test_hop_matches_constructor_on_every_legal_hop():
    # _hop, the one builder of moved parts, against the full Partition
    # constructor on every legal move of every bead by -3..3 slots
    hops = 0
    for lam in partitions_up_to(7):
        row = BeadRow(0, lam)
        for j in range(1, len(lam) + 5):
            for delta in range(-3, 4):
                try:
                    want = move_bead_by_constructor(row, j, delta)
                except ValueError:
                    continue
                assert _hop(lam, j, delta) == want.partition
                hops += 1
    assert hops > 0


def test_figure2_ribbon():
    got = add_ribbon(FIG1, 4, 3)
    assert got == FIG2
    # the moved bead: slot -1 emptied, slot 3 filled
    row = BeadRow(0, got)
    assert not row.occupied(-1) and row.occupied(3)
    assert remove_ribbon(FIG2, 4, 3) == FIG1


def test_single_box():
    assert add_ribbon(P(()), 1, 0) == P((1,))
    assert remove_ribbon(P((1,)), 1, 0) == P(())


def test_add_ribbon_errors():
    with pytest.raises(ValueError):
        add_ribbon(P(()), 4, 10)  # source slot empty
    with pytest.raises(ValueError):
        add_ribbon(P(()), 4, -1)  # target slot occupied


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_ribbon_moves_below_the_ribbon_floor_raise(length):
    # every slot below -len(lam) is occupied, so a rightmost column there
    # names an occupied target to add to, or an occupied target to remove
    # to; many of these sources and targets lie below the ribbon floor
    # -len(lam) - length, outside the bead set the move reads
    for lam in partitions_up_to(6):
        for col in range(-len(lam) - 2 * length - 3, -len(lam)):
            with pytest.raises(ValueError, match="no %d-ribbon" % length):
                add_ribbon(lam, length, col)
            with pytest.raises(ValueError, match="no %d-ribbon" % length):
                remove_ribbon(lam, length, col)


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_add_ribbon_matches_skew_oracle(length):
    for lam in partitions_up_to(8):
        expected = ribbons_by_skew_shapes(lam, length)
        lo = -len(lam) - length - 1
        hi = lam.part(1) + length + 1
        for col in range(lo, hi + 1):
            if col in expected:
                mu = add_ribbon(lam, length, col)
                assert mu == expected[col]
                assert mu.size == lam.size + length
                assert remove_ribbon(mu, length, col) == lam
            else:
                with pytest.raises(ValueError):
                    add_ribbon(lam, length, col)


def test_quotient_one_strand():
    for lam in partitions_up_to(6):
        (q,) = ell_quotient(lam, 1)
        assert q.charge == 0 and q.partition == lam


def test_figure1_quotient():
    q = ell_quotient(FIG1, 4)
    assert list(q) == [
        (-1, (1,)),
        (0, (3, 3)),
        (-1, (2, 1)),
        (2, (1, 1)),
    ]
    assert combine_quotient([BeadRow(c.charge, c.partition) for c in q], 4) == FIG1


def test_figure1_core():
    assert ell_core(FIG1, 4) == P((8, 5, 2, 1))


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_core_and_quotient_sizes(length):
    for lam in partitions_up_to(8):
        q = ell_quotient(lam, length)
        core = ell_core(lam, length)
        assert lam.size == length * sum(c.partition.size for c in q) + core.size
        cores = strip_cores(lam, length)
        assert cores == {core}, "core must not depend on removal order"


def test_core_small_example():
    assert ell_core(P((2, 1, 1)), 2) == P(())


def test_core_invariant_under_add_ribbon():
    for lam in partitions_up_to(6):
        for length in (2, 3):
            for col, mu in ribbons_by_skew_shapes(lam, length).items():
                assert ell_core(mu, length) == ell_core(lam, length)


@pytest.mark.parametrize("length", [1, 2, 3])
def test_ribbon_move_enumeration_matches_oracle(length):
    from slncrystals.partitions import addable_ribbons, removable_ribbons

    for lam in partitions_up_to(7):
        cols = addable_ribbons(lam, length)
        expected = ribbons_by_skew_shapes(lam, length)
        assert sorted(cols) == sorted(expected)
        for col in cols:
            assert add_ribbon(lam, length, col) == expected[col]
        back = removable_ribbons(add_ribbon(lam, length, cols[0]), length)
        assert cols[0] in back


@pytest.mark.parametrize("length", [1, 2, 3])
def test_removable_ribbons_match_oracle(length):
    from slncrystals.partitions import removable_ribbons

    for lam in partitions_up_to(7):
        got = [remove_ribbon(lam, length, k) for k in removable_ribbons(lam, length)]
        expected = ribbons_by_skew_shapes_removals(lam, length)
        assert len(got) == len(expected)
        assert set(got) == set(expected)


def test_normalized_quotient():
    assert tuple(r.partition for r in ell_quotient(FIG1, 4)) == (
        P((1,)),
        P((3, 3)),
        P((2, 1)),
        P((1, 1)),
    )


def test_partitions_of_counts():
    counts = [sum(1 for _ in partitions_of(m)) for m in range(10)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_json_roundtrip():
    lam = P((3, 1, 1))
    assert P.from_json(lam.to_json()) == lam
    row = BeadRow(2, lam)
    assert BeadRow.from_json(row.to_json()) == row
