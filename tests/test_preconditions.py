"""Every library precondition raises instead of computing on bad input."""

import pytest

from slncrystals import abacus, crystal, cylindric, kyoto, partitions, qseries
from slncrystals.abacus import AbacusConfig, DominantWeight
from slncrystals.cylindric import CylindricPlanePartition
from slncrystals.kyoto import PerfectElem
from slncrystals.partitions import BeadRow, Partition
from slncrystals.qseries import Boundary, QSeries

from helpers import config, fig4, fig7, fig10

# compact, but row 1 sits two slots right of row 0: not descending
UNSORTED = config(3, 2, (0, ()), (2, ()))
NOT_COMPACT = config(3, 2, (1, (1,)), (0, ()))
# diagonal 1 is not dominated by diagonal 0
BAD_CPP = CylindricPlanePartition(3, 2, (0, 0), (Partition((1,)), Partition((2,))))
VACUUM = BeadRow.vacuum(0)
L0L1 = DominantWeight((1, 1, 0))
GENERATOR = config(3, 2, (1, ()), (0, ()))
LAM31 = Partition((3, 1))
# a plain tuple of level 1 at n = 3 that is not dominant: every weight
# reader takes it through DominantWeight, which refuses it
NEGATIVE = (2, -1, 0)

# (id, a fragment of the message, the call)
CASES = [
    ("tighten-k0", "bead index", lambda: abacus.tighten(fig7(), 0)),
    ("loosen-k0", "bead index", lambda: abacus.loosen(fig7(), 0)),
    ("gamma", "gamma needs", lambda: abacus.gamma(fig4())),
    ("lambda_part", "lambda_part needs", lambda: abacus.lambda_part(fig4())),
    ("recombine", "tight", lambda: abacus.recombine(fig7(), Partition((1,)))),
    ("gl_move", "direction", lambda: abacus.gl_move(fig10(), 0, "left")),
    ("gl_move-unsorted", "gl_move needs", lambda: abacus.gl_move(fig4(), 0, "up")),
    ("highest_weight", "compact descending", lambda: abacus.highest_weight(UNSORTED)),
    ("enumerate", "compact",
     lambda: list(abacus.enumerate_descending(NOT_COMPACT, 2))),
    ("enumerate-unsorted", "compact",
     lambda: list(abacus.enumerate_descending(UNSORTED, 2))),
    ("enumerate-negative", "nonnegative",
     lambda: list(abacus.enumerate_descending(GENERATOR, -1))),
    ("crystal_graph", "compact", lambda: crystal.crystal_graph(NOT_COMPACT, 2)),
    ("crystal_graph-unsorted", "compact",
     lambda: crystal.crystal_graph(UNSORTED, 2)),
    ("crystal_graph-negative", "nonnegative",
     lambda: crystal.crystal_graph(GENERATOR, -1)),
    ("Z_bruteforce-negative", "nonnegative", lambda: qseries.Z_bruteforce(GENERATOR, -1)),
    ("f_descending", "f_descending needs",
     lambda: crystal.f_descending(UNSORTED, 1)),
    ("e_descending", "e_descending needs",
     lambda: crystal.e_descending(UNSORTED, 1)),
    ("Z_bruteforce", "compact", lambda: qseries.Z_bruteforce(NOT_COMPACT, 2)),
    ("Z_bruteforce-unsorted", "compact descending",
     lambda: qseries.Z_bruteforce(UNSORTED, 2)),
    ("add_ribbon", "ribbon length",
     lambda: partitions.add_ribbon(Partition((1,)), 0, 1)),
    ("addable_ribbons-negative", "ribbon length",
     lambda: partitions.addable_ribbons(LAM31, -2)),
    ("removable_ribbons-negative", "ribbon length",
     lambda: partitions.removable_ribbons(LAM31, -2)),
    ("addable_ribbons-zero", "ribbon length",
     lambda: partitions.addable_ribbons(LAM31, 0)),
    ("removable_ribbons-zero", "ribbon length",
     lambda: partitions.removable_ribbons(LAM31, 0)),
    ("f_partition-ell0", "ribbon length",
     lambda: crystal.f_partition(LAM31, 0, 3, 0)),
    ("f_partition-n0", "n >= 1", lambda: crystal.f_partition(LAM31, 0, 0, 2)),
    ("f_partition-ell-negative", "ribbon length",
     lambda: crystal.f_partition(LAM31, 1, 3, -1)),
    ("e_partition-ell-negative", "ribbon length",
     lambda: crystal.e_partition(LAM31, 1, 3, -1)),
    ("partition_brackets-n0", "n >= 1",
     lambda: crystal.partition_brackets(LAM31, 0, 0, 2)),
    ("ell_quotient", "ell must", lambda: partitions.ell_quotient(Partition((1,)), 0)),
    ("combine_quotient", "expected 2 rows",
     lambda: partitions.combine_quotient((VACUUM,), 2)),
    ("from_occupied", "below floor", lambda: BeadRow.from_occupied([-3, 0], -2)),
    ("to_abacus", "not a valid", lambda: cylindric.to_abacus(BAD_CPP)),
    ("from_abacus", "from_abacus needs", lambda: cylindric.from_abacus(UNSORTED)),
    ("reflect", "reflect needs", lambda: cylindric.reflect(BAD_CPP)),
    ("QSeries", "nmax", lambda: QSeries([1], -1)),
    ("dual_weight-ell0", "n >= 1 and ell >= 1",
     lambda: cylindric.dual_weight(DominantWeight((0, 0)), 2, 0)),
    ("boundary_of-ell0", "n >= 1 and ell >= 1",
     lambda: qseries.boundary_of(DominantWeight((0, 0)), 2, 0)),
    ("boundary_of-n0", "n >= 1 and ell >= 1",
     lambda: qseries.boundary_of(DominantWeight(()), 0, 0)),
    ("level_weights-n0", "n >= 1", lambda: qseries.level_weights(0, 2)),
    ("level_weights-negative", "level >= 0", lambda: qseries.level_weights(2, -1)),
    ("euler_inverse", "m >= 1", lambda: qseries.euler_inverse(0, 4)),
    ("times_inv_one_minus", "k >= 1",
     lambda: QSeries.one(4).times_inv_one_minus(0)),
    ("Boundary-empty", "nonempty 0/1", lambda: Boundary(())),
    ("Boundary-entry", "0/1", lambda: Boundary((2, 0))),
    ("times_one_minus", "k >= 0", lambda: QSeries.one(4).times_one_minus(-1)),
    ("bead_slot-zero", "bead index must be positive",
     lambda: BeadRow(2, LAM31).bead_slot(0)),
    ("bead_slot-negative", "bead index must be positive",
     lambda: BeadRow(2, LAM31).bead_slot(-1)),
    ("DominantWeight", "nonnegative", lambda: DominantWeight((2, -1))),
    ("highest_weight_config-negative", "nonnegative",
     lambda: abacus.highest_weight_config(NEGATIVE, 3, 1)),
    ("boundary_of-negative", "nonnegative",
     lambda: qseries.boundary_of(NEGATIVE, 3, 1)),
    ("dual_weight-negative", "nonnegative",
     lambda: cylindric.dual_weight(NEGATIVE, 3, 1)),
    ("ground_state_path-negative", "nonnegative",
     lambda: kyoto.ground_state_path(NEGATIVE, 3, 1)),
    ("dimq_crystal-negative", "nonnegative",
     lambda: qseries.dimq_crystal(NEGATIVE, 3, 1, 4)),
    ("AbacusConfig-rows", "expected 2 rows", lambda: AbacusConfig(3, 2, (VACUUM,))),
    ("AbacusConfig-n0", "n >= 1", lambda: AbacusConfig(0, 1, (VACUUM,))),
    ("CylindricPlanePartition-ell0", "ell >= 1",
     lambda: CylindricPlanePartition(2, 0, (), ())),
    ("CylindricPlanePartition-n0", "n >= 1",
     lambda: CylindricPlanePartition(0, 1, (1,), (Partition(),))),
    ("to_path-n1", "n >= 2", lambda: kyoto.to_path(config(1, 1, (0, ())))),
    ("Path-n1", "n >= 2", lambda: kyoto.Path(1, 1, DominantWeight((1,)), ())),
    ("Path-weight", "level 2", lambda: kyoto.Path(3, 2, DominantWeight((1, 0, 0)), ())),
    ("Path-entry", "entries in", lambda: kyoto.Path(3, 2, L0L1, (PerfectElem((0, 7)),))),
    ("Path-length", "entries in", lambda: kyoto.Path(3, 2, L0L1, (PerfectElem((0,)),))),
]


@pytest.mark.parametrize(
    "match,call", [pytest.param(m, c, id=i) for i, m, c in CASES]
)
def test_precondition_raises_value_error(match, call):
    with pytest.raises(ValueError, match=match):
        call()


# (id, the call, the name in its error, whether it takes a bound): every
# walk from a generator, and highest_weight, keeps one generator rule;
# enumerate_tight filters enumerate_descending, whose name the error gives
GENERATOR_RULE = [
    ("crystal_graph", crystal.crystal_graph, "crystal_graph", True),
    ("enumerate_descending",
     lambda psi0, nmax: list(abacus.enumerate_descending(psi0, nmax)),
     "enumerate_descending", True),
    ("enumerate_tight", lambda psi0, nmax: list(abacus.enumerate_tight(psi0, nmax)),
     "enumerate_descending", True),
    ("Z_bruteforce", qseries.Z_bruteforce, "Z_bruteforce", True),
    ("highest_weight", lambda psi0, nmax: abacus.highest_weight(psi0),
     "highest_weight", False),
]


@pytest.mark.parametrize(
    "call,name,bounded", [pytest.param(c, n, b, id=i) for i, c, n, b in GENERATOR_RULE]
)
def test_every_walk_refuses_a_generator_that_is_not_compact_descending(
    call, name, bounded
):
    message = "^%s needs a compact descending generator$" % name
    for psi0 in (NOT_COMPACT, UNSORTED):
        with pytest.raises(ValueError, match=message):
            call(psi0, 2)
    if bounded:
        with pytest.raises(ValueError, match="^%s needs a nonnegative" % name):
            call(GENERATOR, -1)
    call(GENERATOR, 0)  # the generator itself is accepted, at bound 0


def test_rejected_configuration_keeps_no_memo():
    # the descent check runs before the grouped rule's memo is made, so a
    # second call on the same configuration is checked again
    for op in (crystal.f_descending, crystal.e_descending):
        for _ in range(2):
            with pytest.raises(ValueError, match="needs a descending"):
                op(UNSORTED, 0)
    assert UNSORTED._set_signatures is None


# (id, constructor, arguments of which one is not an integer)
NON_INTEGER_CASES = [
    ("Partition", Partition, (2.7, 1)),
    ("DominantWeight", DominantWeight, (1.5, 0.6, 0)),
    ("PerfectElem", PerfectElem, (0, 1.0)),
    ("QSeries", QSeries, (1, 2.5)),
    ("Partition-str", Partition, ("2", 1)),
    ("DominantWeight-str", DominantWeight, (1, "1", 0)),
    ("Boundary", Boundary, (1.0, 0)),
]


@pytest.mark.parametrize(
    "cls,values", [pytest.param(c, v, id=i) for i, c, v in NON_INTEGER_CASES]
)
def test_constructor_refuses_non_integers(cls, values):
    # a float or a string is refused rather than truncated by int()
    with pytest.raises(TypeError):
        cls(values)
    cls(tuple(int(v) for v in values))  # the integers alone are accepted


# (id, the call): a row that is a plain tuple, not a Partition, is refused
# by the constructor before any rule reads it
NOT_PARTITION_ROWS = [
    ("is_descending",
     lambda: abacus.is_descending(AbacusConfig(3, 1, (BeadRow(0, (1, 3)),)))),
    ("is_valid_cpp",
     lambda: cylindric.is_valid_cpp(CylindricPlanePartition(3, 1, (0,), ((1, 3),)))),
    ("to_abacus",
     lambda: cylindric.to_abacus(CylindricPlanePartition(3, 1, (0,), ((1, 3),)))),
    ("AbacusConfig-pair",
     lambda: AbacusConfig(3, 2, (VACUUM, (0, Partition())))),
]


@pytest.mark.parametrize(
    "call", [pytest.param(c, id=i) for i, c in NOT_PARTITION_ROWS]
)
def test_rows_that_are_not_partitions_raise_type_error(call):
    with pytest.raises(TypeError, match="row [01] is not a"):
        call()


def test_move_bead_refuses_a_row_that_is_not_a_partition():
    # the neighbour check reads parts j-1, j and j+1 only, so on the plain
    # tuple (1, 3, 5) it would pass and build the Partition (3, 3, 5)
    row = BeadRow(0, (1, 3, 5))
    for j, delta in ((1, 2), (1, -1), (4, 1)):
        with pytest.raises(TypeError, match="not a Partition"):
            row.move_bead(j, delta)
    assert BeadRow(0, Partition((5, 3, 1))).move_bead(1, 2).partition == (7, 3, 1)


def test_coeff_beyond_truncation_raises_index_error():
    s = QSeries.one(3)
    for k in (4, -1):
        with pytest.raises(IndexError):
            s.coeff(k)
