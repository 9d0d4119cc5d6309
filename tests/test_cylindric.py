import copy
import itertools
import pickle
import random
import time

import pytest

from slncrystals.abacus import AbacusConfig, DominantWeight, is_descending, weight
from slncrystals.crystal import e_descending, f_descending
from slncrystals.cylindric import (
    Box,
    CylindricPlanePartition,
    box_color,
    cpp_brackets,
    cpp_weight,
    dual_weight,
    e_cpp,
    f_cpp,
    from_abacus,
    hw_of_cpp,
    is_valid_cpp,
    reflect,
    render_text,
    to_abacus,
)
from slncrystals.partitions import BeadRow, Partition

from helpers import (
    FIG12_PROFILE,
    FIG12_ROWS,
    addable_boxes,
    all_level_coeffs,
    config,
    cpp_by_white_beads,
    descending_configs,
    fig8,
    fig9,
    fig10,
    is_valid_cpp_by_cells,
    profile_offset,
    reflect_by_search,
    reindexed,
    removable_boxes,
    t_value,
)

P = Partition


def all_zero_cpp(n, ell, profile):
    return CylindricPlanePartition(n, ell, profile, tuple(P(()) for _ in range(ell)))


def part_count(pi):
    """The number of parts over one period."""
    return sum(map(len, pi.rows))


def test_all_zero_is_valid():
    assert is_valid_cpp(all_zero_cpp(3, 4, (2, 1, 1, 0)))


def test_figure8_is_valid():
    pi = fig8()
    assert is_valid_cpp(pi)
    assert cpp_weight(pi) == 50
    assert hw_of_cpp(pi) == DominantWeight((2, 3, 1))


def test_single_violation_detected():
    pi = fig8()
    rows = list(pi.rows)
    rows[1] = P((5, 1))  # now exceeds the diagonal above at its first column
    bad = CylindricPlanePartition(pi.n, pi.ell, pi.profile, tuple(rows))
    assert not is_valid_cpp(bad)
    # and a within-diagonal violation cannot even be stored
    with pytest.raises(ValueError):
        P((1, 4))



def test_is_valid_cpp_matches_cell_scan():
    rng = random.Random(11)
    seen = dict.fromkeys(("valid", "invalid", "ell=1", "negative step", "empty"), 0)
    seen["wrap pair alone"] = 0  # invalid, but valid once its shift n is large
    for _ in range(4000):
        n, ell = rng.randint(1, 5), rng.randint(1, 4)
        profile = tuple(rng.randint(-3, 5) for _ in range(ell))
        rows = tuple(
            P(sorted((rng.randint(1, 6) for _ in range(rng.randint(0, 5))), reverse=True))
            for _ in range(ell)
        )
        pi = CylindricPlanePartition(n, ell, profile, rows)
        valid = is_valid_cpp(pi)
        assert valid == is_valid_cpp_by_cells(pi), pi
        # the interlacing rule on diagonals is the conjugate of the
        # dominance rule on rows, which is why to_abacus need not re-check
        beads = (BeadRow(c, lam.conjugate()) for c, lam in zip(profile, rows))
        psi = AbacusConfig(n, ell, tuple(beads))
        assert valid == is_descending(psi), pi
        seen["valid" if valid else "invalid"] += 1
        seen["ell=1"] += ell == 1
        seen["negative step"] += any(a < b for a, b in zip(profile, profile[1:]))
        seen["empty"] += any(not r for r in rows)
        if not valid and ell > 1:
            # with n + 20 the wrap pair's d exceeds every diagonal's length
            wide = CylindricPlanePartition(n + 20, ell, profile, rows)
            seen["wrap pair alone"] += is_valid_cpp_by_cells(wide)
    assert all(seen.values()), seen

def test_from_abacus_figure10():
    pi = from_abacus(fig10())
    assert pi.profile == FIG12_PROFILE
    assert pi.rows == FIG12_ROWS
    assert is_valid_cpp(pi)
    assert cpp_weight(pi) == 18 == weight(fig10())
    assert hw_of_cpp(pi) == DominantWeight((1, 2, 1))


def test_from_abacus_matches_white_bead_counts():
    for coeffs in all_level_coeffs(3, 2):
        for cfg in descending_configs(3, 2, coeffs, 5):
            assert from_abacus(cfg) == cpp_by_white_beads(cfg)


def test_from_abacus_builds_what_the_constructor_builds():
    # from_abacus builds its image unchecked, through cylindric._cpp
    for coeffs in all_level_coeffs(3, 2):
        for cfg in descending_configs(3, 2, coeffs, 4):
            pi = from_abacus(cfg)
            want = CylindricPlanePartition(pi.n, pi.ell, pi.profile, pi.rows)
            assert type(pi) is CylindricPlanePartition
            assert pi == want and hash(pi) == hash(want) and repr(pi) == repr(want)
            assert type(pi.profile) is tuple and type(pi.rows) is tuple
            assert all(type(row) is Partition for row in pi.rows)
            assert pickle.loads(pickle.dumps(pi)) == pi == copy.deepcopy(pi)


def test_cpp_from_lists_is_the_cpp_from_tuples():
    # the profile and rows are held as tuples whatever sequences give them,
    # so the two cylinders are one value and hash alike
    pi = from_abacus(fig10())
    listed = CylindricPlanePartition(pi.n, pi.ell, list(pi.profile), list(pi.rows))
    assert type(listed.profile) is tuple and type(listed.rows) is tuple
    assert listed == pi and hash(listed) == hash(pi) and repr(listed) == repr(pi)
    assert to_abacus(listed) == fig10()


def test_compact_gives_all_zero():
    pi = from_abacus(fig9())
    assert pi == all_zero_cpp(3, 4, (2, 1, 1, 0))


def test_roundtrip():
    assert to_abacus(from_abacus(fig10())) == fig10()
    for coeffs in all_level_coeffs(3, 2):
        for cfg in descending_configs(3, 2, coeffs, 6):
            pi = from_abacus(cfg)
            assert is_valid_cpp(pi)
            assert to_abacus(pi) == cfg
            assert cpp_weight(pi) == weight(cfg)
            assert hw_of_cpp(pi) == DominantWeight(coeffs)


def test_periodicity_accessor():
    pi = fig8()
    for i in range(pi.ell):
        for j in range(pi.profile[i], pi.profile[i] + 6):
            assert pi.entry(i, j) == pi.entry(i + pi.ell, j - pi.n)


def test_t_value_well_defined():
    for box in (Box(0, 0, 0), Box(2, -1, 3), Box(5, 4, 1)):
        assert t_value(box, 3, 6) == t_value(Box(box.x + 6, box.y - 3, box.z), 3, 6)
    assert t_value(Box(0, 0, 0), 3, 6) == 0


def test_t_distinct_on_candidate_boxes():
    for coeffs in all_level_coeffs(3, 2):
        for cfg in descending_configs(3, 2, coeffs, 5):
            pi = from_abacus(cfg)
            for i in range(3):
                boxes = addable_boxes(pi, i) + removable_boxes(pi, i)
                ts = [t_value(b, pi.n, pi.ell) for b in boxes]
                assert len(set(ts)) == len(ts)
                cpp_brackets(pi, i)  # must not raise


def test_box_colors_constant_along_diagonal_lines():
    for s in range(4):
        assert box_color(Box(1, 2 + s, 1 + s), 3) == box_color(Box(1, 2, 1), 3)


def test_addable_removable_disjoint():
    for cfg in descending_configs(3, 2, (1, 1, 0), 5):
        pi = from_abacus(cfg)
        for i in range(3):
            a = set(addable_boxes(pi, i))
            r = set(removable_boxes(pi, i))
            assert not (a & r)


def test_empty_cylinder_single_addable():
    pi = all_zero_cpp(3, 2, (0, 0))
    counts = {i: addable_boxes(pi, i) for i in range(3)}
    # the unique first-layer cell per diagonal sits at (r, p_r, 1)
    for i, boxes in counts.items():
        for b in boxes:
            assert b.z == 1
    assert sum(len(b) for b in counts.values()) == 2


def test_f_cpp_agrees_with_abacus_rule():
    # _with_box's edge cases run: an f_cpp image that opens a new part of a
    # diagonal and an e_cpp image that empties a diagonal's last part
    opened = emptied = 0
    for n, ell in ((2, 2), (3, 2)):
        for coeffs in all_level_coeffs(n, ell):
            for cfg in descending_configs(n, ell, coeffs, 5):
                pi = from_abacus(cfg)
                for i in range(n):
                    img = f_descending(cfg, i)
                    expect = from_abacus(img) if img is not None else None
                    assert f_cpp(pi, i) == expect
                    if expect is not None:
                        opened += part_count(expect) > part_count(pi)
                    img = e_descending(cfg, i)
                    expect = from_abacus(img) if img is not None else None
                    assert e_cpp(pi, i) == expect
                    if expect is not None:
                        emptied += part_count(expect) < part_count(pi)
    assert opened > 0 and emptied > 0


def test_f_cpp_e_cpp_inverse():
    for cfg in descending_configs(3, 2, (2, 0, 0), 5):
        pi = from_abacus(cfg)
        for i in range(3):
            img = f_cpp(pi, i)
            if img is not None:
                assert is_valid_cpp(img)
                assert cpp_weight(img) == cpp_weight(pi) + 1
                assert e_cpp(img, i) == pi


def test_reflect_all_zero():
    pi = all_zero_cpp(3, 2, (1, 0))
    r = reflect(pi)
    assert (r.n, r.ell) == (2, 3)
    assert cpp_weight(r) == 0
    assert is_valid_cpp(r)


def test_reflect_figure8():
    r = reflect(fig8())
    assert (r.n, r.ell) == (6, 3)
    assert cpp_weight(r) == 50
    # the profile (4,4,3,3,2,1) is the highest-weight charges (2,1,1,1,0,0)
    # read from extended row -4, so the reflected labels are the dual
    # weight rotated by -4 mod 6 = 2 colors
    dual = dual_weight(DominantWeight((2, 3, 1)), 3, 6)
    s = profile_offset(fig8())
    assert (s, s % 6) == (-4, 2)
    assert hw_of_cpp(r).rotated(s % 6) == dual


def test_reflect_weight_preserving_bijection():
    for coeffs in all_level_coeffs(3, 2):
        images = {}
        for cfg in descending_configs(3, 2, coeffs, 5):
            pi = from_abacus(cfg)
            r = reflect(pi)
            assert cpp_weight(r) == cpp_weight(pi)
            assert r not in images
            images[r] = pi
        # reflecting twice returns the original
        for pi in images.values():
            back = reflect(reflect(pi))
            assert back == pi


def _shifted(pi, d):
    """pi with every diagonal starting d columns further right."""
    profile = tuple(p + d for p in pi.profile)
    return CylindricPlanePartition(pi.n, pi.ell, profile, pi.rows)


def test_reflect_matches_search_oracle_on_shifted_profiles():
    # every descending configuration of 1 <= n, ell <= 5 at small degree,
    # its diagonals moved left and right of the canonical profile
    for n, ell in itertools.product(range(1, 6), repeat=2):
        degree = max(2, 7 - n - ell)
        for coeffs in all_level_coeffs(n, ell):
            for cfg in descending_configs(n, ell, coeffs, degree):
                pi = from_abacus(cfg)
                for d in (-7, -1, 0, 3, 11):
                    shifted = _shifted(pi, d)
                    assert reflect(shifted) == reflect_by_search(shifted)


def test_reflect_matches_search_oracle_on_compact_generators():
    # every compact descending generator with c_0 in -2..n and
    # c_{ell-1} >= c_0 - n, read from several diagonals: profiles that are
    # no highest-weight window of their charges
    count = 0
    for n, ell in itertools.product(range(1, 5), repeat=2):
        for c0 in range(-2, n + 1):
            for rest in itertools.product(range(c0 - n, c0 + 1), repeat=ell - 1):
                charges = (c0,) + rest
                if list(charges) != sorted(charges, reverse=True):
                    continue
                pi = from_abacus(config(n, ell, *((c, ()) for c in charges)))
                for s in (-3, 0, 2):
                    moved = reindexed(pi, s)
                    assert reflect(moved) == reflect_by_search(moved)
                    count += 1
    assert count > 1000


def test_reflect_far_from_the_origin_is_fast():
    # the search stepped one diagonal at a time: about 2 s at a shift of
    # 10^7 on a 2-core machine.  Moving every diagonal m*n columns right
    # moves the reflected profile m*ell diagonals up and keeps its rows.
    pi = fig8()
    m = 3_333_334
    t0 = time.perf_counter()
    r = reflect(_shifted(pi, m * pi.n))
    assert time.perf_counter() - t0 < 0.1
    want = reflect(pi)
    assert r.rows == want.rows
    assert r.profile == tuple(p + m * pi.ell for p in want.profile)


def test_dual_weight_examples():
    assert dual_weight(DominantWeight((2, 3, 1)), 3, 6) == DominantWeight(
        (1, 1, 0, 0, 1, 0)
    )
    # ell * L0 maps to n * L0
    for n, ell in ((3, 6), (2, 4), (4, 2)):
        w = tuple([ell] + [0] * (n - 1))
        assert dual_weight(DominantWeight(w), n, ell) == DominantWeight(
            tuple([n] + [0] * (ell - 1))
        )


def test_dual_weight_matches_its_definition():
    # one Lambda'_{c_i + ... + c_{n-1} mod ell} per i, each sum taken afresh:
    # the quadratic definition of the running sums
    for n in range(1, 6):
        for ell in range(1, 6):
            for coeffs in all_level_coeffs(n, ell):
                want = [0] * ell
                for i in range(n):
                    want[sum(coeffs[i:]) % ell] += 1
                assert dual_weight(DominantWeight(coeffs), n, ell) == tuple(want)


def test_dual_weight_linear_in_n():
    # summing c_i + ... + c_{n-1} afresh for each i took 5.2 s at n = 40,000
    n = 10**6
    w = DominantWeight((1,) + (0,) * (n - 2) + (1,))
    t0 = time.perf_counter()
    dual = dual_weight(w, n, 2)
    assert time.perf_counter() - t0 < 1
    # the suffix sums are 2 at i = 0 and 1 at every other i
    assert dual == (1, n - 1)


def test_dual_weight_consistency_with_reflect():
    # the highest-weight cylinder reflects to the dual weight itself; the
    # same array read from diagonal s on needs the rotation s mod ell
    for coeffs in all_level_coeffs(3, 2):
        pi = from_abacus(
            next(iter(descending_configs(3, 2, coeffs, 3)))
        )
        dual = dual_weight(DominantWeight(coeffs), 3, 2)
        assert profile_offset(pi) == 0
        assert hw_of_cpp(reflect(pi)) == dual
        for s in range(-4, 5):
            shifted = reindexed(pi, s)
            assert profile_offset(shifted) == s
            assert hw_of_cpp(reflect(shifted)).rotated(s % 2) == dual


def test_render_text_figure12():
    text = render_text(from_abacus(fig10()))
    lines = text.strip().split("\n")
    assert lines[0].startswith("pi_0")
    assert "4" in lines[3]


def test_json_roundtrip():
    pi = fig8()
    assert CylindricPlanePartition.from_json(pi.to_json()) == pi
