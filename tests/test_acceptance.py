"""Acceptance suite: every criterion at its stated scale.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  The whole suite is budgeted to finish well under five minutes
on a commodity machine.
"""

import time

import pytest

from slncrystals import checks
from slncrystals.abacus import (
    DominantWeight,
    compactify,
    gamma,
    gl_move,
    highest_weight,
    highest_weight_config,
    is_tight,
    lambda_part,
    loosen,
    recombine,
    tighten,
    weight,
)
from slncrystals.crystal import (
    e_abacus,
    e_descending,
    e_partition,
    f_abacus,
    f_descending,
    f_partition,
)
from slncrystals.cylindric import (
    cpp_weight,
    dual_weight,
    e_cpp,
    f_cpp,
    from_abacus,
    hw_of_cpp,
)
from slncrystals.kyoto import e_path, ground_state_path, to_path
from slncrystals.partitions import (
    BeadRow,
    Partition,
    add_ribbon,
    ell_quotient,
)
from slncrystals.abacus import AbacusConfig
from slncrystals.qseries import level_weights

from helpers import (
    FIG1,
    FIG1_SLOTS,
    FIG2,
    all_level_coeffs,
    descending_configs,
    eps_phi_perfect,
    fig9,
    fig10,
    partitions_up_to,
    slot_roundtrip,
    tight_configs,
)

P = Partition
SUITE_START = time.time()


def report(num, text):
    print("AC%-2d PASS: %s" % (num, text))


def holds(predicate, configs):
    """Assert a checks predicate at every configuration; return the count."""
    for cfg in configs:
        failure = predicate(cfg)
        assert failure is None, failure
    return len(configs)


def test_ac01_figure1_fidelity():
    def convert():
        row = BeadRow(0, FIG1)
        return [b for b in range(-13, 12) if row.occupied(b)]

    assert convert() == FIG1_SLOTS
    row = BeadRow(0, FIG1)
    assert all(row.occupied(b) for b in range(-40, -13))
    assert not any(row.occupied(b) for b in range(12, 40))
    best = min(_timed(convert) for _ in range(5))
    assert best < 1e-3, "conversion took %.2g s" % best
    report(1, "figure-1 bead positions exact (%.1f us)" % (best * 1e6))


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_ac02_figure2_ribbon():
    got = add_ribbon(FIG1, 4, 3)
    assert got == FIG2
    before = BeadRow(0, FIG1)
    after = BeadRow(0, got)
    assert before.occupied(-1) and not before.occupied(3)
    assert not after.occupied(-1) and after.occupied(3)
    report(2, "figure-2 ribbon moves the bead from slot -1 to slot 3")


def test_ac03_bijection_roundtrips():
    for lam in partitions_up_to(12):
        for c in (-2, 0, 3):
            assert slot_roundtrip(BeadRow(c, lam)) == BeadRow(c, lam)
    total = 0
    for n, ell in ((2, 2), (3, 2)):
        for coeffs in all_level_coeffs(n, ell):
            total += holds(checks.bijection, descending_configs(n, ell, coeffs, 8))
    report(3, "partition/bead and abacus/cpp roundtrips (%d configs)" % total)


def test_ac04_operator_equivalences():
    n = 3
    for ell in (2, 4):
        for lam in partitions_up_to(10):
            psi = AbacusConfig(n, ell, ell_quotient(lam, ell))
            for i in range(n):
                img = f_partition(lam, i, n, ell)
                expect = None
                if img is not None:
                    expect = AbacusConfig(n, ell, ell_quotient(img, ell))
                assert f_abacus(psi, i) == expect
                img = e_partition(lam, i, n, ell)
                expect = None
                if img is not None:
                    expect = AbacusConfig(n, ell, ell_quotient(img, ell))
                assert e_abacus(psi, i) == expect
    for n, ell in ((2, 2), (3, 2), (3, 3)):
        for coeffs in all_level_coeffs(n, ell):
            holds(checks.gglemma, descending_configs(n, ell, coeffs, 8))
    for n, ell in ((2, 2), (3, 2)):
        for coeffs in all_level_coeffs(n, ell):
            for cfg in descending_configs(n, ell, coeffs, 6):
                pi = from_abacus(cfg)
                for i in range(n):
                    img = f_descending(cfg, i)
                    assert f_cpp(pi, i) == (from_abacus(img) if img is not None else None)
                    img = e_descending(cfg, i)
                    assert e_cpp(pi, i) == (from_abacus(img) if img is not None else None)
    report(4, "partition, abacus, descending and cpp rules agree")


def test_ac05_tightening_structure_suite():
    n, ell = 3, 2
    for coeffs in all_level_coeffs(n, ell):
        psi0 = highest_weight_config(coeffs, n, ell)
        # commutation with matching zero patterns
        holds(checks.tk_commute, descending_configs(n, ell, coeffs, 6))
        # sources are exactly the loosenings of the generator
        orbit = {psi0}
        frontier = [psi0]
        while frontier:
            cur = frontier.pop()
            if weight(cur) >= 7:
                continue
            for k in range(1, cur.max_bead_index() + 2):
                nxt = loosen(cur, k)
                if nxt is not None and nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        for cfg in descending_configs(n, ell, coeffs, 6):
            is_source = all(e_abacus(cfg, i) is None for i in range(n))
            assert is_source == (cfg in orbit)
        # the tight part is closed under the operators
        for cfg in tight_configs(n, ell, coeffs, 6):
            for i in range(n):
                img = f_abacus(cfg, i)
                if img is not None:
                    assert is_tight(img)
    report(5, "tightening commutation, source characterization, tight closure")


def test_ac05_tk_commute_input_defines_some_t_k():
    # tk_commute compares only at a defined T_k: on an input where none is
    # defined it passes having compared nothing
    n, ell = 3, 2
    for coeffs in all_level_coeffs(n, ell):
        defined = sum(
            tighten(cfg, k) is not None
            for cfg in descending_configs(n, ell, coeffs, 6)
            for k in range(1, cfg.max_bead_index() + 2)
        )
        assert defined > 0, coeffs


def test_ac06_slack_decomposition():
    n, ell = 3, 2
    for coeffs in all_level_coeffs(n, ell):
        seen = {}
        for cfg in descending_configs(n, ell, coeffs, 8):
            g, lam = gamma(cfg), lambda_part(cfg)
            assert is_tight(g)
            assert compactify(g) == compactify(cfg)
            assert weight(cfg) == weight(g) + n * lam.size
            assert recombine(g, lam) == cfg
            key = (g, lam)
            assert key not in seen
            seen[key] = cfg
        for cfg in descending_configs(n, ell, coeffs, 6):
            for p in range(-3, 3):
                for i in range(n):
                    moved = gl_move(cfg, p, "up")
                    img = f_abacus(cfg, i)
                    if moved is not None and img is not None:
                        assert f_abacus(moved, i) == gl_move(img, p, "up")
    report(6, "gamma/lambda bijection, weight identity, gl commutation")


@pytest.mark.parametrize("n,ell", [(2, 2), (3, 1), (3, 2)])
def test_ac07_three_way_partition_function(n, ell):
    for w in level_weights(n, ell):
        assert checks.three_way_z(w, 12) is None
    report(7, "Z_rep = Z_borodin = Z_bruteforce to q^12 at (%d,%d)" % (n, ell))


def test_ac08_rank_level_duality():
    for n, ell in ((2, 2), (3, 2)):
        for w in level_weights(n, ell):
            assert checks.rank_level(w, 12) is None
    assert dual_weight(DominantWeight((2, 3, 1)), 3, 6) == DominantWeight(
        (1, 1, 0, 0, 1, 0)
    )
    assert checks.rank_level(DominantWeight((2, 3, 1)), 10) is None
    report(8, "rank-level duality to q^12, figure-8 pair to q^10")


def test_ac09_level_one_identity():
    for n in (2, 3, 4):
        for w in level_weights(n, 1):
            assert checks.level_one(w, 20) is None
    report(9, "level-one identity to q^20 for n = 2, 3, 4")


def test_ac10_path_model_isomorphism():
    for n, ell in ((2, 2), (3, 2), (3, 4)):
        for coeffs in all_level_coeffs(n, ell):
            psi0 = highest_weight_config(coeffs, n, ell)
            ground = to_path(psi0)
            assert ground == ground_state_path(coeffs, n, ell)
            # ground-state chain conditions
            _, phi1 = eps_phi_perfect(ground.element(1), n)
            assert phi1 == DominantWeight(coeffs)
            for k in range(1, 6):
                eps_k, _ = eps_phi_perfect(ground.element(k), n)
                _, phi_next = eps_phi_perfect(ground.element(k + 1), n)
                assert eps_k == phi_next
            configs = tight_configs(n, ell, coeffs, 6)
            holds(checks.kyoto, configs)
            for cfg in configs:
                p = to_path(cfg)
                for i in range(n):
                    img = e_abacus(cfg, i)
                    assert e_path(p, i) == (to_path(img) if img is not None else None)
    report(10, "path model intertwines e_i, f_i at (2,2), (3,2), (3,4)")


def test_ac11_figure_9_and_12_fidelity():
    assert highest_weight(fig9()) == DominantWeight((1, 2, 1))
    pi = from_abacus(fig10())
    assert hw_of_cpp(pi) == DominantWeight((1, 2, 1))
    assert pi.profile == (2, 1, 1, 0)
    assert pi.rows == ((3, 1), (3, 2), (2, 1), (4, 2))
    assert cpp_weight(pi) == 18
    report(11, "figure-9 and figure-12 highest weights match")


def test_ac12_wall_clock():
    elapsed = time.time() - SUITE_START
    assert elapsed < 300, "acceptance suite exceeded five minutes"
    report(12, "acceptance suite wall clock %.1fs < 300s" % elapsed)
