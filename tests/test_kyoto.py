import random

import pytest
from hypothesis import given, settings

from slncrystals.abacus import (
    AbacusConfig,
    DominantWeight,
    _charge_weight,
    _highest_weight_charges,
    compactify,
    enumerate_tight,
    highest_weight,
    highest_weight_config,
    is_descending,
    is_tight,
)
from slncrystals import kyoto
from slncrystals.crystal import _grouped_signatures, e_abacus, f_abacus
from slncrystals.kyoto import (
    Path,
    PerfectElem,
    _pruned_path,
    e_path,
    e_perfect,
    f_path,
    f_perfect,
    from_path,
    ground_state_path,
    path_brackets,
    to_path,
)
from slncrystals.crystal import signature_reduce
from slncrystals.partitions import BeadRow, Partition

from helpers import (
    _reduce_colors,
    abacus_configs,
    all_level_coeffs,
    all_perfect_elems,
    bead_position,
    config,
    eps_phi_path,
    eps_phi_perfect,
    fig9,
    fig10,
    is_descending_by_bead_slots,
    is_tight_by_fits,
    path_tokens,
    path_tokens_widened,
    perfect_eps_phi_by_iteration,
    residues_by_bead_position,
    tight_configs,
    tokens_of_color,
)


def test_perfect_crystal_size():
    # weakly increasing ell-tuples over n letters
    assert len(all_perfect_elems(3, 2)) == 6
    assert len(all_perfect_elems(3, 4)) == 15
    assert len(all_perfect_elems(4, 4)) == 35


def test_figure14_edges():
    # level 2 perfect crystal for n = 3, entries stored as value - 1/2
    assert f_perfect(PerfectElem((0, 0)), 1, 3) == PerfectElem((0, 1))
    assert f_perfect(PerfectElem((0, 1)), 1, 3) == PerfectElem((1, 1))
    assert f_perfect(PerfectElem((1, 1)), 1, 3) is None
    assert f_perfect(PerfectElem((2, 2)), 0, 3) == PerfectElem((0, 2))
    assert f_perfect(PerfectElem((1, 2)), 0, 3) == PerfectElem((0, 1))
    assert f_perfect(PerfectElem((0, 0)), 0, 3) is None
    assert e_perfect(PerfectElem((0, 2)), 0, 3) == PerfectElem((2, 2))


@pytest.mark.parametrize("n,ell", [(2, 2), (3, 2), (3, 4), (4, 3), (4, 4)])
def test_perfect_f_e_inverse(n, ell):
    for b in all_perfect_elems(n, ell):
        for i in range(n):
            img = f_perfect(b, i, n)
            if img is not None:
                assert e_perfect(img, i, n) == b
            img = e_perfect(b, i, n)
            if img is not None:
                assert f_perfect(img, i, n) == b


@pytest.mark.parametrize("n,ell", [(2, 2), (3, 2), (3, 4), (4, 4)])
def test_perfectness_level(n, ell):
    for b in all_perfect_elems(n, ell):
        eps, phi = eps_phi_perfect(b, n)
        assert eps.level == ell
        assert phi.level == ell


@pytest.mark.parametrize("n,ell", [(2, 2), (3, 2), (3, 4), (4, 3), (4, 4), (5, 2)])
def test_eps_phi_closed_form_matches_iteration(n, ell):
    for b in all_perfect_elems(n, ell):
        eps, phi = eps_phi_perfect(b, n)
        assert (eps, phi) == perfect_eps_phi_by_iteration(b, n)


def test_ground_chain_unique_links():
    # each link of the ground chain is the unique element with the right phi,
    # found by searching the whole crystal with the iterated string functions
    for n, ell in ((2, 2), (3, 2), (3, 4), (4, 3)):
        elems = all_perfect_elems(n, ell)
        strings = [perfect_eps_phi_by_iteration(c, n) for c in elems]
        for coeffs in all_level_coeffs(n, ell):
            p = ground_state_path(coeffs, n, ell)
            target = coeffs  # phi(b_1) = w, then phi(b_{k+1}) = eps(b_k)
            for k in range(1, 8):
                matches = [c for c, (_, phi) in zip(elems, strings) if phi == target]
                assert matches == [p.ground(k)]
                target = strings[elems.index(matches[0])][0]


def test_ground_path_is_highest_weight():
    p = ground_state_path((1, 2, 1), 3, 4)
    for i in range(3):
        assert e_path(p, i) is None
    # (eps_i, phi_i) of the ground path recover the highest weight
    assert [eps_phi_path(p, i) for i in range(3)] == [(0, 1), (0, 2), (0, 1)]


def test_J_of_generator_is_ground_path():
    assert to_path(fig9()) == ground_state_path((1, 2, 1), 3, 4)
    # each position carries the bead residues of the generator
    p = to_path(fig9())
    assert p.element(1) == PerfectElem((0, 0, 1, 2))
    assert p.element(7) == PerfectElem((0, 0, 1, 2))


def test_to_path_ell_times_deepest_bead_bound(monkeypatch):
    # ell rows of charge 0 at n = 2, the bottom one holding K parts of 1: its
    # path's last deviation is at K, so to_path refuses ell x K above the
    # bound that Path.from_json puts on ell x last position
    ell, K = 3, 4
    rows = (BeadRow(0, Partition((1,) * K)),) + (BeadRow(0, Partition()),) * (ell - 1)
    psi = AbacusConfig(2, ell, rows)
    monkeypatch.setattr(kyoto, "MAX_PATH_BEADS", ell * K)
    p = to_path(psi)
    assert max(map(int, p.to_json()["deviations"])) == K
    assert from_path(Path.from_json(p.to_json())) == psi
    monkeypatch.setattr(kyoto, "MAX_PATH_BEADS", ell * K - 1)
    with pytest.raises(ValueError, match="ell 3 times last position 4 exceeds 11"):
        to_path(psi)


def test_J_requires_tight():
    from helpers import fig7

    with pytest.raises(ValueError):
        to_path(fig7())  # descending but not tight
    # figure 10 belongs to the irreducible crystal, so it is in the domain
    p = to_path(fig10())
    assert from_path(p) == fig10()


@pytest.mark.parametrize("charges,count", [((1, -1), 41), ((3, 0), 28)])
def test_to_path_rejects_charges_from_path_cannot_give(charges, count):
    # tight configurations of n = 3, ell = 2 whose vacuum is not
    # highest_weight_config's: the path of their bead residues does not
    # lead back to them, so to_path rejects them
    tight = list(enumerate_tight(config(3, 2, *((c, ()) for c in charges)), 5))
    assert len(tight) == count
    for psi in tight:
        w = highest_weight(compactify(psi))
        residues = {
            str(k): sorted(bead_position(psi, r, k) % 3 for r in range(2))
            for k in range(1, psi.max_bead_index() + 1)
        }
        p = Path.from_json(
            {"n": 3, "ell": 2, "weight": list(w), "deviations": residues}
        )
        assert from_path(p) != psi
        with pytest.raises(ValueError, match="charges"):
            to_path(psi)


def _check_to_path_charge_rule(psi):
    """to_path accepts psi exactly when the rule it replaced does: the
    charges equal highest_weight_config's for the weight they count.  A
    rejection gives the same message; an accepted path lists the sorted
    residues of every bead set.  Returns which of the four cases held."""
    n, charges = psi.n, psi.charges()
    if n < 2:
        case, want = "n", "to_path needs n >= 2, not n = %d" % n
    elif not is_descending_by_bead_slots(psi) or not is_tight_by_fits(psi):
        case, want = "tight", "to_path needs a tight descending configuration"
    else:
        w = _charge_weight(charges, n)
        hw = _highest_weight_charges(w)
        case, want = "accepted", None
        if charges != hw:
            case = "charges"
            want = "to_path needs the charges %s of highest_weight_config(%s), not %s" % (
                hw, w, charges
            )
    if want is not None:
        with pytest.raises(ValueError) as err:
            to_path(psi)
        assert str(err.value) == want
        return case
    p = to_path(psi)
    residues = residues_by_bead_position(psi)
    assert p.last_position() <= len(residues)
    for k, res in enumerate(residues, 1):
        assert p.element(k) == tuple(sorted(res))
    return case


@settings(max_examples=500, deadline=None)
@given(abacus_configs())
def test_to_path_charge_rule_on_arbitrary_configs(psi):
    _check_to_path_charge_rule(psi)


@pytest.mark.parametrize("n,ell,nmax", [(2, 2, 3), (3, 2, 3), (2, 3, 3), (3, 3, 2)])
def test_to_path_charge_rule_on_shifted_tight_configs(n, ell, nmax):
    # a uniform shift keeps a configuration tight and descending and moves
    # its charges below 0, to n or beyond, or onto another valid set; the
    # rows reversed have increasing charges
    cases = {}
    for coeffs in all_level_coeffs(n, ell):
        for cfg in tight_configs(n, ell, coeffs, nmax):
            for d in range(-n - 1, n + 2):
                rows = tuple(r.shifted(d) for r in cfg.rows)
                for psi in (AbacusConfig(n, ell, rows), AbacusConfig(n, ell, rows[::-1])):
                    c = psi.charges()
                    shape = "neg" if min(c) < 0 else "big" if max(c) >= n else "in"
                    if list(c) != sorted(c, reverse=True):
                        shape = "increasing"
                    case = _check_to_path_charge_rule(psi)
                    cases[shape, case] = cases.get((shape, case), 0) + 1
    for need in (("neg", "charges"), ("big", "charges"), ("in", "accepted"),
                 ("increasing", "tight")):
        assert cases.get(need, 0) > 0, need


def test_path_brackets_match_descending_brackets():
    # token-for-token: the path string, widened to the configuration's bead
    # sets, equals the grouped abacus string
    from helpers import descending_brackets

    for coeffs in all_level_coeffs(3, 2):
        for cfg in tight_configs(3, 2, coeffs, 5):
            p = to_path(cfg)
            for i in range(3):
                own = tokens_of_color(path_tokens(p), i, 3)
                assert path_tokens_widened(p, i, 0) == own
                ab = [c for c, _ in tokens_of_color(descending_brackets(cfg), i, 3)]
                extra = cfg.max_bead_index() - p.last_position()
                pa = [c for c, _ in path_tokens_widened(p, i, extra)]
                assert "".join(pa) == "".join(ab)


def test_path_window_stability():
    for coeffs in all_level_coeffs(3, 2):
        for cfg in tight_configs(3, 2, coeffs, 4):
            p = to_path(cfg)
            for i in range(3):
                base = signature_reduce(tokens_of_color(path_tokens(p), i, 3))
                for extra in (2, 5):
                    wide = signature_reduce(path_tokens_widened(p, i, extra))
                    assert base == wide
                    assert f_path(p, i) == _f_path_widened(p, i, extra)


def _f_path_widened(path, i, extra):
    k, _ = signature_reduce(path_tokens_widened(path, i, extra))
    if k is None:
        return None
    elem = f_perfect(path.element(k), i, path.n)
    from slncrystals.kyoto import _with_element

    return _with_element(path, k, elem)


# (n, ell, degree): every tight configuration of every level weight
SHARED_RULE_CASES = [(2, 2, 6), (3, 2, 6), (2, 3, 5), (4, 2, 5), (3, 3, 4), (5, 2, 4)]


@pytest.mark.parametrize("n,ell,degree", SHARED_RULE_CASES)
def test_path_brackets_match_token_list_and_grouped_rule(n, ell, degree):
    # the path rule and the grouped rule share one canceller: the path's
    # signatures equal its reduced token list, payloads included, and the
    # grouped rule's on the configuration
    for coeffs in all_level_coeffs(n, ell):
        for cfg in tight_configs(n, ell, coeffs, degree):
            p = to_path(cfg)
            sigs = path_brackets(p)
            assert sigs == _reduce_colors(path_tokens(p), n)
            assert sigs == _grouped_signatures(cfg)


def test_path_brackets_runs_once_per_path(monkeypatch):
    # the benchmark's layer tracer counts kyoto.path_brackets calls as the
    # path model's signal: the first f_path or e_path on a fresh path calls
    # it once, through the module, and later operators read the memo
    calls = []
    real = kyoto.path_brackets

    def counted(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(kyoto, "path_brackets", counted)
    for first in (f_path, e_path):
        for cfg in tight_configs(3, 2, (1, 1, 0), 4):
            p = to_path(cfg)
            assert p._signatures is None
            del calls[:]
            first(p, 1)
            assert len(calls) == 1 and calls[0] is p
            for i in range(3):
                f_path(p, i)
                e_path(p, i)
            assert len(calls) == 1


@pytest.mark.parametrize("n,ell", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)])
def test_memoised_path_signatures_match_widened_tokens(n, ell):
    for coeffs in all_level_coeffs(n, ell):
        for cfg in tight_configs(n, ell, coeffs, 5):
            p = to_path(cfg)
            f_path(p, 0)
            memo = p._signatures
            e_path(p, n - 1)
            assert p._signatures is memo
            for i in range(n):
                # the widened oracle's payload is k; the memo's is (k, i)
                own = [(c, (k, i)) for c, k in path_tokens_widened(p, i, 0)]
                assert memo[i] == signature_reduce(own)


@pytest.mark.parametrize("n,ell", [(3, 2), (2, 3)])
def test_path_memo_is_not_shared_with_images(n, ell):
    for coeffs in all_level_coeffs(n, ell):
        for cfg in tight_configs(n, ell, coeffs, 4):
            p = to_path(cfg)
            f_path(p, 0)
            for op in (f_path, e_path):
                for i in range(n):
                    img = op(p, i)
                    if img is None:
                        continue
                    fresh = Path.from_json(img.to_json())
                    assert img == fresh and img._signatures is None
                    assert op(img, i) == op(fresh, i)
                    assert img._signatures == fresh._signatures
                    assert img._signatures is not p._signatures


@pytest.mark.parametrize("n,ell", [(3, 2), (2, 3)])
def test_derived_paths_share_ground_elements(n, ell):
    # the ground-element table depends on n and the weight only: paths of
    # one weight share it, and it gives what a fresh path builds
    for coeffs in all_level_coeffs(n, ell):
        tables = set()
        for cfg in tight_configs(n, ell, coeffs, 4):
            p = to_path(cfg)
            tables.add(id(p._grounds))
            for op in (f_path, e_path):
                for i in range(n):
                    img = op(p, i)
                    if img is not None:
                        assert img._grounds is p._grounds
            fresh = Path(n, ell, p.weight, ())
            for k in range(1, 2 * n + 1):
                assert p.ground(k) == fresh.ground(k)
        assert len(tables) == 1
        assert Path.from_json(p.to_json())._grounds is p._grounds
    weights = {to_path(highest_weight_config(c, n, ell)).weight: c
               for c in all_level_coeffs(n, ell)}
    tables = {id(to_path(highest_weight_config(c, n, ell))._grounds)
              for c in weights.values()}
    assert len(tables) == len(weights)


def test_pruned_path_is_the_path_its_constructor_builds():
    # _pruned_path builds its Path unchecked; it is the Path that
    # Path(n, ell, weight, elements) builds, with the parent's ground table.
    # Both drop trailing ground elements, so a path has one form
    g = ground_state_path((1, 1, 0), 3, 2)
    trailing = Path(3, 2, g.weight, (g.ground(1),))
    assert trailing == g and hash(trailing) == hash(g) and trailing.elements == ()
    built = 0
    for n, ell in [(2, 2), (3, 2), (2, 3)]:
        for coeffs in all_level_coeffs(n, ell):
            for cfg in tight_configs(n, ell, coeffs, 4):
                p = to_path(cfg)
                for q in [p] + [op(p, i) for op in (f_path, e_path) for i in range(n)]:
                    if q is None:
                        continue
                    K = q.last_position()
                    tail = [q.ground(k) for k in (K + 1, K + 2)]
                    out = _pruned_path(q, [*q.elements, *tail])
                    want = Path(n, ell, q.weight, q.elements)
                    assert type(out) is Path
                    assert out == want and hash(out) == hash(want)
                    assert repr(out) == repr(want)
                    assert out._grounds is q._grounds
                    assert out._signatures is None
                    padded = Path(n, ell, q.weight, [*q.elements, *tail])
                    assert padded == q and hash(padded) == hash(q)
                    assert Path.from_json(padded.to_json()) == padded
                    built += 1
    assert built > 0


def test_ground_elements_shared_after_other_weights():
    # to_path and Path.from_json read one cache of deviation-free paths, so
    # a path and its JSON round trip share ground elements even after more
    # weights than the cache holds went through Path.from_json
    p = to_path(fig10())
    for n in range(2, 8):
        for coeffs in all_level_coeffs(n, 2):
            Path.from_json({"n": n, "ell": 2, "weight": list(coeffs)})
    q = to_path(fig10())
    assert q == p
    assert Path.from_json(q.to_json())._grounds is q._grounds


@pytest.mark.parametrize("n,ell", [(2, 2), (3, 2)])
def test_J_intertwines(n, ell):
    for coeffs in all_level_coeffs(n, ell):
        for cfg in tight_configs(n, ell, coeffs, 5):
            p = to_path(cfg)
            assert from_path(p) == cfg
            for i in range(n):
                img = f_abacus(cfg, i)
                assert f_path(p, i) == (to_path(img) if img is not None else None)
                img = e_abacus(cfg, i)
                assert e_path(p, i) == (to_path(img) if img is not None else None)


def test_J_injective_with_matching_layers():
    from slncrystals.crystal import crystal_graph

    graph = crystal_graph(highest_weight_config((1, 1, 0), 3, 2), 5)
    for layer in graph.layers:
        paths = {to_path(cfg) for cfg in layer}
        assert len(paths) == len(layer)


def test_f_then_e_roundtrip_on_paths():
    for coeffs in all_level_coeffs(3, 2):
        for cfg in tight_configs(3, 2, coeffs, 5):
            p = to_path(cfg)
            for i in range(3):
                img = f_path(p, i)
                if img is not None:
                    assert e_path(img, i) == p


def test_path_json_roundtrip():
    p = to_path(highest_weight_config((0, 2, 0), 3, 2))
    q = f_path(p, 1)
    assert Path.from_json(q.to_json()) == q


@pytest.mark.parametrize("n,ell", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
def test_from_path_on_random_paths(n, ell):
    # paths drawn freely, not as images of to_path
    rng = random.Random(1000 * n + ell)
    elems = all_perfect_elems(n, ell)
    for coeffs in all_level_coeffs(n, ell):
        for _ in range(30):
            devs = {
                str(k): rng.choice(elems).to_json()
                for k in range(1, rng.randint(1, 8) + 1)
                if rng.random() < 0.7
            }
            p = Path.from_json(
                {"n": n, "ell": ell, "weight": list(coeffs), "deviations": devs}
            )
            cfg = from_path(p)
            assert is_descending(cfg) and is_tight(cfg)
            assert to_path(cfg) == p


def test_path_reads_its_weight_as_a_dominant_weight():
    # a plain tuple of n coefficients of level ell is the same weight
    p = Path(3, 2, (1, 1, 0), ())
    assert p == Path(3, 2, DominantWeight((1, 1, 0)), ())
    assert type(p.weight) is DominantWeight


def test_path_constructor_checks_what_from_json_checks():
    # the constructor and from_json refuse the same elements with one message
    w = DominantWeight((1, 1, 0))
    for elem in ((0, 7), (0,), (0, 1, 2), (-1, 0)):
        data = {"n": 3, "ell": 2, "weight": [1, 1, 0], "deviations": {"1": list(elem)}}
        with pytest.raises(ValueError, match="entries in") as built:
            Path(3, 2, w, (PerfectElem(elem),))
        with pytest.raises(ValueError, match="entries in") as parsed:
            Path.from_json(data)
        assert str(built.value) == str(parsed.value)
    p = Path(3, 2, w, ((1, 0),))
    assert p.elements == ((0, 1),) and type(p.elements[0]) is PerfectElem
