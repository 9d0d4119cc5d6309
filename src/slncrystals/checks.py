"""The identities between the models, one check each.

A per-configuration predicate takes one configuration and returns a message
naming the first counterexample at it, or None.  A per-weight check does the
same for one dominant weight w, at rank w.n and level w.level.  `run` walks
the level weights, and for the predicates the configurations that
enumerate_descending (or enumerate_tight) yields below each of them.

Every library call goes through its module, so that a call counted or
replaced on the module is counted or replaced here too.
"""

from __future__ import annotations

from . import abacus, crystal, cylindric, qseries
from . import kyoto as paths


# ---------------------------------------------------------------------------
# per-configuration predicates


def gglemma(cfg):
    """The grouped bead-set rule agrees with the gap rule (descending cfg)."""
    rules = (
        ("f", crystal.f_descending, crystal.f_abacus),
        ("e", crystal.e_descending, crystal.e_abacus),
    )
    for i in range(cfg.n):
        for name, grouped, gap in rules:
            if grouped(cfg, i) != gap(cfg, i):
                return "%s rules disagree at %s color %d" % (name, cfg.label(), i)
    return None


def tk_commute(cfg):
    """Every defined T_k commutes with e_i and f_i, zero patterns included."""
    # T_k(cfg) does not depend on the color, so it is computed once per k;
    # the images of cfg are built only when some T_k is defined to compare
    kmax = cfg.max_bead_index() + 1
    tightened = [(k, abacus.tighten(cfg, k)) for k in range(1, kmax + 1)]
    tightened = [(k, tk) for k, tk in tightened if tk is not None]
    if not tightened:
        return None
    ops = (("f", crystal.f_abacus), ("e", crystal.e_abacus))
    for i in range(cfg.n):
        images = [(name, op, op(cfg, i)) for name, op in ops]
        for k, tk in tightened:
            for name, op, img in images:
                if op(tk, i) != (abacus.tighten(img, k) if img is not None else None):
                    return "T_%d and %s_%d disagree at %s" % (k, name, i, cfg.label())
    return None


def bijection(cfg):
    """from_abacus lands on a cylindric plane partition of the same weight
    and to_abacus inverts it (descending cfg)."""
    pi = cylindric.from_abacus(cfg)
    try:
        back = cylindric.to_abacus(pi)  # checks is_valid_cpp(pi) first
    except ValueError:
        return "image not a cylindric plane partition at %s" % cfg.label()
    if back != cfg:
        return "roundtrip failed at %s" % cfg.label()
    if cylindric.cpp_weight(pi) != abacus.weight(cfg):
        return "weight mismatch at %s" % cfg.label()
    return None


def kyoto(cfg):
    """to_path intertwines f_i on the tight cfg with f_i on paths."""
    p = paths.to_path(cfg)
    for i in range(cfg.n):
        img = crystal.f_abacus(cfg, i)
        want = paths.to_path(img) if img is not None else None
        if paths.f_path(p, i) != want:
            return "path model disagrees at %s color %d" % (cfg.label(), i)
    return None


# ---------------------------------------------------------------------------
# per-weight checks


def three_way_z(w, nmax):
    """Z_rep, Z_borodin and Z_bruteforce agree through q^nmax."""
    n, ell = w.n, w.level
    zr = qseries.Z_rep(w, n, ell, nmax)
    zb = qseries.Z_borodin(qseries.boundary_of(w, n, ell), nmax)
    zf = qseries.Z_bruteforce(abacus.highest_weight_config(w, n, ell), nmax)
    for k in range(nmax + 1):
        if not (zr.coeff(k) == zb.coeff(k) == zf.coeff(k)):
            return "Z mismatch for %s at q^%d: rep=%d borodin=%d brute=%d" % (
                w, k, zr.coeff(k), zb.coeff(k), zf.coeff(k)
            )
    return None


def rank_level(w, nmax):
    """dim_q V x boson(n) on the (n, ell) side equals its (ell, n) dual."""
    n, ell = w.n, w.level
    if n < 2 or ell < 2:
        raise ValueError("rank-level duality needs n, ell >= 2")
    dual = cylindric.dual_weight(w, n, ell)
    if qseries.Z_rep(w, n, ell, nmax) != qseries.Z_rep(dual, ell, n, nmax):
        return "rank-level duality fails for %s" % (w,)
    return None


def level_one(w, nmax):
    """The level-1 character of w times boson(n) is the partition series."""
    n = w.n
    if n < 2 or w.level != 1:
        raise ValueError("the level-one identity needs n >= 2 and a level-1 weight")
    if qseries.Z_rep(w, n, 1, nmax) != qseries.euler_inverse(1, nmax):
        return "level-one identity fails for %s" % (w,)
    return None


# ---------------------------------------------------------------------------
# the suites

# suite -> (predicate, walks tight configurations only)
CONFIG_SUITES = {
    "gglemma": (gglemma, False),
    "tk-commute": (tk_commute, False),
    "bijection": (bijection, False),
    "kyoto": (kyoto, True),
}

WEIGHT_SUITES = {
    "three-way-Z": three_way_z,
    "rank-level": rank_level,
    "level-one": level_one,
}

SUITES = sorted(CONFIG_SUITES | WEIGHT_SUITES)


def run(suite, n, ell, nmax, weights=None):
    """Check `suite` through degree nmax; return (cases, first failure).

    `weights` defaults to every level-ell weight of rank n (level 1 for
    level-one).  A case is one configuration for the per-configuration
    suites and one weight for the others; the failure is None if every case
    passed.
    """
    if weights is None:
        weights = qseries.level_weights(n, 1 if suite == "level-one" else ell)
    cases = 0
    for w in weights:
        if suite in WEIGHT_SUITES:
            failures = [WEIGHT_SUITES[suite](w, nmax)]
        else:
            check, tight = CONFIG_SUITES[suite]
            enum = abacus.enumerate_tight if tight else abacus.enumerate_descending
            failures = map(check, enum(abacus.highest_weight_config(w, n, ell), nmax))
        for failure in failures:
            cases += 1
            if failure is not None:
                return cases, failure
    return cases, None
