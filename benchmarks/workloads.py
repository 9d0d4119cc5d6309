"""Seeded request generation for the benchmark workloads.

A request is an argv for ``slncrystals.cli.main``, the stdin it reads, the
exact stdout a correct program prints, the number of combinatorial
elements it covers, and the number of configurations its enumerations and
crystal-graph BFS must visit.  Expected outputs and counts come from the
boundary hook product ``Z_borodin``, which shares no code with the crystal
graph, the enumerators or the path model that the requests exercise.

"Elements" are counted from degree 1 up to nmax: the highest weight vector
at degree 0 is trivially right, so a request whose count is 0 checks
nothing and is rejected (``verify kyoto --nmax 0`` is one).

A workload is a list of blocks.  A block holds a fixed mix of request
kinds for every (n, ell) pair, in seeded order.  The verify suites of
enumerate-path walk every level weight, so they are the same for every
seed; series and convert requests draw seeded weights, balanced so that
each seed sees nearly the same share of each weight.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass

from slncrystals import abacus, crystal, cylindric, kyoto, qseries

PAIRS = ((2, 2), (3, 2), (2, 3), (4, 2), (3, 3))

# Blocks per workload: at least 100 requests, so that a p90 has ten beyond
# it.  graded-series draws 20 series weights per (n, ell), so that the 10
# weights of the slowest pairs, (4, 2) and (3, 3), are drawn equally often
# whatever the seed.
BLOCKS = {"graded-series": 2, "enumerate-path": 5}

# nmax per (n, ell) and request kind; for convert, the degree of the
# converted configuration.  Requests take about 5-50 ms, so that one pass
# over a workload takes a few seconds and every request is timed ten times
# or more in a run.  TINY is for the self-test.
SIZES = {
    (2, 2): dict(series=12, rank_level=8, level_one=14, gglemma=5, tk_commute=5,
                 bijection=6, kyoto=3, convert=20),
    (3, 2): dict(series=10, rank_level=6, level_one=12, gglemma=3, tk_commute=4,
                 bijection=5, kyoto=2, convert=20),
    (2, 3): dict(series=11, rank_level=7, level_one=14, gglemma=4, tk_commute=4,
                 bijection=5, kyoto=3, convert=20),
    (4, 2): dict(series=10, rank_level=5, level_one=10, gglemma=3, tk_commute=3,
                 bijection=4, kyoto=1, convert=20),
    (3, 3): dict(series=8, rank_level=5, level_one=12, gglemma=2, tk_commute=3,
                 bijection=4, kyoto=1, convert=20),
}
TINY = dict(series=3, rank_level=2, level_one=2, gglemma=2, tk_commute=2,
            bijection=2, kyoto=1, convert=3)


@dataclass(frozen=True)
class Request:
    argv: tuple
    stdin: str
    expected: str  # exact stdout of a correct run
    elements: int  # combinatorial elements covered, degree 1..nmax
    # configurations the request must visit, degree 0..nmax: yields of
    # enumerate_descending (also those it makes for enumerate_tight), yields
    # of enumerate_tight, and crystal_graph nodes
    visits: tuple

    def __post_init__(self):
        if self.elements < 1:
            raise ValueError("vacuous request, no element covered: %s"
                             % " ".join(self.argv))


def _args(n, ell, nmax=None, weight=None):
    out = ("--n", str(n), "--ell", str(ell))
    if weight is not None:
        out += ("--weight", str(weight))
    if nmax is not None:
        out += ("--nmax", str(nmax))
    return out


@functools.lru_cache(maxsize=None)
def _z(w, n, ell, nmax):
    return qseries.Z_borodin(qseries.boundary_of(w, n, ell), nmax)


@functools.lru_cache(maxsize=None)
def _configs(w, n, ell, nmax):
    """Descending configurations (= cylindric plane partitions), degree 1..nmax."""
    return sum(_z(w, n, ell, nmax).coeffs[1:])


@functools.lru_cache(maxsize=None)
def _crystal(w, n, ell, nmax):
    """Crystal elements (= tight configurations), degree 1..nmax.

    dim_q = Z * prod_k (1 - q^{nk}), since Z = dim_q / prod_k (1 - q^{nk}).
    """
    s = _z(w, n, ell, nmax)
    for e in range(n, nmax + 1, n):
        s = s.times_one_minus(e)
    return sum(s.coeffs[1:])


def _visits(descending=0, tight=0, graph=0):
    return (descending, tight, graph)


def _ok(which):
    return "ok: %s\n" % which


def series(n, ell, w, nmax):
    z = _z(w, n, ell, nmax)
    return Request(
        ("series", "--kind", "Z") + _args(n, ell, nmax, w),
        "",
        "".join("%d\t%d\n" % (k, c) for k, c in enumerate(z.coeffs)),
        _crystal(w, n, ell, nmax),
        _visits(graph=_crystal(w, n, ell, nmax) + 1),
    )


def rank_level(n, ell, nmax):
    ws = qseries.level_weights(n, ell)
    elements = sum(
        _crystal(w, n, ell, nmax)
        + _crystal(cylindric.dual_weight(w, n, ell), ell, n, nmax)
        for w in ws
    )
    return Request(("verify", "rank-level") + _args(n, ell, nmax), "",
                   _ok("rank-level"), elements,
                   _visits(graph=elements + 2 * len(ws)))


def level_one(n, nmax):
    ws = qseries.level_weights(n, 1)
    elements = sum(_crystal(w, n, 1, nmax) for w in ws)
    return Request(("verify", "level-one") + _args(n, 1, nmax), "",
                   _ok("level-one"), elements, _visits(graph=elements + len(ws)))


def all_weights_suite(which, n, ell, nmax):
    """A verify suite that walks every level-ell weight: gglemma, tk-commute
    and bijection over descending configurations, kyoto over tight ones."""
    ws = qseries.level_weights(n, ell)
    configs = sum(_configs(w, n, ell, nmax) for w in ws)
    if which == "kyoto":
        elements = sum(_crystal(w, n, ell, nmax) for w in ws)
        visits = _visits(configs + len(ws), elements + len(ws))
    else:
        elements = configs
        visits = _visits(configs + len(ws))
    return Request(("verify", which) + _args(n, ell, nmax), "", _ok(which),
                   elements, visits)


def convert_path(n, ell, w, degree, rng):
    """Convert a path back to the abacus.

    The path is the image of a tight configuration reached from the highest
    weight vector by `degree` seeded lowering moves.
    """
    cfg = abacus.highest_weight_config(w, n, ell)
    for _ in range(degree):
        images = [crystal.f_abacus(cfg, i) for i in range(n)]
        cfg = rng.choice([c for c in images if c is not None])
    return Request(
        ("convert", "path", "abacus") + _args(n, ell),
        json.dumps(kyoto.to_path(cfg).to_json()),
        json.dumps(cfg.to_json()) + "\n",
        1,
        _visits(),
    )


def _weights(rng):
    """Per (n, ell), an endless stream of level weights in seeded order.

    Each pass over the stream visits every weight once, so the share of
    each weight varies little from seed to seed.
    """
    def stream(ws):
        while True:
            yield from rng.sample(ws, len(ws))

    return {pair: stream(qseries.level_weights(*pair)) for pair in PAIRS}


def _graded_series(weights, rng, size):
    block = []
    for n, ell in PAIRS:
        s = size(n, ell)
        block += [series(n, ell, next(weights[n, ell]), s["series"]) for _ in range(10)]
        block.append(rank_level(n, ell, s["rank_level"]))
        block.append(level_one(n, s["level_one"]))
    return block


def _enumerate_path(weights, rng, size):
    block = []
    for n, ell in PAIRS:
        s = size(n, ell)
        block.append(all_weights_suite("gglemma", n, ell, s["gglemma"]))
        block.append(all_weights_suite("tk-commute", n, ell, s["tk_commute"]))
        block.append(all_weights_suite("bijection", n, ell, s["bijection"]))
        block += [all_weights_suite("kyoto", n, ell, s["kyoto"]) for _ in range(2)]
        block.append(convert_path(n, ell, next(weights[n, ell]), s["convert"], rng))
    return block


WORKLOADS = {
    "graded-series": _graded_series,
    "enumerate-path": _enumerate_path,
}


def build(workload, seed, tiny=False):
    """The requests of one workload: BLOCKS[workload] blocks (one when
    tiny), each shuffled."""
    rng = random.Random("%s:%d" % (workload, seed))
    weights = _weights(rng)

    def size(n, ell):
        return TINY if tiny else SIZES[(n, ell)]

    requests = []
    for _ in range(1 if tiny else BLOCKS[workload]):
        block = WORKLOADS[workload](weights, rng, size)
        rng.shuffle(block)
        requests += block
    return requests


def warmup_set(requests):
    """One request of each kind and (n, ell): the first by argv.

    Run before timing starts, so that per-weight state, such as the
    ground-state chains that verify kyoto and convert build, exists when
    timing starts.  Taking the first by argv rather than in the seeded
    order keeps the warm-up, and with it the set-up time, the same for
    every seed, except for the seeded path that a convert request carries.
    """
    firsts = {}
    for r in sorted(requests, key=lambda r: r.argv):
        firsts.setdefault((r.argv[:2], _pair(r.argv)), r)
    return list(firsts.values())


def _pair(argv):
    return argv[argv.index("--n") + 1], argv[argv.index("--ell") + 1]
