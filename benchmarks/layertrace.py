"""Per-layer tracing of slncrystals from outside the package.

A Tracer patches every public function defined in a slncrystals module,
in every module namespace that binds it, and restores the originals on
exit.  Each call becomes a span charged to the defining module (the layer).
A layer's self time is its spans' duration minus the time of the spans
they enclose.  Generator functions get one span per resumption, so lazy
enumeration is charged where it runs, and a count of the items they
yield.  The hot bead-row primitives only get call counters: a single
``series`` request calls them ~10^5 times, and a span around each would
swamp what it measures.  Their time is charged to
the span that calls them, so partitions.self_s covers only the partitions
functions, and the primitive counts are that layer's signal.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import time

LAYERS = ("partitions", "abacus", "crystal", "cylindric", "kyoto", "qseries", "cli")

PRIMITIVES = ("occupied", "bead_slot", "move_bead")  # methods of BeadRow

BRACKET_RULES = frozenset(
    ("crystal.abacus_brackets", "crystal.descending_brackets",
     "crystal.partition_brackets")
)

# (callee, direct caller) -> counter: the BFS edges tried by crystal_graph and
# the candidates enumerate_descending filters
CALLER_COUNTERS = {
    ("crystal.f_abacus", "crystal.crystal_graph"): "crystal.graph.f_calls",
    ("abacus.is_descending", "abacus.enumerate_descending"): "abacus.enum.candidates",
}


class Tracer:
    """Context manager that traces slncrystals calls made while it is active."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = collections.Counter()
        self._stack = []  # [name, time of enclosed spans] per open span
        self._patches = []  # (owner, attribute, original)

    def __enter__(self):
        modules = {l: importlib.import_module("slncrystals." + l) for l in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for fname, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not fname.startswith("_")):
                    wrappers[obj] = self._span(layer, "%s.%s" % (layer, fname), obj)
        try:
            for mod in (importlib.import_module("slncrystals"), *modules.values()):
                for fname, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patch(mod, fname, wrappers[obj])
            row = modules["partitions"].BeadRow
            for attr in PRIMITIVES:
                self._patch(row, attr, self._counted("partitions." + attr,
                                                     vars(row)[attr]))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, layer, name, fn):
        stack, counts, self_s = self._stack, self.counts, self.self_s
        clock = time.perf_counter
        callers = {caller: counter for (callee, caller), counter
                   in CALLER_COUNTERS.items() if callee == name}

        def enter():
            counts[name] += 1
            if callers and stack:
                counter = callers.get(stack[-1][0])
                if counter:
                    counts[counter] += 1

        def leave(frame, dt):
            stack.pop()
            self_s[layer] += dt - frame[1]
            if stack:
                stack[-1][1] += dt

        if inspect.isgeneratorfunction(fn):
            yielded = name + ".yielded"

            def gen_span(*args, **kwargs):
                enter()
                it = fn(*args, **kwargs)
                while True:
                    frame = [name, 0.0]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(frame, clock() - t0)
                    counts[yielded] += 1
                    yield item

            return gen_span

        def span(*args, **kwargs):
            enter()
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame, clock() - t0)
            if name in BRACKET_RULES:
                counts["crystal.brackets.calls"] += 1
                counts["crystal.brackets.tokens"] += len(result)
            elif name == "crystal.crystal_graph":
                counts["crystal.graph.nodes"] += sum(result.layer_sizes())
            return result

        return span

    def visits(self):
        """Configurations produced, as workloads.Request.visits lists them."""
        c = self.counts
        return (c["abacus.enumerate_descending.yielded"],
                c["abacus.enumerate_tight.yielded"], c["crystal.graph.nodes"])

    def metrics(self):
        """The per-layer metrics, named as in BENCHMARK.json."""
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        out = {"%s.self_s" % l: t for l, t in self.self_s.items()}
        for name in ("partitions.occupied", "partitions.bead_slot",
                     "partitions.move_bead", "abacus.is_descending", "abacus.tighten",
                     "cylindric.is_valid_cpp", "kyoto.all_perfect_elems",
                     "kyoto.eps_phi_perfect", "kyoto.path_brackets"):
            out[name + ".calls"] = c[name]
        for name in ("abacus.enum.candidates", "crystal.brackets.calls",
                     "crystal.graph.nodes", "crystal.graph.f_calls"):
            out[name] = c[name]
        yielded = c["abacus.enumerate_descending.yielded"]
        out["abacus.enum.yielded"] = yielded
        out["abacus.enum.yield_ratio"] = ratio(yielded, c["abacus.enum.candidates"])
        out["crystal.brackets.tokens_per_call"] = ratio(c["crystal.brackets.tokens"],
                                                        c["crystal.brackets.calls"])
        out["crystal.graph.new_node_ratio"] = ratio(c["crystal.graph.nodes"],
                                                    c["crystal.graph.f_calls"])
        return out
