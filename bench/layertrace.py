"""Outside-in span tracing of the frlimits layers.

Public callables of the package are replaced by wrappers that record a
span (name, start, end, parent span, case id) around each call.  The
package itself is never edited: ``install`` patches class attributes and
every module attribute bound to a wrapped function, so names imported
with ``from .intlin import ...`` are covered too.

Self time is a span's duration minus the time its direct child spans
cover; calls run on one thread, so children never overlap.  Durations are
taken from the recorded clock readings when the totals are asked for, and
can be mapped to another time scale first.
"""

from __future__ import annotations

import importlib
import sys
import time

# (span name, module, attribute) for every layer boundary that is timed.
SPANS = [
    ("permgrp.level", "frlimits.permgrp", "LevelPresentation.__init__"),
    ("truncring.ring_build", "frlimits.truncring", "TruncatedRing.__init__"),
    ("truncring.monomial", "frlimits.truncring", "TruncatedRing.eval_monomial"),
    ("truncring.code", "frlimits.truncring", "TruncatedRing.eval_code"),
    ("truncring.functor_value", "frlimits.truncring", "FunctorValue.__init__"),
    ("truncring.induced_map", "frlimits.truncring", "induced_map"),
    ("intlin.lattice_add", "frlimits.intlin", "Lattice.add"),
    ("intlin.canonicalize", "frlimits.intlin", "Lattice.canonicalize"),
    ("intlin.membership", "frlimits.intlin", "Lattice.reduce"),
    ("intlin.membership", "frlimits.intlin", "Lattice.contains"),
    ("intlin.membership", "frlimits.intlin", "Lattice.coordinates"),
    ("intlin.intersection", "frlimits.intlin", "lattice_intersection"),
    ("intlin.homology", "frlimits.intlin", "homology_at"),
    ("intlin.matmul", "frlimits.intlin", "safe_matmul"),
    ("intlin.snf", "frlimits.intlin", "smith_diagonal"),
    ("limits.identities", "frlimits.limits", "CosimplicialAb.verify_cosimplicial_identities"),
    ("limits.moore", "frlimits.limits", "moore_complex"),
    ("limits.cohomology", "frlimits.limits", "CochainComplex.cohomology"),
    ("limits.lim0_equalizer", "frlimits.limits", "code_lattice_equalizer_rank"),
    ("limits.alternate_sum", "frlimits.limits", "alternate_sum_complex"),
]

# per-layer metric -> (span name, "self_s" or "calls")
SPAN_METRICS = {
    "permgrp.level_s": ("permgrp.level", "self_s"),
    "permgrp.levels": ("permgrp.level", "calls"),
    "truncring.ring_build_s": ("truncring.ring_build", "self_s"),
    "truncring.rings": ("truncring.ring_build", "calls"),
    "truncring.monomial_s": ("truncring.monomial", "self_s"),
    "truncring.code_s": ("truncring.code", "self_s"),
    "truncring.functor_value_s": ("truncring.functor_value", "self_s"),
    "truncring.induced_map_s": ("truncring.induced_map", "self_s"),
    "truncring.induced_maps": ("truncring.induced_map", "calls"),
    "intlin.lattice_add_s": ("intlin.lattice_add", "self_s"),
    "intlin.lattice_adds": ("intlin.lattice_add", "calls"),
    "intlin.canonicalize_s": ("intlin.canonicalize", "self_s"),
    "intlin.canonicalizes": ("intlin.canonicalize", "calls"),
    "intlin.membership_s": ("intlin.membership", "self_s"),
    "intlin.membership_calls": ("intlin.membership", "calls"),
    "intlin.intersection_s": ("intlin.intersection", "self_s"),
    "intlin.homology_s": ("intlin.homology", "self_s"),
    "intlin.matmul_s": ("intlin.matmul", "self_s"),
    "intlin.matmul_calls": ("intlin.matmul", "calls"),
    "intlin.snf_s": ("intlin.snf", "self_s"),
    "intlin.snf_calls": ("intlin.snf", "calls"),
    "limits.identities_s": ("limits.identities", "self_s"),
    "limits.moore_s": ("limits.moore", "self_s"),
    "limits.cohomology_s": ("limits.cohomology", "self_s"),
    "limits.lim0_equalizer_s": ("limits.lim0_equalizer", "self_s"),
    "limits.alternate_sum_s": ("limits.alternate_sum", "self_s"),
}

# counters kept by the wrappers themselves rather than derived from spans
COUNTERS = (
    "truncring.ring_rank_max",
    "truncring.monomial_builds",
    "truncring.monomial_hits",
    "intlin.bignum_lattices",
)


class Recorder:
    """In-memory span store.  Spans are lists
    [name, start, end, parent index or -1, case id], appended on entry."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []      # indices of open spans
        self.calls = {}
        self.case = None
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._seen_monomials = {}
        self._big_lattices = {}

    def enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, parent, self.case])
        self._stack.append(idx)
        # a call re-entering its own span name (contains -> reduce, the
        # recursion of eval_monomial) is one call of that layer
        if parent < 0 or self.spans[parent][0] != name:
            self.calls[name] = self.calls.get(name, 0) + 1
        return idx

    def exit(self, idx):
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def span(self, name):
        return _Span(self, name)

    # -- counters fed by the wrappers ------------------------------------

    def saw_ring(self, ring):
        rank = getattr(ring, "rank", 0)
        if rank > self.counters["truncring.ring_rank_max"]:
            self.counters["truncring.ring_rank_max"] = rank

    def saw_monomial(self, lattice):
        # a hit returns a Lattice object already returned before; the
        # object is kept alive so its id cannot be reused
        if id(lattice) in self._seen_monomials:
            self.counters["truncring.monomial_hits"] += 1
        else:
            self._seen_monomials[id(lattice)] = lattice
            self.counters["truncring.monomial_builds"] += 1

    def saw_canonical(self, lattice):
        if getattr(lattice, "big", False) and id(lattice) not in self._big_lattices:
            self._big_lattices[id(lattice)] = lattice
            self.counters["intlin.bignum_lattices"] += 1

    # -- results -----------------------------------------------------------

    def self_times(self, timemap=None):
        """Self time per span name over the closed spans.  ``timemap``
        converts clock readings first (to reference seconds, say)."""
        out = {}
        for name, start, end, parent, _ in self.spans:
            if end is None:
                continue
            if timemap is not None:
                start, end = timemap(start), timemap(end)
            duration = end - start
            out[name] = out.get(name, 0.0) + duration
            # children never overlap, so each one's whole duration leaves
            # its parent's self time
            if parent >= 0:
                pname = self.spans[parent][0]
                out[pname] = out.get(pname, 0.0) - duration
        return out

    def layer_totals(self, timemap=None):
        self_s = self.self_times(timemap)
        out = {}
        for metric, (name, kind) in SPAN_METRICS.items():
            table = self_s if kind == "self_s" else self.calls
            out[metric] = table.get(name, 0.0 if kind == "self_s" else 0)
        out.update(self.counters)
        return out

    def dump(self):
        """Spans as columns, for writing as JSON."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "name": [code[s[0]] for s in self.spans],
            "start": [s[1] for s in self.spans],
            "end": [s[2] for s in self.spans],
            "parent": [s[3] for s in self.spans],
            "case": [s[4] for s in self.spans],
        }


class _Span:
    __slots__ = ("rec", "name", "idx")

    def __init__(self, rec, name):
        self.rec = rec
        self.name = name

    def __enter__(self):
        self.idx = self.rec.enter(self.name)
        return self

    def __exit__(self, *exc):
        self.rec.exit(self.idx)
        return False


# counter updates run after the wrapped call returns: (recorder, args, result)
_AFTER = {
    "TruncatedRing.__init__": lambda rec, args, result: rec.saw_ring(args[0]),
    "TruncatedRing.eval_monomial": lambda rec, args, result: rec.saw_monomial(result),
    "Lattice.canonicalize": lambda rec, args, result: rec.saw_canonical(args[0]),
}


def _wrap(rec, name, attr, fn):
    after = _AFTER.get(attr)
    # most canonicalize calls come from basis() on an already canonical
    # lattice and return at once; only calls with work to do are spans
    skip_if_canonical = attr == "Lattice.canonicalize"

    def wrapper(*args, **kwargs):
        if skip_if_canonical and getattr(args[0], "_canonical", False):
            return fn(*args, **kwargs)
        idx = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(idx)
        if after is not None:
            after(rec, args, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def install(rec):
    """Wrap every callable in SPANS so that it records into ``rec``."""
    # import everything first so that _rebind_imports sees every module
    modules = {m: importlib.import_module(m) for _, m, _ in SPANS}
    for name, modname, attr in SPANS:
        module = modules[modname]
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        fn = getattr(owner, leaf)
        if hasattr(fn, "__wrapped__"):
            raise RuntimeError(f"{modname}.{attr} is already traced")
        wrapper = _wrap(rec, name, attr, fn)
        setattr(owner, leaf, wrapper)
        if not owner_name:
            _rebind_imports(fn, wrapper)


def _rebind_imports(fn, wrapper):
    """Point every frlimits module attribute bound to fn at the wrapper."""
    for modname, module in list(sys.modules.items()):
        if modname == "frlimits" or modname.startswith("frlimits."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
