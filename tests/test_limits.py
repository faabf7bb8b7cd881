"""End-to-end tests of higher_limits against known values of lim^i."""

import copy
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frlimits import freegrp, intlin, limits
from frlimits.errors import CapExceeded, InputError
from frlimits.frcode import make_code, max_monomial_length, normalize, parse, required_truncation
from frlimits.intlin import AbMap, FinPresAb, direct_sum, tensor_Z, tor_Z
from frlimits.limits import (CosimplicialAb, Deadline, alternate_sum_complex, assemble,
                             code_lattice_equalizer_rank, higher_limits, moore_complex)
from frlimits.permgrp import group_from_spec, load_group_file
from frlimits.truncring import GroupContext, rank_sum

from oracles import (RingQuotientValue, abelianization_by_enumeration,
                     augmentation_quotient_invariants, bar_homology,
                     cosimplicial_identities_pairwise, homology_by_kernel, moore_complex_by_images,
                     reference_hnf, ring_quotient_map, surviving)

SRC = Path(__file__).resolve().parents[1] / "src"
GROUP_DIR = SRC / "frlimits" / "groups"
# the benchmark's pinned answers, "group:code" -> lim^i descriptions
BENCH_ANSWERS = json.loads((SRC.parent / "bench" / "expected.json").read_text())
# the codes of the benchmark's dictionary sweep
SWEEP_CODES = ["r", "f", "ff", "rr", "fr+rf", "rr+frf", "rr+fff"]


@lru_cache(maxsize=None)
def context(name):
    return GroupContext(load_group_file(GROUP_DIR / f"{name}.json"))


def lims(code, name):
    ctx = context(name)
    report = higher_limits(parse(code), ctx.group, ctx=ctx)
    return [g.describe() for g in report.lims]


def free(rank):
    return FinPresAb.free(rank).describe()


@pytest.mark.parametrize(
    "name,n", [("z2", 1), ("z2", 2), ("z2", 3), ("z3", 1), ("z3", 2), ("z3", 3)]
)
def test_r_power_is_free_in_top_degree(name, n):
    order = context(name).group.order
    assert lims("r" * n, name) == ["0"] * n + [free((order - 1) ** n)]


@pytest.mark.parametrize("name", ["z2", "z3"])
def test_ff_vanishes(name):
    assert lims("ff", name) == ["0", "0", "0"]


@pytest.mark.parametrize("name,h3", [("z2", "Z/2"), ("z3", "Z/3")])
def test_lim1_rr_frf_is_h3(name, h3):
    assert lims("rr+frf", name)[1] == h3


# the groups of the ROADMAP's starred answers, as one-line images
# (1-indexed), with H_2 and H_3 as textbooks give them
STARRED_GROUPS = {
    "q8": ([[2, 5, 4, 7, 6, 1, 8, 3], [3, 8, 5, 2, 7, 4, 1, 6]], "0", "Z/8"),
    "d8": ([[2, 3, 4, 1], [3, 2, 1, 4]], "Z/2", "Z/2 + Z/2 + Z/4"),
    "a4": ([[2, 3, 1, 4], [1, 3, 4, 2]], "Z/2", "Z/6"),
}
# lim^2(rr+frf) as observed on each: it equals lim^1(fr+rf) on every
# group measured, which no theorem here says, so it is recorded, not derived
STARRED_LIM2_RR_FRF = {"q8": "Z^7", "d8": "Z^7 + Z/2", "a4": "Z^11 + Z/2"}


def starred_reports(images):
    """lim^i of rr+frf, fr+rf and rr+fff on the group the images generate."""
    group = group_from_spec({"generators": [f"x{i}" for i in range(len(images))], "images": images})
    ctx = GroupContext(group)
    return group, [higher_limits(parse(code), group, ctx=ctx).lims
                   for code in ("rr+frf", "fr+rf", "rr+fff")]


@pytest.mark.parametrize("name", sorted(STARRED_GROUPS))
def test_the_starred_answers_match_the_bar_complex_and_the_abelianization(name):
    images, h2, h3 = STARRED_GROUPS[name]
    group, (rr_frf, fr_rf, rr_fff) = starred_reports(images)
    H2, H3 = bar_homology(group, 2), bar_homology(group, 3)
    assert (H2.describe(), H3.describe()) == (h2, h3)
    assert rr_frf[1].describe() == H3.describe()
    assert fr_rf[1].describe() == direct_sum([FinPresAb.free(group.order - 1), H2]).describe()
    gab = FinPresAb.from_invariants(list(abelianization_by_enumeration(group)), 0)
    assert rr_fff[1].describe() == tor_Z(gab, gab).describe()
    assert rr_fff[2].describe() == tensor_Z(gab, gab).describe()
    assert rr_frf[2].describe() == STARRED_LIM2_RR_FRF[name]


@pytest.mark.parametrize("name", sorted(STARRED_GROUPS))
def test_the_starred_answers_do_not_depend_on_the_generating_set(name):
    # the same group generated by (x, x·y) and by (y, x, x²) gives the
    # same three reports as by (x, y)
    (x, y), _, _ = STARRED_GROUPS[name]

    def times(a, b):
        return [b[i - 1] for i in a]

    reports = [[[g.describe() for g in lims] for lims in starred_reports(images)[1]]
               for images in ([x, y], [x, times(x, y)], [y, x, times(x, x)])]
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_the_bar_complex_gives_the_homology_of_cyclic_groups():
    # H_n(Z/m) is Z/m for odd n and 0 for even n >= 2
    for name, m in (("z2", 2), ("z3", 3), ("z4", 4)):
        group = context(name).group
        assert [bar_homology(group, n).describe() for n in (1, 2, 3)] == [f"Z/{m}", "0", f"Z/{m}"]


def test_rr_fff_is_tor_and_tensor_of_abelianization():
    gab = FinPresAb.from_invariants(context("z2").group.abelianization(), 0)
    got = lims("rr+fff", "z2")
    assert got[1] == tor_Z(gab, gab).describe()
    assert got[2] == tensor_Z(gab, gab).describe()


@pytest.mark.parametrize("name", ["z2", "z3"])
@pytest.mark.parametrize("code", ["rr&f", "rr&ff"])
def test_intersections_with_a_larger_ideal(name, code, monkeypatch):
    # rr lies in f and in ff, so both codes are the ideal rr; a fresh
    # context makes sure the code lattice really goes through
    # lattice_intersection rather than a cache
    calls = []

    def counted(a, b, deadline):
        calls.append((a.n, b.n))
        return intlin.lattice_intersection(a, b, deadline)

    monkeypatch.setattr("frlimits.truncring.lattice_intersection", counted)
    group = context(name).group
    report = higher_limits(parse(code), group, ctx=GroupContext(group))
    assert [g.describe() for g in report.lims] == lims("rr", name)
    assert calls


@pytest.mark.parametrize(
    "code,name,expected",
    [
        ("fr&rf", "z2", ["0", "0", "Z"]),
        ("fr&rf", "z3", ["0", "0", "Z^2"]),
        ("r&ff", "z2", ["0", "Z", "0"]),
        ("r&ff", "z3", ["0", "Z^2", "0"]),
    ],
)
def test_pinned_intersection_codes(code, name, expected):
    # regression pins with no closed form yet; they guard lattice_intersection
    assert lims(code, name) == expected


def test_report_checks_in_both_modes(monkeypatch):
    # the plain path builds one cochain complex, the Moore one, from the
    # levels below N = 2: the alternate-sum complex and levels 2 and 3 are
    # built only to cross-validate, and the lim^0 equalizer is never called
    calls = []

    def counted(name):
        real = getattr(limits, name)
        return lambda X: calls.append(name) or real(X)

    for name in ("alternate_sum_complex", "code_lattice_equalizer_rank"):
        monkeypatch.setattr(limits, name, counted(name))
    ctx = context("z2")
    plain = higher_limits(parse("rr+frf"), ctx.group, ctx=ctx)
    assert calls == []
    crossed = higher_limits(parse("rr+frf"), ctx.group, ctx=ctx, cross_validate=True)
    assert calls == ["alternate_sum_complex"]
    assert plain.checks == {"cosimplicial_identities": True}
    assert crossed.checks == {
        "cosimplicial_identities": True, "d_squared_zero": True, "moore_vs_alternate": True,
    }
    assert [g.describe() for g in crossed.lims] == [g.describe() for g in plain.lims]
    assert plain.moore_vanishing == crossed.moore_vanishing == {0: False, 1: False, 2: True, 3: True}
    assert (plain.levels_built, crossed.levels_built) == (1, 3)
    for report in (plain, crossed):
        out = json.loads(json.dumps(report.to_json_dict()))
        assert out["checks"].keys() == {*report.checks, "moore_vanishing"}
        assert (out["levels"], out["levels_built"]) == (3, report.levels_built)


@pytest.mark.parametrize("name", ["z2", "z3"])
def test_the_lim0_equalizer_reads_a_full_assembly(name):
    # the code f has N = 1, so the plain path builds level 0 alone; the
    # equalizer reads levels 0 and 1, where it gives |G| - 1
    group = context(name).group
    X = assemble(parse("f"), group, 1, ctx=context(name))
    assert code_lattice_equalizer_rank(X) == group.order - 1


@pytest.mark.parametrize("name", sorted({key.split(":")[0] for key in BENCH_ANSWERS}))
def test_every_pinned_bench_answer_cross_validates(name):
    # each answer the benchmark checks, from the levels below N and from
    # levels 0..D built in full, with the alternate-sum complex built, its
    # d^2 = 0 proved and its cohomology compared degreewise
    ctx = context(name)
    for key, answer in BENCH_ANSWERS.items():
        group, code = key.split(":", 1)
        if group == name:
            plain = higher_limits(parse(code), ctx.group, ctx=ctx)
            report = higher_limits(parse(code), ctx.group, ctx=ctx, cross_validate=True)
            assert [g.describe() for g in plain.lims] == answer, key
            assert [g.describe() for g in report.lims] == answer, key
            assert report.levels_built == report.top_degree, key
            assert report.checks["d_squared_zero"] is True, key
            assert report.checks["moore_vs_alternate"] is True, key


# other generating sets of bundled groups: (bundled name, generators, images)
ALTERNATE_SPECS = {
    "s3_xyz": ("s3", ["x", "y", "z"], [[2, 1, 3], [2, 3, 1], [3, 2, 1]]),
    "s3_yx": ("s3", ["y", "x"], [[2, 3, 1], [2, 1, 3]]),
    "z4_x_x2": ("z4", ["x", "y"], [[2, 3, 4, 1], [3, 4, 1, 2]]),
}


@lru_cache(maxsize=None)
def alternate_context(alt):
    name, generators, images = ALTERNATE_SPECS[alt]
    spec = {"name": alt, "generators": generators, "images": images}
    return GroupContext(group_from_spec(spec))


@pytest.mark.parametrize("code", ["r", "rr", "fr+rf", "rr+frf", "ff"])
@pytest.mark.parametrize("alt", sorted(ALTERNATE_SPECS))
def test_limits_do_not_depend_on_the_presentation(alt, code):
    # lim^i is a functor on the category of presentations of G, so any
    # generating set of the same group gives the same groups
    ctx = alternate_context(alt)
    name = ALTERNATE_SPECS[alt][0]
    assert ctx.group.order == context(name).group.order
    report = higher_limits(parse(code), ctx.group, ctx=ctx)
    assert [g.describe() for g in report.lims] == lims(code, name)


# generator lists to permute: the bundled ones of z2xz2 and s3, s3 on
# three generators, and z4 on <x, x^2> (its bundled list has one)
PERMUTED_SPECS = {
    "z4_x_x2": ("z4", ["x", "y"], [[2, 3, 4, 1], [3, 4, 1, 2]]),
    "z2xz2": ("z2xz2", ["x", "y"], [[2, 1, 3, 4], [1, 2, 4, 3]]),
    "s3": ("s3", ["x", "y"], [[2, 1, 3], [2, 3, 1]]),
    "s3_xyz": ("s3", ["x", "y", "z"], [[2, 1, 3], [2, 3, 1], [3, 2, 1]]),
}


@lru_cache(maxsize=None)
def permuted_context(spec, order):
    _, generators, images = PERMUTED_SPECS[spec]
    return GroupContext(group_from_spec({
        "name": f"{spec}_{''.join(map(str, order))}",
        "generators": [generators[i] for i in order],
        "images": [images[i] for i in order],
    }))


@settings(max_examples=15, deadline=None)
@given(
    spec=st.sampled_from(sorted(PERMUTED_SPECS)),
    code=st.sampled_from(["r", "rr", "ff", "fr+rf", "rr+frf", "r+ff"]),
    data=st.data(),
)
def test_generator_order_leaves_the_limits_alone(spec, code, data):
    # presentation independence: the order of the generating set is part
    # of the presentation, and lim^i must not see it (codes with N <= 2)
    name, generators, _ = PERMUTED_SPECS[spec]
    order = data.draw(st.permutations(range(len(generators))))
    ctx = permuted_context(spec, tuple(order))
    report = higher_limits(parse(code), ctx.group, ctx=ctx)
    assert [g.describe() for g in report.lims] == lims(code, name)


def test_wide_z2xz2_fff_vanishes():
    # the widest case of the dictionary: f/fff on z2xz2 at N = 3, whose
    # level-3 ring has rank 3484, is 0 in every degree
    ctx = context("z2xz2")
    assert lims("fff", "z2xz2") == ["0"] * 4
    assert ctx.ring(3, 3).rank == 3484


LIM_FINITE_CODES = ("r", "rr", "ff", "fr+rf", "rr+frf", "rr+fff", "fff", "rfr", "ffr+rff", "rrr")


@pytest.mark.parametrize(
    "name,code",
    [("z2", code) for code in LIM_FINITE_CODES]
    + [("z3", code) for code in LIM_FINITE_CODES if required_truncation(parse(code)) <= 2],
)
def test_limits_vanish_above_the_longest_monomial(name, code):
    # one degree above the longest monomial the limit is zero: computed
    # here from levels 0..n+1 built in full and compared with the
    # alternate-sum cohomology, not read off Moore^n = 0 for n >= N
    ctx = context(name)
    parsed = parse(code)
    n = max_monomial_length(parsed)
    report = higher_limits(parsed, ctx.group, top_degree=n + 1, ctx=ctx, cross_validate=True)
    assert report.levels_built == n + 1
    assert report.checks["moore_vs_alternate"] is True
    assert report.lims[n + 1].is_trivial()


# the paper's dictionary of codes: every sum of the 14 monomials of
# length 1-3, normalized, which gives 41 codes
MONOMIALS = ["".join(m) for k in (1, 2, 3) for m in product("fr", repeat=k)]
DICTIONARY_CODES = sorted({
    str(normalize(make_code([(m,) for m in subset])))
    for k in range(1, len(MONOMIALS) + 1) for subset in combinations(MONOMIALS, k)
})


def test_the_dictionary_has_41_codes():
    assert len(DICTIONARY_CODES) == 41


@pytest.mark.parametrize(
    "name,code",
    [(name, code) for name in ("z2", "z3") for code in DICTIONARY_CODES]
    + [(name, code) for name in ("z2_rank2", "z4") for code in SWEEP_CODES],
)
def test_moore_levels_on_the_all_copies_words_match_the_oracle(name, code):
    # levels 0..D built in full: below N each Moore level on the
    # all-copies words is the oracle's level up to isomorphism, at N and
    # above the oracle's level is zero and the cut has no generator, and
    # every cohomology group agrees
    parsed = parse(code)
    X = assemble(parsed, context(name).group, max_monomial_length(parsed), ctx=context(name))
    moore, oracle = moore_complex(X), moore_complex_by_images(X)
    for n in range(X.D + 1):
        if n < X.N:
            assert moore.levels[n].invariants() == oracle.levels[n].invariants(), n
        else:
            assert oracle.levels[n].is_trivial() and moore.levels[n].ngens == 0, n
    got, expected = moore.cohomology(), oracle.cohomology()
    for k in range(X.D):
        assert got[k].invariants() == expected[k].invariants(), k


def test_only_the_levels_below_n_are_built():
    # f^200 + rr has N = 2 and top degree 200: levels 0 and 1 are all the
    # answer reads, and lim^i = 0 for i > 2 since Moore^n = 0 for n >= 2
    group = context("z2").group
    ctx = GroupContext(group)
    report = higher_limits(parse("f^200+rr"), group, ctx=ctx)
    assert sorted(ctx._levels) == [0, 1]
    assert sorted(ctx._rings) == [(0, 2), (1, 2)]
    assert (report.trunc_n, report.top_degree, report.levels_built) == (2, 200, 1)
    assert len(report.lims) == 201
    assert all(g.is_trivial() for g in report.lims[3:])
    assert report.moore_vanishing == {n: n >= 2 for n in range(201)}


def test_a_top_degree_past_the_cap_is_refused_before_any_level():
    # the report holds an entry per degree, so a top degree of 10**8
    # would need about 100 GB; it is refused before anything is built
    group = context("z2").group
    ctx = GroupContext(group)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="top_degree"):
            higher_limits(parse("r"), group, top_degree=10**8, ctx=ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert not ctx._levels and not ctx._rings
    # below the cap, the degrees past the built levels share one zero group
    report = higher_limits(parse("r"), group, top_degree=50, ctx=ctx)
    assert [g.describe() for g in report.lims[:2]] == ["0", "Z"]
    assert len({id(g) for g in report.lims[2:]}) == 1 and report.lims[2] is report.lims[0]


@pytest.mark.parametrize("name,code", [("z2", "rr+frf"), ("z3", "fff"), ("s3", "rr+fff")])
def test_moore_degree_0_is_the_level_as_presented(name, code):
    # A_0 without word |G|-1 is f's basis, the one the level is presented on
    X = assemble(parse(code), context(name).group, 2, ctx=context(name))
    assert moore_complex(X).levels[0] is X.levels[0]


@pytest.mark.parametrize("name,code", [(name, code) for name in ("z2", "z3") for code in DICTIONARY_CODES])
def test_homology_matches_the_kernel_oracle_on_both_complexes(name, code):
    # levels 0..D built in full: every cohomology group of the Moore
    # complex and of the alternate-sum complex, from ranks and Smith
    # invariants, is the one the kernel-basis oracle presents
    parsed = parse(code)
    X = assemble(parsed, context(name).group, max_monomial_length(parsed), ctx=context(name))
    for Q in (moore_complex(X), alternate_sum_complex(X)):
        got = Q.cohomology()
        assert len(got) == len(Q.maps)
        for k in range(len(Q.maps)):
            incoming = Q.maps[k - 1] if k else AbMap.zero(FinPresAb.zero(), Q.levels[0])
            expected = homology_by_kernel(incoming, Q.maps[k]).invariants()
            assert got[k].invariants() == expected, k


@pytest.mark.parametrize(
    "name,code,degrees", [("z2", "rr+frf", 2), ("z3", "rrr", 3), ("s3", "rr+fff", 2), ("z4", "fr+rf", 2)]
)
def test_moore_cohomology_builds_no_kernel_lattice(name, code, degrees, monkeypatch):
    # one pass over the Moore complex: no kernel primitive (``_lower``)
    # runs, one echelon rank (``_rank``) is taken, each map is reduced
    # modulo its codomain once and each level's twist solved for once
    # (two ``_solve`` calls per map), and every lattice built is at most
    # as wide as the widest level's cone columns, |cols_B| + rk R_C, or
    # next differential's, |cols_C|.  A kernel of [g | I] would
    # be |cols_B| + |cols_C| wide, which is wider wherever C has no
    # relations and both have columns
    assert not hasattr(intlin, "_kernel_lattice")
    widths, ranks, passes, solves = [], [], [], []
    real_init, real_rank, real_pass = intlin.Lattice.__init__, intlin._rank, intlin.cochain_homology
    real_solve = intlin.Lattice._solve

    def init(self, n, blocks=()):
        widths.append(n)
        return real_init(self, n, blocks)

    def refuse(*args):
        raise AssertionError("a kernel lattice is built")

    def rank(W):
        ranks.append(W.shape)
        return real_rank(W)

    def solve(self, rows, coords=False):
        solves.append(coords)
        return real_solve(self, rows, coords)

    def cohomology(maps, deadline=None):
        cols = [surviving(m.dom.relations)[0] for m in maps]
        cols.append(surviving(maps[-1].cod.relations)[0])
        rels = [surviving(m.cod.relations)[1] for m in maps]
        bounds = [max(len(cols[k]) + len(rels[k]), len(cols[k + 1])) for k in range(len(maps))]
        kernels = [len(cols[k]) + len(cols[k + 1]) for k in range(len(maps))]
        widths.clear()
        solves.clear()
        out = real_pass(maps, deadline)
        passes.append((len(out), max(widths, default=0), bounds, kernels, sorted(solves)))
        return out

    monkeypatch.setattr(intlin.Lattice, "__init__", init)
    monkeypatch.setattr(intlin, "_lower", refuse)
    monkeypatch.setattr(intlin, "_rank", rank)
    monkeypatch.setattr(intlin.Lattice, "_solve", solve)
    monkeypatch.setattr(limits, "cochain_homology", cohomology)
    higher_limits(parse(code), context(name).group, ctx=context(name))
    assert len(passes) == len(ranks) == 1
    count, width, bounds, kernels, solved = passes[0]
    assert count == degrees
    assert solved == [False] * degrees + [True] * degrees
    assert width <= max(bounds)
    assert any(bound < kernel for bound, kernel in zip(bounds, kernels))


def test_an_uncapped_level_count_is_refused_before_any_level():
    # cross-validated, f^1500 + rr builds levels 0..1500 at depth 2, whose
    # rings hold sum_p 2·(1 + m_p) = 4,509,004 words with m_p = 1 + 2p;
    # they are refused by their sum before a level is built.  The plain
    # path builds levels 0 and 1, 4 + 8 = 12 words, and answers
    group = context("z2").group
    ctx = GroupContext(group)
    start = time.monotonic()
    with pytest.raises(CapExceeded, match="summed over levels 0..1500"):
        higher_limits(parse("f^1500+rr"), group, ctx=ctx, cross_validate=True, deadline=Deadline(3))
    assert time.monotonic() - start < 0.5
    assert not ctx._levels and not ctx._rings
    assert rank_sum(group, 2, 2) == 12
    report = higher_limits(parse("f^1500+rr"), group, ctx=ctx)
    assert sorted(ctx._levels) == [0, 1]
    assert [g.invariants() for g in report.lims[:4]] == [((), 0), ((2,), 0), ((2**1498,), 0), ((), 0)]


def test_no_known_case_passes_the_rank_sum_cap():
    # the largest pinned bench case, plain and cross-validated, and the
    # order-8 groups cross-validated at degree 3
    sums = []
    for key in BENCH_ANSWERS:
        name, code = key.split(":", 1)
        code = normalize(parse(code))
        N, D = required_truncation(code), max(1, max_monomial_length(code))
        group = context(name).group
        sums.append((rank_sum(group, min(D, N - 1) + 1, N), rank_sum(group, D + 1, N)))
    assert max(plain for plain, _ in sums) == 500
    assert max(crossed for _, crossed in sums) == 1232
    d8 = group_from_spec({"generators": ["a", "b"], "images": [[2, 3, 4, 1], [3, 2, 1, 4]]})
    q8 = group_from_spec({"generators": ["a", "b"],
                          "images": [[2, 5, 4, 7, 6, 1, 8, 3], [3, 8, 5, 2, 7, 4, 1, 6]]})
    for group in (d8, q8):
        assert group.order == 8
        # fff and rrr both have N = 3: levels 0..3 at depth 3
        assert rank_sum(group, 4, 3) == 46176


@pytest.mark.parametrize("top_degree", [True, 2.0, "2", 0])
def test_top_degree_must_be_an_int(top_degree):
    # refused before a level is built; InputError is a ValueError, which
    # top_degree=0 raised before
    group = context("z2").group
    ctx = GroupContext(group)
    with pytest.raises(InputError, match="top_degree"):
        higher_limits(parse("rr"), group, top_degree=top_degree, ctx=ctx)
    assert not ctx._levels
    with pytest.raises(ValueError):
        higher_limits(parse("rr"), group, top_degree=top_degree, ctx=ctx)


@pytest.mark.parametrize("top_degree", [True, 2.0, "2", -1])
def test_assemble_refuses_a_top_degree_that_is_not_an_int(top_degree):
    # True would build levels 0..1 and 2.0 raise a bare TypeError from
    # range; both are refused before any level is built, and so is a
    # negative top degree, as an InputError like higher_limits raises
    group = context("z2").group
    ctx = GroupContext(group)
    with pytest.raises(InputError, match="top_degree"):
        assemble(parse("rr"), group, top_degree, ctx=ctx)
    assert not ctx._levels and not ctx._rings


@pytest.mark.parametrize(
    "call",
    [
        lambda group, ctx: higher_limits("rr", group, ctx=ctx),
        lambda group, ctx: assemble("rr", group, 1, ctx=ctx),
        lambda group, ctx: higher_limits(parse("r"), "z2", ctx=ctx),
        lambda group, ctx: higher_limits(parse("r"), group, deadline=5, ctx=ctx),
        lambda group, ctx: higher_limits(parse("r"), group, deadline=Deadline(None), ctx=ctx),
        lambda group, ctx: higher_limits(parse("r"), group, ctx="z2"),
    ],
    ids=["code-as-string", "assemble-code-as-string", "group-as-name", "deadline-as-seconds",
         "deadline-of-none", "context-as-name"],
)
def test_inputs_of_the_wrong_type_are_refused(call):
    # a code, a group or a context named by a string and a budget that is
    # no Deadline raise InputError before any level is built; no budget
    # is Deadline(), so a budget of None is a wrong type too
    group = context("z2").group
    ctx = GroupContext(group)
    with pytest.raises(InputError, match="is not a"):
        call(group, ctx)
    assert not ctx._levels and not ctx._rings


@pytest.mark.parametrize(
    "name,n,expected",
    [("z2", 2, "Z/2"), ("z2", 3, "Z/4"), ("z3", 2, "Z/3"), ("z3", 3, "Z/3 + Z/3"),
     ("s3", 2, "Z/2"), ("s3", 3, "Z/4")],
)
def test_r_plus_a_power_of_f_is_an_augmentation_quotient(name, n, expected):
    # f/(r + f^n) is Delta/Delta^n for the augmentation ideal Delta of
    # Z[G], whatever the presentation, so lim^1(r + f^n) is Delta/Delta^n,
    # built by products in Z[G] alone, and every other degree is 0
    group = context(name).group
    quotient = FinPresAb.from_invariants(list(augmentation_quotient_invariants(group, n)), 0)
    assert quotient.describe() == expected
    assert lims("r+" + "f" * n, name) == ["0", expected] + ["0"] * (n - 1)


def send_one_word_to_zero(where, ring):
    where[where.argmax()] = -1
    return where


def send_one_word_to_an_all_copies_word(where, ring):
    where[where.argmax()] = ring.all_copies_words().argmax()
    return where


@pytest.mark.parametrize(
    "i,change,message",
    [
        (1, send_one_word_to_zero, "cofaces 1..2 into level 2 do not hit exactly"),
        (2, send_one_word_to_an_all_copies_word, "cofaces 1..2 into level 2 do not hit exactly"),
        (2, lambda where, ring: None, "coface d\\^2 into level 2 relabels no words"),
    ],
)
def test_a_word_map_that_breaks_the_all_copies_cut_is_refused(i, change, message, monkeypatch):
    # the Moore complex is cut by the words d^1 and d^2 hit; a memoized
    # word map that hits one word less or one all-copies word more, or is
    # no relabelling, is refused
    X = assemble(parse("fff"), context("z3").group, 2, ctx=context("z3"))
    assert moore_complex(X).levels[2].ngens
    ring = X.values[2].ring
    key = (freegrp.coface(1, i, X.ctx.group.ngens), X.values[1].ring.depth)
    monkeypatch.setitem(ring._relabellings, key, change(ring._relabellings[key].copy(), ring))
    with pytest.raises(AssertionError, match=message):
        moore_complex(X)


OPTIMIZED_SCRIPT = """
import sys
from frlimits.freegrp import FreeHom, gen_word
from frlimits.frcode import parse
from frlimits.limits import higher_limits
from frlimits.permgrp import load_group_file
from frlimits.truncring import GroupContext

if __debug__:
    sys.exit("asserts are still on")
try:
    FreeHom(1, 2, 1, 1, (gen_word(0, 0),))
except ValueError:
    pass
else:
    sys.exit("a FreeHom with too few images was accepted")
for name, code in (("z2", "rr+frf"), ("z3", "fff")):
    ctx = GroupContext(load_group_file(f"{sys.argv[1]}/{name}.json"))
    report = higher_limits(parse(code), ctx.group, ctx=ctx)
    print(" | ".join(g.describe() for g in report.lims))

# how many structure maps of z3 fff relabel basis words, of how many
maps = [w for ring in ctx._rings.values() for w in ring._relabellings.values()]
print(sum(w is not None for w in maps), len(maps))

# a relabelling word map that misses a word must fail the all-copies check
from frlimits.freegrp import coface
from frlimits.limits import assemble, moore_complex

X = assemble(parse("fff"), ctx.group, 2, ctx=ctx)
memo, key = X.values[1].ring._relabellings, (coface(0, 1, 1), X.values[0].ring.depth)
kept = memo[key]
memo[key] = kept.copy()
memo[key][kept.argmax()] = -1
try:
    moore_complex(X)
except AssertionError as exc:
    print(exc)
else:
    sys.exit("a word map that misses a word passed the all-copies check")
memo[key] = kept

# a coface changed in one entry must still fail the identities
from frlimits.intlin import AbMap

X = assemble(parse("rrr"), ctx.group, 3, ctx=ctx)
d = X.d[(0, 0)]
matrix = d.matrix.copy()
matrix[0, 0] += 1
X.d[(0, 0)] = AbMap(d.dom, d.cod, matrix)
try:
    X.verify_cosimplicial_identities()
except AssertionError as exc:
    print(exc)
else:
    sys.exit("a corrupted coface passed the cosimplicial identities")

# int64 rows whose elimination crosses 2**62: the guard must still see it
import numpy as np
from frlimits import intlin

overflows = []
merge = intlin._merge


def counted(*args):
    try:
        return merge(*args)
    except intlin._Overflow:
        overflows.append(1)
        raise


intlin._merge = counted
rows = [[3, 2**61], [2**60 + 1, 5]]
print(intlin.Lattice(2, np.array(rows, dtype=np.int64)).basis().tolist(), len(overflows))
"""

# the int64 rows of OPTIMIZED_SCRIPT whose elimination crosses 2**62
WRAPPING_ROWS = [[3, 2**61], [2**60 + 1, 5]]


def test_validation_and_answers_survive_python_O():
    # python -O strips asserts: validation must still raise and no answer
    # may depend on an assert having run
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SCRIPT, str(GROUP_DIR)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "0 | Z/2 | Z | 0",
        "0 | 0 | 0 | 0",
        "6 8",
        "cofaces 1..1 into level 1 do not hit exactly its words that miss a copy",
        "coface identity fails at (0, 0, 1)",
        f"{reference_hnf(WRAPPING_ROWS, 2)[0]} 1",
    ]


@pytest.mark.parametrize(
    "name,code", [("s3", "rr+fff"), ("z3", "fff"), ("z3", "rrr"), ("z4", "fff")]
)
def test_bench_cases_fold_without_promotion(name, code, monkeypatch):
    # every fold of these cases fits int64; a running bound so loose that
    # a fold is redone with Python ints would change no answer, only the time
    folds, overflows = [], []
    merge = intlin._merge

    def counted(*args):
        folds.append(1)
        try:
            return merge(*args)
        except intlin._Overflow:
            overflows.append(1)
            raise

    monkeypatch.setattr(intlin, "_merge", counted)
    group = context(name).group
    higher_limits(parse(code), group, ctx=GroupContext(group))
    assert folds
    assert not overflows


def test_a_corrupt_coface_fails_the_cosimplicial_identities():
    # on z3 the levels of f/rrr are free, so one changed entry of a coface
    # changes the map, and an identity with it on one side only fails
    X = assemble(parse("rrr"), context("z3").group, 3, ctx=context("z3"))
    assert all(g.relations.rank == 0 for g in X.levels)
    d = X.d[(0, 0)]
    matrix = d.matrix.copy()
    matrix[0, 0] += 1
    X.d[(0, 0)] = AbMap(d.dom, d.cod, matrix)
    with pytest.raises(AssertionError, match="coface identity"):
        X.verify_cosimplicial_identities()


# the benchmark's cases: every bundled group with the codes of its
# dictionary sweep, and the deep cases of degree 3
BENCH_CASES = [
    (p.stem, code) for p in sorted(GROUP_DIR.glob("*.json")) for code in SWEEP_CODES
] + [("z3", "fff"), ("z3", "rrr"), ("z4", "fff")]


@lru_cache(maxsize=None)
def complex_of(name, code):
    parsed = parse(code)
    top = max(1, max_monomial_length(parsed))
    return assemble(parsed, context(name).group, top, ctx=context(name))


def with_matrix(X, kind, key, matrix):
    """A copy of X with the map X.<kind>[key] given a new matrix."""
    Y = copy.copy(X)
    Y.d, Y.s = dict(X.d), dict(X.s)
    old = getattr(Y, kind)[key]
    getattr(Y, kind)[key] = AbMap(old.dom, old.cod, matrix)
    return Y


def verdicts(X):
    """What the batched check and the pairwise oracle say of X: True, or
    the message of the identity they refuse."""
    out = []
    for check in (CosimplicialAb.verify_cosimplicial_identities, cosimplicial_identities_pairwise):
        try:
            out.append(check(X))
        except AssertionError as exc:
            out.append(str(exc))
    return out


@pytest.mark.parametrize("name,code", BENCH_CASES)
def test_batched_identities_agree_with_the_pairwise_oracle(name, code):
    assert verdicts(complex_of(name, code)) == [True, True]


@pytest.mark.parametrize(
    "name,code",
    [("z3", "r"), ("z3", "rr"), ("s3", "fr+rf"),
     ("z3", "rrr"), ("z3", "fff"), ("s3", "rr+fff"), ("z2xz2", "rr+fff")],
)
def test_a_map_changed_in_one_entry_is_refused_by_both_checks(name, code):
    # each of the D(D + 2) structure maps of top degree D in turn: 3 at
    # D = 1, 8 at D = 2 (where codegeneracy and mixed identities share
    # level 0) and 15 at D = 3; both checks name the same identity, so
    # also the same family
    X = complex_of(name, code)
    changed = 0
    for kind in ("d", "s"):
        for key, m in getattr(X, kind).items():
            matrix = m.matrix.copy()
            matrix[0, 0] += 1
            batched, pairwise = verdicts(with_matrix(X, kind, key, matrix))
            assert batched == pairwise
            assert batched is not True, (kind, key)
            changed += 1
    assert changed == X.D * (X.D + 2)


def test_a_map_plus_a_relation_row_is_accepted_by_both_checks():
    # equal as a map, not as a matrix: the sides of the identities with
    # it differ by relations of their target
    X = complex_of("z3", "fff")
    m = X.d[(1, 0)]
    matrix = m.matrix.copy()
    matrix[0] += m.cod.relations.basis()[0]
    assert not np.array_equal(matrix, m.matrix)
    assert verdicts(with_matrix(X, "d", (1, 0), matrix)) == [True, True]


@pytest.mark.parametrize("name,code", [("z3", "rrr"), ("z3", "fff")])
def test_the_check_forms_one_product_per_target_level(name, code, monkeypatch):
    # D + 1 products and at most one membership test per target level,
    # where the pairwise check forms 54 composites and tests 33 times
    X = complex_of(name, code)
    products, tests = [], []

    def counted(calls, f):
        def wrapper(*args):
            calls.append(1)
            return f(*args)
        return wrapper

    monkeypatch.setattr("frlimits.limits.sparse_product", counted(products, intlin.sparse_product))
    monkeypatch.setattr(intlin.Lattice, "contains", counted(tests, intlin.Lattice.contains))
    assert X.verify_cosimplicial_identities() is True
    assert X.D == 3
    assert len(products) == X.D + 1
    assert len(tests) <= X.D + 1


@pytest.mark.parametrize(
    "name,code,expected",
    [("z3", "fff", True), ("z3", "rrr", "coface identity fails at (0, 0, 1)")],
)
def test_entries_beyond_int64_give_the_oracles_verdict(name, code, expected):
    # d(0, 0) plus 2**62 times a relation row of its target (z3 fff) is
    # the same map; plus 2**62 at one entry of a free target (z3 rrr) it
    # is not.  Either way the matrix holds Python ints.
    X = complex_of(name, code)
    m = X.d[(0, 0)]
    relations = m.cod.relations
    row = relations.basis()[0] if relations.rank else np.eye(m.cod.ngens, dtype=np.int64)[0]
    matrix = m.matrix.astype(object)
    matrix[0] += 2**62 * row.astype(object)
    Y = with_matrix(X, "d", (0, 0), matrix)
    assert Y.d[(0, 0)].matrix.dtype == object
    assert verdicts(Y) == [expected, expected]


def test_an_alternate_sum_that_does_not_square_to_zero_is_refused():
    # cofaces Z -> Z with d0 - d1 = 1 and d0 - d1 + d2 = 1, so d^2 = 1
    z = FinPresAb.free(1)
    entries = {(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 0, (1, 2): 0}
    X = SimpleNamespace(
        D=2, levels=[z, z, z], d={key: AbMap(z, z, [[c]]) for key, c in entries.items()}
    )
    with pytest.raises(ValueError, match="maps 0 and 1 do not compose to zero"):
        alternate_sum_complex(X).cohomology()


def test_a_context_of_another_group_is_refused():
    # with z3's context, z2's report would carry z3's lim^1(r) = Z^2
    # instead of Z; a context counts as the group's only if it holds the
    # same group object
    with pytest.raises(ValueError, match="context"):
        higher_limits(parse("r"), context("z2").group, ctx=context("z3"))
    with pytest.raises(ValueError, match="context"):
        assemble(parse("r"), load_group_file(GROUP_DIR / "z2.json"), 1, ctx=context("z2"))


@pytest.mark.parametrize(
    "name,code,seconds", [("s3", "r^20000", 0.5), ("z2", "r^900", math.inf)]
)
def test_an_oversize_ring_is_refused_at_once(name, code, seconds):
    # s3's level-0 ring at depth 20001 passes the rank cap in its sixth
    # layer, and z2's level-1 ring at depth 901 in its twelfth: both are
    # refused before a power grows huge or a lower level's lattice is built
    start = time.monotonic()
    with pytest.raises(CapExceeded, match="ring rank exceeds the cap"):
        higher_limits(parse(code), context(name).group, deadline=Deadline(seconds))
    assert time.monotonic() - start < 0.5


def test_a_long_monomial_runs_out_of_time_not_of_stack():
    # f^1500 + rr needs levels 0 and 1 at depth 2, and level 0's lattice
    # of f^1500 is built one suffix at a time; the deadline stops the
    # suffixes being built, long before the whole case would end
    with pytest.raises(CapExceeded, match="time budget"):
        higher_limits(parse("f^1500+rr"), context("z2").group, deadline=Deadline(0.3))


ORACLE_CASES = [
    (p.stem, code) for p in sorted(GROUP_DIR.glob("*.json")) for code in SWEEP_CODES
] + [("z3", "fff"), ("z3", "rrr")]


def change_of_basis(value, oracle):
    """The maps between f/c on f's basis (``FunctorValue``) and f/c as
    ring/(c + Z·1) (``RingQuotientValue``): there, a generator g of layer
    0 is (g, ()) - (|G|-1, ()) and any other is its word; back, a word x
    is x - eps(x)·1, read on f's basis."""
    ring = value.ring
    order = ring.lp.group.order
    words = np.eye(ring.rank, dtype=np.int64)
    there = words[value.gens]
    there[value.gens < order - 1, order - 1] = -1
    back = words[oracle.gens]
    back[oracle.gens < order, 0] -= 1
    back = value.c_lattice.reduce(back)[:, value.gens]
    return (AbMap(value.group, oracle.group, oracle.classes(there)),
            AbMap(oracle.group, value.group, back))


@pytest.mark.parametrize("name,code", ORACLE_CASES)
def test_structure_maps_agree_with_the_ring_quotient_oracle(name, code):
    # each level is the oracle's group up to an isomorphism given by the
    # change of basis, and each structure map is the oracle's under it
    X = complex_of(name, code)
    oracle = [RingQuotientValue(v) for v in X.values]
    there = []
    for v, o in zip(X.values, oracle):
        assert v.group.invariants() == o.group.invariants()
        t, b = change_of_basis(v, o)
        assert t.is_well_defined() and b.is_well_defined()
        assert t.compose(b).equals_as_map(AbMap.identity(o.group))
        assert b.compose(t).equals_as_map(AbMap.identity(v.group))
        there.append(t)
    rank = context(name).group.ngens
    maps = [(freegrp.coface(p, i, rank), m, p, p + 1) for (p, i), m in X.d.items()]
    maps += [(freegrp.codegeneracy(p, j, rank), m, p + 1, p) for (p, j), m in X.s.items()]
    for hom, m, src, tgt in maps:
        expected = ring_quotient_map(hom, oracle[src], oracle[tgt])
        assert there[tgt].compose(m).equals_as_map(expected.compose(there[src]))


@pytest.mark.parametrize("code", ["fff", "rrr"])
def test_structure_maps_are_held_as_sparse_rows_only(code, monkeypatch):
    # each map keeps the nonzero entries of its matrix and no dense copy;
    # the dense view is those entries scattered into zeros, and the
    # identity check reads the stored rows, converting no matrix
    X = complex_of("z3", code)
    maps = list(X.d.values()) + list(X.s.values())
    assert len(maps) == 15
    assert "matrix" not in AbMap.__slots__
    for m in maps:
        S = m.rows
        assert isinstance(S, intlin.SparseRows)
        assert S.shape == (m.dom.ngens, m.cod.ngens)
        assert (S.data != 0).all()
        dense = np.zeros(S.shape, dtype=S.data.dtype)
        dense[S.row, S.col] = S.data
        assert np.array_equal(m.matrix, dense)
    conversions = []
    of = intlin.SparseRows.of.__func__

    def counted(cls, matrix):
        conversions.append(1)
        return of(cls, matrix)

    monkeypatch.setattr(intlin.SparseRows, "of", classmethod(counted))
    assert X.verify_cosimplicial_identities() is True
    assert conversions == []


@pytest.mark.parametrize("code", ["fff", "rrr"])
def test_structure_maps_are_c_contiguous(code):
    # a map's dense view is built C-ordered, so a row block or a flat view
    # of it, as the Moore cut and the cohomology pass read, is no strided
    # copy
    X = complex_of("z3", code)
    maps = list(X.d.values()) + list(X.s.values())
    assert len(maps) == 15
    assert all(m.matrix.flags.c_contiguous for m in maps)
