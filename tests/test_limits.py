"""End-to-end tests of higher_limits against known values of lim^i."""

import copy
import json
import os
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frlimits import freegrp, intlin, limits
from frlimits.errors import CapExceeded
from frlimits.frcode import max_monomial_length, parse, required_truncation
from frlimits.intlin import AbMap, FinPresAb, tensor_Z, tor_Z
from frlimits.limits import CosimplicialAb, Deadline, alternate_sum_complex, assemble, higher_limits
from frlimits.permgrp import group_from_spec, load_group_file
from frlimits.truncring import GroupContext

from oracles import RingQuotientValue, cosimplicial_identities_pairwise, reference_hnf, ring_quotient_map

SRC = Path(__file__).resolve().parents[1] / "src"
GROUP_DIR = SRC / "frlimits" / "groups"
# the benchmark's pinned answers, "group:code" -> lim^i descriptions
BENCH_ANSWERS = json.loads((SRC.parent / "bench" / "expected.json").read_text())


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

    def counted(a, b):
        calls.append((a.n, b.n))
        return intlin.lattice_intersection(a, b)

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
    # the plain path builds one cochain complex, the Moore one: the
    # alternate-sum complex is built only to cross-validate, and the
    # lim^0 equalizer is never called
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
    assert plain.moore_vanishing == {0: False, 1: False, 2: True, 3: True}
    for report in (plain, crossed):
        checks = json.loads(json.dumps(report.to_json_dict()))["checks"]
        assert checks.keys() == {*report.checks, "moore_vanishing"}


@pytest.mark.parametrize("name", sorted({key.split(":")[0] for key in BENCH_ANSWERS}))
def test_every_pinned_bench_answer_cross_validates(name):
    # each answer the benchmark checks, with the alternate-sum complex
    # built, its d^2 = 0 proved and its cohomology compared degreewise
    ctx = context(name)
    for key, answer in BENCH_ANSWERS.items():
        group, code = key.split(":", 1)
        if group == name:
            report = higher_limits(parse(code), ctx.group, ctx=ctx, cross_validate=True)
            assert [g.describe() for g in report.lims] == answer, key
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
    # lim-finiteness, which the default top_degree assumes: one degree
    # above the longest monomial, the limit is zero
    ctx = context(name)
    parsed = parse(code)
    n = max_monomial_length(parsed)
    report = higher_limits(parsed, ctx.group, top_degree=n + 1, ctx=ctx)
    assert report.lims[n + 1].is_trivial()


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

# a coface changed in one entry must still fail the identities
from frlimits.intlin import AbMap
from frlimits.limits import assemble

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
        "12 15",
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
SWEEP_CODES = ["r", "f", "ff", "rr", "fr+rf", "rr+frf", "rr+fff"]
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
    with pytest.raises(AssertionError, match="square to zero"):
        alternate_sum_complex(X)


def test_a_context_of_another_group_is_refused():
    # with z3's context, z2's report would carry z3's lim^1(r) = Z^2
    # instead of Z; a context counts as the group's only if it holds the
    # same group object
    with pytest.raises(ValueError, match="context"):
        higher_limits(parse("r"), context("z2").group, ctx=context("z3"))
    with pytest.raises(ValueError, match="context"):
        assemble(parse("r"), load_group_file(GROUP_DIR / "z2.json"), 1, ctx=context("z2"))


@pytest.mark.parametrize(
    "name,code,seconds", [("s3", "r^20000", 0.5), ("z2", "r^900", None)]
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
    # f^1500 + rr needs 1501 levels at depth 2, none of them over the
    # rank cap; the deadline stops the rings being built
    with pytest.raises(CapExceeded, match="time budget"):
        higher_limits(parse("f^1500+rr"), context("z2").group, deadline=Deadline(1))


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
def test_structure_maps_are_c_contiguous(code):
    X = complex_of("z3", code)
    maps = list(X.d.values()) + list(X.s.values())
    assert len(maps) == 15
    assert all(m.matrix.flags.c_contiguous for m in maps)
