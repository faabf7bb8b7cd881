import random
from pathlib import Path

import pytest

from frlimits import freegrp
from frlimits.errors import CapExceeded
from frlimits.frcode import dominated, min_r_power, parse
from frlimits.intlin import FinPresAb
from frlimits.permgrp import LevelPresentation, load_group_file
from frlimits.truncring import (
    FunctorValue,
    RingElement,
    TruncatedRing,
    induced_map,
)

from oracles import reference_hnf

GROUP_DIR = Path(__file__).resolve().parents[1] / "src" / "frlimits" / "groups"


def ring_for(name, level, depth):
    g = load_group_file(GROUP_DIR / f"{name}.json")
    return TruncatedRing(LevelPresentation(g, level), depth)


X = freegrp.gen_word(0, 0)


class TestValidation:
    def test_depth_below_one(self):
        g = load_group_file(GROUP_DIR / "z2.json")
        with pytest.raises(ValueError):
            TruncatedRing(LevelPresentation(g, 0), 0)

    def test_scalar_must_be_an_int(self):
        one = ring_for("z2", 0, 2).one()
        assert (3 * one).terms == {(0, ()): 3}
        with pytest.raises(TypeError):
            1.5 * one


class TestNormalForm:
    def test_transversal_word(self):
        r = ring_for("z2", 0, 2)
        nf = r.normal_form(X)
        assert nf.terms == {(1, ()): 1}

    def test_x_squared(self):
        r = ring_for("z2", 0, 2)
        nf = r.normal_form(freegrp.mul(X, X))
        assert nf.terms == {(0, ()): 1, (0, (0,)): 1}

    def test_x_inverse(self):
        r = ring_for("z2", 0, 2)
        nf = r.normal_form(freegrp.inv(X))
        assert nf.terms == {(1, ()): 1, (1, (0,)): -1}

    def test_augmentation_is_one(self):
        rng = random.Random(4)
        for name, level, depth in [("z2", 0, 2), ("z4", 0, 3), ("s3", 1, 2)]:
            r = ring_for(name, level, depth)
            for _ in range(25):
                sylls = [
                    (
                        rng.randrange(r.lp.copies),
                        rng.randrange(r.lp.base_rank),
                        rng.choice([-2, -1, 1, 2]),
                    )
                    for _ in range(rng.randint(0, 5))
                ]
                w = freegrp.reduce_word(sylls)
                assert r.normal_form(w).augmentation() == 1

    def test_multiplicative_on_words(self):
        rng = random.Random(8)
        for name, level, depth in [("z2", 0, 3), ("z3", 0, 2), ("z4", 1, 2)]:
            r = ring_for(name, level, depth)
            for _ in range(30):
                def rand_word():
                    return freegrp.reduce_word(
                        (
                            rng.randrange(r.lp.copies),
                            rng.randrange(r.lp.base_rank),
                            rng.choice([-1, 1, 2]),
                        )
                        for _ in range(rng.randint(0, 4))
                    )

                u, v = rand_word(), rand_word()
                assert r.normal_form(freegrp.mul(u, v)) == r.normal_form(
                    u
                ) * r.normal_form(v)


class TestMultiply:
    def test_rho_times_section(self):
        r = ring_for("z2", 0, 2)
        a = r.element({(0, (0,)): 1})
        b = r.element({(1, ()): 1})
        assert (a * b).terms == {(1, (0,)): 1}

    def test_unit_law(self):
        r = ring_for("z4", 0, 3)
        rng = random.Random(2)
        for _ in range(20):
            terms = {
                r.basis[rng.randrange(r.rank)]: rng.randint(-3, 3) for _ in range(3)
            }
            a = r.element(terms)
            assert r.one() * a == a
            assert a * r.one() == a

    def test_truncation_kills_high_degree(self):
        r = ring_for("z2", 0, 2)
        a = r.element({(0, (0,)): 1})
        assert (a * a).is_zero()

    def test_associative_random(self):
        rng = random.Random(13)
        for name, level, depth in [("z2", 0, 3), ("z3", 0, 3), ("z2", 1, 2)]:
            r = ring_for(name, level, depth)
            for _ in range(100):
                def rand_elem():
                    return r.element(
                        {
                            r.basis[rng.randrange(r.rank)]: rng.randint(-2, 2)
                            for _ in range(rng.randint(1, 3))
                        }
                    )

                a, b, c = rand_elem(), rand_elem(), rand_elem()
                assert (a * b) * c == a * (b * c)

    def test_ambient_mismatch(self):
        r1 = ring_for("z2", 0, 2)
        r2 = ring_for("z2", 0, 3)
        with pytest.raises(ValueError):
            _ = r1.one() * r2.one()

    def test_dump_format(self):
        r = ring_for("z2", 0, 2)
        elem = r.element({(0, ()): 1, (1, (0,)): -2})
        assert elem.dump() == "+1*[0 | ]\n-2*[1 | 0]"


class TestRingRank:
    @pytest.mark.parametrize(
        "name,level,depth",
        [("z2", 0, 2), ("z2", 1, 2), ("z3", 0, 3), ("z4", 1, 2), ("s3", 0, 2),
         ("trivial", 0, 1), ("z2xz2", 0, 2)],
    )
    def test_rank_formula(self, name, level, depth):
        r = ring_for(name, level, depth)
        m = r.lp.num_schreier_gens
        order = r.lp.group.order
        assert r.rank == sum(order * m**k for k in range(depth))

    def test_rank_cap(self):
        g = load_group_file(GROUP_DIR / "s3.json")
        with pytest.raises(CapExceeded):
            TruncatedRing(LevelPresentation(g, 2), 3, rank_cap=100)


class TestIdealLattices:
    def test_z2_level0_ranks(self):
        r = ring_for("z2", 0, 2)
        assert r.rank == 4
        assert r.ideal_f().rank == 3
        assert r.ideal_r().rank == 2

    def test_trivial_group_depth1(self):
        r = ring_for("trivial", 0, 1)
        assert r.rank == 1
        assert r.ideal_f().rank == 0
        assert r.ideal_r().rank == 0

    def test_r_inside_f(self):
        for name, level, depth in [("z2", 0, 2), ("z4", 0, 3), ("s3", 1, 2)]:
            r = ring_for(name, level, depth)
            f = r.ideal_f()
            for row in r.ideal_r().basis():
                assert f.contains(row)

    def test_r_at_depth_1_is_zero(self):
        r = ring_for("z2", 0, 1)
        assert r.eval_code(parse("r")).rank == 0

    def test_rr_at_depth_2_is_zero(self):
        r = ring_for("z2", 0, 2)
        assert r.eval_code(parse("rr")).rank == 0

    def test_fr_plus_rf_z2_hand_value(self):
        # fr = rf = span{(x,rho0) - (e,rho0)} in the rank-4 ring; the
        # quotient f/(fr+rf) is then free of rank 2 (hand count)
        r = ring_for("z2", 0, 2)
        val = FunctorValue(r, parse("fr+rf"))
        assert val.c_lattice.rank == 1
        assert val.group.invariants() == ((), 2)

    def test_s3_fff_stays_small(self):
        # eliminating these products without keeping rows reduced blows
        # their coefficients up into bignums; the canonical entries are <= 6
        r = ring_for("s3", 1, 2)
        lat = r.eval_monomial("fff")
        assert lat.big is False
        assert lat.rank == 115
        assert max(abs(int(c)) for row in lat.basis() for c in row) <= 6
        gens = r.right_generators("f")
        products = [
            r.terms_to_vec(r.multiply_terms(g.terms, r.vec_to_terms(row)))
            for row in r.eval_monomial("ff").basis()
            for g in gens
        ]
        basis, pivots = reference_hnf(products, r.rank)
        assert [list(map(int, row)) for row in lat.basis()] == basis
        assert lat.pivot_cols == pivots

    def test_monomials_multiply_out(self):
        # brute-force cross-check: the lattice of a product monomial equals
        # the span of pairwise products of the factor lattices
        from frlimits.intlin import Lattice

        for name, depth, mono in [("z2", 2, "fr"), ("z2", 3, "rf"), ("z3", 2, "ff")]:
            r = ring_for(name, 0, depth)
            left = r.eval_monomial(mono[0])
            right = r.eval_monomial(mono[1:])
            brute = Lattice(r.rank)
            for a in left.basis():
                ta = r.vec_to_terms(a)
                for b in right.basis():
                    tb = r.vec_to_terms(b)
                    prod = r.multiply_terms(ta, tb)
                    if prod:
                        brute.add(r.terms_to_vec(prod))
            brute.canonicalize()
            assert brute == r.eval_monomial(mono)


class TestQuotients:
    def test_f_mod_r_is_g(self):
        for name in ("z2", "z3", "z4", "s3"):
            r = ring_for(name, 0, 2)
            val = FunctorValue(r, parse("r"))
            assert val.group.invariants() == ((), r.lp.group.order - 1)

    def test_f_mod_r_plus_ff_is_gab_z4(self):
        r = ring_for("z4", 0, 2)
        val = FunctorValue(r, parse("r+ff"))
        assert val.group.invariants() == ((4,), 0)

    def test_f_mod_f_is_zero(self):
        r = ring_for("z3", 0, 2)
        val = FunctorValue(r, parse("f"))
        assert val.group.is_trivial()


class TestDominanceSoundness:
    def test_lattice_containment_follows_dominance(self):
        rng = random.Random(19)
        monos = ["r", "f", "rr", "rf", "fr", "ff", "rrr", "rrf", "rfr", "frr",
                 "rff", "frf", "ffr", "fff"]
        for name, depth in [("z2", 3), ("z3", 3)]:
            r = ring_for(name, 0, depth)
            for v in monos:
                for w in monos:
                    if dominated(v, w):
                        lat_v = r.eval_monomial(v)
                        lat_w = r.eval_monomial(w)
                        for row in lat_v.basis():
                            assert lat_w.contains(row), (v, w)

    def test_min_r_power_soundness(self):
        for text in ["fr+rf", "rr+fff", "rr+frf", "r+ff"]:
            code = parse(text)
            n = min_r_power(code)
            for name in ("z2", "z3"):
                r = ring_for(name, 0, n + 1)
                rn = r.eval_monomial("r" * n)
                cl = r.eval_code(code)
                for row in rn.basis():
                    assert cl.contains(row), text


class TestInducedMaps:
    def test_identity_hom(self):
        r = ring_for("z2", 0, 2)
        val = FunctorValue(r, parse("r"))
        ident = freegrp.FreeHom.identity(1, 1)
        m = induced_map(ident, val, val)
        assert m.equals_as_map(
            __import__("frlimits.intlin", fromlist=["AbMap"]).AbMap.identity(val.group)
        )

    def test_fold_matches_algebra_fold_on_g(self):
        # s^0: level 1 -> level 0 on f/r agrees with the fold of Z[G]-algebras
        g = load_group_file(GROUP_DIR / "z2.json")
        r0 = TruncatedRing(LevelPresentation(g, 0), 2)
        r1 = TruncatedRing(LevelPresentation(g, 1), 2)
        v0 = FunctorValue(r0, parse("r"))
        v1 = FunctorValue(r1, parse("r"))
        fold = freegrp.codegeneracy(0, 0, 1)
        m = induced_map(fold, v1, v0)
        # check on each generator of f at level 1: the image is the fold of
        # the representative word, renormalized at level 0
        for i in range(v1.group.ngens):
            elem = v1.generator_element(i)
            target = r0.zero()
            for (gidx, J), c in elem.terms.items():
                word = r1.lp.transversal[gidx]
                img = r0.normal_form(fold.apply(word))
                for j in J:
                    rho_img = r0.normal_form(fold.apply(r1.lp.schreier_gens[j]))
                    img = img * (rho_img - r0.one())
                target = target + img * c
            got = list(m.matrix[i])
            expected = v0.element_coords(target)
            assert [int(x) for x in got] == expected

    def test_non_commuting_rejected(self):
        g = load_group_file(GROUP_DIR / "z4.json")
        r0 = TruncatedRing(LevelPresentation(g, 0), 2)
        val = FunctorValue(r0, parse("r"))
        # x -> x^2 does not commute with the projection to Z/4
        bad = freegrp.FreeHom(1, 1, 1, 1, (freegrp.reduce_word([(0, 0, 2)]),))
        with pytest.raises(ValueError):
            induced_map(bad, val, val)

    def test_well_defined_on_small_cases(self):
        g = load_group_file(GROUP_DIR / "z2.json")
        r0 = TruncatedRing(LevelPresentation(g, 0), 2)
        r1 = TruncatedRing(LevelPresentation(g, 1), 2)
        for text in ("r", "fr+rf", "r+ff"):
            v0 = FunctorValue(r0, parse(text))
            v1 = FunctorValue(r1, parse(text))
            for j in (0, 1):
                d = freegrp.coface(0, j, 1)
                m = induced_map(d, v0, v1)
                assert m.is_well_defined()
