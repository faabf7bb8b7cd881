import functools
import itertools
import random
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frlimits import freegrp, truncring
from frlimits.errors import CapExceeded
from frlimits.frcode import dominated, make_code, min_r_power, normalize, parse, required_truncation
from frlimits.intlin import FinPresAb, Lattice, unit_split
from frlimits.limits import Deadline
from frlimits.permgrp import LevelPresentation, load_group_file
from frlimits.truncring import (
    FunctorValue,
    TruncatedRing,
    _relabelling,
    induced_map,
    word_images,
)

from oracles import (minus_one, multiply_terms, reference_hnf, terms_to_vec, vec_to_terms, word_at,
                     word_image_terms)

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

    def test_the_rank_cap_fires_before_the_layers_grow(self):
        # s3 at level 0 has 7 Schreier generators, so summing every layer
        # up to depth 20001 would form 7**20000; the sum stops at the
        # first offset past the cap, and the message names the cap
        g = load_group_file(GROUP_DIR / "s3.json")
        start = time.monotonic()
        with pytest.raises(CapExceeded, match="exceeds the cap 200000$"):
            TruncatedRing(LevelPresentation(g, 0), 20001)
        assert time.monotonic() - start < 0.5

    def test_scalar_must_be_an_int(self):
        # an element's coefficients are ints; a float one is refused as
        # soon as its vector enters a lattice
        r = ring_for("z2", 0, 2)
        one = {(0, ()): 1}
        assert multiply_terms(r, {(0, ()): 3}, one) == {(0, ()): 3}
        with pytest.raises(TypeError):
            Lattice(r.rank, dense([terms_to_vec(r, {(0, ()): 1.5})], r.rank))


class TestNormalForm:
    def test_transversal_word(self):
        r = ring_for("z2", 0, 2)
        nf = r.normal_form(X)
        assert nf == {(1, ()): 1}

    def test_x_squared(self):
        r = ring_for("z2", 0, 2)
        nf = r.normal_form(freegrp.mul(X, X))
        assert nf == {(0, ()): 1, (0, (0,)): 1}

    def test_x_inverse(self):
        r = ring_for("z2", 0, 2)
        nf = r.normal_form(freegrp.inv(X))
        assert nf == {(1, ()): 1, (1, (0,)): -1}

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
                assert sum(c for (_, J), c in r.normal_form(w).items() if not J) == 1

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
                assert r.normal_form(freegrp.mul(u, v)) == multiply_terms(
                    r, r.normal_form(u), r.normal_form(v)
                )


class TestMultiply:
    def test_rho_times_section(self):
        r = ring_for("z2", 0, 2)
        a = {(0, (0,)): 1}
        b = {(1, ()): 1}
        assert multiply_terms(r, a, b) == {(1, (0,)): 1}

    def test_unit_law(self):
        r = ring_for("z4", 0, 3)
        rng = random.Random(2)
        for _ in range(20):
            terms = {
                word_at(r, rng.randrange(r.rank)): rng.randint(-3, 3) for _ in range(3)
            }
            a = {bw: c for bw, c in terms.items() if c}
            one = {(0, ()): 1}
            assert multiply_terms(r, one, a) == a
            assert multiply_terms(r, a, one) == a

    def test_truncation_kills_high_degree(self):
        r = ring_for("z2", 0, 2)
        a = {(0, (0,)): 1}
        assert multiply_terms(r, a, a) == {}

    def test_associative_random(self):
        rng = random.Random(13)
        for name, level, depth in [("z2", 0, 3), ("z3", 0, 3), ("z2", 1, 2)]:
            r = ring_for(name, level, depth)
            for _ in range(100):
                def rand_elem():
                    terms = {
                        word_at(r, rng.randrange(r.rank)): rng.randint(-2, 2)
                        for _ in range(rng.randint(1, 3))
                    }
                    return {bw: c for bw, c in terms.items() if c}

                a, b, c = rand_elem(), rand_elem(), rand_elem()
                mul = functools.partial(multiply_terms, r)
                assert mul(mul(a, b), c) == mul(a, mul(b, c))


def difference(r, word):
    """The terms of w - 1 for a group word w."""
    return minus_one(r.normal_form(word))


def product_rows(r, word, rows):
    """(w - 1)·v for each row v, by the oracle's product multiply_terms."""
    a = difference(r, word)
    return [terms_to_vec(r, multiply_terms(r, a, vec_to_terms(r, v))) for v in rows]


def random_word(r, rng, length):
    """A reduced group word of up to the given number of syllables in the
    alphabet of r's level."""
    return freegrp.reduce_word(
        (rng.randrange(r.lp.copies), rng.randrange(r.lp.base_rank), rng.choice([-2, -1, 1, 2]))
        for _ in range(rng.randint(1, length))
    )


def dense(rows, n):
    out = np.zeros((len(rows), n), dtype=object)
    for i, vec in enumerate(rows):
        for j, c in vec.items():
            out[i, j] = c
    return out


MONOMIALS = ["".join(w) for k in (1, 2, 3) for w in itertools.product("fr", repeat=k)]

KERNEL_RINGS = [(name, level) for name in ("z2", "z3", "s3", "z2xz2") for level in (0, 1, 2)]


class TestLeftMultiply:
    @pytest.mark.parametrize("name,level", KERNEL_RINGS)
    def test_layout_formula(self, name, level):
        # position and the oracle's decoder are inverse on every word, and
        # the words (g, J), |J| < N, in (|J|, g, J) order are at 0..rank-1
        for depth in (1, 2, 3):
            r = ring_for(name, level, depth)
            m, order = r.lp.num_schreier_gens, r.lp.group.order
            off = [sum(order * m**i for i in range(k)) for k in range(depth + 1)]
            assert r.layer_offsets == off
            seen = []
            for k in range(depth):
                for g, J in itertools.product(range(order), itertools.product(range(m), repeat=k)):
                    i = r.position(g, J)
                    idx = sum(j * m ** (k - 1 - p) for p, j in enumerate(J))
                    assert i == off[k] + g * m**k + idx
                    assert word_at(r, i) == (g, J)
                    seen.append(i)
            assert seen == list(range(r.rank))

    @pytest.mark.parametrize("name,level", KERNEL_RINGS)
    def test_matches_multiply_terms(self, name, level):
        rng = random.Random(f"{name}{level}")
        for depth in (1, 2, 3):
            r = ring_for(name, level, depth)
            for _ in range(3):
                w = random_word(r, rng, 3)
                V = np.zeros((4, r.rank), dtype=np.int64)
                for row in V:
                    for k in rng.sample(range(r.rank), min(r.rank, 5)):
                        row[k] = rng.randint(-5, 5)
                out = r.left_multiply(w, V)
                assert out.dtype == np.int64
                assert np.array_equal(out, dense(product_rows(r, w, V), r.rank))

    def test_bignum_blocks(self):
        r = ring_for("z3", 1, 2)
        x2 = freegrp.mul(X, X)
        rng = random.Random(5)
        cols = rng.sample(range(r.rank), 6)
        # object rows with entries near 2**62 stay exact
        V = np.zeros((2, r.rank), dtype=object)
        V[0, cols[:3]] = [2**62 - 1, -(2**62) + 3, 7]
        V[1, cols[3:]] = [2**63 + 11, 1, -(2**64)]
        out = r.left_multiply(x2, V)
        assert out.dtype == object
        assert np.array_equal(out, dense(product_rows(r, x2, V), r.rank))
        # int64 rows whose bound max|V|·sum|c| reaches 2**62 go to Python ints
        W = np.zeros((1, r.rank), dtype=np.int64)
        W[0, cols[:2]] = [2**61, -(2**61) + 1]
        a = difference(r, x2)
        assert sum(abs(c) for h in range(3) for c in multiply_terms(r, a, {(h, ()): 1}).values()) >= 2
        out = r.left_multiply(x2, W)
        assert out.dtype == object
        assert np.array_equal(out, dense(product_rows(r, x2, W), r.rank))

    def test_section_products_match_the_oracle(self, monkeypatch):
        # (w - 1)·s(h) as nf(w·s(h)) - s(h), for every right generator w
        # of f and r, against the oracle's product of nf(w) - 1 and s(h),
        # on every ring of a bundled group at levels 0-3 and depths 1-3 up
        # to rank 5000: 164 (ring, letter) pairs.  At N = 1 every product
        # for r is 0.
        monkeypatch.setattr(truncring, "DEFAULT_RANK_CAP", 5000)
        pairs = 0
        for name in ("trivial", "z2", "z2_rank2", "z3", "z4", "z2xz2", "s3"):
            g = load_group_file(GROUP_DIR / f"{name}.json")
            for level, depth in itertools.product(range(4), (1, 2, 3)):
                try:
                    r = TruncatedRing(LevelPresentation(g, level), depth)
                except CapExceeded:
                    continue
                for letter in "fr":
                    for w in r.right_generators(letter):
                        a = difference(r, w)
                        expected = [multiply_terms(r, a, {(h, ()): 1}) for h in range(g.order)]
                        assert r.section_products(w) == expected, (name, level, depth, letter, w)
                        if depth == 1 and letter == "r":
                            assert not any(expected)
                    pairs += 1
        assert pairs == 164


def identity_terms(r, rng, size):
    """Random terms (0, L) of an identity-component element."""
    words = [bw for bw in map(functools.partial(word_at, r), range(r.rank)) if bw[0] == 0]
    return {words[rng.randrange(len(words))]: rng.randint(-3, 3) or 1 for _ in range(size)}


def right_product_rows(r, rows, terms):
    """v·b for each row v, by the oracle's product multiply_terms."""
    return [terms_to_vec(r, multiply_terms(r, vec_to_terms(r, v), terms)) for v in rows]


class TestRightMultiply:
    @pytest.mark.parametrize("name,level", KERNEL_RINGS)
    def test_matches_multiply_terms(self, name, level):
        rng = random.Random(f"right{name}{level}")
        for depth in (1, 2, 3):
            r = ring_for(name, level, depth)
            for _ in range(3):
                b = identity_terms(r, rng, rng.randint(1, 4))
                V = np.zeros((4, r.rank), dtype=np.int64)
                for row in V:
                    for k in rng.sample(range(r.rank), min(r.rank, 5)):
                        row[k] = rng.randint(-5, 5)
                out = r.right_multiply(V, b)
                assert out.dtype == np.int64
                assert np.array_equal(out, dense(right_product_rows(r, V, b), r.rank))

    def test_bignum_blocks(self):
        r = ring_for("z3", 1, 3)
        b = r.normal_form(freegrp.inv(r.lp.schreier_gens[1]))
        b[(0, ())] -= 1
        assert all(g == 0 for g, _ in b) and sum(map(abs, b.values())) >= 2
        rng = random.Random(6)
        cols = rng.sample(range(r.rank), 6)
        # object rows with entries near 2**62 stay exact
        V = np.zeros((2, r.rank), dtype=object)
        V[0, cols[:3]] = [2**62 - 1, -(2**62) + 3, 7]
        V[1, cols[3:]] = [2**63 + 11, 1, -(2**64)]
        out = r.right_multiply(V, b)
        assert out.dtype == object
        assert np.array_equal(out, dense(right_product_rows(r, V, b), r.rank))
        # int64 rows whose bound max|V|·sum|c| reaches 2**62 go to Python ints
        W = np.zeros((1, r.rank), dtype=np.int64)
        W[0, cols[:2]] = [2**61, -(2**61) + 1]
        out = r.right_multiply(W, b)
        assert out.dtype == object
        assert np.array_equal(out, dense(right_product_rows(r, W, b), r.rank))

    def test_refuses_other_components(self):
        r = ring_for("z3", 1, 2)
        V = np.eye(r.rank, dtype=np.int64)[:2]
        with pytest.raises(ValueError):
            r.right_multiply(V, {(0, ()): 1, (1, ()): 2})


def assert_word_images(hom, src, tgt, words):
    """word_images against the per-word product s(g)·prod(phi(rho_j) - 1)
    of the oracle, once and again from the memo."""
    expected = dense([terms_to_vec(tgt, word_image_terms(hom, src, tgt, k)) for k in words], tgt.rank)
    assert np.array_equal(word_images(hom, src, tgt, words), expected)
    assert np.array_equal(word_images(hom, src, tgt, words[:3]), expected[:3])


@pytest.mark.parametrize("name", ["z2", "z3", "s3", "z2xz2"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_word_images_match_the_dict_products(name, depth):
    # every coface from level p to p + 1 and every codegeneracy back, for
    # p = 0, 1, 2, on every basis word for p = 0 and on every word or 200
    # drawn at random for p = 1, 2; exactly the homs other than d^0 relabel
    # basis words
    rank = load_group_file(GROUP_DIR / f"{name}.json").ngens
    rng = np.random.default_rng(5)
    rings = [ring_for(name, p, depth) for p in range(4)]
    for p in range(3):
        homs = [(freegrp.coface(p, i, rank), rings[p], rings[p + 1]) for i in range(p + 2)]
        homs += [(freegrp.codegeneracy(p, j, rank), rings[p + 1], rings[p]) for j in range(p + 1)]
        for n, (hom, src, tgt) in enumerate(homs):
            assert (_relabelling(hom, src, tgt) is None) == (n == 0), (p, n)
            words = np.arange(src.rank)[::-1]
            if p and len(words) > 200:
                words = rng.choice(words, 200, replace=False)
            assert_word_images(hom, src, tgt, words)
    # fixing copy 0 is not enough: with the copy-1 generators conjugated
    # by a copy-0 letter, the Schreier generators of copy-1 edges go to no
    # Schreier generator, and the hom takes the general path
    images = [freegrp.gen_word(0, i) for i in range(rank)]
    images += [freegrp.mul(freegrp.gen_word(0, i), freegrp.gen_word(1, i), freegrp.gen_word(0, i, -1))
               for i in range(rank)]
    hom = freegrp.FreeHom(2, rank, 2, rank, tuple(images))
    assert _relabelling(hom, rings[1], rings[1]) is None
    assert_word_images(hom, rings[1], rings[1], np.arange(rings[1].rank)[::-1])


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

    def test_rank_cap(self, monkeypatch):
        g = load_group_file(GROUP_DIR / "s3.json")
        monkeypatch.setattr(truncring, "DEFAULT_RANK_CAP", 100)
        with pytest.raises(CapExceeded, match="cap 100"):
            TruncatedRing(LevelPresentation(g, 2), 3)

    def test_a_wide_ring_holds_no_table_of_words(self):
        # the layout is a formula, so building a ring allocates less than
        # one pointer per basis word: s3 at level 5 and N = 3 has m = 67
        # and rank 6·(1 + 67 + 67**2) = 27342
        lp = LevelPresentation(load_group_file(GROUP_DIR / "s3.json"), 5)
        tracemalloc.start()
        try:
            r = TruncatedRing(lp, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.rank == 27342
        assert peak < 8 * r.rank, peak
        assert r.position(5, (66, 66)) == r.rank - 1


class TestIdealLattices:
    def test_z2_level0_ranks(self):
        r = ring_for("z2", 0, 2)
        assert r.rank == 4
        assert r.eval_monomial("f").rank == 3
        assert r.eval_monomial("r").rank == 2

    def test_trivial_group_depth1(self):
        r = ring_for("trivial", 0, 1)
        assert r.rank == 1
        assert r.eval_monomial("f").rank == 0
        assert r.eval_monomial("r").rank == 0

    def test_r_inside_f(self):
        for name, level, depth in [("z2", 0, 2), ("z4", 0, 3), ("s3", 1, 2)]:
            r = ring_for(name, level, depth)
            f = r.eval_monomial("f")
            for row in r.eval_monomial("r").basis():
                assert f.contains([row])

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
        # their coefficients up into bignums; the canonical entries are <= 6.
        # At depth 2 the r^3 seed of eval_monomial is zero, so every
        # product goes through the echelon.
        r = ring_for("s3", 1, 2)
        lat = r.eval_monomial("fff")
        assert lat.big is False
        assert lat.rank == 115
        assert max(abs(int(c)) for row in lat.basis() for c in row) <= 6
        gens = [difference(r, w) for w in r.right_generators("f")]
        products = [
            terms_to_vec(r, multiply_terms(r, g, vec_to_terms(r, row)))
            for row in r.eval_monomial("ff").basis()
            for g in gens
        ]
        basis, pivots = reference_hnf(products, r.rank)
        assert [list(map(int, row)) for row in lat.basis()] == basis
        assert lat.pivot_cols == pivots

    @pytest.mark.parametrize("name", ["trivial", "z2", "z2_rank2", "z3", "z4", "z2xz2", "s3"])
    def test_layer0_span_is_the_eliminated_span(self, name):
        # P in closed form (I_G for f, 0 for r), read off the layer-0 rows
        # of the seed of a length-1 monomial, against the span of the
        # layer-0 parts of gamma_0·s(h), eliminated by the oracle; the
        # seed's other rows are r, the unit rows of the layers >= 1
        for level, depth in itertools.product((0, 1, 2), (1, 2, 3)):
            r = ring_for(name, level, depth)
            order = r.lp.group.order
            for letter in "fr":
                rows = []
                for w in r.right_generators(letter):
                    gamma_0 = {bw: c for bw, c in difference(r, w).items() if not bw[1]}
                    for h in range(order):
                        prod = multiply_terms(r, gamma_0, {(h, ()): 1})
                        rows.append([prod.get((g, ()), 0) for g in range(order)])
                basis, pivots = reference_hnf(rows, order)
                seed = r._seed(1, letter)
                stop = int(np.searchsorted(seed.pivot_cols, order))
                H = seed.basis(0, stop)
                assert H[:, :order].tolist() == basis, (level, depth, letter)
                assert not H[:, order:].any()
                assert seed.pivot_cols[:stop] == pivots
                assert np.array_equal(seed.basis(stop), np.eye(r.rank, dtype=np.int64)[order:])

    @pytest.mark.parametrize(
        "name,level,depths",
        [("z2", 0, 3), ("z2", 1, 3), ("z3", 0, 3), ("z3", 1, 3), ("s3", 0, 3), ("s3", 1, 2), ("z2xz2", 0, 3)],
        ids=["z2-0", "z2-1", "z3-0", "z3-1", "s3-0", "s3-1", "z2xz2-0"],
    )
    def test_r_power_seed_spans_the_products(self, name, level, depths):
        # eval_monomial starts from r^k + P⊗I and multiplies only the tail
        # rows below layer k - 1; every monomial of length k <= 3 must
        # still be the span of the oracle's products gamma·t over the full
        # tail basis, and contain r^k.  Depths 1 to 3 give k = 1, k = N
        # and k > N; the tail of a letter is the whole ring.  s3 at level
        # 1 stops at depth 2: at depth 3 (rank 2286) its r-headed oracles
        # eliminate about 43,000 product rows each.
        for depth in range(1, depths + 1):
            r = ring_for(name, level, depth)
            for mono in MONOMIALS:
                lat = r.eval_monomial(mono)
                r_k = np.eye(r.rank, dtype=np.int64)[r.layer_offsets[min(len(mono), depth)] :]
                assert lat.contains(r_k), (depth, mono)
                gens = [difference(r, w) for w in r.right_generators(mono[0])]
                products = [
                    terms_to_vec(r, multiply_terms(r, g, vec_to_terms(r, row)))
                    for row in r.eval_monomial(mono[1:]).basis()
                    for g in gens
                ]
                assert lat == Lattice(r.rank, dense(products, r.rank)), (depth, mono)

    @pytest.mark.parametrize("name,level,depth", [("z2", 0, 3), ("z2", 1, 3), ("z3", 0, 3), ("z2xz2", 0, 2)])
    def test_coordinate_r_powers(self, name, level, depth):
        # r^k from the oracle's products: gamma·r^(k-1) over gamma = rho_j - 1
        # for the right generators rho_j of r, starting from the whole ring
        r = ring_for(name, level, depth)
        gens = [difference(r, w) for w in r.right_generators("r")]
        prev = np.eye(r.rank, dtype=np.int64)
        for k in range(1, depth + 2):
            rows = [terms_to_vec(r, multiply_terms(r, g, vec_to_terms(r, v))) for v in prev for g in gens]
            brute = Lattice(r.rank, dense(rows, r.rank))
            lat = r.eval_monomial("r" * k)
            assert lat == brute
            assert lat.rank == r.rank - r.layer_offsets[min(k, depth)]
            prev = brute.basis()

    def test_copies_leave_cached_bases_alone(self):
        # eval_code starts from a copy of a cached monomial lattice, and
        # FunctorValue reads its relations off the cached code lattice;
        # neither may change the lattice it starts from
        r = ring_for("z3", 1, 3)
        monos = ["f", "r", "fr", "rf", "ff", "fff", "rr"]
        before = {m: [row.copy() for row in r.eval_monomial(m).basis()] for m in monos}
        lats = {m: r.eval_monomial(m) for m in monos}
        for text in ("fff", "fr+rf", "rr+fff"):
            code = r.eval_code(parse(text))
            code_rows = [row.copy() for row in code.basis()]
            val = FunctorValue(r, parse(text))
            assert val.c_lattice is code
            assert val.group.relations.rank == len(unit_split(code)[1])
            assert all(np.array_equal(x, y) for x, y in zip(code.basis(), code_rows))
            assert len(code.basis()) == len(code_rows)
        for m in monos:
            assert r.eval_monomial(m) is lats[m]
            rows = r.eval_monomial(m).basis()
            assert len(rows) == len(before[m])
            assert all(np.array_equal(x, y) for x, y in zip(rows, before[m]))

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
                ta = vec_to_terms(r, a)
                for b in right.basis():
                    tb = vec_to_terms(r, b)
                    prod = multiply_terms(r, ta, tb)
                    if prod:
                        brute.add(dense([terms_to_vec(r, prod)], r.rank))
            assert brute == r.eval_monomial(mono)


class TestLongMonomials:
    def test_a_long_monomial_is_built_in_a_loop(self):
        # 1500 letters would overflow the stack one call per letter.  On
        # z2 at depth 2 the augmentation ideal I of Z/2 has I^2 = 2I, so
        # f^1500 = 2^1498·f^2, with entries far beyond int64; built from
        # the cached suffix f^700 or from nothing, it is the same lattice
        r = ring_for("z2", 0, 2)
        lat = r.eval_monomial("f" * 1500)
        assert all("f" * k in r._monomial_cache for k in range(1501))
        assert lat.big
        assert lat == Lattice(r.rank, 2**1498 * r.eval_monomial("ff").basis().astype(object))
        other = ring_for("z2", 0, 2)
        other.eval_monomial("f" * 700)
        assert other.eval_monomial("f" * 1500) == lat

    def test_the_deadline_is_checked_once_per_suffix(self):
        # r^k on z2 at depth 901 multiplies nothing: every suffix is its
        # canonical seed, and r^900 takes seconds in all; the deadline
        # stops it between two suffixes, and only complete ones are cached
        r = ring_for("z2", 0, 901)
        start = time.monotonic()
        with pytest.raises(CapExceeded):
            r.eval_monomial("r" * 900, Deadline(0.2))
        assert time.monotonic() - start < 1.0
        cached = sorted(r._monomial_cache, key=len)
        assert 0 < len(cached) < 901
        assert cached == ["r" * k for k in range(len(cached))]
        assert r._monomial_cache[cached[-1]].rank == r.rank - r.layer_offsets[len(cached) - 1]


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

    @pytest.mark.parametrize(
        "level,rank,ngens,free_rank", [(0, 9, 5, 2), (1, 63, 11, 6), (2, 171, 19, 12)]
    )
    def test_presentation_on_surviving_words(self, level, rank, ngens, free_rank):
        # f/fff on z3 at N = 3, presented on the words that are no unit
        # pivot of fff, but for |G| - 1, against ring/(c + Z·1) on every
        # basis word and against f/c in the coordinates of the f lattice
        r = ring_for("z3", level, 3)
        val = FunctorValue(r, parse("fff"))
        assert r.rank == rank and val.group.ngens == len(val.gens) == ngens
        assert val.group.invariants() == ((), free_rank)
        c = val.c_lattice
        e_one = dense([{r.position(0, ()): 1}], r.rank)
        assert FinPresAb(r.rank, np.concatenate([c.basis(), e_one])).invariants() == ((), free_rank)
        f = r.eval_monomial("f")
        assert FinPresAb(f.rank, f.coordinates(c.basis())).invariants() == ((), free_rank)


    @pytest.mark.parametrize(
        "name,entries,escapes",
        [
            ("z3", {0: 1}, True),
            ("z3", {0: 2}, True),
            ("z3", {0: 1, 1: 1, 2: 1}, True),
            ("z3", {0: 1, 1: -1}, False),
            ("z3", {3: 1}, False),
            ("s3", {0: 2**62 - 1, 1: 2**62 - 1, 2: 2**62 - 1, 3: 2**62 - 1, 4: 4}, True),
            ("z3", {0: 2**62, 1: -(2**62)}, False),
            ("z3", {0: 2**62, 1: 2**62}, True),
        ],
        ids=["e0", "2e0", "e0+e1+e2", "e0-e1", "layer-1-word", "int64-sum-2**64",
             "object-sum-0", "object-sum-2**63"],
    )
    def test_a_code_lattice_outside_f_is_refused(self, name, entries, escapes):
        # a c row lies in f iff its layer-0 entries sum to 0; the s3 row is
        # int64, but its layer-0 sum is 2**64, which int64 reads as 0
        r = ring_for(name, 1, 2)
        row = [0] * r.rank
        for k, v in entries.items():
            row[k] = v
        r._code_cache["f"] = Lattice(r.rank, [row])
        if escapes:
            with pytest.raises(AssertionError, match="escapes f"):
                FunctorValue(r, parse("f"))
        else:
            assert FunctorValue(r, parse("f")).c_lattice is r._code_cache["f"]

    @pytest.mark.parametrize("text", ["r", "f", "fr+rf", "rr+fff", "fff", "rrr"])
    def test_a_value_adds_no_rows_once_its_code_is_cached(self, text, monkeypatch):
        # one lattice per level: the presentation is read off the cached
        # code lattice, and nothing is eliminated
        r = ring_for("z3", 1, 3)
        code = r.eval_code(parse(text))
        adds = []
        add = Lattice.add

        def counted(self, blocks):
            adds.append(1)
            return add(self, blocks)

        monkeypatch.setattr(Lattice, "add", counted)
        val = FunctorValue(r, parse(text))
        assert not adds
        assert val.c_lattice is code
        last = r.lp.group.order - 1
        assert last not in val.gens and last in unit_split(code)[0]


class TestDeadline:
    def test_expired_deadline_stops_a_level_and_caches_nothing(self):
        code = parse("fff")
        r = ring_for("z3", 2, 3)
        with pytest.raises(CapExceeded):
            FunctorValue(r, code, Deadline(0))
        assert "fff" not in r._monomial_cache and "ff" not in r._monomial_cache
        assert not r._code_cache
        fresh = ring_for("z3", 2, 3)
        val, ref = FunctorValue(r, code), FunctorValue(fresh, code)
        assert val.c_lattice == ref.c_lattice and val.group.relations == ref.group.relations
        assert np.array_equal(val.gens, ref.gens)
        assert val.group.invariants() == ref.group.invariants()


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
                            assert lat_w.contains([row]), (v, w)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.text(alphabet="fr", min_size=1, max_size=3), min_size=1, max_size=2),
                    min_size=1, max_size=3))
    def test_normalize_keeps_the_code_lattice(self, terms):
        # normalize drops only terms that dominance certifies to lie in
        # another term, so both codes span the same lattice in every ring
        # deep enough for both
        code = make_code(terms)
        norm = normalize(code)
        depth = max(required_truncation(code), required_truncation(norm))
        for name, level in [("z2", 0), ("z3", 0), ("z2", 1)]:
            r = ring_for(name, level, depth)
            assert r.eval_code(code) == r.eval_code(norm), (name, level, str(code), str(norm))

    def test_min_r_power_soundness(self):
        for text in ["fr+rf", "rr+fff", "rr+frf", "r+ff"]:
            code = parse(text)
            n = min_r_power(code)
            for name in ("z2", "z3"):
                r = ring_for(name, 0, n + 1)
                rn = r.eval_monomial("r" * n)
                cl = r.eval_code(code)
                for row in rn.basis():
                    assert cl.contains([row]), text


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
        # check on each generator at level 1: the image is the fold of its
        # basis word, less that of word |G| - 1 for a layer-0 generator,
        # renormalized at level 0 by the reference product and reduced
        # modulo r
        last = g.order - 1
        for i, k in enumerate(v1.gens):
            terms = word_image_terms(fold, r1, r0, k)
            if k < last:
                terms = {**terms}
                for bw, c in word_image_terms(fold, r1, r0, last).items():
                    terms[bw] = terms.get(bw, 0) - c
            img = dense([terms_to_vec(r0, terms)], r0.rank)
            expected = v0.c_lattice.reduce(img)[0, v0.gens]
            assert [int(x) for x in m.matrix[i]] == expected.tolist()

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
