import random

import pytest

from frlimits.freegrp import (
    IDENTITY,
    FreeHom,
    coface,
    codegeneracy,
    diagonal_power,
    format_word,
    gen_word,
    homotopy_maps,
    inv,
    mul,
    parse_word,
    reduce_word,
)


def w(*sylls):
    return reduce_word(sylls)


class TestWords:
    def test_cancel(self):
        x = gen_word(0, 0)
        assert mul(x, inv(x)) == IDENTITY

    def test_xy_yinvx(self):
        x, y = gen_word(0, 0), gen_word(0, 1)
        assert mul(mul(x, y), mul(inv(y), x)) == w((0, 0, 2))

    def test_reduce_inner(self):
        x, y, z = gen_word(0, 0), gen_word(0, 1), gen_word(0, 2)
        word = mul(x, y, inv(y), inv(x), z)
        assert word == z

    def test_reduce_idempotent(self):
        rng = random.Random(5)
        for _ in range(100):
            sylls = [
                (rng.randint(0, 2), rng.randint(0, 1), rng.randint(-3, 3))
                for _ in range(rng.randint(0, 8))
            ]
            once = reduce_word(sylls)
            assert reduce_word(once) == once

    def test_group_laws(self):
        rng = random.Random(6)
        for _ in range(100):
            def rand_word():
                return reduce_word(
                    (rng.randint(0, 1), rng.randint(0, 1), rng.randint(-2, 2))
                    for _ in range(rng.randint(0, 5))
                )

            a, b, c = rand_word(), rand_word(), rand_word()
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, inv(a)) == IDENTITY
            assert mul(a, IDENTITY) == a

    def test_word_syntax_roundtrip(self):
        names = ["x", "y"]
        word = w((0, 0, 1), (2, 1, -2), (0, 1, 3))
        assert parse_word(format_word(word, names), names) == word
        assert format_word(IDENTITY, names) == "1"
        assert parse_word("1", names) == IDENTITY
        assert format_word(w((2, 0, 1)), names) == "x@2"


class TestFreeHomValidation:
    def test_image_count(self):
        with pytest.raises(ValueError):
            FreeHom(1, 2, 1, 1, (gen_word(0, 0),))

    def test_unreduced_image(self):
        with pytest.raises(ValueError):
            FreeHom(1, 1, 1, 1, (((0, 0, 1), (0, 0, -1)),))

    def test_image_outside_alphabet(self):
        with pytest.raises(ValueError):
            FreeHom(1, 1, 1, 1, (gen_word(1, 0),))

    def test_free_product_needs_matching_single_copy_maps(self):
        with pytest.raises(ValueError):
            FreeHom.free_product([FreeHom.identity(2, 1)])
        with pytest.raises(ValueError):
            FreeHom.free_product([FreeHom.identity(1, 1), FreeHom.identity(1, 2)])


class TestCofaces:
    def test_coface_level0(self):
        d0 = coface(0, 0, 1)
        d1 = coface(0, 1, 1)
        x = gen_word(0, 0)
        assert d0.apply(x) == gen_word(1, 0)
        assert d1.apply(x) == gen_word(0, 0)

    def test_coface_level1_j1(self):
        d = coface(1, 1, 1)
        assert d.apply(gen_word(0, 0)) == gen_word(0, 0)
        assert d.apply(gen_word(1, 0)) == gen_word(2, 0)

    def test_codegeneracy_fold(self):
        s0 = codegeneracy(0, 0, 1)
        assert s0.apply(gen_word(0, 0)) == gen_word(0, 0)
        assert s0.apply(gen_word(1, 0)) == gen_word(0, 0)

    def test_codegeneracy_level1(self):
        s0 = codegeneracy(1, 0, 1)
        s1 = codegeneracy(1, 1, 1)
        assert [s0.apply(gen_word(c, 0)) for c in range(3)] == [
            gen_word(0, 0),
            gen_word(0, 0),
            gen_word(1, 0),
        ]
        assert [s1.apply(gen_word(c, 0)) for c in range(3)] == [
            gen_word(0, 0),
            gen_word(1, 0),
            gen_word(1, 0),
        ]

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            coface(1, 3, 1)
        with pytest.raises(ValueError):
            codegeneracy(1, 2, 1)


def _all_cosimplicial_identities(rank, max_n):
    """Yield (lhs, rhs) FreeHom pairs for every identity with level <= max_n.

    Level bookkeeping: d^i on X^n is coface(n, i) (n+1 -> n+2 copies) and
    s^j on X^{n+1} is codegeneracy(n, j) (n+2 -> n+1 copies).
    """
    for n in range(max_n):
        # d^j d^i = d^i d^{j-1},  i < j  (maps X^n -> X^{n+2})
        for i in range(n + 2):
            for j in range(i + 1, n + 3):
                lhs = coface(n + 1, j, rank).compose(coface(n, i, rank))
                rhs = coface(n + 1, i, rank).compose(coface(n, j - 1, rank))
                yield lhs, rhs
    for n in range(max_n):
        # s^j s^i = s^i s^{j+1},  i <= j  (maps X^{n+2} -> X^n)
        for j in range(n + 1):
            for i in range(j + 1):
                lhs = codegeneracy(n, j, rank).compose(codegeneracy(n + 1, i, rank))
                rhs = codegeneracy(n, i, rank).compose(codegeneracy(n + 1, j + 1, rank))
                yield lhs, rhs
    for n in range(max_n):
        # mixed identities s^j d^i (maps X^n -> X^n)
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = codegeneracy(n, j, rank).compose(coface(n, i, rank))
                if i < j:
                    rhs = coface(n - 1, i, rank).compose(codegeneracy(n - 1, j - 1, rank))
                elif i in (j, j + 1):
                    rhs = FreeHom.identity(n + 1, rank)
                else:
                    rhs = coface(n - 1, i - 1, rank).compose(codegeneracy(n - 1, j, rank))
                yield lhs, rhs


def test_cosimplicial_identities_word_level():
    count = 0
    for rank in (1, 2):
        for lhs, rhs in _all_cosimplicial_identities(rank, 4):
            assert lhs == rhs
            count += 1
    assert count >= 100


def _random_hom(rng, rank_dom, rank_cod):
    images = []
    for _ in range(rank_dom):
        sylls = [
            (0, rng.randint(0, rank_cod - 1), rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randint(0, 4))
        ]
        images.append(reduce_word(sylls))
    return FreeHom(1, rank_dom, 1, rank_cod, tuple(images))


class TestHomotopy:
    def test_fold_when_f_equals_g_identity(self):
        f = FreeHom.identity(1, 1)
        (k0,) = homotopy_maps(f, f, 0)
        fold = codegeneracy(0, 0, 1)
        assert k0 == fold

    def test_boundary_identities(self):
        rng = random.Random(11)
        for _ in range(30):
            rank = rng.randint(1, 2)
            f = _random_hom(rng, rank, rank)
            g = _random_hom(rng, rank, rank)
            for n in range(0, 3):
                ks = homotopy_maps(f, g, n)
                d_low = coface(n, 0, rank)
                d_high = coface(n, n + 1, rank)
                assert ks[0].compose(d_low) == diagonal_power(g, n + 1)
                assert ks[n].compose(d_high) == diagonal_power(f, n + 1)

    def test_homotopy_identities(self):
        # The k^j of the family at m have domain X^{m+1}; the coface cases
        # relate families at m = n+1 and n, the codegeneracy cases those at
        # n and n+1.
        rng = random.Random(12)
        checked = 0
        for _ in range(25):
            rank = rng.randint(1, 2)
            f = _random_hom(rng, rank, rank)
            g = _random_hom(rng, rank, rank)
            for n in range(0, 3):
                ks = homotopy_maps(f, g, n)
                ks_next = homotopy_maps(f, g, n + 1)
                # k^j d^i with k^j from the family at n+1 (maps X^{n+1} -> Y^{n+1})
                for j in range(n + 2):
                    for i in range(n + 3):
                        if i < j:
                            a = ks_next[j].compose(coface(n + 1, i, rank))
                            b = coface(n, i, rank).compose(ks[j - 1])
                            assert a == b
                            checked += 1
                        elif i == j and j > 0:
                            a = ks_next[j].compose(coface(n + 1, i, rank))
                            b = ks_next[j - 1].compose(coface(n + 1, j, rank))
                            assert a == b
                            checked += 1
                        elif i > j + 1 and j <= n:
                            a = ks_next[j].compose(coface(n + 1, i, rank))
                            b = coface(n, i - 1, rank).compose(ks[j])
                            assert a == b
                            checked += 1
                # k^j s^i with k^j from the family at n (maps X^{n+2} -> Y^n)
                for j in range(n + 1):
                    for i in range(n + 2):
                        a = ks[j].compose(codegeneracy(n + 1, i, rank))
                        if i <= j:
                            b = codegeneracy(n, i, rank).compose(ks_next[j + 1])
                        else:
                            b = codegeneracy(n, i - 1, rank).compose(ks_next[j])
                        assert a == b
                        checked += 1
        assert checked >= 100
