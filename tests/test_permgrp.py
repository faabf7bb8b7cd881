import random
import re
from pathlib import Path

import pytest

from frlimits import freegrp, permgrp
from frlimits.errors import CapExceeded, InputError
from frlimits.permgrp import (
    GroupData,
    LevelPresentation,
    group_from_spec,
    load_group_file,
)

from oracles import abelianization_by_enumeration, expand_schreier_word

GROUP_DIR = Path(__file__).resolve().parents[1] / "src" / "frlimits" / "groups"


def load(name):
    return load_group_file(GROUP_DIR / f"{name}.json")


class TestClose:
    def test_z4(self):
        g = GroupData([[1, 2, 3, 0]])
        assert g.order == 4

    def test_s3_bfs_order(self):
        g = GroupData([[1, 0, 2], [1, 2, 0]])
        assert g.order == 6
        # BFS: e, x, y, xy, yx, yy
        lp = LevelPresentation(g, 0)
        x = freegrp.gen_word(0, 0)
        y = freegrp.gen_word(0, 1)
        expected = [
            freegrp.IDENTITY,
            x,
            y,
            freegrp.mul(x, y),
            freegrp.mul(y, x),
            freegrp.mul(y, y),
        ]
        assert [lp.eval_word(w) for w in expected] == [0, 1, 2, 3, 4, 5]

    def test_trivial(self):
        g = GroupData([[0]])
        assert g.order == 1

    def test_non_bijection_rejected(self):
        with pytest.raises(InputError):
            group_from_spec({"name": "bad", "generators": ["x"], "images": [[1, 1]]})

    def test_declared_order_mismatch(self):
        with pytest.raises(InputError):
            group_from_spec(
                {"name": "bad", "generators": ["x"], "images": [[2, 3, 1]], "order": 4}
            )

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(permgrp, "DEFAULT_ELEMENT_CAP", 3)
        with pytest.raises(CapExceeded, match="3-element cap"):
            GroupData([[1, 2, 3, 4, 0]])

    def test_bad_relator(self):
        with pytest.raises(InputError):
            group_from_spec(
                {
                    "name": "bad",
                    "generators": ["x"],
                    "images": [[2, 3, 1]],
                    "relators": ["x^2"],
                }
            )

    @pytest.mark.parametrize(
        "images",
        [[[2.7, 1]], [[True, 2]], [5]],
        ids=["float-entry", "bool-entry", "row-not-a-list"],
    )
    def test_images_are_read_exactly(self, images):
        with pytest.raises(InputError):
            group_from_spec({"name": "bad", "generators": ["x"], "images": images})

    @pytest.mark.parametrize(
        "relator", ["y", "x^a", "x@1", 5], ids=["unknown-letter", "bad-exponent", "other-copy", "not-a-string"]
    )
    def test_unreadable_relator_is_named(self, relator):
        spec = {"name": "bad", "generators": ["x"], "images": [[2, 1]], "relators": [relator]}
        with pytest.raises(InputError, match=re.escape(f"relator {relator!r}")):
            group_from_spec(spec)

    def test_relators_must_be_a_list(self):
        # a string would be read letter by letter
        spec = {"name": "bad", "generators": ["x"], "images": [[2, 1]], "relators": "x^2"}
        with pytest.raises(InputError):
            group_from_spec(spec)

    @pytest.mark.parametrize(
        "part",
        [
            {"generators": "x"},
            {"generators": "xy", "images": [[2, 1], [1, 2]]},
            {"generators": ["x", 2], "images": [[2, 1], [1, 2]]},
            {"order": 2.0},
            {"relators": ""},
            {"relators": 0},
            {"generators": ["x", "x"], "images": [[2, 1], [1, 2]]},
            {"name": 5},
            {"generators": ["x", "y^2"], "images": [[2, 1], [1, 2]]},
            {"generators": ["1"]},
            {"generators": [""]},
            {"generators": ["x y"]},
            {"generators": ["a@1"]},
        ],
        ids=["generators-string", "generators-two-letters", "generator-not-a-string",
             "order-float", "relators-empty-string", "relators-zero",
             "generators-repeated", "name-not-a-string", "generator-with-caret",
             "generator-one", "generator-empty", "generator-with-space", "generator-with-at"],
    )
    def test_malformed_spec_parts_are_refused(self, part):
        # each of these was read as something else: "xy" as the two
        # generators x and y, 2.0 as the order 2, "" and 0 as no relators;
        # two generators named x built a group whose second generator no
        # relator could name, and the name 5 went into the report; a word
        # splits on "*", "^" and "@", strips whitespace and reads "" and
        # "1" as the identity, so the last five names built a group of
        # order 2 whose relators could not spell its generators
        spec = {"name": "bad", "generators": ["x"], "images": [[2, 1]], **part}
        with pytest.raises(InputError):
            group_from_spec(spec)

    def test_a_bool_is_not_an_order(self):
        # True == 1, so it passed the trivial group's order check
        spec = {"name": "bad", "generators": ["x"], "images": [[1]], "order": True}
        with pytest.raises(InputError, match="order"):
            group_from_spec(spec)

    def test_mult_table_is_group(self):
        g = load("s3")
        n = g.order
        for a in range(n):
            assert g.mul(a, g.inverse[a]) == 0
            assert g.mul(0, a) == a and g.mul(a, 0) == a
        rng = random.Random(0)
        for _ in range(100):
            a, b, c = (rng.randrange(n) for _ in range(3))
            assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


# one-line images (1-indexed), the order, and the invariant factors of G_ab
INLINE_GROUPS = {
    "q8": ([[2, 5, 4, 7, 6, 1, 8, 3], [3, 8, 5, 2, 7, 4, 1, 6]], 8, (2, 2)),
    "d8": ([[2, 3, 4, 1], [3, 2, 1, 4]], 8, (2, 2)),
    "z2^3": ([[2, 1, 3, 4, 5, 6], [1, 2, 4, 3, 5, 6], [1, 2, 3, 4, 6, 5]], 8, (2, 2, 2)),
    "z6": ([[2, 3, 4, 5, 6, 1]], 6, (6,)),
    "s4": ([[2, 1, 3, 4], [2, 3, 4, 1]], 24, (2,)),
    "a4": ([[2, 3, 1, 4], [1, 3, 4, 2]], 12, (3,)),
    "a5": ([[2, 3, 4, 5, 1], [2, 3, 1, 4, 5]], 60, ()),
    "d12": ([[2, 3, 4, 5, 6, 1], [1, 6, 5, 4, 3, 2]], 12, (2, 2)),
}


class TestAbelianization:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("trivial", ()),
            ("z2", (2,)),
            ("z3", (3,)),
            ("z4", (4,)),
            ("z2xz2", (2, 2)),
            ("s3", (2,)),
        ],
    )
    def test_values(self, name, expected):
        assert load(name).abelianization() == expected

    @pytest.mark.parametrize("name", sorted(p.stem for p in GROUP_DIR.glob("*.json")))
    def test_bundled_groups_match_the_enumeration_oracle(self, name):
        g = load(name)
        assert g.abelianization() == abelianization_by_enumeration(g)

    @pytest.mark.parametrize("images,order,expected", INLINE_GROUPS.values(), ids=list(INLINE_GROUPS))
    def test_inline_groups_match_the_enumeration_oracle(self, images, order, expected):
        names = [f"x{i}" for i in range(len(images))]
        g = group_from_spec({"generators": names, "images": images, "order": order})
        assert g.abelianization() == abelianization_by_enumeration(g) == expected


class TestLevelPresentation:
    def test_z2_level0(self):
        lp = LevelPresentation(load("z2"), 0)
        assert lp.transversal[0] == freegrp.IDENTITY
        assert lp.transversal[1] == freegrp.gen_word(0, 0)
        assert lp.schreier_gens == [freegrp.reduce_word([(0, 0, 2)])]

    def test_z2_level1(self):
        lp = LevelPresentation(load("z2"), 1)
        x0 = freegrp.gen_word(0, 0)
        x1 = freegrp.gen_word(1, 0)
        expected = {
            freegrp.mul(x1, freegrp.inv(x0)),
            freegrp.reduce_word([(0, 0, 2)]),
            freegrp.mul(x0, x1),
        }
        assert set(lp.schreier_gens) == expected
        assert lp.num_schreier_gens == 3

    def test_trivial_level0(self):
        lp = LevelPresentation(load("trivial"), 0)
        assert lp.transversal == [freegrp.IDENTITY]
        assert lp.schreier_gens == [freegrp.gen_word(0, 0)]

    def test_transversal_prefix_closed(self):
        for name in ("z4", "s3", "z2xz2"):
            for p in (0, 1, 2):
                lp = LevelPresentation(load(name), p)
                words = set(lp.transversal)
                for w in lp.transversal:
                    for k in range(len(freegrp.word_letters(w))):
                        letters = freegrp.word_letters(w)[:k]
                        assert freegrp.reduce_word(letters) in words

    @pytest.mark.parametrize("name", ["trivial", "z2", "z2_rank2", "z3", "z4", "z2xz2", "s3"])
    def test_transversal_uses_copy_0_only(self, name):
        # every copy acts on G alike, so the BFS reaches each element by a
        # copy-0 letter first, and the transversal is level 0's at every
        # level; truncring's relabelling structure maps rely on this
        g = load(name)
        level0 = LevelPresentation(g, 0).transversal
        for p in (0, 1, 2, 3):
            lp = LevelPresentation(g, p)
            assert all(c == 0 for w in lp.transversal for c, _, _ in w)
            assert lp.transversal == level0

    def test_nielsen_schreier_rank(self):
        for name in ("trivial", "z2", "z3", "z4", "z2xz2", "s3"):
            g = load(name)
            for p in (0, 1, 2):
                lp = LevelPresentation(g, p)
                total_rank = (p + 1) * g.ngens
                assert lp.num_schreier_gens == 1 + g.order * (total_rank - 1)


class TestRewrite:
    def test_z2_x_squared(self):
        lp = LevelPresentation(load("z2"), 0)
        w = freegrp.reduce_word([(0, 0, 2)])
        assert lp.rewrite_in_R(w) == [(0, 1)]

    def test_z2_x_fourth(self):
        lp = LevelPresentation(load("z2"), 0)
        w = freegrp.reduce_word([(0, 0, 4)])
        assert lp.rewrite_in_R(w) == [(0, 1), (0, 1)]

    def test_empty(self):
        lp = LevelPresentation(load("z2"), 0)
        assert lp.rewrite_in_R(freegrp.IDENTITY) == []

    def test_rejects_nontrivial_image(self):
        lp = LevelPresentation(load("z2"), 0)
        with pytest.raises(ValueError):
            lp.rewrite_in_R(freegrp.gen_word(0, 0))

    def test_roundtrip_random_words(self):
        rng = random.Random(21)
        for name in ("z2", "z4", "s3"):
            g = load(name)
            for p in (0, 1):
                lp = LevelPresentation(g, p)
                for _ in range(40):
                    sylls = [
                        (
                            rng.randrange(p + 1),
                            rng.randrange(g.ngens),
                            rng.choice([-2, -1, 1, 2]),
                        )
                        for _ in range(rng.randint(0, 6))
                    ]
                    w = freegrp.reduce_word(sylls)
                    target = lp.eval_word(w)
                    # close up to the identity using the transversal
                    w_r = freegrp.mul(w, freegrp.inv(lp.transversal[target]))
                    assert lp.eval_word(w_r) == 0
                    rho_word = lp.rewrite_in_R(w_r)
                    assert expand_schreier_word(lp, rho_word) == w_r


class TestCofaceCompatibility:
    def test_schreier_gens_stay_in_kernel(self):
        for name in ("z2", "z3", "s3"):
            g = load(name)
            for p in (0, 1):
                lp = LevelPresentation(g, p)
                lp_next = LevelPresentation(g, p + 1)
                for j in range(p + 2):
                    d = freegrp.coface(p, j, g.ngens)
                    for rho in lp.schreier_gens:
                        assert lp_next.eval_word(d.apply(rho)) == 0

    def test_structure_maps_commute_with_projection(self):
        rng = random.Random(33)
        for name in ("z4", "s3"):
            g = load(name)
            for p in (0, 1):
                lp = LevelPresentation(g, p)
                lp_next = LevelPresentation(g, p + 1)
                maps = [
                    (freegrp.coface(p, j, g.ngens), lp_next) for j in range(p + 2)
                ]
                if p >= 1:
                    lp_prev = LevelPresentation(g, p - 1)
                    maps += [
                        (freegrp.codegeneracy(p - 1, j, g.ngens), lp_prev)
                        for j in range(p)
                    ]
                for _ in range(30):
                    sylls = [
                        (
                            rng.randrange(p + 1),
                            rng.randrange(g.ngens),
                            rng.choice([-1, 1]),
                        )
                        for _ in range(rng.randint(0, 5))
                    ]
                    w = freegrp.reduce_word(sylls)
                    for hom, lp_target in maps:
                        assert lp_target.eval_word(hom.apply(w)) == lp.eval_word(w)
