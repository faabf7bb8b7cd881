import random

import numpy as np
import pytest

from frlimits.intlin import (
    AbMap,
    FinPresAb,
    Lattice,
    direct_sum,
    homology_at,
    invariant_factors,
    kernel_of_matrix,
    lattice_from_rows,
    lattice_intersection,
    safe_matmul,
    smith_diagonal,
    tensor_over_group_ring,
    tensor_Z,
    tor_Z,
)

from oracles import (
    brute_homology,
    combine_cyclic_orders,
    determinantal_invariant_factors,
    elements,
    reference_hnf,
    subgroup_span,
)


def random_rows(rng, n, m):
    """m rows in Z^n, as lists, dicts or int64 arrays; some are zero and
    some have entries up to 2**70."""
    rows = []
    for _ in range(m):
        hi = 2**70 if rng.random() < 0.2 else 9
        density = rng.choice((0.0, 0.3, 0.7, 1.0))
        row = [rng.randint(-hi, hi) if rng.random() < density else 0 for _ in range(n)]
        kind = rng.random()
        if kind < 0.25:
            row = {j: c for j, c in enumerate(row) if c}
        elif kind < 0.5 and hi < 2**62:
            row = np.array(row, dtype=np.int64)
        rows.append(row)
    return rows


def as_lists(rows, n):
    return [
        [int(r.get(j, 0)) for j in range(n)] if isinstance(r, dict) else list(map(int, r))
        for r in rows
    ]


class TestLattice:
    def test_matches_reference_hnf(self):
        # rows arrive in up to three batches with the basis read in between,
        # so queued rows are also merged into an existing basis
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randint(0, 9)
            rows = random_rows(rng, n, rng.randint(0, 12))
            lat = Lattice(n)
            cuts = {rng.randint(1, len(rows)) for _ in range(rng.randint(0, 2))} if rows else set()
            for i, row in enumerate(rows, 1):
                lat.add(row)
                if i in cuts:
                    lat.canonicalize()
            basis, pivots = reference_hnf(rows, n)
            assert [list(map(int, r)) for r in lat.basis()] == basis, (n, rows)
            assert lat.pivot_cols == pivots
            assert lat.rank == len(basis)
            assert lat.big == any(abs(c) >= 2**62 for r in basis for c in r)
            assert lattice_from_rows(n, rows) == lat

    def test_unit_rows_are_canonical(self):
        lat = lattice_from_rows(4, [[0, 1, 0, 0], [0, 0, 0, 1]])
        assert lat.rank == 2
        assert lat.contains([0, 5, 0, -3])
        assert not lat.contains([1, 0, 0, 0])

    def test_canonical_form_is_generator_order_independent(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 6)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(rng.randint(1, 8))]
            a = lattice_from_rows(n, rows)
            shuffled = rows[:]
            rng.shuffle(shuffled)
            b = lattice_from_rows(n, shuffled)
            assert a == b

    def test_membership_matches_span(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 4))]
            lat = lattice_from_rows(n, rows)
            # random integer combinations must lie in the lattice
            for _ in range(10):
                coeffs = [rng.randint(-3, 3) for _ in rows]
                vec = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
                assert lat.contains(vec)
                coords = lat.coordinates(vec)
                assert coords is not None
                basis = lat.basis()
                rebuilt = [
                    sum(c * int(b[j]) for c, b in zip(coords, basis)) for j in range(n)
                ]
                assert rebuilt == vec

    def test_pivots_positive_and_reduced(self):
        lat = lattice_from_rows(3, [[2, 1, 1], [0, 3, 0], [-2, 2, 0]])
        basis = lat.basis()
        piv_cols = lat.pivot_cols
        for k, j in enumerate(piv_cols):
            p = int(basis[k][j])
            assert p > 0
            for i in range(k):
                assert 0 <= int(basis[i][j]) < p

    def test_bignum_promotion(self):
        lat = Lattice(2)
        lat.add([2**63, 1])
        lat.add([1, 2**70])
        assert lat.big
        assert lat.contains([2**63 + 1, 2**70 + 1])

    def test_numpy_rows_in_bignum_lattice_stay_exact(self):
        # int64 numpy entries stored as they are in object rows would wrap
        # at 2**63 and make this vector look like a member
        lat = Lattice(3)
        lat.add([2**64, 0, 0])
        lat.add(np.array([0, 1, 5]))
        vec = [0, 2**61, -3 * 2**61]
        assert not lat.contains(vec)
        assert lat.coordinates(vec) is None

    def test_intersection_and_sum(self):
        a = lattice_from_rows(2, [[2, 0], [0, 1]])
        b = lattice_from_rows(2, [[3, 0], [0, 1]])
        inter = lattice_intersection(a, b)
        assert inter.contains([6, 0]) and not inter.contains([2, 0]) and not inter.contains([3, 0])
        s = lattice_from_rows(2, [*a.basis(), *b.basis()])
        assert s.contains([1, 0])

    def test_intersection_random(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 4)
            a = lattice_from_rows(
                n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            )
            b = lattice_from_rows(
                n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            )
            inter = lattice_intersection(a, b)
            for r in inter.basis():
                assert a.contains(r) and b.contains(r)
            # spot check: scaled basis vectors of a that happen to be in b
            for r in a.basis():
                for k in range(1, 5):
                    v = [k * int(c) for c in r]
                    if b.contains(v):
                        assert inter.contains(v)
                        break


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        lattice_intersection(Lattice(2), Lattice(3))
    z1, z2 = FinPresAb.free(1), FinPresAb.free(2)
    with pytest.raises(ValueError):
        AbMap.identity(z1).compose(AbMap.identity(z2))
    with pytest.raises(ValueError):
        homology_at(AbMap.zero(z1, z1), AbMap.zero(z2, z1))


def test_kernel_rows_annihilate():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 6)
        rows = as_lists(random_rows(rng, n, rng.randint(1, 8)), n)
        kern = kernel_of_matrix(rows, n)
        for x in kern:
            assert [sum(int(x[i]) * r[j] for i, r in enumerate(rows)) for j in range(n)] == [0] * n
        # the kernel of x -> xM has rank m - rank(M)
        assert len(kern) == len(rows) - len(reference_hnf(rows, n)[0])


def test_kernel_of_matrix():
    rows = [[2, 4], [1, 2], [3, 6]]
    kern = kernel_of_matrix(rows, 2)
    assert kern
    for x in kern:
        img = [sum(x[i] * rows[i][j] for i in range(3)) for j in range(2)]
        assert img == [0, 0]
    # kernel has rank 2 here (rows are all proportional)
    assert len(kern) == 2


class TestSmith:
    def test_diag_2_3(self):
        assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]

    def test_zero_matrix(self):
        assert not any(smith_diagonal([[0, 0], [0, 0]]))

    def test_identity(self):
        assert smith_diagonal([[1, 0], [0, 1]]) == [1, 1]

    def test_matches_determinantal_divisors(self):
        rng = random.Random(5)
        for _ in range(100):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            nonzero = [d for d in smith_diagonal(mat) if d]
            assert nonzero == determinantal_invariant_factors(mat), mat


class TestFinPresAb:
    def test_invariants_and_describe(self):
        g = FinPresAb(3, [[2, 0, 0], [0, 6, 0]])
        assert g.invariants() == ((2, 6), 1)
        assert g.describe() == "Z + Z/2 + Z/6"
        assert FinPresAb.zero().describe() == "0"
        assert FinPresAb.free(2).describe() == "Z^2"
        assert FinPresAb(2, [[2, 0], [0, 2]]).describe() == "Z/2 + Z/2"

    def test_order(self):
        assert FinPresAb.cyclic(12).order() == 12
        assert FinPresAb.free(1).order() is None
        assert FinPresAb.zero().order() == 1

    def test_off_diagonal_presentation(self):
        g = FinPresAb(2, [[2, 2], [0, 4]])
        assert g.invariants() == ((2, 4), 0)

    def test_is_trivial_matches_invariants(self):
        rng = random.Random(23)
        seen = set()
        for _ in range(300):
            n = rng.randint(0, 3)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 4))]
            rels = rows
            if rng.random() < 0.5:
                # an echelon basis that was never canonicalized
                rels = Lattice(n)
                rels.add_rows(rows)
            g = FinPresAb(n, rels)
            assert g.is_trivial() == (g.invariants() == ((), 0)), (n, rows)
            seen.add(g.is_trivial())
        assert seen == {True, False}

    def test_direct_sum(self):
        a = FinPresAb.from_invariants((2,), 1)
        b = FinPresAb.from_invariants((4,), 0)
        assert direct_sum([a, b]).invariants() == ((2, 4), 1)


class TestTensorTor:
    def test_tor_gcd_rule(self):
        a = direct_sum([FinPresAb.cyclic(4), FinPresAb.free(1)])
        b = FinPresAb.cyclic(6)
        assert tor_Z(a, b).invariants() == ((2,), 0)

    def test_tensor_z2_z2(self):
        t = tensor_Z(FinPresAb.cyclic(2), FinPresAb.cyclic(2))
        assert t.invariants() == ((2,), 0)

    def test_tor_free_vanishes(self):
        assert tor_Z(FinPresAb.free(3), FinPresAb.cyclic(12)).is_trivial()

    def test_symmetry(self):
        rng = random.Random(9)
        mods = [2, 3, 4, 6, 8, 9, 12]
        for _ in range(50):
            a = FinPresAb.from_invariants(
                combine_cyclic_orders([rng.choice(mods) for _ in range(rng.randint(0, 3))]),
                rng.randint(0, 2),
            )
            b = FinPresAb.from_invariants(
                combine_cyclic_orders([rng.choice(mods) for _ in range(rng.randint(0, 3))]),
                rng.randint(0, 2),
            )
            assert tensor_Z(a, b).iso_eq(tensor_Z(b, a))
            assert tor_Z(a, b).iso_eq(tor_Z(b, a))


class TestHomologyAt:
    def test_zero_maps_on_z2(self):
        z2 = FinPresAb.free(2)
        zero = FinPresAb.zero()
        f = AbMap.zero(zero, z2)
        g = AbMap.zero(z2, zero)
        h = homology_at(f, g)
        assert h.invariants() == ((), 2)

    def test_z_mod_2(self):
        z = FinPresAb.free(1)
        zero = FinPresAb.zero()
        f = AbMap(z, z, [[2]])
        g = AbMap.zero(z, zero)
        h = homology_at(f, g)
        assert h.invariants() == ((2,), 0)

    def test_composite_must_vanish(self):
        z = FinPresAb.free(1)
        f = AbMap(z, z, [[1]])
        g = AbMap(z, z, [[1]])
        with pytest.raises(ValueError):
            homology_at(f, g)

    def test_against_brute_force(self):
        rng = random.Random(17)
        mods_pool = [1, 2, 3, 4, 6, 8, 9, 12]
        trials = 0
        while trials < 120:
            na, nb, nc = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 3)
            mods_a = [rng.choice(mods_pool) for _ in range(na)]
            mods_b = [rng.choice(mods_pool) for _ in range(nb)]
            mods_c = [rng.choice(mods_pool) for _ in range(nc)]
            # well-defined random g
            mat_g = [
                [
                    (mods_c[j] // __import__("math").gcd(mods_b[i], mods_c[j]))
                    * rng.randint(0, mods_c[j])
                    % mods_c[j]
                    for j in range(nc)
                ]
                for i in range(nb)
            ]
            # f maps generators into ker(g), respecting orders
            zero_c = tuple(0 for _ in mods_c)
            from oracles import apply_map, vec_scale

            ker = [
                b
                for b in elements(mods_b)
                if apply_map(b, mat_g, mods_c) == zero_c
            ]
            mat_f = []
            ok = True
            for i in range(na):
                candidates = [
                    k
                    for k in ker
                    if vec_scale(mods_a[i], k, mods_b) == tuple(0 for _ in mods_b)
                ]
                if not candidates:
                    ok = False
                    break
                mat_f.append(list(rng.choice(candidates)))
            if not ok:
                continue
            trials += 1
            A = FinPresAb(na, [[mods_a[i] if j == i else 0 for j in range(na)] for i in range(na)])
            B = FinPresAb(nb, [[mods_b[i] if j == i else 0 for j in range(nb)] for i in range(nb)])
            C = FinPresAb(nc, [[mods_c[i] if j == i else 0 for j in range(nc)] for i in range(nc)])
            h = homology_at(AbMap(A, B, mat_f), AbMap(B, C, mat_g))
            expected = brute_homology(mods_a, mat_f, mods_b, mat_g, mods_c)
            got = tuple(d for d in h.torsion)
            assert h.rank == 0
            assert got == expected, (mods_a, mat_f, mods_b, mat_g, mods_c)


class TestTensorOverGroupRing:
    def test_regular_module_is_identity(self):
        # G = Z/2, mul table
        mul = [[0, 1], [1, 0]]
        # B = Z[G]/(x - 1): relation row (one generator): -1 + x
        rels_b = [[[-1, 1]]]
        out = tensor_over_group_ring(1, [], 1, rels_b, mul)
        # Z[G] tensor B = B = Z (the coinvariants of the regular module)
        assert out.invariants() == ((), 1)

    def test_aug_ideal_z2(self):
        mul = [[0, 1], [1, 0]]
        # g as one-generator module with relation (1 + x) e = 0
        rel = [[[1, 1]]]
        out = tensor_over_group_ring(1, rel, 1, rel, mul)
        assert out.invariants() == ((), 1)

    def test_trivial_group(self):
        mul = [[0]]
        # over Z[1] = Z the augmentation ideal is 0 = one generator killed
        rel = [[[1]]]
        out = tensor_over_group_ring(1, rel, 1, rel, mul)
        assert out.invariants() == ((), 0) or out.is_trivial()


def test_safe_matmul_big_entries():
    # one product past int64, one past float64's exact range but within int64
    for x in (2**40, 2**28):
        a = np.array([[x, 1]], dtype=np.int64)
        b = np.array([[x], [1]], dtype=np.int64)
        out = safe_matmul(a, b)
        assert int(out[0][0]) == x * x + 1


def test_invariant_factors_helper():
    t, r = invariant_factors([[2, 0, 0], [0, 3, 0]], 3)
    assert t == (6,) and r == 1
