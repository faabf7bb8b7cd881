import random
import time
from itertools import combinations
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frlimits import intlin
from frlimits.intlin import (
    AbMap,
    FinPresAb,
    Lattice,
    SparseRows,
    _block_rows,
    direct_sum,
    homology_at,
    int_block,
    lattice_intersection,
    quotient,
    safe_matmul,
    smith_diagonal,
    sparse_product,
    tensor_Z,
    tor_Z,
)

from oracles import (
    _det,
    brute_homology,
    combine_cyclic_orders,
    determinantal_invariant_factors,
    elements,
    homology_by_kernel,
    kernel_by_two_eliminations,
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
        # rows arrive in up to three add calls, each a list, an int64 array
        # or a generator of one-row blocks, so later blocks merge into an
        # existing basis
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randint(0, 9)
            rows = [as_lists([r], n)[0] if isinstance(r, dict) else r
                    for r in random_rows(rng, n, rng.randint(0, 12))]
            lat = Lattice(n)
            cuts = sorted({0, len(rows), *(rng.randint(0, len(rows)) for _ in range(2))})
            for lo, hi in zip(cuts, cuts[1:]):
                part = rows[lo:hi]
                kind = rng.randrange(3)
                if kind == 1 and all(abs(c) < 2**63 for r in as_lists(part, n) for c in r):
                    part = np.array(as_lists(part, n), dtype=np.int64).reshape(len(part), n)
                elif kind == 2:
                    part = ([r] for r in part)
                lat.add(part)
            basis, pivots = reference_hnf(rows, n)
            assert [list(map(int, r)) for r in lat.basis()] == basis, (n, rows)
            assert lat.pivot_cols.tolist() == pivots
            assert lat.rank == len(basis)
            assert lat.big == any(abs(c) >= 2**62 for r in basis for c in r)
            assert Lattice(n, rows) == lat

    def test_add_draws_rows_lazily(self):
        # add holds at most one fold of rows it has not merged, so a long
        # generator of one-row blocks never sits in memory at once
        n = 160
        step = _block_rows(n)
        assert step < n
        lat = Lattice(n)

        def units():
            for i in range(n):
                assert i + 1 - lat.rank <= step
                yield np.eye(1, n, i, dtype=np.int64)

        lat.add(units())
        assert lat.rank == n

    def test_a_stream_of_one_row_blocks_folds_as_one_block(self, monkeypatch):
        # the blocks wait in a list and are joined once per fold, so the
        # folds are the ones a single block of the same rows gets
        n = 48
        rows = np.random.default_rng(5).integers(-3, 4, size=(200, n))
        rows += 40 * np.eye(200, n, dtype=np.int64)
        folds = []
        fold = Lattice._fold
        monkeypatch.setattr(intlin, "_FOLD_ENTRIES", 4 * n)
        monkeypatch.setattr(Lattice, "_fold", lambda lat, Q: (folds.append(len(Q)), fold(lat, Q)))
        one = Lattice(n, rows)
        single, folds[:] = list(folds), []
        many = Lattice(n, (rows[i : i + 1] for i in range(len(rows))))
        assert many == one
        assert folds == single
        assert len(single) > 2 and max(single) > _block_rows(n)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_basis_is_independent_of_the_folds(self, data):
        # at least 16 rows with a leading 1 at distinct columns and random
        # tails, then dense rows; the canonical basis must not depend on
        # how the rows are cut into adds, nor on the rank // 8 fold rule,
        # which a small fold size engages once the rank reaches 16
        n = data.draw(st.integers(16, 24))
        entry = st.one_of(st.integers(-9, 9), st.sampled_from([0, 0, 0, 2**62, -(2**70)]))
        leads = data.draw(st.lists(st.integers(0, n - 1), min_size=16, unique=True))
        rows = []
        for j in leads:
            tail = data.draw(st.lists(entry, min_size=n - 1 - j, max_size=n - 1 - j))
            rows.append([0] * j + [1] + tail)
        rows += data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=2, max_size=8))
        ref, pivots = reference_hnf(rows, n)

        def check(lat):
            assert [list(map(int, r)) for r in lat.basis()] == ref
            # the lattice's own pivots, which no caller can write into
            assert lat.pivot_cols.tolist() == pivots and not lat.pivot_cols.flags.writeable
            assert lat.big == any(abs(c) >= 2**62 for r in ref for c in r)

        folds = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intlin, "_FOLD_ENTRIES", 16)
            fold = Lattice._fold
            mp.setattr(Lattice, "_fold", lambda lat, Q: (folds.append(len(Q)), fold(lat, Q)))
            one = Lattice(n, rows)
            assert max(folds) > _block_rows(n) == 1
            check(one)
            many = Lattice(n)
            shuffled = data.draw(st.permutations(rows))
            cuts = sorted(data.draw(st.sets(st.integers(0, len(rows)), max_size=6)) | {0, len(rows)})
            for lo, hi in zip(cuts, cuts[1:]):
                many.add(shuffled[lo:hi])
            check(many)
        check(Lattice(n, rows))
        assert many == one

        # any slice of rows equals those rows of the whole basis
        start = data.draw(st.integers(0, one.rank))
        stop = data.draw(st.integers(start, one.rank))
        assert np.array_equal(one.basis(start, stop), one.basis()[start:stop])

        # quotient: the columns no unit pivot takes, and the other rows cut to them
        units = [j for r, j in zip(ref, pivots) if r[j] == 1]
        free, rest = quotient(one)
        assert free.tolist() == [j for j in range(n) if j not in units]
        cut = [[r[j] for j in free] for r, p in zip(ref, pivots) if r[p] != 1]
        assert [list(map(int, r)) for r in rest.relations.basis()] == cut

        # a cut to some columns presents Z^keep / proj_keep(lattice); one
        # that drops no pivot takes the cut rows as they stand
        drop = data.draw(st.sets(st.integers(0, n - 1), max_size=4))
        if data.draw(st.booleans()):
            drop -= set(pivots)
        keep = ~np.isin(np.arange(n), list(drop))
        gens, group = quotient(one, keep)
        assert gens.tolist() == [j for j in free if keep[j]]
        kept = [[r[j] for j in range(n) if keep[j]] for r in ref]
        assert group.invariants() == FinPresAb(int(keep.sum()), kept).invariants()
        if not drop & set(pivots):
            rows = [[r[j] for j in gens] for r, p in zip(ref, pivots) if r[p] != 1]
            assert [list(map(int, r)) for r in group.relations.basis()] == rows

    def test_unit_rows_are_canonical(self):
        lat = Lattice(4, [[0, 1, 0, 0], [0, 0, 0, 1]])
        assert lat.rank == 2
        assert lat.contains([[0, 5, 0, -3]])
        assert not lat.contains([[1, 0, 0, 0]])

    def test_canonical_form_is_generator_order_independent(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 6)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(rng.randint(1, 8))]
            a = Lattice(n, rows)
            shuffled = rows[:]
            rng.shuffle(shuffled)
            b = Lattice(n, shuffled)
            assert a == b

    def test_membership_matches_span(self):
        # one block mixes integer combinations of the generators with other
        # vectors; membership is checked against the reference HNF
        rng = random.Random(3)
        seen = set()
        for _ in range(200):
            n = rng.randint(0, 9)
            rows = as_lists(random_rows(rng, n, rng.randint(0, 6)), n)
            lat = Lattice(n, rows)
            hnf = reference_hnf(rows, n)[0]
            members = []
            for _ in range(rng.randint(0, 4)):
                coeffs = [rng.randint(-3, 3) for _ in rows]
                members.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)])
            block = members + as_lists(random_rows(rng, n, rng.randint(0, 3)), n)
            rng.shuffle(block)
            inside = [reference_hnf(rows + [v], n)[0] == hnf for v in block]

            rem = lat.reduce(block)
            assert rem.shape == (len(block), n)
            # row for row, the remainders of each row reduced alone
            alone = [[int(c) for c in lat.reduce([v])[0]] for v in block]
            assert [[int(c) for c in r] for r in rem] == alone
            assert [not any(r) for r in alone] == inside
            assert lat.contains(members)
            assert lat.contains(block) == all(inside)
            for part in (members, block):
                coords = lat.coordinates(part)
                if coords is None:
                    assert not all(reference_hnf(rows + [v], n)[0] == hnf for v in part)
                    continue
                assert coords.shape == (len(part), lat.rank)
                rebuilt = [
                    [sum(int(c) * int(b[j]) for c, b in zip(cs, lat.basis())) for j in range(n)]
                    for cs in coords
                ]
                assert rebuilt == part

            # an int64 block answers exactly as the list, also in a bignum lattice
            if all(abs(c) < 2**62 for v in block for c in v):
                arr = np.array(block, dtype=np.int64).reshape(len(block), n)
                assert [[int(c) for c in r] for r in lat.reduce(arr)] == alone
                assert lat.contains(arr) == all(inside)
                seen.add((lat.big, all(inside)))
            if block and n:
                with pytest.raises(TypeError):
                    lat.contains(block[0])  # one vector is a block of one row
                # a refused add leaves the stored basis object itself alone
                stored, basis = lat._hnf, lat.basis()
                flat = [block[0]]
                if all(abs(c) < 2**63 for c in block[0]):
                    flat.append(np.array(block[0], dtype=np.int64))
                for vec in flat:
                    with pytest.raises(TypeError):
                        lat.add(vec)  # not n rows of one entry each
                assert lat._hnf is stored
                assert np.array_equal(lat.basis(), basis)
        assert seen == {(False, False), (False, True), (True, False), (True, True)}

        # zero-row blocks
        lat = Lattice(3, [[2, 0, 0], [0, 1, 1]])
        for empty in ([], np.zeros((0, 3), dtype=np.int64)):
            assert lat.reduce(empty).shape == (0, 3)
            assert lat.contains(empty)
            assert lat.coordinates(empty).shape == (0, 2)

    def test_pivots_positive_and_reduced(self):
        lat = Lattice(3, [[2, 1, 1], [0, 3, 0], [-2, 2, 0]])
        basis = lat.basis()
        piv_cols = lat.pivot_cols
        for k, j in enumerate(piv_cols):
            p = int(basis[k][j])
            assert p > 0
            for i in range(k):
                assert 0 <= int(basis[i][j]) < p

    def test_bignum_promotion(self):
        lat = Lattice(2)
        lat.add([[2**63, 1]])
        lat.add([[1, 2**70]])
        assert lat.big
        assert lat.contains([[2**63 + 1, 2**70 + 1]])
        # numpy's own reading of these lists is float64, which rounds them
        for row in ([2**63, -1], [-(2**63) - 1, 2**70]):
            lat = Lattice(2, [row])
            assert lat.big
            assert [list(map(int, r)) for r in lat.basis()] == reference_hnf([row], 2)[0]
            assert lat.contains([[3 * c for c in row]])
            assert not lat.contains([[row[0] + 1, row[1]]])

    def test_non_integer_entries_are_refused(self):
        # a float is refused, not truncated: FinPresAb(1, [[2.7]]) is not Z/2
        floats = [[[2.7]], [[0.5, 1]], [[2.0, 1]], [[2**70, 0.5]]]
        for rows in floats + [np.array(r, dtype=float) for r in floats]:
            n = len(rows[0])
            with pytest.raises(TypeError):
                Lattice(n, rows)
            with pytest.raises(TypeError):
                Lattice(n, [[1] * n]).contains(rows)
            with pytest.raises(TypeError):
                FinPresAb(n, rows)

    def test_canonical_form_is_taken_as_it_stands(self):
        # Lattice.canonical builds the lattice from a canonical basis in
        # its stored form; it must equal the eliminated lattice
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 7)
            rows = as_lists(random_rows(rng, n, rng.randint(0, 8)), n)
            if rng.random() < 0.3:
                rows += [[int(i == j) for j in range(n)] for i in rng.sample(range(n), rng.randint(1, n))]
            ref, pivots = reference_hnf(rows, n) if rows else ([], [])
            units = [p for r, p in zip(ref, pivots) if r[p] == 1]
            cols = [j for j in range(n) if j not in units]
            B = [[r[j] for j in cols] for r in ref]
            lat = Lattice.canonical(n, pivots, cols, B if ref else np.zeros((0, len(cols)), dtype=np.int64))
            assert lat == Lattice(n, rows)
            assert [list(map(int, r)) for r in lat.basis()] == ref
            assert lat.pivot_cols.tolist() == pivots

    @pytest.mark.parametrize(
        "n,piv,cols,B",
        [
            pytest.param(2, [0, 1], [0, 1], [[2, 3], [0, 2]], id="entry-above-pivot-too-large"),
            pytest.param(2, [0, 1], [0, 1], [[2, -1], [0, 2]], id="entry-above-pivot-negative"),
            pytest.param(2, [1], [0], [[1]], id="nonzero-left-of-pivot"),
            pytest.param(2, [1, 0], [], np.zeros((2, 0), dtype=np.int64), id="pivots-out-of-order"),
            pytest.param(3, [0], [1], [[0]], id="column-neither-unit-pivot-nor-in-cols"),
            pytest.param(2, [0], [0, 1], [[1, 5]], id="unit-pivot-kept-in-cols"),
            pytest.param(2, [0], [0, 1], [[-2, 1]], id="negative-pivot"),
            pytest.param(2, [0], [0, 1], [[0, 1]], id="zero-pivot"),
            pytest.param(2, [2], [0, 1], [[0, 0]], id="pivot-out-of-range"),
            pytest.param(2, [0, 1], [], np.zeros((1, 0), dtype=np.int64), id="fewer-rows-than-pivots"),
        ],
    )
    def test_canonical_refuses_a_form_that_is_not_canonical(self, n, piv, cols, B):
        with pytest.raises(ValueError):
            Lattice.canonical(n, piv, cols, B)

    def test_numpy_rows_in_bignum_lattice_stay_exact(self):
        # int64 numpy entries stored as they are in object rows would wrap
        # at 2**63 and make this vector look like a member
        lat = Lattice(3)
        lat.add([[2**64, 0, 0]])
        lat.add([np.array([0, 1, 5])])
        vec = [0, 2**61, -3 * 2**61]
        assert not lat.contains([vec])
        assert lat.coordinates([vec]) is None

    def test_reduce_and_contains_build_no_coordinates(self, monkeypatch):
        # only coordinates needs the (len(rows), rank) coefficient block
        built = []
        reduce = intlin._reduce

        def recorded(V, hnf, coeff=None):
            built.append(coeff is not None)
            return reduce(V, hnf, coeff)

        lat = Lattice(3, [[2, 1, 0], [0, 3, 1]])
        monkeypatch.setattr(intlin, "_reduce", recorded)
        assert lat.reduce([[2, 4, 1]]).tolist() == [[0, 0, 0]]
        assert lat.contains([[2, 4, 1]])
        assert built == [False, False]
        assert lat.coordinates([[2, 4, 1]]).tolist() == [[1, 1]]
        assert built == [False, False, True]

    def test_reduction_that_would_wrap_is_redone_exactly(self):
        # the unit row (1, 2**61) takes 2**61 times itself off (2**61, 0):
        # -2**122 is far outside int64
        lat = Lattice(2, [[1, 2**61]])
        assert not lat.big
        assert [int(c) for c in lat.reduce([[2**61, 0]])[0]] == [0, -(2**122)]
        assert not lat.contains([[2**61, 0]])
        assert lat.contains([[2**61, 2**122]])
        assert lat.coordinates([[2**61, 0]]) is None

    def test_non_unit_step_that_would_wrap_is_redone_exactly(self, monkeypatch):
        # the row (3, 2**61), pivot 3, takes 8 times itself off (24, 0):
        # the step's bound comes from that row's entries, and -2**64 is
        # outside int64, so the reduction raises once and is redone
        lat = Lattice(2, [[3, 2**61]])
        assert not lat.big and not lat._hnf.unit.any()
        raised, real = [], intlin._reduce

        def counted(*args):
            try:
                return real(*args)
            except intlin._Overflow:
                raised.append(1)
                raise

        monkeypatch.setattr(intlin, "_reduce", counted)
        assert [int(c) for c in lat.reduce([[24, 0]])[0]] == [0, -(2**64)]
        assert len(raised) == 1
        assert lat.contains([[24, 2**64]])

    def test_stored_form_holds_the_basis_and_nothing_derived(self):
        assert intlin._Hermite._fields == ("piv", "unit", "cols", "B")

    def test_intersection_and_sum(self):
        a = Lattice(2, [[2, 0], [0, 1]])
        b = Lattice(2, [[3, 0], [0, 1]])
        inter = lattice_intersection(a, b)
        assert inter.contains([[6, 0]]) and not inter.contains([[2, 0]]) and not inter.contains([[3, 0]])
        s = Lattice(2, [*a.basis(), *b.basis()])
        assert s.contains([[1, 0]])

    def test_intersection_random(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 4)
            a = Lattice(
                n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            )
            b = Lattice(
                n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            )
            inter = lattice_intersection(a, b)
            for r in inter.basis():
                assert a.contains([r]) and b.contains([r])
            # spot check: scaled basis vectors of a that happen to be in b
            for r in a.basis():
                for k in range(1, 5):
                    v = [k * int(c) for c in r]
                    if b.contains([v]):
                        assert inter.contains([v])
                        break


# int64 rows whose elimination crosses 2**62: the first in _echelon (3
# takes (2**60 + 1) // 3 times the row (3, 2**61) off), the second only in
# _reduce_above (2**60 times the row (0, 2, 2**61 - 1) comes off the row
# above it)
WRAPPING_ROWS = {
    "_echelon": [[3, 2**61], [2**60 + 1, 5]],
    "_reduce_above": [[1, 2**61, 0], [0, 2, 2**61 - 1]],
}


def _count_overflows(monkeypatch, names):
    """Patch the named intlin routines to count the _Overflow each raises."""
    raised = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(intlin, name)

        def counted(*args, fn=fn, name=name):
            try:
                return fn(*args)
            except intlin._Overflow:
                raised[name] += 1
                raise

        monkeypatch.setattr(intlin, name, counted)
    return raised


class TestInt64Guard:
    @pytest.mark.parametrize("where", sorted(WRAPPING_ROWS))
    def test_a_step_that_would_wrap_is_redone_with_python_ints(self, where, monkeypatch):
        rows = WRAPPING_ROWS[where]
        n = len(rows[0])
        raised = _count_overflows(monkeypatch, ["_merge", "_echelon", "_reduce_above"])
        lat = Lattice(n, np.array(rows, dtype=np.int64))
        assert raised == {"_merge": 1, "_echelon": 0, "_reduce_above": 0, where: 1}
        basis, pivots = reference_hnf(rows, n)
        assert [list(map(int, r)) for r in lat.basis()] == basis
        assert lat.pivot_cols.tolist() == pivots
        assert lat.big

    def test_a_bound_past_2_62_is_read_again_before_promoting(self, monkeypatch):
        # small entries whose running bound passes 2**62 again and again:
        # each time it is read again from the block, and no fold leaves int64
        rows = np.random.default_rng(3).integers(-3, 4, size=(100, 10))
        raised = _count_overflows(monkeypatch, ["_merge"])
        rereads = []
        reread = intlin._reread

        def recorded(*args):
            rereads.append(args[0])
            return reread(*args)

        monkeypatch.setattr(intlin, "_reread", recorded)
        lat = Lattice(10, rows)
        assert rereads
        assert raised == {"_merge": 0}
        assert not lat.big
        assert [list(map(int, r)) for r in lat.basis()] == reference_hnf(rows.tolist(), 10)[0]


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        lattice_intersection(Lattice(2), Lattice(3))
    z1, z2 = FinPresAb.free(1), FinPresAb.free(2)
    with pytest.raises(ValueError):
        AbMap.identity(z1).compose(AbMap.identity(z2))
    with pytest.raises(ValueError):
        homology_at(AbMap.zero(z1, z1), AbMap.zero(z2, z1))


def lower_kernel(rows, ncols):
    """The left kernel {x : x . M = 0} of M given by ``rows``, read off
    the span of [M | I] by ``intlin._lower``, the slice that
    ``lattice_intersection`` takes too: the vectors of the span that
    vanish on its first ncols columns are the (0, x) with x . M = 0, so
    this is one elimination and the stored form's slice."""
    M = int_block(rows, ncols)
    span = Lattice(ncols + len(M), np.concatenate([M, np.eye(len(M), dtype=np.int64)], axis=1))
    return intlin._lower(span, ncols).basis()


def test_kernel_rows_annihilate():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 6)
        rows = as_lists(random_rows(rng, n, rng.randint(1, 8)), n)
        kern = lower_kernel(rows, n)
        for x in kern:
            assert [sum(int(x[i]) * r[j] for i, r in enumerate(rows)) for j in range(n)] == [0] * n
        # the kernel of x -> xM has rank m - rank(M)
        assert len(kern) == len(rows) - len(reference_hnf(rows, n)[0])


def test_kernel_of_matrix():
    # the left kernel of a matrix, as ``_lower`` slices it off [M | I]
    rows = [[2, 4], [1, 2], [3, 6]]
    kern = lower_kernel(rows, 2)
    assert kern.shape == (2, 3)  # one 2-D block of kernel rows
    for x in kern:
        img = [sum(x[i] * rows[i][j] for i in range(3)) for j in range(2)]
        assert img == [0, 0]
    # kernel has rank 2 here (rows are all proportional)
    assert len(kern) == 2


def stored_form(lat):
    """A lattice's stored canonical form, dtypes included."""
    h = lat._hnf
    return (h.piv.tolist(), h.unit.tolist(), h.cols.tolist(), h.B.tolist(), str(h.B.dtype),
            h.B.shape)


class TestOnePassKernel:
    # lower_kernel eliminates [M | I] once and slices the kernel off the
    # stored form (``intlin._lower``); the oracle eliminates [M | I] and
    # then the cut kernel again.  Both are the canonical basis of one
    # lattice, so their stored forms are equal

    @staticmethod
    def check(M):
        n = M.shape[1]
        expected = kernel_by_two_eliminations(M, np.zeros((0, n), dtype=np.int64))
        got = lower_kernel(M, n)
        assert got.dtype == expected.basis().dtype
        assert got.tolist() == expected.basis().tolist()
        return got

    def test_random_int64_blocks(self):
        rng = np.random.default_rng(5)
        ranks = set()
        for _ in range(300):
            m, n = (int(x) for x in rng.integers(0, 7, size=2))
            M = rng.integers(-4, 5, size=(m, n)) * rng.integers(0, 2, size=(m, n))
            rank = len(self.check(M))
            ranks.add((rank > 0, rank < m))
        assert ranks == {(False, False), (True, False), (True, True), (False, True)}

    def test_kernel_of_matrix_is_the_kernel_with_no_relations(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            m, n = (int(x) for x in rng.integers(0, 6, size=2))
            assert self.check(rng.integers(-3, 4, size=(m, n))).dtype == np.int64

    def test_entries_past_int64(self, monkeypatch):
        # the elimination goes bignum; a kernel whose entries fit comes
        # back as int64, as a fresh lattice of its rows would be stored
        eliminated = []
        real_lower = intlin._lower

        def lower(lat, split):
            eliminated.append(lat.big)
            return real_lower(lat, split)

        monkeypatch.setattr(intlin, "_lower", lower)
        big = 2**63
        cases = [
            # b0 + b1 = 0 and b2 = 0: (1, -1, 0) fits
            (np.array([[big, 0], [big, 0], [0, 1]], dtype=object), False),
            # b0 + 2**62 b1 = 0: (2**62, -1) does not fit
            (np.array([[1], [2**62]], dtype=object), True),
        ]
        for M, is_big in cases:
            kernel = self.check(M)
            assert eliminated.pop() is True
            assert kernel.dtype == (object if is_big else np.int64)
        rng = random.Random(7)
        for _ in range(60):
            m, n = rng.randint(1, 5), rng.randint(1, 3)
            self.check(np.array([[rng.randint(-2, 2) * rng.choice([1, 2**62, 2**70])
                                  for _ in range(n)] for _ in range(m)], dtype=object))

    @pytest.mark.parametrize("nb,nc,nr", [(3, 0, 0), (0, 2, 1), (0, 0, 0), (3, 2, 0), (2, 3, 2)])
    def test_empty_shapes_and_the_zero_map(self, nb, nc, nr):
        # the kernel of [G; R], G zero or not, with R random
        rng = np.random.default_rng(nb * 9 + nc * 3 + nr)
        R = rng.integers(-5, 6, size=(nr, nc))
        for G in (np.zeros((nb, nc), dtype=np.int64), rng.integers(-3, 4, size=(nb, nc))):
            M = np.concatenate([G, R])
            kernel = self.check(M)
            assert kernel.shape[1] == len(M)
            if not M.any():
                # M = 0: every x is in the kernel
                assert (kernel == np.eye(len(M), dtype=np.int64)).all()

    def test_no_columns_is_the_whole_space(self):
        kernel = self.check(np.zeros((4, 0), dtype=np.int64))
        assert (kernel == np.eye(4, dtype=np.int64)).all()


def test_a_fresh_lattice_reduces_nothing(monkeypatch):
    # one fold into the empty basis: echelon form and the reduction above
    # the pivots, and no reduction modulo the (empty) basis
    def refuse(*args, **kwargs):
        raise AssertionError("_reduce called")

    monkeypatch.setattr(intlin, "_reduce", refuse)
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(1, 8)
        rows = random_rows(rng, n, rng.randint(0, 10))
        lat = Lattice(n, as_lists(rows, n))
        assert [list(map(int, r)) for r in lat.basis()] == reference_hnf(rows, n)[0]


def test_a_basis_with_no_unit_rows_takes_the_echelon_as_it_is():
    # every pivot of the basis is above 1, so the fold has no unit rows to
    # reduce modulo its echelon form
    rng = random.Random(43)
    for _ in range(150):
        n = rng.randint(1, 6)
        # upper triangular, so its canonical pivots are its diagonal
        base = [[rng.choice([2, 3, 6]) if i == j else rng.randint(0, 5) * (j > i) for j in range(n)]
                for i in range(n)]
        lat = Lattice(n, base)
        assert not lat._hnf.unit.any()
        more = as_lists(random_rows(rng, n, rng.randint(1, 4)), n)
        lat.add(more)
        assert [list(map(int, r)) for r in lat.basis()] == reference_hnf(base + more, n)[0]


class TestSmith:
    def test_diag_2_3(self):
        assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]

    def test_zero_matrix(self):
        assert not any(smith_diagonal([[0, 0], [0, 0]]))

    def test_identity(self):
        assert smith_diagonal([[1, 0], [0, 1]]) == [1, 1]

    def test_matches_determinantal_divisors(self):
        rng = random.Random(5)
        mats = []
        for _ in range(100):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            mats.append([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        # bignum entries, some scaled so that large invariant factors
        # survive, put the transposed Hermite forms in object dtype
        for _ in range(40):
            m = rng.randint(1, 4)
            n = rng.randint(1, 5)
            scale = rng.choice((1, 2**64, 6 * 2**66))
            hi = rng.choice((9, 2**70))
            mats.append(
                [[scale * rng.randint(-hi, hi) for _ in range(n)] for _ in range(m)]
            )
        for mat in mats:
            nonzero = [d for d in smith_diagonal(mat) if d]
            assert nonzero == determinantal_invariant_factors(mat), mat

    def test_wide_bignum_block_does_not_stall(self):
        # 65-bit entries; the canonical HNF keeps a 4 x 14 non-unit block,
        # on which row-and-column Euclid on Python ints ran for 40 s
        rng = random.Random(1)
        mat = [
            [rng.randint(-2**65, 2**65) if rng.random() < 0.3 else 0 for _ in range(16)]
            for _ in range(6)
        ]
        # the gcd of all 6 x 6 minors is the product of the invariant factors
        minors = 0
        for cols in combinations(range(16), 6):
            minors = gcd(minors, _det([[row[j] for j in cols] for row in mat]))
        assert minors == 1
        start = time.perf_counter()
        assert smith_diagonal(mat) == [1] * 6
        assert FinPresAb(16, mat).invariants() == ((), 10)
        assert time.perf_counter() - start < 1.0


class TestFinPresAb:
    def test_invariants_and_describe(self):
        g = FinPresAb(3, [[2, 0, 0], [0, 6, 0]])
        assert g.invariants() == ((2, 6), 1)
        assert g.describe() == "Z + Z/2 + Z/6"
        assert FinPresAb.zero().describe() == "0"
        assert FinPresAb.free(2).describe() == "Z^2"
        assert FinPresAb(2, [[2, 0], [0, 2]]).describe() == "Z/2 + Z/2"

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
                rels = Lattice(n)
                rels.add(rows)
            g = FinPresAb(n, rels)
            assert g.is_trivial() == (g.invariants() == ((), 0)), (n, rows)
            seen.add(g.is_trivial())
        assert seen == {True, False}

    def test_direct_sum(self):
        a = FinPresAb.from_invariants((2,), 1)
        b = FinPresAb.from_invariants((4,), 0)
        assert direct_sum([a, b]).invariants() == ((2, 4), 1)

    def test_direct_sum_matches_chain_oracle(self):
        rng = random.Random(41)
        for _ in range(200):
            orders = [rng.randint(2, 60) for _ in range(rng.randint(0, 6))]
            got = direct_sum([FinPresAb.cyclic(d) for d in orders])
            assert got.invariants() == (combine_cyclic_orders(orders), 0), orders

    def test_large_prime_orders(self):
        # the chains come from gcd/lcm, so no order is ever factored
        p = 2**61 - 1
        zp = FinPresAb.cyclic(p)
        cases = [
            (lambda: tensor_Z(zp, FinPresAb.free(1)), ((p,), 0)),
            (lambda: tor_Z(zp, zp), ((p,), 0)),
            (lambda: direct_sum([zp, FinPresAb.cyclic(2)]), ((2 * p,), 0)),
        ]
        for build, expected in cases:
            start = time.perf_counter()
            assert build().invariants() == expected
            assert time.perf_counter() - start < 1


class TestAbMap:
    def test_matrix_is_read_exactly(self):
        # a float matrix is refused, not kept: at float64, [[2]] after
        # [[0.5]] composed to the identity
        z, z2 = FinPresAb.free(1), FinPresAb.free(2)
        with pytest.raises(TypeError):
            AbMap(z, z, [[0.5]])
        with pytest.raises(TypeError):
            AbMap(z, z, np.array([[2.0]]))
        big = AbMap(z, z2, [[2**63, -1]])
        assert big.matrix.dtype == object and big.matrix.tolist() == [[2**63, -1]]
        assert AbMap(z, z, [[2]]).compose(AbMap(z, z, [[3]])).matrix.tolist() == [[6]]

    def test_matrix_must_fit_the_groups(self):
        z, z2 = FinPresAb.free(1), FinPresAb.free(2)
        with pytest.raises(ValueError):
            AbMap(z, z2, [[1, 0], [0, 1]])  # two rows on a rank-1 domain
        with pytest.raises(ValueError):
            AbMap(z2, z, [[1, 0], [0, 1]])  # rows of length 2 in Z^1
        with pytest.raises(TypeError):
            AbMap(z, z2, np.array([1, 0]))  # a flat vector

    def test_sums_at_the_int64_edge_are_exact(self):
        # int64 maps hold entries below 2**62, so a signed placement of two
        # (the alternate sum's form, SparseRows.placed) sums past 2**62 in
        # Python ints, and the map it makes keeps them exact
        top = 2**62 - 1
        z2 = FinPresAb.free(2)
        a = AbMap(z2, z2, [[top, -top], [0, 1]])
        b = AbMap(z2, z2, [[top, -top], [0, -1]])
        neg = AbMap(z2, z2, [[-top, top], [0, 1]])
        assert a.rows.data.dtype == np.int64 and a.matrix.dtype == np.int64

        def signed_sum(*terms):
            parts = [(0, 0, sign, m.rows) for sign, m in terms]
            return AbMap(z2, z2, SparseRows.placed((2, 2), parts))

        total = signed_sum((1, a), (1, b))
        assert total.rows.data.dtype == object and total.matrix.dtype == object
        assert total.matrix.tolist() == [[2**63 - 2, -(2**63 - 2)], [0, 0]]
        assert signed_sum((1, neg), (-1, b)).matrix.tolist() == [[-(2**63 - 2), 2**63 - 2], [0, 2]]
        assert not a.equals_as_map(neg)
        # modulo 2**63 - 2 in both coordinates, a and neg differ by relations
        mod = FinPresAb(2, [[2**63 - 2, 0], [0, 2**63 - 2]])
        assert AbMap(z2, mod, a.matrix).equals_as_map(AbMap(z2, mod, neg.matrix))
        assert not AbMap(z2, mod, a.matrix).equals_as_map(AbMap(z2, mod, b.matrix))

    def test_empty_input_is_the_zero_map(self):
        z2, zero = FinPresAb.free(2), FinPresAb.zero()
        assert AbMap(z2, zero, []).matrix.shape == (2, 0)
        assert AbMap(zero, z2, []).matrix.shape == (0, 2)
        assert AbMap(z2, zero, np.zeros((2, 0), dtype=np.int64)).equals_as_map(AbMap.zero(z2, zero))

    def test_an_empty_matrix_of_the_wrong_shape_is_refused(self):
        # only [] or an empty matrix of the map's own shape is the zero
        # map: 0 rows on a rank-3 domain are refused, float ones as floats
        z3, z2 = FinPresAb.free(3), FinPresAb.free(2)
        with pytest.raises(ValueError, match="0 rows for a domain of rank 3"):
            AbMap(z3, z2, np.zeros((0, 2), dtype=np.int64))
        with pytest.raises(TypeError):
            AbMap(z3, z2, np.zeros((0, 2)))
        with pytest.raises(ValueError):
            AbMap(z3, FinPresAb.zero(), np.zeros((2, 0), dtype=np.int64))
        assert AbMap(z3, FinPresAb.zero(), np.zeros((3, 0))).matrix.shape == (3, 0)


def test_from_invariants_stores_the_diagonal_as_it_stands():
    # the rows d_i·e_i are canonical, so the stored form is the one an
    # elimination of them gives, int64 or not; an order <= 1 is refused
    for torsion, rank in (((), 0), ((), 3), ((2,), 0), ((2, 6, 12), 2), ((2**63, 2**70), 1)):
        n = len(torsion) + rank
        group = FinPresAb.from_invariants(torsion, rank)
        rows = [[d if i == j else 0 for j in range(n)] for i, d in enumerate(torsion)]
        assert stored_form(group.relations) == stored_form(Lattice(n, rows))
        assert group.invariants() == (torsion, rank)
    for torsion in ((1,), (2, 0), (-2,)):
        with pytest.raises(ValueError):
            FinPresAb.from_invariants(torsion, 1)


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


def _padded(n, rels, rng):
    """Z^n / rels on n + k generators: each new generator is eliminated by
    the unit relation e_p - x_p, x_p a random combination of the old
    ones, and the n + k columns are shuffled.  Returns (ngens, relation
    rows, embed, X, perm): embed takes a vector on the old generators to
    the new ones, old generator i is new generator perm[i], and new
    generator perm[n + p] is the class of the combination X[p]."""
    k = rng.randint(1, 4)
    X = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
    perm = list(range(n + k))
    rng.shuffle(perm)

    def embed(v):
        out = [0] * (n + k)
        for c, x in enumerate(v):
            out[perm[c]] = int(x)
        return out

    units = []
    for p, x in enumerate(X):
        row = embed([-c for c in x])
        row[perm[n + p]] = 1
        units.append(row)
    return n + k, [embed(r) for r in rels] + units, embed, X, perm


def _random_complex(rng, big=1):
    """(na, nb, nc, rel_B, rel_C, f, g): a random complex A --f--> B --g-->
    C with A = Z^na, B = Z^nb / rel_B and C = Z^nc / rel_C, with free and
    torsion parts.  R_B and the rows of f are combinations of the lattice
    ker(g) = {b : b g in R_C}, so g is well defined and g o f = 0.  Every
    entry of g and of rel_C is a small number, times ``big`` for some."""
    na, nb, nc = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 3)

    def rand_rows(count, width, hi=4):
        return [[rng.randint(-hi, hi) * rng.choice([1, big]) for _ in range(width)]
                for _ in range(count)]

    g = rand_rows(nb, nc, 3)
    rel_C = rand_rows(rng.randint(0, nc), nc)
    K = kernel_by_two_eliminations(np.array(g, dtype=object).reshape(nb, nc),
                                   np.array(rel_C, dtype=object).reshape(-1, nc)).basis().tolist()

    def combos(count):
        return [
            [sum(c * int(row[i]) for c, row in zip(coef, K)) for i in range(nb)]
            for coef in [[rng.randint(-3, 3) for _ in K] for _ in range(count)]
        ]

    return na, nb, nc, combos(rng.randint(0, nb)), rel_C, combos(na), g


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

    def test_the_middle_group_must_be_presented_alike(self):
        # f: 0 -> Z/2 and g: Z -> 0 meet in a group of rank 1, presented
        # as Z/2 on one side and Z on the other; either answer would be
        # one of two presentations, so neither is given
        z, z2, zero = FinPresAb.free(1), FinPresAb.cyclic(2), FinPresAb.zero()
        for middle_f, middle_g in ((z2, z), (z, z2)):
            with pytest.raises(ValueError, match="presented"):
                homology_at(AbMap.zero(zero, middle_f), AbMap.zero(middle_g, zero))
        # equal lattices in two objects are one presentation
        assert homology_at(AbMap.zero(zero, z2), AbMap.zero(FinPresAb.cyclic(2), zero)).invariants() == ((2,), 0)

    def test_matches_the_kernel_oracle_past_int64(self):
        # the random complexes of test_padding_leaves_homology_alone, with
        # g, R_C and the combinations scaled past 2**62: the coordinate
        # solves, the cone and its Smith form go bignum
        rng = random.Random(29)
        outcomes = set()
        for trial in range(80):
            na, nb, nc, rel_B, rel_C, f, g = _random_complex(rng, big=rng.choice([2**62, 2**70]))
            A, B, C = FinPresAb.free(na), FinPresAb(nb, rel_B), FinPresAb(nc, rel_C)
            maps = AbMap(A, B, f), AbMap(B, C, g)
            got = homology_at(*maps).invariants()
            assert got == homology_by_kernel(*maps).invariants(), trial
            outcomes.add((bool(got[0]), bool(got[1])))
        assert len(outcomes) >= 3

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
            assert h.invariants() == homology_by_kernel(AbMap(A, B, mat_f), AbMap(B, C, mat_g)).invariants()
            got = tuple(d for d in h.torsion)
            assert h.rank == 0
            assert got == expected, (mods_a, mat_f, mods_b, mat_g, mods_c)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_padding_leaves_homology_alone(self, data):
        # a random complex A --f--> B --g--> C with free and torsion parts:
        # R_B and the rows of f are combinations of the lattice ker(g) =
        # {b : b g in R_C}, so g is well defined and g o f = 0.  B and C are
        # then presented on extra generators that unit relations eliminate,
        # f and g are carried through, and the homology must not change.
        rng = data.draw(st.randoms(use_true_random=False))
        na, nb, nc, rel_B, rel_C, f, g = _random_complex(rng)
        A, B, C = FinPresAb.free(na), FinPresAb(nb, rel_B), FinPresAb(nc, rel_C)
        plain = homology_at(AbMap(A, B, f), AbMap(B, C, g))
        assert plain.invariants() == homology_by_kernel(AbMap(A, B, f), AbMap(B, C, g)).invariants()

        nb2, rel_B2, embed_B, X_B, perm_B = _padded(nb, rel_B, rng)
        nc2, rel_C2, embed_C, _, _ = _padded(nc, rel_C, rng)
        B2, C2 = FinPresAb(nb2, rel_B2), FinPresAb(nc2, rel_C2)
        # f's images, moved by random multiples of B2's unit relations
        units_B = rel_B2[len(rel_B):]
        f2 = []
        for row in f:
            out = embed_B(row)
            for u in units_B:
                c = rng.randint(-2, 2)
                out = [a + c * b for a, b in zip(out, u)]
            f2.append(out)
        # g on the old generators, and on a new one through its x_p
        g_old = [embed_C(row) for row in g]
        g2 = [None] * nb2
        for i in range(nb):
            g2[perm_B[i]] = g_old[i]
        for p, x in enumerate(X_B):
            g2[perm_B[nb + p]] = [sum(c * r[j] for c, r in zip(x, g_old)) for j in range(nc2)]
        padded = homology_at(AbMap(A, B2, f2), AbMap(B2, C2, g2))
        assert padded.invariants() == plain.invariants()


def test_safe_matmul_big_entries():
    # one product past int64, one past float64's exact range but within int64
    for x in (2**40, 2**28):
        a = np.array([[x, 1]], dtype=np.int64)
        b = np.array([[x], [1]], dtype=np.int64)
        out = safe_matmul(a, b)
        assert int(out[0][0]) == x * x + 1


def dense_of(S):
    out = np.zeros(S.shape, dtype=object)
    out[S.row, S.col] = S.data
    return out


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(0, 6), st.integers(0, 5), st.integers(0, 6)),
    big=st.sampled_from([0, 2**31, 2**32, 2**62, 2**70]),
)
def test_sparse_product_is_the_exact_product_of_two_matrices(seed, shape, big):
    # against the product of Python ints; big puts one entry of that size
    # in each factor: their product fits int64 at 2**31, not at 2**32
    rng = np.random.default_rng(seed)
    m, inner, n = shape

    def factor(m, n):
        return (rng.integers(-3, 4, size=(m, n)) * (rng.random((m, n)) < 0.4)).astype(object)

    a, b = factor(m, inner), factor(inner, n)
    if big and inner:
        a[:, 0] = big
        b[0] = big
    P = sparse_product(SparseRows.of(intlin.int_block(a, inner)), SparseRows.of(intlin.int_block(b, n)))
    expected = a @ b
    assert P.shape == expected.shape
    assert (dense_of(P) == expected).all()
    assert (P.data != 0).all()
    assert P.indptr.tolist() == np.searchsorted(P.row, np.arange(P.shape[0] + 1)).tolist()
    assert sorted(zip(P.row.tolist(), P.col.tolist())) == list(zip(P.row.tolist(), P.col.tolist()))


def test_placed_parts_are_shifted_signed_and_summed():
    # A at (0, 0), -B at (1, 2), A again at (1, 1), where it overlaps
    # the first A at (1, 1) and -B at (1, 2), and -C, which cancels the
    # first A's entry at (0, 0)
    A = np.array([[2, 3], [0, 5]], dtype=np.int64)
    B = np.array([[1, -1]], dtype=np.int64)
    C = np.array([[2]], dtype=np.int64)
    parts = [(0, 0, 1, A), (1, 2, -1, B), (1, 1, 1, A), (0, 0, -1, C)]
    P = SparseRows.placed((3, 4), [(r, c, sign, SparseRows.of(M)) for r, c, sign, M in parts])
    expected = np.zeros((3, 4), dtype=np.int64)
    for r, c, sign, M in parts:
        expected[r : r + len(M), c : c + M.shape[1]] += sign * M
    assert P.shape == (3, 4)
    assert dense_of(P).tolist() == expected.tolist()
    assert (P.data != 0).all() and P.data.dtype == np.int64
    assert P.indptr.tolist() == np.searchsorted(P.row, np.arange(4)).tolist()
    # a part of Python ints: its entries stay exact, and fit int64 again
    # once they cancel
    huge = SparseRows.of(np.array([[2**70]], dtype=object))
    assert SparseRows.placed((1, 2), [(0, 1, -1, huge)]).data.tolist() == [-(2**70)]
    cancel = SparseRows.placed((1, 1), [(0, 0, 1, huge), (0, 0, -1, huge), (0, 0, 1, SparseRows.of(C))])
    assert cancel.data.dtype == np.int64 and cancel.data.tolist() == [2]


def test_sparse_sums_leave_int64_only_when_they_must():
    # three entries of 2**61 at one place sum past 2**62; -2**62 + 1 and
    # 2**62 - 1 cancel; an int64 sum that fits stays int64
    S = SparseRows.summed(
        (2, 2),
        np.array([0, 0, 0, 1, 1]),
        np.array([0, 0, 0, 1, 1]),
        np.array([2**61, 2**61, 2**61, -(2**62) + 1, 2**62 - 1], dtype=np.int64),
    )
    assert S.data.dtype == object and S.data.tolist() == [3 * 2**61]
    assert (S.row.tolist(), S.col.tolist(), S.indptr.tolist()) == ([0], [0], [0, 1, 1])
    fits = SparseRows.summed((1, 3), np.array([0, 0]), np.array([2, 2]), np.array([5, -2]))
    assert fits.data.dtype == np.int64 and fits.data.tolist() == [3]


def test_sparse_rows_of_a_matrix_and_back():
    M = np.array([[0, 2, 0], [0, 0, 0], [-1, 0, 3]], dtype=np.int64)
    S = SparseRows.of(M)
    assert S.indptr.tolist() == [0, 1, 1, 3]
    rows, block = S.nonzero_rows()
    assert rows.tolist() == [0, 2]
    assert block.tolist() == [[0, 2, 0], [-1, 0, 3]]


def test_sparse_product_refuses_factors_that_do_not_chain():
    a = SparseRows.of(np.eye(2, dtype=np.int64))
    b = SparseRows.of(np.eye(3, dtype=np.int64))
    with pytest.raises(ValueError, match="inner dimensions 2 and 3"):
        sparse_product(a, b)
