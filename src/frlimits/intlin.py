"""Exact integer linear algebra.

Hermite-form row lattices that take rows in blocks and keep their basis
canonical after every call (each block is eliminated into the basis at
once, unit pivots first; there is no queue) and are queried in blocks (one
reduction answers membership and coordinates for a whole block of rows),
one kernel primitive built on them (left kernels, lattice
intersection, kernels of presented maps), the Smith invariant-factor
diagonal read off the canonical basis, finitely presented abelian groups,
maps between them, tensor/Tor over Z, tensor over a finite group ring, and
homology of three-term complexes of presented groups.

Everything is exact.  Matrices are kept as int64 numpy arrays while entry
bounds allow it and promoted to arbitrary-precision (object dtype) arrays
whenever an operation could overflow; a lattice basis whose entries fit is
stored as int64 again.  Products whose partial sums stay below 2**53 run
in float64, which is exact there.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, islice
from math import gcd, prod
from typing import NamedTuple

import numpy as np

# int64 arithmetic is used only while |result| stays below this bound.
_I64_SAFE = 2**62

# float64 products are exact while every partial sum stays below this bound.
_F64_EXACT = 2**53

# Row and column block of the float64 path of _product.
_MATMUL_BLOCK = 128

# Lattice.add draws and eliminates rows into the basis in blocks of this
# many entries (rows times width), and basis rows are stacked for products
# in blocks of the same size.  Every temporary of a fold is a few such
# blocks; larger blocks mean fewer folds but a higher peak memory.
_FOLD_ENTRIES = 2**14


def _block_rows(width):
    return max(1, _FOLD_ENTRIES // max(width, 1))


class _Overflow(Exception):
    """An int64 step could leave the safe range; redo it with Python ints."""


def _maxabs(a):
    """Largest |entry| of an integer array as a Python int (max and min,
    so no full-size temporary of np.abs)."""
    if a.size == 0:
        return 0
    return max(-int(a.min()), int(a.max()))


def _frozen(a):
    a.flags.writeable = False
    return a


def _stack(arrays, width, dtype):
    """Equal-length 1-D arrays as the rows of one 2-D array."""
    return np.array(arrays, dtype=dtype).reshape(len(arrays), width)


def _put(block, i, vec):
    """Write vec (dict column -> entry, sequence or 1-D array) into row i of
    block and return the block: int64 while every |entry| < _I64_SAFE, else
    promoted to object with exact Python ints (int(c): a numpy scalar in an
    object array would wrap at 2**63).  A row of another length is refused:
    a scalar or a short row would broadcast across row i."""
    if not isinstance(vec, dict) and len(vec) != block.shape[1]:
        raise ValueError(f"a row of length {len(vec)} in Z^{block.shape[1]}")
    if block.dtype != object:
        try:
            if isinstance(vec, dict):
                if vec:
                    block[i, list(vec)] = list(vec.values())
            else:
                block[i] = vec
            if _maxabs(block[i]) < _I64_SAFE:
                return block
        except OverflowError:
            pass
        block = block.astype(object)
    for j, c in vec.items() if isinstance(vec, dict) else enumerate(vec):
        block[i, j] = int(c)
    return block


def int_block(rows, n):
    """A block of rows in Z^n (a 2-D array, or a list of dicts column ->
    entry, sequences or 1-D arrays) as one exact (len(rows), n) array:
    int64 while every |entry| < 2**62, else Python ints."""
    if (
        isinstance(rows, np.ndarray)
        and rows.dtype == np.int64
        and rows.shape[1:] == (n,)
        and _maxabs(rows) < _I64_SAFE
    ):
        return rows
    block = np.zeros((len(rows), n), dtype=np.int64)
    for i, vec in enumerate(rows):
        block = _put(block, i, vec)
    return block


def _product(a, b, bound):
    """a @ b exactly, given bound >= every |partial sum|: float64 (BLAS,
    exact below 2**53) in blocks, so its copies stay small; int64 below
    _I64_SAFE; Python ints otherwise."""
    if a.dtype == np.int64 and b.dtype == np.int64:
        if bound < _F64_EXACT:
            out = np.empty((a.shape[0], b.shape[1]), dtype=np.int64)
            for c in range(0, b.shape[1], _MATMUL_BLOCK):
                bf = b[:, c : c + _MATMUL_BLOCK].astype(np.float64)
                for r in range(0, a.shape[0], _MATMUL_BLOCK):
                    out[r : r + _MATMUL_BLOCK, c : c + _MATMUL_BLOCK] = (
                        a[r : r + _MATMUL_BLOCK].astype(np.float64) @ bf
                    )
            return out
        if bound < _I64_SAFE:
            return a @ b
    return a.astype(object) @ b.astype(object)


def _submul(A, rows, q, head):
    """A[rows] -= outer(q, head) in place; returns the new A[rows].  Raises
    _Overflow instead of taking an int64 step that could overflow."""
    block = A[rows]
    if A.dtype != object and _maxabs(q) * _maxabs(head) + _maxabs(block) >= _I64_SAFE:
        raise _Overflow
    block -= np.outer(q, head)
    A[rows] = block
    return block


def _echelon(W):
    """Bring W to row echelon form in place by unimodular row operations.

    Column by column, the live row whose entry has the least absolute value
    reduces the others' entries to remainders until one nonzero entry is
    left, so a unit pivot clears its column in one step.  Returns (t, cols):
    W[:t] are the echelon rows, row e with a positive pivot at column
    cols[e], and W[t:] is zero.
    """
    m = len(W)
    t = 0
    cols = []
    for j in np.flatnonzero(W.any(axis=0)).tolist():
        if t == m:
            break
        live = np.flatnonzero(W[t:, j]) + t
        if not len(live):
            continue
        while len(live) > 1:
            vals = W[live, j]
            i = int(np.argmin(np.abs(vals)))
            rest = np.delete(live, i)
            block = _submul(W[:, j:], rest, np.delete(vals, i) // vals[i], W[live[i], j:])
            live = np.concatenate((live[i : i + 1], rest[block[:, 0] != 0]))
        p = live[0]
        if p != t:
            W[[t, p]] = W[[p, t]]
        if W[t, j] < 0:
            W[t, j:] = -W[t, j:]
        cols.append(j)
        t += 1
    return t, cols


def _reduce_above(E, cols):
    """E are echelon rows with pivots at cols; bring every entry above a
    pivot into [0, pivot).  Pivots go left to right, and each step changes
    only columns right of its own pivot."""
    for e, j in enumerate(cols):
        q = E[:e, j] // E[e, j]
        hit = np.flatnonzero(q)
        if len(hit):
            _submul(E[:, j:], hit, q[hit], E[e, j:])


class _Hermite(NamedTuple):
    """A basis in canonical Hermite form: its rows by pivot column, the
    pivot columns, whether each pivot is 1, and each row's largest |entry|."""

    rows: list
    piv: np.ndarray
    unit: np.ndarray
    height: np.ndarray


def _heights(M):
    return np.abs(M).max(axis=1)


def _minus_combination(v, coeff, hnf, idx):
    """v - coeff @ [hnf.rows[i] for i in idx], exactly, stacking at most
    _block_rows of those rows at a time.  Raises _Overflow instead of an
    int64 step that could overflow."""
    bound = _maxabs(coeff) * int(hnf.height[idx].max()) * len(idx)
    if v.dtype != object and _maxabs(v) + bound >= _I64_SAFE:
        raise _Overflow
    step = _block_rows(v.shape[1])
    for s in range(0, len(idx), step):
        part = _stack([hnf.rows[i] for i in idx[s : s + step]], v.shape[1], v.dtype)
        v = v - _product(coeff[:, s : s + step], part, bound)
    return v


def _reduce(V, hnf, coeff=None):
    """Reduce the rows of V modulo the canonical basis hnf.  Returns R with
    every entry at a pivot column in [0, pivot) and V - R in the lattice;
    V itself is left as it is.  Given an array coeff of shape
    (len(V), len(hnf.rows)), the coefficients are written into it, so that
    V = coeff @ rows + R.

    A unit pivot's column is zero outside its row, so the coefficients of
    unit rows are V's own entries there and one product takes them all
    off.  The other rows vanish on unit-pivot columns and follow left to
    right, skipping ahead to the next pivot column where V is nonzero; a
    running bound on |V| keeps the steps in int64 while it is safe.
    """
    rows, piv, unit, height = hnf
    U = np.flatnonzero(unit)
    c = V[:, piv[U]]
    used = np.flatnonzero(c.any(axis=0))
    if len(used):
        if coeff is not None:
            coeff[:, U[used]] = c[:, used]
        V = _minus_combination(V, c[:, used], hnf, U[used])
    else:
        V = V.copy()
    N = np.flatnonzero(~unit)
    cols = piv[N]
    top = _maxabs(V)
    i = 0
    while i < len(N):
        ahead = np.flatnonzero(V[:, cols[i:]].any(axis=0))
        if not len(ahead):
            break
        i += int(ahead[0])
        k, j = int(N[i]), int(cols[i])
        p = int(rows[k][j])
        q = V[:, j] // p
        hit = np.flatnonzero(q)
        if len(hit):
            bound = top + (top // p + 1) * int(height[k])
            if V.dtype != object and bound >= _I64_SAFE:
                top = _maxabs(V)
                bound = top + (top // p + 1) * int(height[k])
                if bound >= _I64_SAFE:
                    raise _Overflow
            V[hit] -= np.outer(q[hit], rows[k])
            if coeff is not None:
                coeff[hit, k] = q[hit]
            top = bound
        i += 1
    return V


def _merge(hnf, Q):
    """The canonical basis of the lattice spanned by hnf and the rows of Q,
    or None if Q adds nothing.

    Q is first reduced modulo hnf, which clears its unit-pivot columns.  On
    the other columns C, the non-unit rows and what is left of Q are
    brought to echelon form and reduced above their pivots; then the unit
    rows with an entry at one of the new pivots are reduced modulo them.
    Rows that do not change are kept, not copied.
    """
    rows, piv, unit, height = hnf
    n = Q.shape[1]
    Q = _reduce(Q, hnf)
    U = np.flatnonzero(unit)
    keep = np.ones(n, dtype=bool)
    keep[piv[U]] = False
    C = np.flatnonzero(keep)
    Q = Q[:, C]
    Q = Q[Q.any(axis=1)]
    if not len(Q):
        return None
    N = np.flatnonzero(~unit)
    W = np.concatenate([_stack([rows[k][C] for k in N], len(C), Q.dtype), Q])
    t, cols = _echelon(W)
    E = W[:t]
    _reduce_above(E, cols)
    cols = np.array(cols, dtype=np.intp)
    echelon = _Hermite(E, cols, E[np.arange(t), cols] == 1, _heights(E))
    P = C[cols]
    at = _stack([rows[k][P] for k in U], t, Q.dtype)
    touched = U[at.any(axis=1)]
    new = {}
    unit_height = height[U]
    step = _block_rows(len(C))
    for s in range(0, len(touched), step):
        part = touched[s : s + step]
        X = _reduce(_stack([rows[k][C] for k in part], len(C), Q.dtype), echelon)
        # a unit row's only entry outside C is its pivot 1
        unit_height[np.searchsorted(U, part)] = np.maximum(_heights(X), 1)
        for k, x in zip(part.tolist(), X):
            row = rows[k].copy()
            row[C] = x
            new[k] = _frozen(row)
    out = [new.get(k, rows[k]) for k in U.tolist()]
    for e in E:
        row = np.zeros(n, dtype=Q.dtype)
        row[C] = e
        out.append(_frozen(row))
    out_piv = np.concatenate((piv[U], P))
    order = np.argsort(out_piv)
    return _Hermite(
        [out[i] for i in order.tolist()],
        out_piv[order],
        np.concatenate((np.ones(len(U), dtype=bool), echelon.unit))[order],
        np.concatenate((unit_height, echelon.height))[order],
    )


def _is_big(hnf):
    return bool(hnf.rows) and hnf.rows[0].dtype == object


def _with_dtype(hnf, dtype):
    return hnf._replace(
        rows=[_frozen(r.astype(dtype)) for r in hnf.rows], height=hnf.height.astype(dtype)
    )


class Lattice:
    """A sublattice of Z^n with a row basis in canonical Hermite form.

    ``Lattice(n, rows)`` and ``add(rows)`` take a block of rows: a 2-D
    array, or any iterable of rows (dicts column -> entry, sequences or
    1-D arrays), generators included.  The rows are drawn and eliminated
    into the basis ``_block_rows(n)`` at a time (``_merge``): one exact
    product clears the unit-pivot columns, column-by-column Euclid handles
    what is left, and the entries above each new pivot are reduced into
    [0, pivot).  There is no queue: after every call the basis is the
    canonical one, which is unique, so lattice equality is basis equality.

    ``reduce``, ``contains`` and ``coordinates`` take a block of rows (a
    2-D array or a list of rows; ``[]`` is zero rows) and answer for the
    whole block with one reduction modulo the basis.

    Entries are int64 while every step provably stays below 2**62.  A fold
    that could overflow is redone with Python ints (object dtype), and a
    basis whose entries all fit is stored as int64 again, so ``big`` says
    whether the canonical basis itself needs bignums.
    """

    __slots__ = ("n", "_hnf")

    # the basis is always canonical; bench/layertrace.py still reads this
    _canonical = True

    def __init__(self, n, rows=()):
        self.n = n
        self._hnf = _Hermite(
            [], np.zeros(0, dtype=np.intp), np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
        )
        self.add(rows)

    def add(self, rows):
        """Eliminate a block of rows into the basis.  A flat vector is
        refused, not read as a block of scalar rows."""
        step = _block_rows(self.n)
        if isinstance(rows, np.ndarray):
            blocks = (rows[s : s + step] for s in range(0, len(rows), step))
        else:
            rows = iter(rows)
            blocks = iter(lambda: list(islice(rows, step)), [])
        for Q in blocks:
            self._fold(int_block(Q, self.n))

    def _fold(self, Q):
        hnf = self._hnf
        if _is_big(hnf) or Q.dtype == object:
            hnf, Q = _with_dtype(hnf, object), Q.astype(object)
        try:
            merged = _merge(hnf, Q)
        except _Overflow:
            merged = _merge(_with_dtype(hnf, object), Q.astype(object))
        if merged is not None:
            if _is_big(merged) and merged.height.max() < _I64_SAFE:
                merged = _with_dtype(merged, np.int64)
            self._hnf = merged

    def canonicalize(self):
        # a no-op kept for bench/layertrace.py, which wraps it by name
        return self

    # -- the canonical basis ------------------------------------------------

    @property
    def rank(self):
        return len(self._hnf.rows)

    @property
    def big(self):
        """True when the canonical basis holds entries of 2**62 or more."""
        return _is_big(self._hnf)

    @property
    def pivot_cols(self):
        """Pivot column of each basis row, increasing."""
        return self._hnf.piv.tolist()

    def basis(self):
        """The canonical basis: read-only row arrays, by pivot column."""
        return self._hnf.rows

    # -- membership and coordinates --------------------------------------

    def _solve(self, rows):
        """(C, R) for a block of rows V: V = C @ basis + R exactly, with
        every entry of R at a pivot column in [0, pivot)."""
        hnf = self._hnf
        V = int_block(rows, self.n)
        if _is_big(hnf):
            V = V.astype(object)
        try:
            coeff = np.zeros((len(V), len(hnf.rows)), dtype=V.dtype)
            return coeff, _reduce(V, hnf, coeff)
        except _Overflow:
            coeff = np.zeros((len(V), len(hnf.rows)), dtype=object)
            return coeff, _reduce(V.astype(object), hnf, coeff)

    def reduce(self, rows):
        """The canonical representatives of a block of rows modulo the
        lattice: every entry at a pivot column lies in [0, pivot)."""
        return self._solve(rows)[1]

    def contains(self, rows):
        """True iff every row of the block lies in the lattice."""
        return not self.reduce(rows).any()

    def coordinates(self, rows):
        """The block of rows in the canonical basis, as a (len(rows), rank)
        array C with rows = C @ basis; None if any row lies outside."""
        coeff, rem = self._solve(rows)
        return None if rem.any() else coeff

    def __eq__(self, other):
        if not isinstance(other, Lattice) or self.n != other.n:
            return NotImplemented
        a = self.basis()
        b = other.basis()
        return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))

    def __hash__(self):
        raise TypeError("Lattice is unhashable (mutable)")

    def __repr__(self):
        return f"Lattice(n={self.n}, rank={self.rank})"


def _lower_block(rows, split, width):
    """Rows of the canonical HNF of `rows` (vectors in Z^width) whose pivot
    lies at column `split` or later, restricted to those columns.

    They are a basis, itself in canonical HNF, of the vectors of the row
    lattice whose first `split` entries are zero.
    """
    lat = Lattice(width, rows)
    lower = lat.basis()[bisect_left(lat.pivot_cols, split) :]
    del lat  # frees the upper rows before the copy below
    if not lower:
        return []
    # one compact copy, so the result does not keep the full rows alive
    return list(_stack([r[split:] for r in lower], width - split, lower[0].dtype))


def kernel_of_matrix(rows, ncols):
    """Basis of the left kernel {x : x . M = 0} for M given by `rows`."""
    m = len(rows)
    aug = ([*r, *(0,) * i, 1, *(0,) * (m - 1 - i)] for i, r in enumerate(rows))
    return _lower_block(aug, ncols, ncols + m)


def lattice_intersection(a, b):
    """Intersection of two lattices in the same ambient Z^n (Zassenhaus:
    the rows (x, x) for x in A and (y, 0) for y in B span the vectors
    (x + y, x), and those with x + y = 0 are exactly (0, A n B))."""
    if a.n != b.n:
        raise ValueError(f"lattice_intersection: ambient ranks {a.n} and {b.n} differ")
    rows = chain(
        (np.concatenate([r, r]) for r in a.basis()),
        (np.concatenate([r, 0 * r]) for r in b.basis()),
    )
    return Lattice(a.n, _lower_block(rows, a.n, 2 * a.n))


# -- Smith normal form -------------------------------------------------------


def _snf_core(mat):
    """Invariant-factor diagonal of a dense list-of-lists integer matrix,
    diagonalized in place."""
    m = len(mat)
    n = len(mat[0]) if m else 0

    def swap_rows(i, j):
        if i != j:
            mat[i], mat[j] = mat[j], mat[i]

    def swap_cols(i, j):
        if i != j:
            for r in mat:
                r[i], r[j] = r[j], r[i]

    def addmul_row(dst, src, q):
        if q:
            rd, rs = mat[dst], mat[src]
            for k in range(n):
                rd[k] += q * rs[k]

    def addmul_col(dst, src, q):
        if q:
            for r in mat:
                r[dst] += q * r[src]

    t = 0
    while t < min(m, n):
        # find smallest nonzero entry in the remaining block
        best = None
        for i in range(t, m):
            row = mat[i]
            for j in range(t, n):
                v = row[j]
                if v:
                    if best is None or abs(v) < best[0]:
                        best = (abs(v), i, j)
                        if abs(v) == 1:
                            break
            if best and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        swap_rows(t, bi)
        swap_cols(t, bj)
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                v = mat[i][t]
                if v:
                    q = v // mat[t][t]
                    addmul_row(i, t, -q)
                    if mat[i][t]:
                        # remainder became the smaller pivot
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, n):
                v = mat[t][j]
                if v:
                    q = v // mat[t][t]
                    addmul_col(j, t, -q)
                    if mat[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        t += 1

    # a finished row is zero off the diagonal, so only the pivot's sign is left
    return _divisor_chain([abs(mat[i][i]) for i in range(min(m, n))])


def _divisor_chain(orders):
    """Rewrite a list of cyclic orders in place as d1 | d2 | ..., zeros
    (infinite cyclic) last, by Z/a + Z/b = Z/gcd + Z/lcm; no order is
    factored."""
    k = len(orders)
    for i in range(k):
        for j in range(i + 1, k):
            a, b = orders[i], orders[j]
            if a and b % a != 0:
                g = gcd(a, b)
                orders[i], orders[j] = g, a // g * b
            elif a == 0 and b != 0:
                orders[i], orders[j] = b, 0
    return orders


def _smith(lat):
    """The nonzero invariant factors of a lattice's canonical basis.

    A unit pivot's column is zero outside its row, so each unit row splits
    off as a trivial summand; the Smith core runs on the other rows,
    restricted to the columns without a unit pivot.
    """
    rows, piv, unit, _ = lat._hnf
    rest = np.ones(lat.n, dtype=bool)
    rest[piv[unit]] = False
    core = [[int(c) for c in rows[k][rest]] for k in np.flatnonzero(~unit).tolist()]
    return [1] * int(unit.sum()) + _snf_core(core)


def smith_diagonal(matrix):
    """The nonzero invariant factors of an integer matrix, from the
    canonical HNF of its rows."""
    rows = list(matrix)
    return _smith(Lattice(len(rows[0]), rows)) if rows else []


def invariant_factors(matrix, ngens):
    """(torsion_factors, free_rank) of Z^ngens / rowspace(matrix)."""
    return FinPresAb(ngens, matrix).invariants()


# -- finitely presented abelian groups ---------------------------------------


class FinPresAb:
    """A finitely generated abelian group Z^ngens / relations.

    Groups are compared only by invariant factors and free rank (abstract
    isomorphism); the presentation is kept so elements and maps can be
    manipulated in the original coordinates.
    """

    __slots__ = ("ngens", "relations", "_inv")

    def __init__(self, ngens, relations=None):
        self.ngens = ngens
        if isinstance(relations, Lattice):
            self.relations = relations
        else:
            self.relations = Lattice(ngens, [] if relations is None else relations)
        self._inv = None

    @classmethod
    def free(cls, rank):
        return cls(rank, [])

    @classmethod
    def zero(cls):
        return cls(0, [])

    @classmethod
    def cyclic(cls, m):
        return cls(1, [[m]])

    @classmethod
    def from_invariants(cls, torsion, rank):
        n = len(torsion) + rank
        rels = []
        for i, d in enumerate(torsion):
            row = [0] * n
            row[i] = d
            rels.append(row)
        return cls(n, rels)

    def invariants(self):
        """(torsion_factors d1 | d2 | ..., free_rank)."""
        if self._inv is None:
            nz = _smith(self.relations)
            self._inv = tuple(d for d in nz if d > 1), self.ngens - len(nz)
        return self._inv

    @property
    def torsion(self):
        return self.invariants()[0]

    @property
    def rank(self):
        return self.invariants()[1]

    def is_trivial(self):
        """Z^n / L is trivial iff L has rank n and every HNF pivot is 1;
        pivots of an echelon basis depend only on L, so no SNF is needed."""
        rel = self.relations
        return rel.rank == self.ngens and all(
            row[j] == 1 for row, j in zip(rel.basis(), rel.pivot_cols)
        )

    def order(self):
        """Group order, or None if infinite."""
        t, r = self.invariants()
        if r:
            return None
        return prod(t) if t else 1

    def iso_eq(self, other):
        return self.invariants() == other.invariants()

    def describe(self):
        """Serialize as e.g. 'Z^2 + Z/2 + Z/6', '0' for the trivial group."""
        t, r = self.invariants()
        parts = []
        if r == 1:
            parts.append("Z")
        elif r > 1:
            parts.append(f"Z^{r}")
        parts.extend(f"Z/{d}" for d in t)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FinPresAb({self.describe()})"


class AbMap:
    """Map of presented abelian groups, as a generator matrix (row convention:
    image of domain generator i is matrix[i] in codomain generator coords)."""

    __slots__ = ("dom", "cod", "matrix")

    def __init__(self, dom, cod, matrix):
        self.dom = dom
        self.cod = cod
        mat = np.asarray(matrix)
        if mat.size == 0:
            mat = np.zeros((dom.ngens, cod.ngens), dtype=np.int64)
        self.matrix = mat

    @classmethod
    def zero(cls, dom, cod):
        return cls(dom, cod, np.zeros((dom.ngens, cod.ngens), dtype=np.int64))

    @classmethod
    def identity(cls, g):
        return cls(g, g, np.eye(g.ngens, dtype=np.int64))

    def is_well_defined(self):
        """Domain relations must land in the codomain relation lattice."""
        return self.cod.relations.contains(safe_matmul(self.dom.relations.basis(), self.matrix))

    def compose(self, other):
        """self o other (apply other first)."""
        if other.cod.ngens != self.dom.ngens:
            raise ValueError(
                f"compose: codomain rank {other.cod.ngens} != domain rank {self.dom.ngens}"
            )
        return AbMap(other.dom, self.cod, safe_matmul(other.matrix, self.matrix))

    def __add__(self, other):
        return AbMap(self.dom, self.cod, _safe_add(self.matrix, other.matrix))

    def __sub__(self, other):
        return AbMap(self.dom, self.cod, _safe_add(self.matrix, -_promote_if(other.matrix)))

    def __neg__(self):
        return AbMap(self.dom, self.cod, -_promote_if(self.matrix))

    def equals_as_map(self, other):
        """Equality as maps of presented groups (difference lands in relations)."""
        if self.dom.ngens != other.dom.ngens or self.cod.ngens != other.cod.ngens:
            return False
        diff = _safe_add(self.matrix, -_promote_if(other.matrix))
        return self.cod.relations.contains(diff)

    def is_zero_map(self):
        return self.cod.relations.contains(self.matrix)


def _promote_if(mat):
    if mat.dtype == np.int64 and _maxabs(mat) >= _I64_SAFE // 2:
        return mat.astype(object)
    return mat


def _safe_add(a, b):
    if a.dtype == np.int64 and b.dtype == np.int64 and _maxabs(a) + _maxabs(b) < _I64_SAFE:
        return a + b
    return a.astype(object) + b.astype(object)


def safe_matmul(a, b):
    """Exact matrix product: float64 (BLAS) while every partial sum stays
    below 2**53, where float64 is exact; int64 below 2**62; bigint above."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    return _product(a, b, _maxabs(a) * _maxabs(b) * a.shape[1])


# -- homology of presented complexes ------------------------------------------


def _kernel_lattice(g):
    """Lattice of {b in Z^{ngens(B)} : g(b) = 0 in C} for g: B -> C.

    Computed as the b-projection of the kernel of the stacked matrix
    [Mg; R_C]: b Mg = -y R_C exactly says that g(b) dies in C.
    """
    nb = g.dom.ngens
    kern = kernel_of_matrix([*g.matrix, *g.cod.relations.basis()], g.cod.ngens)
    return Lattice(nb, [x[:nb] for x in kern])


def homology_at(f, g):
    """ker(g)/im(f) for presented maps A --f--> B --g--> C with g o f = 0."""
    B = f.cod
    C = g.cod
    if g.dom.ngens != B.ngens:
        raise ValueError(
            f"homology_at: f lands in rank {B.ngens}, g starts from rank {g.dom.ngens}"
        )
    if not C.relations.contains(safe_matmul(f.matrix, g.matrix)):
        raise ValueError("homology_at: composite g o f is not zero")

    kernel = _kernel_lattice(g)
    # relations: images of A generators plus B's own relations, in kernel coords
    image = kernel.coordinates(f.matrix)
    if image is None:
        raise AssertionError("image of f escapes ker(g)")
    rel_B = kernel.coordinates(B.relations.basis())
    if rel_B is None:
        raise AssertionError("relations of B escape ker(g)")
    return FinPresAb(kernel.rank, [*image, *rel_B])


# -- tensor and Tor over Z ----------------------------------------------------


def tensor_Z(a, b):
    """A (x) B over Z, from invariant factors."""
    ta, ra = a.invariants()
    tb, rb = b.invariants()
    torsion = []
    for d in ta:
        for e in tb:
            torsion.append(gcd(d, e))
        torsion.extend([d] * rb)
    for e in tb:
        torsion.extend([e] * ra)
    torsion = [d for d in torsion if d > 1]
    return FinPresAb.from_invariants(_sorted_chain(torsion), ra * rb)


def tor_Z(a, b):
    """Tor_1^Z(A, B): Tor(Z/a, Z/b) = Z/gcd(a, b), free parts contribute 0."""
    ta, _ = a.invariants()
    tb, _ = b.invariants()
    torsion = [gcd(d, e) for d in ta for e in tb]
    torsion = [d for d in torsion if d > 1]
    return FinPresAb.from_invariants(_sorted_chain(torsion), 0)


def direct_sum(groups):
    torsion = []
    rank = 0
    for g in groups:
        t, r = g.invariants()
        torsion.extend(t)
        rank += r
    return FinPresAb.from_invariants(_sorted_chain(torsion), rank)


def _sorted_chain(torsion):
    """Rewrite a multiset of cyclic orders as a divisibility chain."""
    return tuple(d for d in _divisor_chain(list(torsion)) if d > 1)


# -- tensor over a finite group ring ------------------------------------------


def tensor_over_group_ring(gens_a, rels_a, gens_b, rels_b, mul_table):
    """A (x)_{Z[G]} B for finite G with given multiplication table.

    A is a right Z[G]-module and B a left one, each presented over Z[G]:
    a relation is a list of group-ring elements (length-|G| integer
    vectors), one per generator.  Expansion goes through the regular
    representation: Z-generators are triples (i, x, j) standing for
    e_i (x) x.e_j, relations are imposed for every x in G.
    """
    order = len(mul_table)

    def idx(i, x, j):
        return (i * order + x) * gens_b + j

    n = gens_a * order * gens_b
    rows = []
    for rel in rels_a:
        for x in range(order):
            for j in range(gens_b):
                row = {}
                for i in range(gens_a):
                    coeffs = rel[i]
                    for z in range(order):
                        c = coeffs[z]
                        if c:
                            y = mul_table[z][x]
                            k = idx(i, y, j)
                            row[k] = row.get(k, 0) + c
                rows.append(row)
    for rel in rels_b:
        for x in range(order):
            for i in range(gens_a):
                row = {}
                for j in range(gens_b):
                    coeffs = rel[j]
                    for z in range(order):
                        c = coeffs[z]
                        if c:
                            y = mul_table[x][z]
                            k = idx(i, y, j)
                            row[k] = row.get(k, 0) + c
                rows.append(row)
    return FinPresAb(n, rows)
