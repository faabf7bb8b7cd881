"""Exact integer linear algebra.

Hermite-form row lattices with online insertion, one kernel primitive
built on them (left kernels, lattice intersection, kernels of presented
maps), the Smith invariant-factor diagonal, finitely presented abelian
groups, maps between them, tensor/Tor over Z, tensor over a finite group
ring, and homology of three-term complexes of presented groups.

Everything is exact.  Matrices are kept as int64 numpy arrays while entry
bounds allow it and silently promoted to arbitrary-precision (object dtype)
arrays the moment an operation could overflow.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from math import gcd, prod

import numpy as np

# int64 arithmetic is used only while |result| stays below this bound.
_I64_SAFE = 2**62


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b == g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def _as_array(vec, n, big=False):
    # int(c): a numpy scalar stored in an object row would wrap at 2**63
    a = np.zeros(n, dtype=object if big else np.int64)
    for j, c in vec.items() if isinstance(vec, dict) else enumerate(vec):
        if c:
            a[j] = int(c)
    return a


def _maxabs(row):
    if len(row) == 0:
        return 0
    return int(np.abs(row).max())


class Lattice:
    """A sublattice of Z^n stored as a row basis in canonical Hermite form.

    Rows are kept echelonized online (one pivot per column, pivots
    positive); ``canonicalize`` additionally reduces every entry above a
    pivot into [0, pivot), which makes the basis unique so that lattice
    equality is basis equality.
    """

    __slots__ = ("n", "rows", "pivot_cols", "col_to_row", "big", "_canonical")

    def __init__(self, n):
        self.n = n
        self.rows = []          # sorted by pivot column
        self.pivot_cols = []    # pivot column of rows[i]
        self.col_to_row = {}
        self.big = False
        self._canonical = True

    # -- representation switching -------------------------------------

    def _promote(self):
        if not self.big:
            self.rows = [r.astype(object) for r in self.rows]
            self.big = True

    def _check_headroom(self, bound):
        if not self.big and bound >= _I64_SAFE:
            self._promote()

    def _prepare(self, vec):
        vals = vec.values() if isinstance(vec, dict) else vec
        m = max((abs(int(c)) for c in vals), default=0)
        if not self.big and m >= _I64_SAFE:
            self._promote()
        return _as_array(vec, self.n, big=self.big)

    # -- insertion ------------------------------------------------------

    @property
    def rank(self):
        return len(self.rows)

    def add(self, vec):
        """Insert a vector, updating the echelon basis."""
        v = self._prepare(vec)
        while True:
            nz = np.nonzero(v)[0]
            if len(nz) == 0:
                return
            j = int(nz[0])
            k = self.col_to_row.get(j)
            if k is None:
                if v[j] < 0:
                    v = -v
                pos = bisect_left(self.pivot_cols, j)
                self.rows.insert(pos, v)
                self.pivot_cols.insert(pos, j)
                for col, idx in self.col_to_row.items():
                    if idx >= pos:
                        self.col_to_row[col] = idx + 1
                self.col_to_row[j] = pos
                self._canonical = False
                return
            row = self.rows[k]
            a = int(row[j])
            b = int(v[j])
            if b % a == 0:
                q = b // a
                self._check_headroom(_maxabs(v) + abs(q) * _maxabs(row))
                if self.big:
                    v = v.astype(object) if v.dtype != object else v
                    row = self.rows[k]
                v = v - q * row
            else:
                g, x, y = xgcd(a, b)
                bound = (abs(x) + abs(y) + abs(a // g) + abs(b // g)) * (
                    _maxabs(row) + _maxabs(v)
                )
                self._check_headroom(bound)
                if self.big and v.dtype != object:
                    v = v.astype(object)
                row = self.rows[k]
                new_row = x * row + y * v
                v = (a // g) * v - (b // g) * row
                if new_row[j] < 0:
                    new_row = -new_row
                self.rows[k] = new_row
                self._canonical = False

    def add_rows(self, rows):
        for r in rows:
            self.add(r)

    # -- canonical form ---------------------------------------------------

    def canonicalize(self):
        """Reduce above-pivot entries so the basis is the canonical HNF."""
        if self._canonical:
            return self
        for k in range(len(self.rows)):
            j = self.pivot_cols[k]
            p = int(self.rows[k][j])
            for i in range(k):
                row = self.rows[i]
                c = int(row[j])
                q = c // p
                if q:
                    self._check_headroom(_maxabs(row) + abs(q) * _maxabs(self.rows[k]))
                    self.rows[i] = self.rows[i] - q * self.rows[k]
        self._canonical = True
        return self

    def basis(self):
        self.canonicalize()
        return self.rows

    def basis_matrix(self):
        self.canonicalize()
        if not self.rows:
            return np.zeros((0, self.n), dtype=np.int64)
        return np.array([list(map(int, r)) for r in self.rows], dtype=object if self.big else np.int64)

    # -- membership and coordinates --------------------------------------

    def reduce(self, vec):
        """Subtract basis rows to push vec's pivot-column entries into
        [0, pivot); the result is the canonical coset representative."""
        self.canonicalize()
        v = self._prepare(vec)
        for k, j in enumerate(self.pivot_cols):
            c = int(v[j])
            if c:
                p = int(self.rows[k][j])
                q = c // p
                if q:
                    if not self.big and _maxabs(v) + abs(q) * _maxabs(self.rows[k]) >= _I64_SAFE:
                        v = v.astype(object)
                        v = v - q * self.rows[k].astype(object)
                        continue
                    v = v - q * self.rows[k]
        return v

    def contains(self, vec):
        return not np.any(self.reduce(vec))

    def coordinates(self, vec):
        """Express vec in the canonical basis rows; None if not in the lattice."""
        self.canonicalize()
        v = self._prepare(vec)
        coords = [0] * len(self.rows)
        while True:
            nz = np.nonzero(v)[0]
            if len(nz) == 0:
                return coords
            j = int(nz[0])
            k = self.col_to_row.get(j)
            if k is None:
                return None
            p = int(self.rows[k][j])
            c = int(v[j])
            if c % p != 0:
                return None
            q = c // p
            coords[k] = q
            if not self.big and _maxabs(v) + abs(q) * _maxabs(self.rows[k]) >= _I64_SAFE:
                v = v.astype(object) - q * self.rows[k].astype(object)
            else:
                v = v - q * self.rows[k]

    def __eq__(self, other):
        if not isinstance(other, Lattice) or self.n != other.n:
            return NotImplemented
        a = self.basis_matrix()
        b = other.basis_matrix()
        return a.shape == b.shape and bool(np.array_equal(a, b))

    def __hash__(self):
        raise TypeError("Lattice is unhashable (mutable)")

    def __repr__(self):
        return f"Lattice(n={self.n}, rank={self.rank})"


def lattice_from_rows(n, rows):
    lat = Lattice(n)
    lat.add_rows(rows)
    lat.canonicalize()
    return lat


def _lower_block(rows, split, width):
    """Rows of the canonical HNF of `rows` (vectors in Z^width) whose pivot
    lies at column `split` or later, restricted to those columns.

    They are a basis, itself in canonical HNF, of the vectors of the row
    lattice whose first `split` entries are zero.
    """
    lat = lattice_from_rows(width, rows)
    return [r[split:] for r, j in zip(lat.rows, lat.pivot_cols) if j >= split]


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
    return lattice_from_rows(a.n, _lower_block(rows, a.n, 2 * a.n))


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
    diag = [abs(mat[i][i]) for i in range(min(m, n))]
    # enforce the divisibility chain
    k = len(diag)
    for i in range(k):
        for j in range(i + 1, k):
            a, b = diag[i], diag[j]
            if a and b % a != 0:
                # Z/a + Z/b = Z/gcd + Z/lcm
                g = gcd(a, b)
                lcm = a // g * b
                diag[i], diag[j] = g, lcm
            elif a == 0 and b != 0:
                diag[i], diag[j] = b, 0
    return diag


def smith_diagonal(matrix):
    """Invariant-factor diagonal of an integer matrix.

    Unit pivots are stripped with vectorized row operations before the
    dense bignum core runs on whatever small block remains.
    """
    rows = [list(map(int, r)) for r in matrix]
    if not rows:
        return []
    n = len(rows[0])
    if n == 0:
        return []
    maxentry = max((abs(c) for r in rows for c in r), default=0)
    big = maxentry >= _I64_SAFE
    M = np.array(rows, dtype=object if big else np.int64)
    units = 0
    while True:
        hits = np.argwhere(np.abs(M) == 1)
        if len(hits) == 0:
            break
        i, j = int(hits[0][0]), int(hits[0][1])
        s = int(M[i, j])
        pivot = M[i].copy()
        factor = M[:, j] * s  # c / s == c * s for s in {1, -1}
        factor[i] = 0
        nz = np.nonzero(factor)[0]
        if len(nz):
            if not big:
                bound = int(np.abs(factor[nz]).max()) * (_maxabs(pivot) or 1) + _maxabs(M)
                if bound >= _I64_SAFE:
                    M = M.astype(object)
                    pivot = pivot.astype(object)
                    factor = factor.astype(object)
                    big = True
            M[nz] = M[nz] - np.outer(factor[nz], pivot)
        # zeroing row i and column j stands in for deleting them; the
        # implicit column ops clearing row i touch nothing else
        M[i, :] = 0
        M[:, j] = 0
        units += 1
    keep_rows = [i for i in range(M.shape[0]) if np.any(M[i])]
    keep_cols = [j for j in range(M.shape[1]) if np.any(M[:, j])]
    diag = [1] * units
    if keep_rows:
        core = [[int(M[i, j]) for j in keep_cols] for i in keep_rows]
        diag += _snf_core(core)
    return diag


def invariant_factors(matrix, ngens):
    """(torsion_factors, free_rank) of Z^ngens / rowspace(matrix)."""
    nz = [d for d in smith_diagonal(matrix) if d != 0]
    return tuple(d for d in nz if d > 1), ngens - len(nz)


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
            lat = Lattice(ngens)
            if relations is not None:
                lat.add_rows(relations)
            lat.canonicalize()
            self.relations = lat
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
            self._inv = invariant_factors(self.relations.basis(), self.ngens)
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
            rel.rows[k][j] == 1 for k, j in enumerate(rel.pivot_cols)
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
        for r in self.dom.relations.basis():
            img = _vec_mat(list(map(int, r)), self.matrix)
            if not self.cod.relations.contains(img):
                return False
        return True

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
        return all(self.cod.relations.contains(row) for row in diff)

    def is_zero_map(self):
        return all(self.cod.relations.contains(row) for row in self.matrix)


def _promote_if(mat):
    if mat.dtype == np.int64 and mat.size and int(np.abs(mat).max()) >= _I64_SAFE // 2:
        return mat.astype(object)
    return mat


def _safe_add(a, b):
    if a.dtype == np.int64 and b.dtype == np.int64:
        ma = int(np.abs(a).max()) if a.size else 0
        mb = int(np.abs(b).max()) if b.size else 0
        if ma + mb < _I64_SAFE:
            return a + b
    return a.astype(object) + b.astype(object)


def safe_matmul(a, b):
    """Exact matrix product, int64 when provably safe, bigint otherwise."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    if a.dtype == np.int64 and b.dtype == np.int64:
        ma = int(np.abs(a).max())
        mb = int(np.abs(b).max())
        if ma and mb and ma * mb * a.shape[1] < _I64_SAFE or (not ma or not mb):
            return a @ b
    return a.astype(object) @ b.astype(object)


def _vec_mat(vec, mat):
    out = [0] * mat.shape[1]
    for i, c in enumerate(vec):
        if c:
            row = mat[i]
            for j in range(mat.shape[1]):
                v = row[j]
                if v:
                    out[j] += c * int(v)
    return out


# -- homology of presented complexes ------------------------------------------


def _kernel_lattice(g):
    """Lattice of {b in Z^{ngens(B)} : g(b) = 0 in C} for g: B -> C.

    Computed as the b-projection of the kernel of the stacked matrix
    [Mg; R_C]: b Mg = -y R_C exactly says that g(b) dies in C.
    """
    nb = g.dom.ngens
    kern = kernel_of_matrix([*g.matrix, *g.cod.relations.basis()], g.cod.ngens)
    return lattice_from_rows(nb, [x[:nb] for x in kern])


def homology_at(f, g):
    """ker(g)/im(f) for presented maps A --f--> B --g--> C with g o f = 0."""
    B = f.cod
    C = g.cod
    if g.dom.ngens != B.ngens:
        raise ValueError(
            f"homology_at: f lands in rank {B.ngens}, g starts from rank {g.dom.ngens}"
        )
    comp = safe_matmul(f.matrix, g.matrix)
    for row in comp:
        if not C.relations.contains(row):
            raise ValueError("homology_at: composite g o f is not zero")

    kernel = _kernel_lattice(g)
    # relations: images of A generators plus B's own relations, in kernel coords
    rel_rows = []
    for row in f.matrix:
        coords = kernel.coordinates(row)
        if coords is None:
            raise AssertionError("image of f escapes ker(g)")
        rel_rows.append(coords)
    for row in B.relations.basis():
        coords = kernel.coordinates(row)
        if coords is None:
            raise AssertionError("relations of B escape ker(g)")
        rel_rows.append(coords)
    return FinPresAb(kernel.rank, rel_rows)


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
    if not torsion:
        return ()
    # factor each, rebuild elementary divisors, then recombine
    primes = {}
    for d in torsion:
        for p, e in _factorint(d).items():
            primes.setdefault(p, []).append(e)
    slots = max(len(v) for v in primes.values())
    chain = [1] * slots
    for p, exps in primes.items():
        exps.sort(reverse=True)
        for i, e in enumerate(exps):
            chain[i] *= p**e
    chain.sort()
    return tuple(chain)


def _factorint(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


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
