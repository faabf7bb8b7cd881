"""Exact integer linear algebra.

Hermite-form row lattices that take rows in blocks and keep their basis
canonical after every call (each block is eliminated into the basis at
once, unit pivots first; there is no queue) and are queried in blocks (one
reduction answers membership and coordinates for a whole block of rows),
one kernel primitive built on them (``_lower``: the vectors of a lattice
that vanish on its first columns are its canonical rows with a pivot
there or later, a slice of the stored form; a lattice intersection takes
one elimination and this slice), Smith invariant factors, finitely
presented abelian groups, maps between them, tensor/Tor over Z, the
cohomology of complexes of presented groups, and sparse integer
matrices, assembled from signed parts at offsets
(``SparseRows.placed``), with the exact product of two of them
(``sparse_product``).

A map (``AbMap``) is stored sparse, as the nonzero entries of its
generator matrix, one ``SparseRows``: composites are sparse products and
sums are signed placements.  The dense matrix is a view built on demand
(``AbMap.matrix``), where a lattice reduces or cuts whole rows.

Cohomology builds no kernel basis (``cochain_homology``), and it takes a
whole complex L_0 --> L_1 --> ... --> L_K in one pass.  At a level B
with incoming f: A --> B and outgoing g: B --> C, and B = Z^b / R_B and
C = Z^c / R_C on independent relation rows (the surviving generators),
one coordinate solve gives h and e with h·R_C = f·g and e·R_C = R_B·g,
and fails unless g o f = 0 and g is well defined.  Then the free complex

    Z^A + Z^R_B --d_A--> Z^b + Z^R_C --d_B--> Z^c,
    d_A = [[f, -h], [R_B, -e]],   d_B = [g; R_C],

a cone of the relations twisted by h and e, has the homology of A --> B
--> C in the middle: (b, y) lies in ker d_B iff b·g = -y·R_C, and then
y is unique, so dropping y takes ker d_B onto ker(g) and im d_A onto
im(f) + R_B.  Its kernel there is saturated, so the homology has the
torsion of coker d_A and rank b + rk R_C - rk d_B - rk d_A.

rk d_B at B is rk d_A at C, so one level's cone gives the rank the
level below needs, and only the top level's rank takes an echelon form.
At C, d_A = [[g, -h'], [R_C, -e']], and its rows are g's rows at every
generator of B.  A rational relation x among the rows of [g; R_C] gives
x·[h'; e']·R_D = x·[g; R_C]·g' = 0, and R_D's rows are independent, so
x kills the twist columns too: rk d_A = rk [g; R_C].  The row of g at a
generator of B that does not survive is, by the unit relation that
removes it, minus g at surviving generators plus g of a relation of B,
which lies in R_C; so rk [g; R_C] is the rank of d_B at B, where g has
its surviving rows only.  This is how Dumas, Heckenbach, Saunders and
Welker (2003) read simplicial homology off the ranks and Smith forms of
consecutive boundary maps.

There is one elimination routine, ``_echelon``, and the Smith invariants
use it too, as do G_ab's invariant factors (``permgrp`` presents G_ab as
a ``FinPresAb``).  The unit rows of the canonical basis split off as
trivial summands; what is left is transposed, which keeps the invariant
factors, and brought to canonical form again, and so on, until every row
is its pivot alone (alternating row and column Hermite forms, Kannan and
Bachem 1979).  That ends: a leading pivot can only shrink, to the gcd of
its row, and once it divides its row the canonical form leaves it alone
in its row and column.

A canonical basis is stored on its non-unit-pivot columns: the pivot
columns, which pivots are 1, the columns ``cols`` that are no unit pivot,
and one 2-D block ``B = basis[:, cols]``.  This is exact, because a unit
row is 1 at its pivot and 0 at every other unit pivot, and every other
row is 0 at all unit pivots.  Nothing derived from ``B``, such as a
bound on its entries, is stored with it.  Rows are built from it on
demand (``Lattice.basis``).  ``Lattice.add`` eliminates
max(_block_rows(n), rank // 8) rows per fold: every fold copies ``B``
once, so on a wide lattice of high rank the fold grows with the rank.
A fold reduces its rows modulo the basis, brings the non-unit rows and
what is left to echelon form on ``cols`` and reduces the unit rows
modulo the result.  A fold into an empty basis skips the first step, and
one into a basis with no unit rows the last: then the echelon's own
stored form is the new basis.  A basis that is canonical already, given
in this stored form, becomes a lattice with no elimination
(``Lattice.canonical``), which checks the form instead.

Only this module reads or writes the stored form, so a change to it is
a change to this module alone.  Other modules see a lattice through its
rows (``Lattice.basis``), its pivots (``Lattice.pivot_cols``, a read-only
array), two constructors that write a canonical basis down
(``Lattice.seed``: unit vectors and a lattice tensored with an identity
at an offset; ``Lattice.sum_zero``: the vectors whose entries sum to 0)
and one quotient routine (``quotient``: Z^keep / proj_keep(L) presented
on its surviving generators).

Rows enter in one format, a block: a 2-D integer array, or a list of rows
read exactly (``int_block``).  Floats and flat vectors are refused, and a
stream of rows is an iterator of blocks.

Everything is exact.  Matrices are kept as int64 numpy arrays while entry
bounds allow it and promoted to arbitrary-precision (object dtype) arrays
whenever an operation could overflow; a lattice basis whose entries fit is
stored as int64 again.  Products whose partial sums stay below 2**53 run
in float64, which is exact there.

The elimination loops (``_echelon``, ``_reduce_above``) guard int64 with
one running bound on |entry| per block, not a check per step: a step that
takes q times a row off others raises the bound hi to hi + max|q|·hi.
Only when it reaches 2**62 is it read again from the block, and only when
the re-read bound of that step does too is the fold redone with Python
ints.  So a column costs a handful of numpy calls.  A reduction modulo a
basis (``_reduce``) keeps such a bound on its remainders, and reads the
basis's part of each bound off the rows that a step takes: max|B| of the
unit rows in its one product, max|B[k]| for a step by a non-unit row k.
"""

from __future__ import annotations

import operator
from itertools import chain
from math import gcd
from typing import NamedTuple

import numpy as np

from .errors import Deadline

# int64 arithmetic is used only while |result| stays below this bound.
_I64_SAFE = 2**62

# float64 products are exact while every partial sum stays below this bound.
_F64_EXACT = 2**53

# Row and column block of the float64 path of _product.
_MATMUL_BLOCK = 128

# Lattice.add folds at least this many entries (rows times width) into the
# basis at a time, and row blocks are built in blocks of the same size.
# Every temporary of a fold is a few such blocks or one copy of the stored
# basis; larger blocks mean fewer folds but a higher peak memory.
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


def for_sums(V, weight):
    """V as int64 or as Python ints (object dtype), chosen for a result
    whose every entry is a sum of terms c·v, v an entry of V, with the
    |c| of one entry's terms summing to at most ``weight``: int64 while V
    is and max|V|·weight < 2**62, so that no such sum can wrap, else
    Python ints.  V is not copied when its dtype stays."""
    if V.dtype == np.int64 and _maxabs(V) * weight < _I64_SAFE:
        return V
    return V.astype(object, copy=False)


# every entry as an exact Python int; a non-integer raises TypeError
_exact = np.frompyfunc(operator.index, 1, 1)


def _frozen(a):
    a.flags.writeable = False
    return a


def int_block(rows, n):
    """A block of rows in Z^n as one exact (len(rows), n) array: int64
    while every |entry| < 2**62, else Python ints (object dtype).

    The block is a 2-D integer array or a list of rows.  A list, like an
    object array, is read entry by entry with ``operator.index``, so no
    entry is rounded on the way (numpy's own guess reads [[2**63, -1]] as
    float64) and a float is refused, as a float array is.  A flat vector
    is refused too, not read as a block of scalar rows."""
    if isinstance(rows, list):
        rows = np.array(rows, dtype=object) if rows else np.zeros((0, n), dtype=np.int64)
    if not isinstance(rows, np.ndarray) or rows.ndim != 2:
        raise TypeError(f"a block of rows in Z^{n} is a 2-D array or a list of rows")
    if rows.shape[1] != n:
        raise ValueError(f"rows of length {rows.shape[1]} in Z^{n}")
    if rows.dtype == object:
        rows = _exact(rows)
    elif rows.dtype.kind not in "iu":
        raise TypeError(f"entries of dtype {rows.dtype} are not integers")
    if _maxabs(rows) < _I64_SAFE:
        return rows.astype(np.int64, copy=False)
    return rows.astype(object)


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


def _echelon(W):
    """Bring W to row echelon form in place by unimodular row operations.

    Column by column, the live row whose entry has the least absolute value
    reduces the others' entries to remainders until one nonzero entry is
    left.  The pivot row stays in each update with quotient 0, so a step is
    one product and one write, and a unit pivot ends its column at once.
    Returns (t, cols): W[:t] are the echelon rows, row e with a positive
    pivot at column cols[e], and W[t:] is zero.

    An int64 step is guarded by one running bound ``hi`` on |entry| of the
    rows and columns still to change: a step with quotients q raises it to
    hi + max|q|·hi.  Only when that reaches 2**62 is it read again
    (``_reread``), and only when the re-read bound of the step does too is
    _Overflow raised instead of taking the step.
    """
    m = len(W)
    big = W.dtype == object
    hi = 0 if big else _maxabs(W)
    t = 0
    cols = []
    for j in np.flatnonzero(W.any(axis=0)).tolist():
        if t == m:
            break
        live = W[t:, j].nonzero()[0] + t
        if not len(live):
            continue
        while len(live) > 1:
            vals = W[live, j]
            size = np.abs(vals)
            i = int(size.argmin())
            q = vals // vals[i]
            q[i] = 0
            if not big:
                mq = int(np.abs(q).max())
                hi += mq * hi
                if hi >= _I64_SAFE:
                    hi = _reread(mq, W[t:, j:], W[live, j:], W[live[i], j:])
            W[live, j:] -= np.outer(q, W[live[i], j:])
            live = live[i : i + 1] if size[i] == 1 else live[W[live, j] != 0]
        p = live[0]
        if p != t:
            W[[t, p]] = W[[p, t]]
        if W[t, j] < 0:
            W[t, j:] = -W[t, j:]
        cols.append(j)
        t += 1
    return t, cols


def _reread(q, rest, rows, head):
    """The bound on |entry| after a step that takes at most q times ``head``
    off ``rows``, read from the arrays: ``rest`` holds every entry still to
    change.  If the bound on all of ``rest`` reaches 2**62, the step's own
    rows decide; raises _Overflow if the step could leave int64's safe
    range."""
    hi = _maxabs(rest)
    step = hi + q * hi
    if step >= _I64_SAFE:
        step = max(hi, _maxabs(rows) + q * _maxabs(head))
        if step >= _I64_SAFE:
            raise _Overflow
    return step


def _reduce_above(E, cols):
    """E are echelon rows with pivots at cols; bring every entry above a
    pivot into [0, pivot).  Pivots go left to right, and each step changes
    only columns right of its own pivot, under a running bound as in
    ``_echelon``."""
    big = E.dtype == object
    hi = 0 if big else _maxabs(E)
    for e, j in enumerate(cols):
        q = E[:e, j] // E[e, j]
        hit = q.nonzero()[0]
        if len(hit):
            q = q[hit]
            if not big:
                mq = int(np.abs(q).max())
                hi += mq * hi
                if hi >= _I64_SAFE:
                    hi = _reread(mq, E[:, j:], E[hit, j:], E[e, j:])
            E[hit, j:] -= np.outer(q, E[e, j:])


class _Hermite(NamedTuple):
    """A basis in canonical Hermite form, stored on its non-unit-pivot
    columns: each row's pivot column (increasing) and whether that pivot
    is 1; ``cols``, the columns that are no unit pivot (increasing); and
    the read-only block ``B``, the basis restricted to ``cols``.  Nothing
    derived from ``B`` is stored: a bound on its entries is read off the
    rows that use it."""

    piv: np.ndarray
    unit: np.ndarray
    cols: np.ndarray
    B: np.ndarray


# the pivots and unit flags of a basis with no row: an array with no entry
# holds nothing to write, so every zero lattice shares them
_NO_ROWS = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=bool))


def _hermite(E, piv, width):
    """The stored form of canonical echelon rows E in Z^width with pivots
    at piv."""
    unit = E[np.arange(len(E)), piv] == 1
    keep = np.ones(width, dtype=bool)
    keep[piv[unit]] = False
    cols = np.flatnonzero(keep)
    return _Hermite(piv, unit, cols, _frozen(E[:, cols]))


def _reduce(V, hnf, coeff=None):
    """Reduce the rows of V modulo the canonical basis hnf.  Returns R, the
    remainders on ``hnf.cols`` (they are 0 at every unit pivot), with every
    entry at a pivot column in [0, pivot) and V - R in the lattice; V
    itself is left as it is.  Given an array coeff of shape (len(V), rank),
    the coefficients are written into it, so that V = coeff @ basis + R.

    A unit row's coefficient is V's own entry at its pivot, so one product
    against ``B`` takes all unit rows off.  The other rows vanish on
    unit-pivot columns and follow left to right on ``cols`` only, one step
    per pivot; a running bound on |R| keeps the steps in int64 while it is
    safe.  Each bound on the basis is read off the rows a step uses.
    """
    piv, unit, cols, B = hnf
    U = np.flatnonzero(unit)
    c = V[:, piv[U]]
    R = V[:, cols]
    if coeff is not None:
        coeff[:, U] = c
    used = np.flatnonzero(c.any(axis=0))
    if len(used):
        c, rows = c[:, used], B[U[used]]
        bound = _maxabs(c) * _maxabs(rows) * len(used)
        if R.dtype != object and _maxabs(R) + bound >= _I64_SAFE:
            raise _Overflow
        R -= _product(c, rows, bound)
    N = np.flatnonzero(~unit)
    top = _maxabs(R)
    for k, j in zip(N.tolist(), np.searchsorted(cols, piv[N]).tolist()):
        p = int(B[k, j])
        q = R[:, j] // p
        hit = q.nonzero()[0]
        if len(hit):
            bk = _maxabs(B[k])
            bound = top + (top // p + 1) * bk
            if R.dtype != object and bound >= _I64_SAFE:
                top = _maxabs(R)
                bound = top + (top // p + 1) * bk
                if bound >= _I64_SAFE:
                    raise _Overflow
            R[hit] -= np.outer(q[hit], B[k])
            if coeff is not None:
                coeff[hit, k] = q[hit]
            top = bound
    return R


def _merge(hnf, Q):
    """The canonical basis of the lattice spanned by hnf and the rows of Q,
    or None if Q adds nothing.

    Q is reduced modulo hnf, which leaves it on ``cols``.  There the
    non-unit rows and what is left of Q are brought to echelon form E and
    reduced above their pivots.  The unit rows with an entry at a pivot of
    E are reduced modulo E, and the new unit pivots leave ``cols``.  All
    of it is array operations, and the stored block is copied once.  An
    empty basis reduces nothing, and a basis with no unit rows has every
    column in ``cols``, so for either E's own stored form is the answer.
    """
    piv, unit, cols, B = hnf
    if len(piv):
        Q = _reduce(Q, hnf)
    # a copy, which _echelon may write into
    Q = Q[Q.any(axis=1)]
    if not len(Q):
        return None
    W = np.concatenate([B[~unit], Q]) if len(piv) else Q
    t, ecols = _echelon(W)
    ecols = np.array(ecols, dtype=np.intp)
    E = W[:t]
    _reduce_above(E, ecols)
    echelon = _hermite(E, ecols, len(cols))
    U = np.flatnonzero(unit)
    if not len(U):
        return echelon
    out_piv = np.concatenate((piv[U], cols[ecols]))
    order = np.argsort(out_piv)
    at = np.empty_like(order)
    at[order] = np.arange(len(order))
    out = np.empty((len(order), len(echelon.cols)), dtype=W.dtype)
    out[at[: len(U)]] = B[np.ix_(U, echelon.cols)]
    out[at[len(U) :]] = echelon.B
    touched = np.flatnonzero(B[np.ix_(U, ecols)].any(axis=1))
    if len(touched):
        out[at[touched]] = _reduce(B[U[touched]], echelon)
    return _Hermite(
        out_piv[order],
        np.concatenate((np.ones(len(U), dtype=bool), echelon.unit))[order],
        cols[echelon.cols],
        _frozen(out),
    )


def _is_big(hnf):
    return hnf.B.dtype == object


def _with_dtype(hnf, dtype):
    return hnf._replace(B=_frozen(hnf.B.astype(dtype)))


def _fitted(hnf):
    """hnf, stored as int64 again if it is big but every entry fits."""
    if _is_big(hnf) and _maxabs(hnf.B) < _I64_SAFE:
        return _with_dtype(hnf, np.int64)
    return hnf


class Lattice:
    """A sublattice of Z^n with a row basis in canonical Hermite form.

    The basis is stored on its non-unit-pivot columns (see the module
    docstring): the pivots, which of them are 1, the columns ``cols``
    without a unit pivot and one block ``B = basis[:, cols]``.
    ``basis(start, stop)`` builds rows from it on demand.

    ``Lattice(n, blocks)`` and ``add(blocks)`` take one block of rows (a
    2-D integer array or a list of rows, see ``int_block``) or an iterator
    of such blocks.  The rows are eliminated into the basis
    max(``_block_rows(n)``, rank // 8) at a time (``_merge``), a fold
    spanning blocks where they are shorter: one exact product against
    ``B`` clears the unit-pivot columns, column-by-column Euclid handles
    what is left on ``cols``, and the entries above each new pivot are
    reduced into [0, pivot).  A fold copies ``B`` once, so the rank // 8
    rule keeps that copy a fixed share of a fold's work.  There is no
    queue: after every call the basis is the canonical one, which is
    unique, so lattice equality is basis equality.  ``canonical`` takes a
    basis that is already canonical, in its stored form, with no
    elimination, and ``copy`` shares the basis of an existing lattice.

    ``reduce``, ``contains`` and ``coordinates`` take one block of rows
    (``[]`` is zero rows) and answer for the whole block with one
    reduction modulo the basis.

    Entries are int64 while every step provably stays below 2**62.  A fold
    that could overflow is redone with Python ints (object dtype), and a
    basis whose entries all fit is stored as int64 again, so ``big`` says
    whether the canonical basis itself needs bignums.
    """

    __slots__ = ("n", "_hnf")

    # the basis is always canonical; bench/layertrace.py still reads this
    _canonical = True

    def __init__(self, n, blocks=()):
        self.n = n
        self._hnf = _Hermite(*_NO_ROWS, np.arange(n), _frozen(np.zeros((0, n), dtype=np.int64)))
        self.add(blocks)

    @classmethod
    def _of(cls, n, hnf):
        lat = object.__new__(cls)
        lat.n, lat._hnf = n, hnf
        return lat

    @classmethod
    def canonical(cls, n, piv, cols, B):
        """The lattice whose canonical basis is given in its stored form:
        each row's pivot column ``piv`` (increasing), the columns ``cols``
        that are no unit pivot (increasing) and the rows on them, the
        block ``B``; a row whose pivot is not in ``cols`` is 1 there.  So
        nothing is eliminated and no (rank, n) block is built.  The block
        is kept as it is, read-only from then on.

        The form is checked, and a form that is not canonical raises
        ValueError: the unit pivots and ``cols`` must split the n columns,
        every row must be zero left of its pivot, every pivot in ``cols``
        must be above 1, and every entry above it in [0, pivot)."""
        piv = np.asarray(piv, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        B = int_block(B, len(cols))
        if len(B) != len(piv):
            raise ValueError(f"{len(piv)} pivots for {len(B)} rows")
        for name, a in (("pivots", piv), ("columns", cols)):
            if len(a) and (a[0] < 0 or a[-1] >= n or (np.diff(a) <= 0).any()):
                raise ValueError(f"{name} are not increasing in range({n})")
        unit = np.ones(n, dtype=bool)
        unit[cols] = False
        unit = unit[piv]
        if len(cols) + np.count_nonzero(unit) != n:
            raise ValueError("the unit pivots and the columns do not split the ambient space")
        at = np.searchsorted(cols, piv)
        if ((B != 0) & (np.arange(len(cols)) < at[:, None])).any():
            raise ValueError("a row is nonzero left of its pivot")
        rows = np.flatnonzero(~unit)
        above = B[:, at[rows]]
        p = above[rows, np.arange(len(rows))]
        if (p <= 1).any():
            raise ValueError("a pivot in the columns is not above 1")
        if ((np.arange(len(piv))[:, None] < rows) & ((above < 0) | (above >= p))).any():
            raise ValueError("an entry above a pivot is outside [0, pivot)")
        return cls._of(n, _Hermite(piv, unit, cols, _frozen(B)))

    @classmethod
    def seed(cls, n, start, L=None, lo=0, M=1):
        """The lattice spanned by the unit vectors e_start..e_(n-1) and,
        given a lattice L in Z^k with lo + k·M = start (lo and M are not
        read without one), the rows of L⊗I_M placed at column lo: row
        (v, K), v a canonical row of L and K < M, has v_g at column
        lo + g·M + K.

        These rows are canonical as they stand, by L's pivots and then K,
        so they are written in the stored form (``canonical``, which
        checks it) with no elimination: the pivot of (v, K) is v's pivot
        at K, the unit pivots are L's at every K and every unit vector,
        and the entry of (v, K) at (c, K) for a column c of L's stored
        block is v_c."""
        piv, cols = np.arange(start, n), np.arange(start)
        if L is None:
            # with no row at all there is no form to check
            if start == n:
                return cls(n)
            return cls.canonical(n, piv, cols, np.zeros((len(piv), start), dtype=np.int64))
        lpiv, _, lcols, LB = L._hnf
        K = np.arange(M)
        piv = np.concatenate([(lo + lpiv[:, None] * M + K).ravel(), piv])
        cols = np.concatenate([cols[:lo], (lo + lcols[:, None] * M + K).ravel()])
        B = np.zeros((len(piv), len(cols)), dtype=LB.dtype)
        # rows (v, K) by columns (c, K'), as a view: LB where K = K'
        B[: len(lpiv) * M, lo:].reshape(len(lpiv), M, len(lcols), M)[:, K, :, K] = LB
        return cls.canonical(n, piv, cols, B)

    @classmethod
    def sum_zero(cls, n):
        """The vectors of Z^n, n >= 1, whose entries sum to 0, written
        down (``canonical``): their canonical rows are e_i - e_(n-1),
        i < n - 1."""
        return cls.canonical(n, np.arange(n - 1), [n - 1], np.full((n - 1, 1), -1, dtype=np.int64))

    def copy(self):
        """An equal lattice in O(1).  It shares the basis, which is safe:
        the stored block is read-only, and ``add`` replaces the basis of
        the lattice it is called on and writes into no stored array."""
        return Lattice._of(self.n, self._hnf)

    def add(self, blocks):
        """Eliminate one block of rows, or the blocks an iterator yields,
        into the basis, max(_block_rows(n), rank // 8) rows per fold.
        Blocks are drawn as they are needed, so at most one block and one
        fold's rows wait unmerged.  They wait in a list and are joined once
        per fold, not once per block, which on a wide lattice fed short
        blocks would copy the waiting rows again for every block.  The
        list is dropped before the folds run, and the rows they leave are
        copied, so no fold's buffer outlives it."""
        if isinstance(blocks, (list, np.ndarray)):
            blocks = (blocks,)
        pending, count = [], 0
        for block in blocks:
            pending.append(int_block(block, self.n))
            count += len(pending[-1])
            if count < self._fold_rows():
                continue
            Q = pending[0] if len(pending) == 1 else np.concatenate(pending)
            pending = None
            while len(Q) >= (step := self._fold_rows()):
                self._fold(Q[:step])
                Q = Q[step:]
            pending, count = [Q.copy()], len(Q)
        if count:
            self._fold(pending[0] if len(pending) == 1 else np.concatenate(pending))

    def _fold_rows(self):
        return max(_block_rows(self.n), self.rank // 8)

    def _fold(self, Q):
        hnf = self._hnf
        if _is_big(hnf) or Q.dtype == object:
            hnf, Q = _with_dtype(hnf, object), Q.astype(object)
        try:
            merged = _merge(hnf, Q)
        except _Overflow:
            merged = _merge(_with_dtype(hnf, object), Q.astype(object))
        if merged is not None:
            self._hnf = _fitted(merged)

    def canonicalize(self):
        # a no-op kept for bench/layertrace.py, which wraps it by name
        return self

    # -- the canonical basis ------------------------------------------------

    @property
    def rank(self):
        return len(self._hnf.piv)

    @property
    def big(self):
        """True when the canonical basis holds entries of 2**62 or more."""
        return _is_big(self._hnf)

    @property
    def pivot_cols(self):
        """Pivot column of each basis row, increasing, as a read-only
        array."""
        return _frozen(self._hnf.piv.view())

    def basis(self, start=0, stop=None):
        """Rows start..stop of the canonical basis (all rows by default), by
        pivot column, as one new (k, n) array built from the stored block."""
        return self.basis_rows(slice(start, stop))

    def basis_rows(self, index):
        """The canonical basis rows that a slice or an increasing index
        array picks, as one new (k, n) array built from the stored block."""
        piv, unit, cols, B = self._hnf
        part = B[index]
        out = np.zeros((len(part), self.n), dtype=B.dtype)
        out[:, cols] = part
        ones = np.flatnonzero(unit[index])
        out[ones, piv[index][ones]] = 1
        return out

    def basis_blocks(self, rows=None):
        """The canonical basis as consecutive blocks of at most `rows` rows
        (by default ``_block_rows(n)``)."""
        rows = rows or _block_rows(self.n)
        for s in range(0, self.rank, rows):
            yield self.basis(s, s + rows)

    # -- membership and coordinates --------------------------------------

    def _solve(self, rows, coords=False):
        """(C, R) for a block of rows V: V = C @ basis + R exactly, with R
        given on the columns without a unit pivot (it is 0 on the others)
        and every entry of R at a pivot column in [0, pivot).  C is built
        only when ``coords`` asks for it, else it is None."""
        V = int_block(rows, self.n)
        if _is_big(self._hnf):
            V = V.astype(object)
        while True:
            coeff = np.zeros((len(V), self.rank), dtype=V.dtype) if coords else None
            try:
                return coeff, _reduce(V, self._hnf, coeff)
            except _Overflow:
                V = V.astype(object)

    def reduce(self, rows):
        """The canonical representatives of a block of rows modulo the
        lattice: every entry at a pivot column lies in [0, pivot)."""
        rem = self._solve(rows)[1]
        out = np.zeros((len(rem), self.n), dtype=rem.dtype)
        out[:, self._hnf.cols] = rem
        return out

    def contains(self, rows):
        """True iff every row of the block lies in the lattice."""
        return not self._solve(rows)[1].any()

    def coordinates(self, rows):
        """The block of rows in the canonical basis, as a (len(rows), rank)
        array C with rows = C @ basis; None if any row lies outside."""
        coeff, rem = self._solve(rows, coords=True)
        return None if rem.any() else coeff

    def __eq__(self, other):
        if not isinstance(other, Lattice) or self.n != other.n:
            return NotImplemented
        a, b = self._hnf, other._hnf
        return all(
            np.array_equal(x, y) for x, y in ((a.piv, b.piv), (a.unit, b.unit), (a.B, b.B))
        )

    def __hash__(self):
        raise TypeError("Lattice is unhashable (mutable)")

    def __repr__(self):
        return f"Lattice(n={self.n}, rank={self.rank})"


def _lower(lat, split):
    """The vectors of lat whose first ``split`` entries are zero, as a
    lattice on the columns from ``split`` on.

    Its canonical basis is lat's rows with a pivot at ``split`` or later,
    cut to those columns, as they stand: they are zero left of ``split``,
    and their pivots and the entries above them are lat's.  So it is a
    slice of the stored form, copied so that lat's block can go, and
    stored as int64 if its entries fit."""
    piv, unit, cols, B = lat._hnf
    k = int(np.searchsorted(piv, split))
    at = int(np.searchsorted(cols, split))
    B = B[k:, at:].copy()
    hnf = _Hermite(piv[k:] - split, unit[k:], cols[at:] - split, _frozen(B))
    return Lattice._of(lat.n - split, _fitted(hnf))


def checked(blocks, deadline):
    """The blocks as they come, with the deadline (``errors.Deadline``)
    checked before each, so a ``Lattice.add`` that draws them can be
    stopped between folds."""
    for block in blocks:
        deadline.check()
        yield block


def lattice_intersection(a, b, deadline=Deadline()):
    """Intersection of two lattices in the same ambient Z^n (Zassenhaus:
    the rows (x, x) for x in A and (y, 0) for y in B span the vectors
    (x + y, x), and those with x + y = 0 are exactly (0, A n B)).  The
    deadline is checked before each block of those rows."""
    if a.n != b.n:
        raise ValueError(f"lattice_intersection: ambient ranks {a.n} and {b.n} differ")
    step = _block_rows(2 * a.n)
    blocks = chain(
        (np.concatenate([x, x], axis=1) for x in a.basis_blocks(step)),
        (np.concatenate([y, np.zeros_like(y)], axis=1) for y in b.basis_blocks(step)),
    )
    return _lower(Lattice(2 * a.n, checked(blocks, deadline)), a.n)


# -- Smith normal form -------------------------------------------------------


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
    """The nonzero invariant factors of a lattice's canonical basis, by
    alternating row and column Hermite forms (Kannan and Bachem, 1979).

    Each unit row splits off as a trivial summand, and ``rest`` is the
    other rows on the columns no unit pivot takes.  While
    a row of the non-unit block ``rest`` has an entry besides its pivot,
    the loop goes on with the row lattice of ``rest.T``: a matrix and its
    transpose have the same invariant factors.  It ends because each
    leading pivot is a positive integer that only ever shrinks, to the gcd
    of its row, and once it divides its row the canonical form makes that
    row and column its pivot alone, which later steps keep.  Then the rows
    are a diagonal, and ``_divisor_chain`` turns it into d1 | d2 | ...."""
    units = 0
    while True:
        rest = lat._hnf.B[~lat._hnf.unit]
        units += lat.rank - len(rest)
        if not (np.count_nonzero(rest, axis=1) > 1).any():
            return [1] * units + _divisor_chain([int(d) for d in rest[rest != 0]])
        lat = Lattice(len(rest), rest.T)


def smith_diagonal(matrix):
    """The nonzero invariant factors of an integer matrix, from the
    canonical HNF of its rows and then of alternately the columns and
    rows of what its unit rows leave (``_smith``), until every row is its
    pivot alone; a leading pivot only shrinks until it divides its row,
    so that ends."""
    rows = list(matrix)
    return _smith(Lattice(len(rows[0]), rows)) if rows else []


# -- finitely presented abelian groups ---------------------------------------


class FinPresAb:
    """A finitely generated abelian group Z^ngens / relations.

    Groups are compared only by invariant factors and free rank (abstract
    isomorphism); the presentation is kept so elements and maps can be
    manipulated in the original coordinates.
    """

    __slots__ = ("ngens", "relations")

    def __init__(self, ngens, relations=None):
        self.ngens = ngens
        if isinstance(relations, Lattice):
            self.relations = relations
        else:
            self.relations = Lattice(ngens, [] if relations is None else relations)

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
        """Z/d1 + ... + Z/dk + Z^rank on k + rank generators, every d > 1.
        The relations d_i·e_i are a canonical basis as they stand, so they
        are stored with nothing eliminated."""
        k, n = len(torsion), len(torsion) + rank
        if any(d <= 1 for d in torsion):
            raise ValueError(f"torsion orders {torsion} are not all above 1")
        B = int_block([[d if i == j else 0 for j in range(n)] for i, d in enumerate(torsion)], n)
        hnf = _Hermite(np.arange(k), np.zeros(k, dtype=bool), np.arange(n), _frozen(B))
        return cls(n, Lattice._of(n, hnf))

    def invariants(self):
        """(torsion_factors d1 | d2 | ..., free_rank), from the canonical
        basis of the relations by alternating row and column Hermite forms
        until every row is its pivot alone (``_smith``), which ends since
        a leading pivot only shrinks until it divides its row."""
        nz = _smith(self.relations)
        return tuple(d for d in nz if d > 1), self.ngens - len(nz)

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
        return rel.rank == self.ngens and bool(rel._hnf.unit.all())

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


def quotient(lat, keep=None):
    """(cols, group): Z^keep / proj_keep(lat), the quotient by lat's rows
    cut to the columns that a boolean mask ``keep`` of the n columns
    keeps (every column by default), presented on its surviving
    generators ``cols``, the kept columns that are no unit pivot of lat.

    A unit pivot's column is zero outside its row, and the other rows
    are zero on unit-pivot columns, so a unit row whose pivot is kept
    removes that generator and nothing else.  The relations are every
    other row, cut to ``cols``: the rows whose pivot is not 1, and the
    unit rows whose pivot is dropped.

    - With every column kept, they are lat's non-unit rows on ``cols``,
      canonical as they stand, sliced off the stored form unchecked.
    - When ``keep`` drops columns but no pivot, the cut rows are still
      canonical as they stand, and ``Lattice.canonical`` checks them.
    - When it drops a pivot, the rows that the cut leaves nonzero are
      eliminated."""
    piv, unit, cols, B = lat._hnf
    on = slice(None) if keep is None else keep[cols]
    gens = cols[on]
    if keep is not None and not keep[piv].all():
        rows = B[~(unit & keep[piv])][:, on]
        return gens, FinPresAb(len(gens), rows[rows.any(axis=1)])
    n, at, rows = len(gens), np.searchsorted(gens, piv[~unit]), B[~unit][:, on]
    if keep is None:
        hnf = _Hermite(at, unit[~unit], np.arange(n), _frozen(rows))
        return gens, FinPresAb(n, Lattice._of(n, hnf))
    return gens, FinPresAb(n, Lattice.canonical(n, at, np.arange(n), rows))


class AbMap:
    """Map of presented abelian groups, stored as the nonzero entries of
    its generator matrix, one ``SparseRows`` ``rows`` (row convention: the
    image of domain generator i is row i, in codomain generator
    coordinates).  No dense matrix is kept: ``matrix`` builds one on each
    call, for the readers that reduce or cut whole rows."""

    __slots__ = ("dom", "cod", "rows")

    def __init__(self, dom, cod, matrix):
        """The matrix is a ``SparseRows`` of the domain's by the
        codomain's rank, kept as it is, or a dense matrix, read exactly
        (``int_block``) into its nonzero entries: a float is refused, and
        an entry of 2**63 stays a Python int.  A dense matrix needs one
        row per domain generator; no rows given ([]), or an empty matrix
        of the domain's by the codomain's rank, is the zero map."""
        self.dom = dom
        self.cod = cod
        shape = (dom.ngens, cod.ngens)
        if not isinstance(matrix, SparseRows):
            if (isinstance(matrix, list) and not matrix) or (
                    np.size(matrix) == 0 and np.shape(matrix) == shape):
                matrix = np.zeros(shape, dtype=np.int64)
            matrix = SparseRows.of(int_block(matrix, cod.ngens))
        if tuple(matrix.shape) != shape:
            raise ValueError(f"{matrix.shape[0]} rows for a domain of rank {dom.ngens}, or "
                             f"{matrix.shape[1]} columns for a codomain of rank {cod.ngens}")
        self.rows = matrix

    @property
    def matrix(self):
        """The generator matrix as a new dense, C-contiguous array."""
        return self.rows.dense()

    @classmethod
    def zero(cls, dom, cod):
        return cls(dom, cod, [])

    @classmethod
    def identity(cls, g):
        return cls(g, g, np.eye(g.ngens, dtype=np.int64))

    def is_well_defined(self):
        """Domain relations must land in the codomain relation lattice."""
        images = sparse_product(SparseRows.of(self.dom.relations.basis()), self.rows)
        return self.cod.relations.contains(images.nonzero_rows()[1])

    def compose(self, other):
        """self o other (apply other first)."""
        if other.cod.ngens != self.dom.ngens:
            raise ValueError(
                f"compose: codomain rank {other.cod.ngens} != domain rank {self.dom.ngens}"
            )
        return AbMap(other.dom, self.cod, sparse_product(other.rows, self.rows))

    def equals_as_map(self, other):
        """Equality as maps of presented groups (difference lands in relations)."""
        if self.dom.ngens != other.dom.ngens or self.cod.ngens != other.cod.ngens:
            return False
        diff = SparseRows.placed(self.rows.shape, [(0, 0, 1, self.rows), (0, 0, -1, other.rows)])
        return self.cod.relations.contains(diff.nonzero_rows()[1])


def safe_matmul(a, b):
    """Exact matrix product: float64 (BLAS) while every partial sum stays
    below 2**53, where float64 is exact; int64 below 2**62; bigint above."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    return _product(a, b, _maxabs(a) * _maxabs(b) * a.shape[1])


# -- sparse rows ----------------------------------------------------------------


class SparseRows(NamedTuple):
    """An integer matrix by its nonzero entries in row-major order: entry
    e is data[e] at (row[e], col[e]), and the entries of row r are those
    from indptr[r] to indptr[r + 1].  ``data`` is int64 or Python ints
    (object dtype), and every operation here is exact on either."""

    shape: tuple
    indptr: np.ndarray
    row: np.ndarray
    col: np.ndarray
    data: np.ndarray

    @classmethod
    def of(cls, matrix):
        """The nonzero entries of a 2-D int64 or object array, such as the
        reduced coordinates a map is built from."""
        # a flat scan of a boolean mask is several times faster than
        # np.nonzero of the 2-D integer array; the entries are gathered
        # by (row, column), since the array need not be C-contiguous and
        # a flat view of it would be a full copy
        r, c = np.divmod(np.flatnonzero(matrix != 0), max(matrix.shape[1], 1))
        return cls(matrix.shape, np.searchsorted(r, np.arange(len(matrix) + 1)), r, c, matrix[r, c])

    @classmethod
    def summed(cls, shape, row, col, data):
        """The matrix of the given entries, those at one place summed
        exactly and zero sums dropped.  The sums stay in int64 while
        max|entry| times the entries at one place is below 2**62."""
        width = max(shape[1], 1)
        key = row * width + col
        if len(key):
            order = np.argsort(key, kind="stable")
            key, data = key[order], data[order]
            new = np.ones(len(key), dtype=bool)
            np.not_equal(key[1:], key[:-1], out=new[1:])
            head = np.flatnonzero(new)
            most = int(np.diff(head, append=len(key)).max())
            if data.dtype != object and _maxabs(data) * most >= _I64_SAFE:
                data = data.astype(object)
            data = np.add.reduceat(data, head)
            keep = np.flatnonzero(data != 0)
            key, data = key[head[keep]], data[keep]
            if data.dtype == object and _maxabs(data) < _I64_SAFE:
                data = data.astype(np.int64)
        row, col = np.divmod(key, width)
        return cls(shape, np.searchsorted(row, np.arange(shape[0] + 1)), row, col, data)

    @classmethod
    def placed(cls, shape, parts):
        """The matrix of the given shape that holds each part (row offset,
        column offset, sign, ``SparseRows``) at its offsets, times its
        sign; where parts overlap they are summed (``summed``)."""
        rows, cols, data = zip(*((m.row + r, m.col + c, sign * m.data) for r, c, sign, m in parts))
        return cls.summed(shape, np.concatenate(rows), np.concatenate(cols), np.concatenate(data))

    def dense(self):
        """The matrix as one new dense, C-contiguous 2-D array."""
        out = np.zeros(self.shape, dtype=self.data.dtype)
        out[self.row, self.col] = self.data
        return out

    def nonzero_rows(self):
        """(rows, block): the rows that hold an entry, increasing, and
        those rows as one dense 2-D array."""
        rows, at = np.unique(self.row, return_inverse=True)
        return rows, self._replace(shape=(len(rows), self.shape[1]), row=at).dense()


def sparse_product(a, b):
    """The exact product of two ``SparseRows``, a @ b, as one
    ``SparseRows``.  Each entry (r, c, x) of a meets the entries of row c
    of b, found by b's row pointers, so the work is the number of such
    pairs.  The pairwise products are int64 while max|a| · max|b| <
    2**62, else Python ints, and ``summed`` adds the ones at one place by
    the same rule."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"sparse_product: inner dimensions {a.shape[1]} and {b.shape[0]} differ")
    start = b.indptr[a.col]
    count = b.indptr[a.col + 1] - start
    pair = np.repeat(np.arange(len(a.col)), count)
    at = np.arange(len(pair)) + np.repeat(start - np.cumsum(count) + count, count)
    a_data, b_data = a.data, b.data
    if _maxabs(a_data) * _maxabs(b_data) >= _I64_SAFE:
        a_data, b_data = a_data.astype(object), b_data.astype(object)
    shape = (a.shape[0], b.shape[1])
    return SparseRows.summed(shape, a.row[pair], b.col[at], a_data[pair] * b_data[at])


# -- homology of presented complexes ------------------------------------------


def _rank(W):
    """The rank of an integer matrix, from its echelon form, which is
    written into W.  A step that could leave int64 raises before it is
    taken, so the rows as they then stand, which span the same lattice,
    go on with Python ints."""
    try:
        return _echelon(W)[0]
    except _Overflow:
        return _echelon(W.astype(object))[0]


def cochain_homology(maps, deadline=Deadline()):
    """[H^0, ..., H^(K-1)] of a complex L_0 --maps[0]--> L_1 --> ... -->
    L_K of presented groups, H^k = ker(maps[k]) / im(maps[k-1]) with
    im(maps[-1]) = 0, in one pass with no kernel basis built (see the
    module docstring).  The deadline is checked once per level.

    Each level is presented once, on its surviving generators
    (``quotient``), and each map is reduced modulo its codomain once; at
    level k, g_cut is the rows of that cut at the level's surviving
    generators, and f_cut is the cut of maps[k-1] in full (no rows at
    level 0).  One coordinate solve in R_(k+1) of the rows of
    [f_cut; R_k]·g_cut, formed sparse,
    gives the twist of level k's cone; it refuses maps[k] o maps[k-1]
    != 0 with ValueError and a map that is not well defined with
    AssertionError.  The cone's Smith invariants give H^k's torsion and
    the free rank of coker d_A; rk d_B at level k is the rank of the
    cone at level k + 1, so only the top level's is an echelon form
    (``_rank``).  Each map must land in the group the next one starts
    from, presented alike: on as many generators and with the same
    relation lattice."""
    for k, (f, g) in enumerate(zip(maps, maps[1:])):
        # lattices of two ranks are unequal
        if g.dom is not f.cod and g.dom.relations != f.cod.relations:
            raise ValueError(f"map {k} lands in a group presented unlike map {k + 1}'s domain")
    if not maps:
        return []
    cols_B, pres_B = quotient(maps[0].dom.relations)
    f_cut = np.zeros((0, len(cols_B)), dtype=np.int64)
    # (torsion, free rank of coker d_A) and rk d_A, level by level
    parts, ranks = [], []
    for k, g in enumerate(checked(maps, deadline)):
        cols_C, pres_C = quotient(g.cod.relations)
        rel_C = pres_C.relations
        cut = g.cod.relations._solve(g.matrix)[1]
        g_cut = cut[cols_B]
        left = np.concatenate([f_cut, pres_B.relations._hnf.B])
        rows, block = sparse_product(SparseRows.of(left), SparseRows.of(g_cut)).nonzero_rows()
        twist, rest = rel_C._solve(block, coords=True)
        if rest.any():
            if rows[rest.any(axis=1)][0] < len(f_cut):
                raise ValueError(f"maps {k - 1} and {k} do not compose to zero")
            raise AssertionError("relations of B escape ker(g)")
        # [h; e] on the product's nonzero rows, 0 on the others
        coords = np.zeros((len(left), rel_C.rank), dtype=twist.dtype)
        coords[rows] = twist
        cone = FinPresAb(len(cols_B) + rel_C.rank, np.concatenate([left, -coords], axis=1))
        parts.append(cone.invariants())
        ranks.append(cone.relations.rank)
        f_cut, cols_B, pres_B = cut, cols_C, pres_C
    # rk d_B at the last level: [g_cut; R_K], the top level's only cost
    ranks.append(_rank(np.concatenate([g_cut, pres_B.relations._hnf.B])))
    return [FinPresAb.from_invariants(t, free - r) for (t, free), r in zip(parts, ranks[1:])]


def homology_at(f, g):
    """ker(g)/im(f) for presented maps A --f--> B --g--> C with g o f = 0:
    H^1 of the pass over [f, g] (``cochain_homology``), which also refuses
    an f or a g that is not well defined.  f must land in the group g
    starts from, presented alike."""
    return cochain_homology([f, g])[1]


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
