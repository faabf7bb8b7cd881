"""Exact arithmetic in the truncated group ring Z[F_p]/r^N.

The Z-basis is the filtration basis: (g, J) stands for
s(g)·t_{j1}···t_{jk} with s the Schreier transversal of the level
presentation, rho its Schreier free generators, t_j = rho_j - 1 and
0 <= k < N.  Degree-k products of the t_j form the k-th filtration layer,
so the ring rank is sum_{k<N} |G|·m^k with m the Schreier rank.

Layout: the basis is ordered by (|J|, g, J), so word (g, J) sits at
off_|J| + g·m^|J| + idx(J), where off_k = sum_{i<k} |G|·m^i is the start
of layer k and idx(J) reads J as a base-m number; idx(J+K) =
idx(J)·m^|K| + idx(K).  The layout is kept only as this formula, in
``TruncatedRing.layer_offsets`` and the strides of the shifts below, never
as a table of words, and no offset depends on N.  Right multiplication by
t_K is a shift, (g, J)·t_K = (g, J+K), zero once |J| + |K| >= N, so it
moves the words (g, J+K) for all K of one length as one contiguous
slice.  Hence
r^k is the span of the words with |J| >= k, and (w - 1)·(h, K) =
((w - 1)·s(h))·t_K, for a group word w, multiplies a whole block of
ring vectors on the left, for a batch of words at once: read a block's
layer k as rows (v, K) by columns h, and the terms of length a of every
word's products (w - 1)·s(h) as one |G| × D_a section matrix, and one
product by it gives every word's image on layer a + k
(``TruncatedRing.left_multiply``).
An element of the identity component, sum c_L·t_L, multiplies on the
right as a sum of strided shifts: word
(h, K) at position s of layer k goes to position s·m^|L| + idx(L) of
layer k + |L|, so each (term, layer) is one slice-add with stride m^|L|
(``TruncatedRing.right_multiply``).

Monomial ideals are built right to left, from the empty monomial, which
is the whole ring (``TruncatedRing.eval_monomial``), by one identity.
Let w = a·T have length k, with T the tail's ideal, and let
l = min(k, N) - 1 and j = k - 1 - l.  T contains r^(k-1), so it contains
every word of the layers above l (there are none when k > N), and so
does w.  Modulo those words, gamma·(h, K) = (gamma·s(h))·t_K for |K| = l
keeps only the layer-0 part of gamma·s(h), for gamma = u - 1 over the
right generators u of the letter a (group words: the generators x of F
for f, the rho_j for r): x - 1 acts as g_x - 1 on the group coordinate,
g_x the image of x in G, and rho_j - 1 acts as 0.  If T's first j letters
are f, T contains f^j·r^l, whose layer-l part is Delta^j⊗I, with Delta
the augmentation ideal of Z[G] and Delta^0 = Z[G]; so for k <= N, where
j = 0, Delta^0⊗I is all of layer l.  For X in Z^|G|, X⊗I puts a row v of
X at (g, K) -> v_g for every K of length l.  Let U be the unit rows of
Delta^j's canonical basis for an f head whose tail starts with j letters
f, and none otherwise.  A unit pivot of a sublattice is a unit pivot of T, since
T's pivot there divides 1; T's canonical row there and U⊗I's differ by a
vector of T with a later pivot.  So, by induction from the last pivot,
U⊗I and the slice S of T's canonical rows whose pivot is no unit pivot of
U⊗I span T, and

    w = L⊗I + (the words of the layers above l) + span{gamma·s : s in S},
    L = span{(g_x - 1)·u : u in U},

with one x per distinct nontrivial image g_x.  The rows of S above layer
l drop out, since their products lie above l.  Those below l take every
generator, those on layer l one generator per distinct image for f and
none for r, and for k <= N there are none on layer l.  For k <= N,
L = Delta (the generators map onto G) and the first two terms are
r^k + Delta⊗I.  The first two terms are canonical as they stand, by L's
pivots and then K, so ``intlin`` writes them down with no elimination
(``Lattice.seed``, given the layout numbers by ``eval_monomial``),
and S is read off T's pivots (``Lattice.pivot_cols``).

The ring at N = 1 is Z[G] at every level, and f^j there is Delta^j.  So
U and L are read off f^j of the level-0 ring at N = 1, the base ring,
which builds them by this same identity (``TruncatedRing.power``); a
``GroupContext`` shares one base ring among its rings.  The chain stops at
the first power with no unit row (Delta^2 = 2·Delta on Z/2): a unit pivot
of a sublattice is a unit pivot of the lattice, so no later power has one.

A presentation morphism phi sends (g, J) to phi(s(g))·prod phi(t_j)
(``word_images``).  The transversal uses copy-0 letters only and is the
same at every level (``LevelPresentation``).  So a hom that fixes copy 0
and sends each generator to a generator (every coface d^j with j >= 1,
and every codegeneracy) fixes every s(g), and it sends the Schreier
generator of edge (g, c, i) to that of edge (g, c', i), or to 1 when that
is a tree edge.  Such a hom relabels basis words: (g, J) goes to
(g, sigma(J)), or to 0 if some rho_j in J goes to 1, and its images are
unit rows read off an index map.  The test is made on the words, not on
the coface index; d^0 moves copy 0 and takes the general path of
products (on the trivial group, with s empty, it relabels too).

A ring element is a dense exact row over the basis words: int64 while
``intlin.for_sums`` rules that no entry can wrap, Python ints past that.
Every one the code forms is built by shifts: the normal form of a group
word is e_g multiplied on the right by rho_j or rho_j^-1 once per letter
of its rewrite (``normal_form``), and products are the shifts of
``left_multiply`` and ``right_multiply``.

The value f/c of a code c is presented on a basis of the augmentation
ideal f itself (``FunctorValue``).  f is free on the words of the layers
>= 1 and on the differences (g, ()) - (|G|-1, ()) for g < |G|-1, and in
those coordinates an element of f is its ring vector without the entry at
word |G|-1.  No canonical row of c has its pivot there: a row of f that is
zero on the layer-0 words before it is zero there too.  So c's canonical
basis with that column dropped is canonical as it stands, and f/c is
presented on c's columns without a unit pivot, but for |G|-1, with c's
other rows cut to them as relations: one lattice per level, c, and
nothing eliminated (``intlin.quotient``, which checks that form).

This module builds the whole presentation of f/code on the standard
complex, and ``limits`` sees only presented groups and maps:
``structure`` gives every level's value, each ring built just before its
value, and every coface and codegeneracy as the map it induces
(``induced_map``), and ``FunctorValue.moore`` gives each level's Moore
degree, the value cut to the words that use every copy 1..n of F (one
``intlin.quotient`` of c), with the positions among ``gens`` it keeps,
by which ``limits`` cuts d^0.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property, partial, reduce
from itertools import chain

import numpy as np

from . import freegrp
from .errors import CapExceeded, Deadline, InputError
from .frcode import required_truncation
from .intlin import AbMap, Lattice, checked, for_sums, int_block, lattice_intersection, quotient
from .permgrp import LevelPresentation, check_level, schreier_rank

DEFAULT_RANK_CAP = 200_000

# eval_monomial multiplies the tail basis in row chunks, by all of a
# letter's generators at once: a chunk's rows × generators × rank stay
# within this many entries (int64: 512 KiB), or the chunk is one row.  A
# chunk costs at most one product per layer pair (a, k) whatever its
# height, so short chunks are slow on wide rings, while its products and
# their temporaries add to the peak memory.
_PRODUCT_ENTRIES = 2**16


def layer_sizes(order, m, depth):
    """The sizes |G|·m^k, k < depth, of the filtration layers of a ring
    over a level with m Schreier generators, one at a time, so a caller
    that stops at a cap never forms the large powers."""
    return (order * m**k for k in range(depth))


def check_depth(depth):
    """Refuse a truncation depth that is not an int >= 1 (a bool, a float,
    a string, 0) with InputError."""
    if isinstance(depth, bool) or not isinstance(depth, int) or depth < 1:
        raise InputError(f"truncation depth {depth!r} is not an int >= 1")


def rank_sum(group, levels, depth):
    """The words that the rings of levels 0..levels-1 truncated at the
    given depth hold in all, with no level built: level p has
    schreier_rank(|G|, p + 1, rank) Schreier generators, and its ring the
    layers of ``layer_sizes``.  Raises CapExceeded at the first layer
    that takes the sum past DEFAULT_RANK_CAP."""
    total = 0
    for p in range(levels):
        for size in layer_sizes(group.order, schreier_rank(group.order, p + 1, group.ngens), depth):
            total += size
            if total > DEFAULT_RANK_CAP:
                raise CapExceeded(
                    f"ring rank exceeds the cap {DEFAULT_RANK_CAP} summed over levels 0..{levels - 1}"
                )
    return total


class TruncatedRing:
    """Ambient (level presentation, truncation depth N); frozen after init.

    Memo tables (section matrices per tuple of group words, monomial
    lattices, hom images and relabellings, powers of the augmentation
    ideal) are populated lazily; they are keyed by tuples of group words,
    monomials, homs and exponents only, so results never depend on call
    order.  Code lattices and normal forms are not memoized: a pipeline
    asks for each level's code lattice once, and the section products of
    a tuple of words are formed once per ring, as dense rows that a memo
    would keep at full rank, and kept only on their nonzero columns, in
    the section matrices.  The powers of the augmentation ideal of Z[G]
    come from ``base``, the level-0 ring at N = 1, which a
    ``GroupContext`` shares among the rings of its group; by default a
    ring makes its own, and that ring is its own base.  A base of another
    group object, level or depth is refused with ValueError, before any
    lattice is built.
    """

    def __init__(self, lp, depth, base=None):
        check_depth(depth)
        self.lp = lp
        self.depth = depth
        # layer_offsets[k] is the index of the first word with |J| = k; the
        # sum stops at the first offset past the cap, before m**k grows huge
        self.layer_offsets = [0]
        for size in layer_sizes(lp.group.order, lp.num_schreier_gens, depth):
            self.layer_offsets.append(self.layer_offsets[-1] + size)
            if self.layer_offsets[-1] > DEFAULT_RANK_CAP:
                raise CapExceeded(f"ring rank exceeds the cap {DEFAULT_RANK_CAP}")
        self.rank = self.layer_offsets[-1]
        if base is None:
            base = self if (lp.level, depth) == (0, 1) else TruncatedRing(
                lp if lp.level == 0 else LevelPresentation(lp.group, 0), 1)
        elif base.lp.group is not lp.group or (base.lp.level, base.depth) != (0, 1):
            raise ValueError(f"{base!r} is not the level-0 ring at N = 1 of {lp.group.name}")
        self.base = base

        self._section_matrices = {}
        self._monomial_cache = {}
        self._hom_images = {}
        self._relabellings = {}
        self._powers = []

    def __repr__(self):
        return (
            f"TruncatedRing({self.lp.group.name}, level={self.lp.level}, "
            f"N={self.depth}, rank={self.rank})"
        )

    def all_copies_words(self):
        """Whether each basis word (g, J), in layout order, is an
        all-copies word: one whose letters use every copy 1..p of F, p the
        level (copy-0 letters may be there too).  The letter rho_j is the
        Schreier generator of an edge (g, c, i), of copy c.  The copies a
        word uses are a row of booleans, one per copy, built a layer at a
        time from the layout: position s of layer k, extended by j, is
        s·m + j.  A word has fewer than N letters, so it uses fewer than
        N copies, and there is none at a level p >= N, however many
        copies the level has."""
        lp = self.lp
        copy = np.zeros((lp.num_schreier_gens, lp.copies), dtype=bool)
        for (_, c, _), j in lp.edge_to_gen.items():
            if j is not None:
                copy[j, c] = True
        used = np.zeros((lp.group.order, lp.copies), dtype=bool)
        parts = [used]
        for _ in range(1, self.depth):
            used = (used[:, None] | copy).reshape(-1, lp.copies)
            parts.append(used)
        return np.concatenate(parts)[:, 1:].all(axis=1)

    def normal_form(self, word):
        """Class of the group word in the filtration basis, as a row over the
        basis: w = s(g)·u with u in R, and u rewritten in the Schreier
        generators, so w is e_g multiplied on the right by rho_j or
        rho_j^-1 for each letter of the rewrite.  v·t_j moves word (h, K),
        at position s of layer k, to (h, K+(j,)), at s·m + j of layer
        k + 1: one strided slice per layer.  So v·rho_j = v + v·t_j is one
        add per layer up to the row's top nonzero one, made from the top
        down so that each reads a layer not yet changed, and y = v·rho_j^-1
        solves y + y·t_j = v one layer at a time from layer 0 up, filling
        every layer.  An entry of v·rho_j is a sum of two entries of v, and
        one of v·rho_j^-1 of at most N, each with coefficient ±1: each step
        keeps ``intlin.for_sums``'s rule with weight 2 or N, which needs no
        look at the row while the product of the weights so far, a bound on
        max|row|, stays below 2**62.  At N = 1 every rho_j is 1, and w is
        s(g) with no rewrite."""
        off, m = self.layer_offsets, self.lp.num_schreier_gens
        g = self.lp.eval_word(word)
        row = np.zeros(self.rank, dtype=np.int64)
        row[g] = 1
        u = freegrp.mul(freegrp.inv(self.lp.transversal[g]), word)
        top, bound = 0, 1  # row is 0 above layer top, and max|row| <= bound
        for j, sign in self.lp.rewrite_in_R(u) if self.depth > 1 else ():
            weight = 2 if sign > 0 else self.depth
            bound *= weight
            row = row if bound < 2**62 else for_sums(row, weight)
            top = min(top + 1, self.depth - 1) if sign > 0 else self.depth - 1
            for k in range(top - 1, -1, -1) if sign > 0 else range(top):
                row[off[k + 1] + j : off[k + 2] : m] += sign * row[off[k] : off[k + 1]]
        return row

    def section_products(self, word):
        """The |G| products (w - 1)·s(h), h in G, for the group word w, as
        the rows of one (|G|, rank) block: row h is nf(w·s(h)) - e_h."""
        block = np.stack([self.normal_form(freegrp.mul(word, s_h)) for s_h in self.lp.transversal])
        block[np.arange(len(block)), np.arange(len(block))] -= 1
        return block

    def section_matrices(self, words):
        """The section products of the given group words as one matrix per
        term length a, and the largest sum|c| over one word's products.

        S_a is |G| × D_a: its D_a columns are the distinct destinations
        (word index u, position i of (g, J) in layer a) of the terms
        c·(g, J), |J| = a, of the products (w_u - 1)·s(h), in increasing
        order, and S_a[h, column] is that term's c: the nonzero columns of
        each word's ``section_products`` block, split by layer.  Returned
        as ([(S_a, u, i) for a < N], weight); memoized per tuple of
        words, so a tuple's products are formed once per ring."""
        words = tuple(words)
        if words not in self._section_matrices:
            off, order = self.layer_offsets, self.lp.group.order
            none = np.zeros(0, dtype=np.intp)
            parts = [[(np.zeros((order, 0), dtype=np.int64), none, none)] for _ in range(self.depth)]
            weight = 0
            for u, word in enumerate(words):
                block = self.section_products(word)
                cols = np.flatnonzero(block.any(axis=0))
                weight = max(weight, sum(map(abs, block[:, cols].ravel().tolist())))
                ends = np.searchsorted(cols, off)
                for a, part in enumerate(parts):
                    here = cols[ends[a] : ends[a + 1]]
                    part.append((block[:, here], np.full(len(here), u), here - off[a]))
            # weight bounds every |c|, so int64 holds them below 2**62
            dtype = np.int64 if weight < 2**62 else object
            mats = [(np.concatenate(S, axis=1).astype(dtype), np.concatenate(u), np.concatenate(i))
                    for S, u, i in (zip(*part) for part in parts)]
            self._section_matrices[words] = mats, weight
        return self._section_matrices[words]

    def left_multiply(self, words, V, layer=0, top=None):
        """(w - 1)·v for every group word w of the sequence ``words`` and
        every row v of the 2-D block V (rows over the basis), as one
        (len(words), len(V), rank) array; V is zero on the layers below
        the given one, which are not read, and the product is formed on
        the layers up to ``top`` only (N - 1 by default) and left 0 above.

        (w - 1)·(h, K) = ((w - 1)·s(h))·t_K, and each term c·(g, J) of
        (w - 1)·s(h) sends the words (h, K) with |K| = k, at positions
        h·m^k + idx(K) of layer k, to the words (g, J+K), at
        i·m^k + idx(K) of layer |J| + k, i the position of (g, J) in layer
        |J| (see the module docstring).  So with V's layer k viewed as
        (len(V)·m^k) × |G|, rows (v, K) by columns h, one product by the
        section matrix S_a (``section_matrices``) gives every word's part
        on layer a + k, and one fancy-indexed add puts it into the
        output's layer a + k, viewed as (words, len(V), |G|·m^a, m^k), at
        the distinct (u, i) of S_a's columns: one product per (a, k),
        however many words there are.  Every result entry is a sum over
        distinct terms of one word, so max|V| times the largest sum|c|
        over one word's |G| products bounds it: the block is int64 while
        that stays below 2**62, Python ints otherwise
        (``intlin.for_sums``).
        """
        off, m = self.layer_offsets, self.lp.num_schreier_gens
        top = self.depth - 1 if top is None else top
        mats, weight = self.section_matrices(words)
        V = for_sums(V, weight)
        n, order = len(V), self.lp.group.order
        out = np.zeros((len(words), n, self.rank), dtype=V.dtype)
        for k in range(layer, top + 1):
            w = m**k
            Vk = V[:, off[k] : off[k + 1]].reshape(n, order, w).transpose(0, 2, 1)
            Vk = Vk.reshape(n * w, order)
            for a, (S, u, i) in enumerate(mats[: top + 1 - k]):
                if len(u):
                    # a view, since only the last axis is split
                    dst = out[:, :, off[a + k] : off[a + k + 1]]
                    dst = dst.reshape(len(words), n, order * m**a, w)
                    dst[u, :, i, :] += (Vk @ S).reshape(n, w, len(u)).transpose(2, 0, 1)
        return out

    def right_multiply(self, V, b):
        """v·b for every row v of the 2-D block V (rows over the basis), b
        a row of the identity component, sum c_L·t_L, as one (len(V), rank)
        array: b is nonzero only at the words (0, L), the first m^a words
        of each layer a, and a row with any other entry is refused.

        (h, K)·t_L = (h, K+L), and word (h, K) sits at position
        s = h·m^k + idx(K) of layer k, while (h, K+L) sits at s·m^|L| +
        idx(L) of layer k + |L| (see the module docstring): one strided
        slice-add of c_L times V's layer k per layer k < N - |L|.  The
        bound rule is ``left_multiply``'s: every result entry is a sum over
        distinct terms, so the block is int64 while max|V|·sum|c_L| <
        2**62, Python ints otherwise.
        """
        off, m = self.layer_offsets, self.lp.num_schreier_gens
        terms = np.flatnonzero(b)
        layers = np.searchsorted(off, terms, side="right") - 1
        if (terms - np.take(off, layers) >= m**layers).any():
            raise ValueError("right_multiply needs an element of the identity component")
        coeffs = b[terms].tolist()
        V = for_sums(V, sum(map(abs, coeffs)))
        out = np.zeros((len(V), self.rank), dtype=V.dtype)
        for t, a, c in zip(terms.tolist(), layers.tolist(), coeffs):
            i, w = t - off[a], m**a
            for k in range(self.depth - a):
                out[:, off[a + k] + i : off[a + k + 1] : w] += c * V[:, off[k] : off[k + 1]]
        return out

    # -- ideal lattices ------------------------------------------------------

    def right_generators(self, letter):
        """The group words w whose differences w - 1 generate the letter
        ideal as a right module: the generators x of F for f, and the
        Schreier generators rho_j for r."""
        if letter == "f":
            lp = self.lp
            return [freegrp.gen_word(c, i) for c in range(lp.copies) for i in range(lp.base_rank)]
        if letter == "r":
            return self.lp.schreier_gens
        raise ValueError(f"unknown letter {letter!r}")

    def image_generators(self, letter):
        """One right generator of the letter per distinct nontrivial image
        in G, the first in ``right_generators`` order: the generators of
        copy 0 for f, none for r, whose generators lie over the identity.
        On the top layer x - 1 acts as g_x - 1, so these give every product
        of a top-layer row there."""
        return self._f_images if letter == "f" else []

    @cached_property
    def _f_images(self):
        images = {}
        for x in self.right_generators("f"):
            images.setdefault(self.lp.eval_word(x), x)
        images.pop(0, None)
        return list(images.values())

    def power(self, j):
        """(the pivots of U_j, L_j) of the module docstring for Delta^j,
        or None once Delta^j has no unit row, in a ring at N = 1: U_j is
        the unit rows of f^j's canonical basis, read off its dense rows
        (the ring has |G| columns), and L_j the lattice of their products
        by the ``image_generators`` of f, through ``left_multiply``;
        L_0 = Delta, the vectors whose entries sum to 0, is written down
        (``Lattice.sum_zero``).  Rings read these off their ``base``.
        Memoized; the chain stops at the first power with no unit row."""
        powers = self._powers
        if not powers:
            # Delta^0 = Z[G]: U_0 is all of G, and L_0 = Delta, since the
            # generators map onto G
            powers.append((np.arange(self.rank), Lattice.sum_zero(self.rank)))
        while len(powers) <= j and powers[-1] is not None:
            T = self.eval_monomial("f" * len(powers))
            rows, piv = T.basis(), T.pivot_cols
            unit = np.flatnonzero(rows[np.arange(len(rows)), piv] == 1)
            if not len(unit):
                powers.append(None)
                break
            products = self.left_multiply(self.image_generators("f"), rows[unit])
            L = Lattice(self.rank, products.reshape(-1, self.rank))
            powers.append((piv[unit], L))
        return powers[j] if j < len(powers) else None

    def eval_monomial(self, mono, deadline=Deadline()):
        """Lattice of the monomial ideal, built right to left in a loop: from
        the longest suffix of the monomial that is cached already, or else
        from the empty monomial, the whole ring, one letter at a time.  The
        ideal w = a·T of length k is the span of gamma·t over gamma = u - 1,
        u a right generator of the letter a, and the rows t of the canonical
        basis of the tail's ideal T (T absorbs ring factors on the left, so
        no other products arise).  By the identity of the module docstring,
        with l = min(k, N) - 1 and j = k - 1 - l,

            w = L⊗I + (the words of the layers above l) + span{gamma·s : s in S},

        so the lattice starts from the canonical seed of the first two
        terms, with L = L_j of the base ring's ``power`` for an f head
        whose tail starts with j letters f and L = 0 (None) otherwise.
        Row (v, K) of L⊗I, v a canonical row of L and |K| = l, has v_g at
        word off_l + g·M + idx(K), M = m^l, so the seed is L⊗I_M placed at
        off_l plus the unit vectors from off_(l+1) on, and ``intlin``
        writes it down from these layout numbers (``Lattice.seed``); the
        empty monomial is the unit vectors from 0 on.  S
        is read off T's pivots: the rows below layer l, multiplied by every
        right generator, and the rows on layer l whose group coordinate is
        no pivot of U_j, multiplied by the ``image_generators``, first.
        Folding those first keeps the later folds cheap on a wide ring
        (fffrf on z2xz2 level 1 at N = 3 took 0.7 s in this order against
        5.4 s in the reverse one, on one core of a 2-vCPU host).  The
        products are formed on the layers up to l only: the seed holds
        every word above.

        The deadline is checked once per suffix and once per product block.
        Each suffix is cached as soon as its lattice is complete, and only
        then."""
        cache = self._monomial_cache
        start = next((i for i in range(len(mono) + 1) if mono[i:] in cache), len(mono) + 1)
        for i in reversed(range(start)):
            deadline.check()
            w = mono[i:]
            if not w:
                cache[w] = Lattice.seed(self.rank, 0)
                continue
            layer = min(len(w), self.depth) - 1
            j = len(w) - 1 - layer
            power = self.base.power(j) if w[0] == "f" and "r" not in w[1 : j + 1] else None
            units, L = power if power is not None else ([], None)
            tail, gens = cache[w[1:]], self.image_generators(w[0])
            # T's rows below layer l, and those on it whose group
            # coordinate (g, K) -> g is no pivot of U_j: none when U_j is
            # all of G, and none needed when no generator has an image
            off, order, M = self.layer_offsets, self.lp.group.order, self.lp.num_schreier_gens**layer
            piv = tail.pivot_cols
            lo, hi = np.searchsorted(piv, off[layer : layer + 2])
            on = []
            if gens and len(units) < order:
                outside = np.ones(order, dtype=bool)
                outside[units] = False
                on = lo + np.flatnonzero(outside[(piv[lo:hi] - off[layer]) // M])
            lat = Lattice.seed(self.rank, off[layer + 1], L, off[layer], M)
            every = self.right_generators(w[0])
            lat.add(chain(self._products(gens, tail, on, deadline, layer),
                          self._products(every, tail, np.arange(lo), deadline, layer)))
            cache[w] = lat
        return cache[mono]

    def _products(self, gens, tail, rows, deadline, top):
        """The products (u - 1)·t over the given group words u and the rows
        t of the tail lattice with an index in ``rows``, on the layers up
        to ``top``, as a stream of blocks, one per chunk of rows: a chunk
        takes all the words at once through ``left_multiply``, and its
        rows × words × rank stay within _PRODUCT_ENTRIES (one row when a
        single row takes more), so the one ``Lattice.add`` that takes the
        stream keeps its folds at full size."""
        if not len(gens):
            return
        step = max(1, _PRODUCT_ENTRIES // (len(gens) * self.rank))
        piv = tail.pivot_cols
        for s in range(0, len(rows), step):
            deadline.check()
            chunk = tail.basis_rows(rows[s : s + step])
            # canonical rows are zero left of their pivots, which increase
            layer = bisect_right(self.layer_offsets, piv[rows[s]]) - 1
            prod = self.left_multiply(gens, chunk, layer, top).reshape(-1, self.rank)
            yield prod[prod.any(axis=1)]

    def eval_code(self, code, deadline=Deadline()):
        """Lattice of the code ideal: sums of intersections of monomials.
        It starts from a copy of the term of largest rank and folds the
        others into it, so a one-term code is not eliminated again and a
        sum does not eliminate its largest basis again.  The deadline is
        checked between the blocks fed into each intersection and into the
        sum.  Nothing is memoized: a pipeline asks for each level's code
        lattice once."""
        if required_truncation(code) > self.depth:
            raise ValueError(
                f"truncation N={self.depth} too shallow for {code} "
                f"(needs {required_truncation(code)})"
            )
        terms = [
            reduce(partial(lattice_intersection, deadline=deadline),
                   (self.eval_monomial(m, deadline) for m in term))
            for term in code.terms
        ]
        largest = max(range(len(terms)), key=lambda i: terms[i].rank)
        total = terms.pop(largest).copy()
        total.add(checked((b for lat in terms for b in lat.basis_blocks()), deadline))
        return total


class GroupContext:
    """Caches level presentations and truncated rings for one group, so
    coface-image memos and monomial lattices are shared across codes.  Its
    rings share one base ring, the level-0 ring at N = 1 (``base``), built
    with the first of them and kept out of the rings it hands out."""

    def __init__(self, group):
        self.group = group
        self._levels = {}
        self._rings = {}

    @cached_property
    def base(self):
        return TruncatedRing(self.level(0), 1)

    def level(self, p):
        # checked before the lookup: 1.0 and True would find level 1
        check_level(p)
        if p not in self._levels:
            self._levels[p] = LevelPresentation(self.group, p)
        return self._levels[p]

    def ring(self, p, depth):
        # checked before the lookup: True and 1.0 would find depth 1
        check_depth(depth)
        lp, key = self.level(p), (p, depth)
        if key not in self._rings:
            self._rings[key] = TruncatedRing(lp, depth, self.base)
        return self._rings[key]


# -- functor values f/c and induced maps ----------------------------------------


class FunctorValue:
    """The abelian group f/c at one level, presented on a basis of f (see
    the module docstring): ``gens`` are the basis words that are no unit
    pivot of c, but for word |G|-1, and the relations are c's other
    canonical rows cut to ``gens``: ``intlin.quotient`` of c by a mask
    that drops column |G|-1 and no pivot, so the cut rows are taken with
    no elimination and only their form is checked.  A generator g of
    layer 0 stands for (g, ()) - (|G|-1, ()), any other for its word,
    and an element v of f stands for ``c_lattice.reduce(v)`` read on the
    ``gens`` columns."""

    def __init__(self, ring, code, deadline=Deadline()):
        self.ring = ring
        self.c_lattice = ring.eval_code(code, deadline)
        # f is the augmentation kernel, and the first |G| basis words are
        # the (g, ()), so a c row lies in f iff its entries there sum to 0;
        # that is what keeps every pivot of c off word |G|-1.  A canonical
        # row is 0 left of its pivot, so only the rows with a pivot below
        # |G| are tested, and their sums are taken in Python ints, which
        # do not wrap
        order = ring.lp.group.order
        head = self.c_lattice.basis(0, int(np.searchsorted(self.c_lattice.pivot_cols, order)))
        if head[:, :order].astype(object).sum(axis=1).any():
            raise AssertionError("code lattice escapes f")
        # f's basis is every word but |G|-1, and no pivot of c is there
        self.gens, self.group = quotient(self.c_lattice, np.arange(ring.rank) != order - 1)

    def moore(self, below):
        """(keep, group): degree n of the Moore complex, the value modulo
        the images of d^1..d^n, n the level and ``below`` the value at
        level n - 1, or None at level 0, whose degree is the value as
        presented; ``keep`` gives the degree's generators as positions
        among ``gens``.

        Each d^i with i >= 1 relabels basis words (``relabelling``), and
        together d^1..d^n hit exactly the words that miss one of the
        copies 1..n of F, which is checked here on every call, on the word
        maps as memoized.  So f modulo their images is free on A_n, the
        all-copies words (``TruncatedRing.all_copies_words``), and the
        degree is Z^{A_n} / proj_{A_n}(c), presented on A_n's words that
        are no unit pivot of c, with c's other rows cut to them
        (``intlin.quotient``): the unit rows whose pivot misses a copy
        carry relations too, and where the cut drops a pivot, the rows it
        leaves are eliminated.  Word |G|-1 is an all-copies word only at
        level 0."""
        if below is None:
            return np.arange(self.group.ngens), self.group
        ring, n = self.ring, self.ring.lp.level
        words = ring.all_copies_words()
        hit = np.zeros(ring.rank, dtype=bool)
        for i in range(1, n + 1):
            where = relabelling(freegrp.coface(n - 1, i, ring.lp.base_rank), below.ring, ring)
            if where is None:
                raise AssertionError(f"coface d^{i} into level {n} relabels no words")
            hit[where[where >= 0]] = True
        if not np.array_equal(hit, ~words):
            raise AssertionError(
                f"cofaces 1..{n} into level {n} do not hit exactly its words that miss a copy"
            )
        gens, group = quotient(self.c_lattice, words)
        return np.searchsorted(self.gens, gens), group


def _relabelling(hom, src_ring, tgt_ring):
    """The target index of each basis word of src_ring when the hom
    relabels basis words, -1 for a word it sends to 0, or None when it
    does not (see the module docstring).

    The test is on the words: phi(s(g)) must be the target's s(g) for
    every g, and each phi(rho_j) must be 1 or a target Schreier generator
    rho'_sigma(j) (sigma(j) = -1 for 1).  Then (g, J) goes to (g, sigma(J)),
    or to 0 if some sigma(j) is -1.  The map is built a layer at a time
    from the layout: position s of layer k, extended by j, is s·m + j."""
    src, tgt = src_ring.lp, tgt_ring.lp
    if src_ring.depth != tgt_ring.depth:
        return None
    if any(hom.apply(s) != tgt.transversal[g] for g, s in enumerate(src.transversal)):
        return None
    target = {rho: j for j, rho in enumerate(tgt.schreier_gens)}
    target[freegrp.IDENTITY] = -1
    sigma = [target.get(hom.apply(rho)) for rho in src.schreier_gens]
    if None in sigma:
        return None
    sigma = np.array(sigma, dtype=np.intp)
    pos = np.arange(src.group.order)
    parts = []
    for k, off in enumerate(tgt_ring.layer_offsets[:-1]):
        if k:
            ok = (pos[:, None] >= 0) & (sigma >= 0)
            pos = np.where(ok, pos[:, None] * tgt.num_schreier_gens + sigma, -1).ravel()
        parts.append(np.where(pos >= 0, pos + off, -1))
    return np.concatenate(parts)


def relabelling(hom, src_ring, tgt_ring):
    """``_relabelling`` of the hom, memoized per (hom, source depth) in
    the target ring's ``_relabellings``: the word map that ``word_images``
    reads, and the one the Moore complex's all-copies cut is checked on."""
    key = (hom, src_ring.depth)
    if key not in tgt_ring._relabellings:
        tgt_ring._relabellings[key] = _relabelling(hom, src_ring, tgt_ring)
    return tgt_ring._relabellings[key]


def word_images(hom, src_ring, tgt_ring, words):
    """Images of the basis words of src_ring with the given indices under a
    presentation morphism, as one (len(words), tgt_ring.rank) block.

    A hom that relabels basis words (``_relabelling``; every coface but
    d^0 and every codegeneracy) gives unit rows, or zero rows, read off
    its word map (``relabelling``).  Any other hom takes the general
    path: the image of (g, J+(j,)) is the image of its prefix (g, J) times
    phi(t_j), the normal form of phi(rho_j) - 1.  The hom commutes with
    the projections to G, so phi(rho_j) lies over the identity and phi(t_j)
    has only terms (0, L): the product is ``right_multiply``, a sum of
    shifts.  So the rows are built a layer at a time, each layer from the
    rows of its prefixes grouped by last letter j, starting from layer 0,
    whose rows are the normal forms of phi(s(g)).  All of it runs on
    positions: the word at offset t of layer k > 0 has its prefix at
    offset t // m of layer k-1 and last letter t % m (see the module
    docstring).  Each word's row (prefixes included), keyed by its source
    position, and each phi(t_j) are memoized per hom in the target ring's
    ``_hom_images``.
    """
    words = np.asarray(words, dtype=np.intp)
    rank = tgt_ring.rank
    where = relabelling(hom, src_ring, tgt_ring)
    if where is not None:
        out = np.zeros((len(words), rank), dtype=np.int64)
        dst = where[words]
        hit = (dst >= 0).nonzero()[0]
        out[hit, dst[hit]] = 1
        return out
    if not len(words):
        return np.zeros((0, rank), dtype=np.int64)
    memo, diffs = tgt_ring._hom_images.setdefault(hom, ({}, {}))
    lp, off, m = src_ring.lp, src_ring.layer_offsets, src_ring.lp.num_schreier_gens
    # the words to build per layer: the wanted ones and their prefixes,
    # down to the first one memoized
    layers = [set() for _ in range(src_ring.depth)]
    for s in words.tolist():
        k = bisect_right(off, s) - 1
        while s not in memo and s not in layers[k]:
            layers[k].add(s)
            if not k:
                break
            s, k = off[k - 1] + (s - off[k]) // m, k - 1
    memo.update((g, tgt_ring.normal_form(hom.apply(lp.transversal[g]))) for g in layers[0])
    for k in range(1, src_ring.depth):
        by_letter = {}
        for s in sorted(layers[k]):
            by_letter.setdefault((s - off[k]) % m, []).append(s)
        for j, new in by_letter.items():
            if j not in diffs:
                diffs[j] = tgt_ring.normal_form(hom.apply(lp.schreier_gens[j]))
                diffs[j][0] -= 1
            prefixes = int_block(np.stack([memo[off[k - 1] + (s - off[k]) // m] for s in new]), rank)
            memo.update(zip(new, tgt_ring.right_multiply(prefixes, diffs[j])))
    return int_block(np.stack([memo[s] for s in words.tolist()]), rank)


def check_over_group(hom, src_lp, tgt_lp):
    """A presentation morphism must commute with the projections to G."""
    for c in range(src_lp.copies):
        for i in range(src_lp.base_rank):
            img = hom.image_of(c, i)
            if tgt_lp.eval_word(img) != src_lp.eval_word(freegrp.gen_word(c, i)):
                raise ValueError("homomorphism does not commute with the projections")


def induced_map(hom, src_value, tgt_value):
    """Matrix of f/c applied to a presentation morphism: row i is the image
    of the source generator ``gens[i]`` (for a layer-0 generator g, the
    image of word g minus that of word |G|-1), reduced modulo the target's
    c and read on the target's ``gens`` columns; the map (``AbMap``)
    keeps that block's nonzero entries only.  A relabelling hom fixes
    word |G|-1, so for it the subtraction changes only the column that is
    not read."""
    src_ring = src_value.ring
    tgt_ring = tgt_value.ring
    if src_ring.depth != tgt_ring.depth:
        raise ValueError("induced_map needs equal truncation depths")
    check_over_group(hom, src_ring.lp, tgt_ring.lp)
    last = src_ring.lp.group.order - 1
    images = word_images(hom, src_ring, tgt_ring, np.append(src_value.gens, last))
    # |entries| < 2**62 in int64, so the difference cannot wrap
    images, last_image = images[:-1], images[-1]
    images[: np.searchsorted(src_value.gens, last)] -= last_image
    coords = tgt_value.c_lattice.reduce(images).take(tgt_value.gens, axis=1)
    return AbMap(src_value.group, tgt_value.group, coords)


def structure(code, ctx, depth_d, deadline=Deadline()):
    """(values, d, s): f/code on levels 0..depth_d of the standard complex,
    in the context's rings truncated at the code's faithful depth N
    (``required_truncation``), with every coface d[(p, i)]: level p ->
    p + 1 and codegeneracy s[(p, j)]: level p + 1 -> p as the map it
    induces (``induced_map``).  The rings' ranks are summed by formula
    first (``rank_sum``), so levels too wide in all, and so any one too
    wide, are refused before any is built; then each level's ring is
    built just before its value.  The deadline is checked once per
    level, for the values and for the maps."""
    N = required_truncation(code)
    rank = ctx.group.ngens
    rank_sum(ctx.group, depth_d + 1, N)
    values = []
    for p in range(depth_d + 1):
        deadline.check()
        values.append(FunctorValue(ctx.ring(p, N), code, deadline))
    d, s = {}, {}
    for p in range(depth_d):
        deadline.check()
        for i in range(p + 2):
            d[(p, i)] = induced_map(freegrp.coface(p, i, rank), values[p], values[p + 1])
        for j in range(p + 1):
            s[(p, j)] = induced_map(freegrp.codegeneracy(p, j, rank), values[p + 1], values[p])
    return values, d, s
