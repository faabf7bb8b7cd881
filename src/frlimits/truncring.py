"""Exact arithmetic in the truncated group ring Z[F_p]/r^N.

The Z-basis is the filtration basis: (g, J) stands for
s(g)·t_{j1}···t_{jk} with s the Schreier transversal of the level
presentation, rho its Schreier free generators, t_j = rho_j - 1 and
0 <= k < N.  Degree-k products of the t_j form the k-th filtration layer,
so the ring rank is sum_{k<N} |G|·m^k with m the Schreier rank.

Layout: the basis is ordered by (|J|, g, J), so word (g, J) sits at
off_|J| + g·m^|J| + idx(J), where off_k = sum_{i<k} |G|·m^i is the start
of layer k and idx(J) reads J as a base-m number; idx(J+K) =
idx(J)·m^|K| + idx(K).  The layout is kept only as this formula
(``TruncatedRing.position``), never as a table of words, and no offset
depends on N.  Right multiplication by t_K is a shift,
(g, J)·t_K = (g, J+K), zero once |J| + |K| >= N, so it moves the words
(g, J+K) for all K of one length as one contiguous slice.  Hence
r^k is the span of the words with |J| >= k, and (w - 1)·(h, K) =
((w - 1)·s(h))·t_K, for a group word w, multiplies a whole block of
ring vectors on the left by slice-adds (``TruncatedRing.left_multiply``).
An element of the identity component, sum c_L·t_L, multiplies on the
right as a sum of strided shifts: word
(h, K) at position s of layer k goes to position s·m^|L| + idx(L) of
layer k + |L|, so each (term, layer) is one slice-add with stride m^|L|
(``TruncatedRing.right_multiply``).

Monomial ideals are built right to left, from the empty monomial, which
is the whole ring (``TruncatedRing.eval_monomial``).  For w = a·T of
length k, with T the tail's ideal, T contains r^(k-1), so T's canonical
rows with a pivot in layer >= k-1 are unit vectors (h, K), and
gamma·(h, K) = (gamma·s(h))·t_K is, modulo r^k, the layer-0 part of
gamma·s(h) shifted by t_K.  Hence

    w = r^k + P⊗I + span{gamma·t : t a row of T with pivot below layer k-1},

with gamma = u - 1 over the right generators u of the letter a (group
words: the generators x of F for f, the rho_j for r) and P the span in
Z^|G| of the layer-0 parts of the gamma·s(h), h in G: the augmentation
ideal I_G of Z[G] for f, 0 for r (``TruncatedRing._seed``).  P⊗I puts a
row v of P at (g, K) -> v_g for every K of length k-1.  At g·m^(k-1) +
idx(K) in layer k-1, the canonical rows e_g - e_{|G|-1} of I_G tensored
with the identity, then the unit rows of the layers >= k, are canonical
as they stand, so that seed is written down in closed form, with no
elimination, and only the tail's rows below layer k-1 are multiplied.

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

A ring element is a term dict {(g, J): c} over the basis words, with no
zero coefficient, and every one the code forms is the normal form of a
group word (``normal_form``), or such a normal form moved by the shifts of
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
nothing eliminated.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import reduce
from math import comb

import numpy as np

from . import freegrp
from .errors import CapExceeded
from .frcode import required_truncation
from .intlin import (_I64_SAFE, AbMap, FinPresAb, Lattice, _maxabs, int_block,
                     lattice_intersection, unit_split)
from .permgrp import LevelPresentation

DEFAULT_RANK_CAP = 200_000

# eval_monomial multiplies the tail basis in row chunks of about this many
# entries (int64: 512 KiB).  Each chunk costs the same number of slice-adds
# whatever its height, so short chunks are slow on wide rings, while the
# chunk, its product and their temporaries add to the peak memory.
_PRODUCT_ENTRIES = 2**16


# -- truncated free polynomials in the differences t_j -------------------------


def poly_one():
    return {(): 1}


def poly_mul(a, b, depth):
    out = {}
    for J, c in a.items():
        for K, d in b.items():
            if len(J) + len(K) < depth:
                key = J + K
                v = out.get(key, 0) + c * d
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
    return out


class TruncatedRing:
    """Ambient (level presentation, truncation depth N); frozen after init.

    Memo tables (power series, section products, monomial and code
    lattices, hom images and relabellings) are populated lazily; they are
    keyed by Schreier indices, group words, monomials, codes and homs only,
    so results never depend on call order.
    """

    def __init__(self, lp, depth):
        if depth < 1:
            raise ValueError(f"truncation depth {depth} is below 1")
        self.lp = lp
        self.depth = depth
        m = lp.num_schreier_gens
        order = lp.group.order
        # layer_offsets[k] is the index of the first word with |J| = k; the
        # sum stops at the first offset past the cap, before m**k grows huge
        self.layer_offsets = [0]
        for k in range(depth):
            self.layer_offsets.append(self.layer_offsets[-1] + order * m**k)
            if self.layer_offsets[-1] > DEFAULT_RANK_CAP:
                raise CapExceeded(f"ring rank exceeds the cap {DEFAULT_RANK_CAP}")
        self.rank = self.layer_offsets[-1]

        self._rho_power = {}
        self._section_products = {}
        self._monomial_cache = {}
        self._code_cache = {}
        self._hom_images = {}
        self._relabellings = {}

    def __repr__(self):
        return (
            f"TruncatedRing({self.lp.group.name}, level={self.lp.level}, "
            f"N={self.depth}, rank={self.rank})"
        )

    def position(self, g, J):
        """Index of basis word (g, J): off_|J| + g·m^|J| + idx(J), that is
        g followed by the letters of J read as one base-m number."""
        s = g
        for j in J:
            s = s * self.lp.num_schreier_gens + j
        return self.layer_offsets[len(J)] + s

    # -- power series and rewriting expansions ---------------------------

    def rho_power_poly(self, j, exp):
        """(1 + t_j)^exp truncated; negative exponents via the geometric
        series for (1 + t)^{-1}."""
        key = (j, exp)
        memo = self._rho_power
        if key not in memo:
            out = {}
            if exp >= 0:
                for k in range(min(exp, self.depth - 1) + 1):
                    out[(j,) * k] = comb(exp, k)
            else:
                mexp = -exp
                for k in range(self.depth):
                    out[(j,) * k] = (-1) ** k * comb(mexp + k - 1, k)
            memo[key] = out
        return memo[key]

    def expand_schreier_word(self, rho_word):
        """Expansion of a word in the Schreier generators, constant term 1."""
        poly = poly_one()
        for j, sign in rho_word:
            poly = poly_mul(poly, self.rho_power_poly(j, sign), self.depth)
        return poly

    def normal_form(self, word):
        """Class of the group word in the filtration basis, as terms: factor
        through the transversal, rewrite the relator part, expand."""
        g = self.lp.eval_word(word)
        u = freegrp.mul(freegrp.inv(self.lp.transversal[g]), word)
        poly = self.expand_schreier_word(self.lp.rewrite_in_R(u))
        return {(g, J): c for J, c in poly.items()}

    def nf_minus_section(self, word, h):
        """The terms of nf(word) - s(h)."""
        out = self.normal_form(word)
        c = out.pop((h, ()), 0) - 1
        if c:
            out[(h, ())] = c
        return out

    def section_products(self, word):
        """The |G| products (w - 1)·s(h), h in G, as term dicts, for the
        group word w: each is nf(w·s(h)) - s(h).  Memoized per word."""
        if word not in self._section_products:
            self._section_products[word] = [
                self.nf_minus_section(freegrp.mul(word, s_h), h)
                for h, s_h in enumerate(self.lp.transversal)
            ]
        return self._section_products[word]

    def left_multiply(self, word, V):
        """(w - 1)·v for every row v of the 2-D block V (rows over the
        basis), w the given group word, as one (len(V), rank) array.

        (w - 1)·(h, K) = ((w - 1)·s(h))·t_K, and each term c·(g, J) of
        (w - 1)·s(h) sends the words (h, K) with |K| = k to the words
        (g, J+K): one slice-add of c times V's slice per layer k < N - |J|
        (see the module docstring).  Every result entry is a sum over
        distinct terms, so max|V|·sum|c| over the |G| products
        (w - 1)·s(h) bounds it: the block is int64 while that stays below
        2**62, Python ints otherwise.  The |G| products are memoized per
        word (``section_products``), so a monomial build forms them once
        per right generator.
        """
        off, m = self.layer_offsets, self.lp.num_schreier_gens
        prods = self.section_products(word)
        bound = _maxabs(V) * sum(abs(c) for p in prods for c in p.values())
        dtype = np.int64 if V.dtype == np.int64 and bound < _I64_SAFE else object
        V = V.astype(dtype, copy=False)
        out = np.zeros((len(V), self.rank), dtype=dtype)
        for h, prod in enumerate(prods):
            for (g, J), c in prod.items():
                a = len(J)
                i = self.position(g, J) - off[a]
                for k in range(self.depth - a):
                    w = m**k
                    src = off[k] + h * w
                    dst = off[a + k] + i * w
                    out[:, dst : dst + w] += c * V[:, src : src + w]
        return out

    def right_multiply(self, V, terms):
        """v·b for every row v of the 2-D block V (rows over the basis), b
        the identity-component element with the given terms (every term
        (0, L), so b = sum c_L·t_L), as one (len(V), rank) array.

        (h, K)·t_L = (h, K+L), and word (h, K) sits at position
        s = h·m^k + idx(K) of layer k, while (h, K+L) sits at s·m^|L| +
        idx(L) of layer k + |L| (see the module docstring): one strided
        slice-add of c_L times V's layer k per layer k < N - |L|.  The
        bound rule is ``left_multiply``'s: every result entry is a sum over
        distinct terms, so the block is int64 while max|V|·sum|c_L| <
        2**62, Python ints otherwise.  A term (g, L) with g != 0 is refused.
        """
        if any(g for g, _ in terms):
            raise ValueError("right_multiply needs an element of the identity component")
        off, m = self.layer_offsets, self.lp.num_schreier_gens
        bound = _maxabs(V) * sum(abs(c) for c in terms.values())
        dtype = np.int64 if V.dtype == np.int64 and bound < _I64_SAFE else object
        V = V.astype(dtype, copy=False)
        out = np.zeros((len(V), self.rank), dtype=dtype)
        for (_, L), c in terms.items():
            a, w = len(L), m ** len(L)
            i = self.position(0, L) - off[a]
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

    def _seed(self, k, letter):
        """The canonical lattice r^k + P⊗I of the module docstring, for a
        monomial of length k with the given head letter ("" for the empty
        monomial), written down in its stored form.

        P is the span in Z^|G| of the layer-0 parts of gamma·s(h) over the
        differences gamma = w - 1 of the letter's right generators w and h
        in G.  A term (g, J) of gamma with |J| > 0 takes s(h) into the
        layers >= |J|, so only the layer-0 part gamma_0 of gamma counts.
        For r, gamma_0 = 0, so P = 0 and the seed is r^k: the unit rows of
        the layers >= k.  For f, gamma = x - 1 has gamma_0 = (g_x, ()) -
        (0, ()), with g_x the image of x in G, and the layer-0 part of
        gamma_0·s(h) is e_{g_x·h} - e_h.  The generators x map onto G, so
        these span the augmentation ideal I_G, whose canonical rows are
        e_g - e_{|G|-1} for g < |G|-1.  So P⊗I adds the unit rows (g, K)
        of layer k-1 with g < |G|-1, each with -1 at (|G|-1, K).  It lies
        on layer k-1, so it is empty if k = 0 or k > N."""
        off, n = self.layer_offsets, self.rank
        start = off[min(k, self.depth)]
        # the rows of P⊗I are the words lo..hi-1; the words hi..start-1
        # are the (|G|-1, K), each a column of B
        lo = hi = start
        if letter == "f" and 0 < k <= self.depth:
            lo, hi = off[k - 1], start - self.lp.num_schreier_gens ** (k - 1)
        piv = np.concatenate([np.arange(lo, hi), np.arange(start, n)])
        cols = np.concatenate([np.arange(lo), np.arange(hi, start)])
        B = np.zeros((len(piv), len(cols)), dtype=np.int64)
        # word lo + g·M + idx(K) has its -1 at (|G|-1, K), column lo + idx(K)
        i = np.arange(hi - lo)
        B[i, lo + i % (start - hi)] = -1
        return Lattice.canonical(n, piv, cols, B)

    def eval_monomial(self, mono, deadline=None):
        """Lattice of the monomial ideal, built right to left in a loop: from
        the longest suffix of the monomial that is cached already, or else
        from the empty monomial, the whole ring, one letter at a time.  The
        ideal w = a·T of length k is the span of gamma·t over gamma = u - 1,
        u a right generator of the letter a, and the rows t of the canonical
        basis of the tail's ideal T (T absorbs ring factors on the left, so
        no other products arise).  By the seed identity of the module
        docstring,

            w = r^k + P⊗I + span{gamma·t : t a row of T with pivot below layer k-1},

        so the lattice starts from the canonical seed r^k + P⊗I (``_seed``)
        and only T's rows with a pivot below layer k-1, found by their
        pivots, are multiplied: at most |G|·sum_{i<k-1} m^i of them
        (``_tail_products``).

        The deadline is checked once per suffix and once per product block.
        Each suffix is cached as soon as its lattice is complete, and only
        then."""
        cache = self._monomial_cache
        start = next((i for i in range(len(mono) + 1) if mono[i:] in cache), len(mono) + 1)
        for i in reversed(range(start)):
            if deadline is not None:
                deadline.check()
            w = mono[i:]
            lat = self._seed(len(w), w[:1])
            if w:
                lat.add(self._tail_products(w, cache[w[1:]], deadline))
            cache[w] = lat
        return cache[mono]

    def _tail_products(self, mono, tail, deadline):
        """The products gamma·t of ``eval_monomial`` for the monomial mono
        with the tail lattice T, as a stream of blocks: T's rows with a
        pivot below layer k-1 go in chunks of _PRODUCT_ENTRIES entries
        through ``left_multiply``, so the one ``Lattice.add`` that takes the
        stream keeps its folds at full size."""
        stop = int(np.searchsorted(tail.pivot_cols, self.layer_offsets[min(len(mono) - 1, self.depth)]))
        gens = self.right_generators(mono[0])
        for chunk in tail.basis_blocks(max(1, _PRODUCT_ENTRIES // self.rank), stop):
            for u in gens:
                if deadline is not None:
                    deadline.check()
                prod = self.left_multiply(u, chunk)
                yield prod[prod.any(axis=1)]

    def eval_code(self, code, deadline=None):
        """Lattice of the code ideal: sums of intersections of monomials.
        It starts from a copy of the first term's lattice, so a one-term
        code is not eliminated again."""
        key = str(code)
        if key in self._code_cache:
            return self._code_cache[key]
        if required_truncation(code) > self.depth:
            raise ValueError(
                f"truncation N={self.depth} too shallow for {code} "
                f"(needs {required_truncation(code)})"
            )
        first, *rest = (
            reduce(lattice_intersection, (self.eval_monomial(m, deadline) for m in term))
            for term in code.terms
        )
        total = first.copy()
        total.add(b for lat in rest for b in lat.basis_blocks())
        self._code_cache[key] = total
        return total


class GroupContext:
    """Caches level presentations and truncated rings for one group, so
    coface-image memos and monomial lattices are shared across codes."""

    def __init__(self, group):
        self.group = group
        self._levels = {}
        self._rings = {}

    def level(self, p):
        if p not in self._levels:
            self._levels[p] = LevelPresentation(self.group, p)
        return self._levels[p]

    def ring(self, p, depth):
        key = (p, depth)
        if key not in self._rings:
            self._rings[key] = TruncatedRing(self.level(p), depth)
        return self._rings[key]


# -- functor values f/c and induced maps ----------------------------------------


class FunctorValue:
    """The abelian group f/c at one level, presented on a basis of f (see
    the module docstring): ``gens`` are the basis words that are no unit
    pivot of c, but for word |G|-1, and the relations are c's other
    canonical rows cut to ``gens``, taken with no elimination
    (``Lattice.canonical``).  A generator g of layer 0 stands for
    (g, ()) - (|G|-1, ()), any other for its word, and an element v of f
    stands for ``c_lattice.reduce(v)`` read on the ``gens`` columns."""

    def __init__(self, ring, code, deadline=None):
        self.ring = ring
        self.code = code
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
        cols, rows = unit_split(self.c_lattice)
        keep = cols != order - 1
        self.gens, rows = cols[keep], rows[:, keep]
        n = len(self.gens)
        piv = (rows != 0).argmax(axis=1) if len(rows) else np.zeros(0, dtype=np.intp)
        self.group = FinPresAb(n, Lattice.canonical(n, piv, np.arange(n), rows))


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


def word_images(hom, src_ring, tgt_ring, words):
    """Images of the basis words of src_ring with the given indices under a
    presentation morphism, as one (len(words), tgt_ring.rank) block.

    A hom that relabels basis words (``_relabelling``; every coface but
    d^0 and every codegeneracy) gives unit rows, or zero rows, read off
    its word map, memoized per (hom, source depth) in the target ring's
    ``_relabellings``.  Any other hom takes the general path: the
    image of (g, J+(j,)) is the image of its prefix (g, J) times
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
    ``_hom_images``; a layer's offset does not depend on N, so the keys
    mean the same word at every source depth.
    """
    words = np.asarray(words, dtype=np.intp)
    rank = tgt_ring.rank
    key = (hom, src_ring.depth)
    if key not in tgt_ring._relabellings:
        tgt_ring._relabellings[key] = _relabelling(hom, src_ring, tgt_ring)
    where = tgt_ring._relabellings[key]
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
    if layers[0]:
        new = sorted(layers[0])
        block = np.zeros((len(new), rank), dtype=object)
        for row, g in zip(block, new):
            for (h, L), c in tgt_ring.normal_form(hom.apply(lp.transversal[g])).items():
                row[tgt_ring.position(h, L)] = c
        memo.update(zip(new, int_block(block, rank)))
    for k in range(1, src_ring.depth):
        by_letter = {}
        for s in sorted(layers[k]):
            by_letter.setdefault((s - off[k]) % m, []).append(s)
        for j, new in by_letter.items():
            if j not in diffs:
                diffs[j] = tgt_ring.nf_minus_section(hom.apply(lp.schreier_gens[j]), 0)
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
    c and read on the target's ``gens`` columns, as a C-contiguous array.
    A relabelling hom fixes word |G|-1, so for it the subtraction changes
    only the column that is not read."""
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
