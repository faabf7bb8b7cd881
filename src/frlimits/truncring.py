"""Exact arithmetic in the truncated group ring Z[F_p]/r^N.

The Z-basis is the filtration basis: (g, J) stands for
s(g)·(rho_{j1}-1)···(rho_{jk}-1) with s the Schreier transversal of the
level presentation and rho its Schreier free generators; 0 <= k < N.
Degree-k products of Schreier differences form the k-th filtration layer,
so the ring rank is sum_{k<N} |G|·m^k with m the Schreier rank.

The identity-component subalgebra is a truncated free polynomial algebra
in the differences t_j = rho_j - 1; group sections commute past it via
(rho-1)·s(h) = s(h)·(s(h)^{-1} rho s(h) - 1), with conjugates re-rewritten
in Schreier generators and memoized.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from math import comb

import numpy as np

from . import freegrp
from .errors import CapExceeded
from .frcode import required_truncation
from .intlin import AbMap, FinPresAb, Lattice, int_block, lattice_intersection, safe_matmul
from .permgrp import LevelPresentation

DEFAULT_RANK_CAP = 200_000


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


def poly_drop_constant(p):
    out = dict(p)
    out.pop((), None)
    return out


class TruncatedRing:
    """Ambient (level presentation, truncation depth N); frozen after init.

    Memo tables (cocycles, conjugates, power series) are populated lazily;
    they are keyed by group elements and Schreier indices only, so results
    never depend on call order.
    """

    def __init__(self, lp, depth, rank_cap=DEFAULT_RANK_CAP):
        if depth < 1:
            raise ValueError(f"truncation depth {depth} is below 1")
        self.lp = lp
        self.depth = depth
        m = lp.num_schreier_gens
        order = lp.group.order
        rank = 0
        power = 1
        for _ in range(depth):
            rank += order * power
            power *= m
        if rank > rank_cap:
            raise CapExceeded(f"ring rank {rank} exceeds the cap {rank_cap}")
        self.basis = []
        tuples_by_len = [[()]]
        for k in range(1, depth):
            tuples_by_len.append(
                [J + (j,) for J in tuples_by_len[k - 1] for j in range(m)]
            )
        for k in range(depth):
            for g in range(order):
                for J in tuples_by_len[k]:
                    self.basis.append((g, J))
        # sort key (k, g, J) is the construction order per k; enforce g-major
        self.basis.sort(key=lambda bw: (len(bw[1]), bw[0], bw[1]))
        self.index = {bw: i for i, bw in enumerate(self.basis)}
        self.rank = len(self.basis)
        assert self.rank == rank

        self._rho_power = {}
        self._conj = {}
        self._cocycle = {}
        self._monomial_cache = {}
        self._code_cache = {}
        self._f_lattice = None
        self._r_lattice = None
        self._hom_images = {}

    def __repr__(self):
        return (
            f"TruncatedRing({self.lp.group.name}, level={self.lp.level}, "
            f"N={self.depth}, rank={self.rank})"
        )

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

    def _expand_relator_word(self, word):
        return self.expand_schreier_word(self.lp.rewrite_in_R(word))

    def conj_poly(self, j, h):
        """Expansion of s(h)^{-1} rho_j s(h); memoized per (j, h)."""
        key = (j, h)
        if key not in self._conj:
            s_h = self.lp.transversal[h]
            word = freegrp.mul(
                freegrp.inv(s_h), self.lp.schreier_gens[j], s_h
            )
            self._conj[key] = self._expand_relator_word(word)
        return self._conj[key]

    def cocycle_poly(self, g, h):
        """Expansion of s(gh)^{-1} s(g) s(h); memoized per (g, h)."""
        key = (g, h)
        if key not in self._cocycle:
            lp = self.lp
            gh = lp.group.mul(g, h)
            word = freegrp.mul(
                freegrp.inv(lp.transversal[gh]),
                lp.transversal[g],
                lp.transversal[h],
            )
            self._cocycle[key] = self._expand_relator_word(word)
        return self._cocycle[key]

    # -- elements ----------------------------------------------------------

    def element(self, terms=None):
        return RingElement(self, dict(terms or {}))

    def zero(self):
        return RingElement(self, {})

    def one(self):
        return RingElement(self, {(0, ()): 1})

    def normal_form(self, word):
        """Class of the group word in the filtration basis: factor through
        the transversal, rewrite the relator part, expand."""
        g = self.lp.eval_word(word)
        u = freegrp.mul(freegrp.inv(self.lp.transversal[g]), word)
        poly = self._expand_relator_word(u)
        return RingElement(self, {(g, J): c for J, c in poly.items()})

    def normal_form_of_rho(self, j):
        return RingElement(
            self, {(0, J): c for J, c in self.rho_power_poly(j, 1).items()}
        )

    def mul_basis(self, bw1, bw2):
        """(g, J)·(h, K) via cocycle and conjugation expansions."""
        g, J = bw1
        h, K = bw2
        if len(J) + len(K) >= self.depth:
            # every contribution has filtration degree >= |J| + |K|
            return {}
        gh = self.lp.group.mul(g, h)
        poly = self.cocycle_poly(g, h)
        for j in J:
            poly = poly_mul(
                poly, poly_drop_constant(self.conj_poly(j, h)), self.depth
            )
            if not poly:
                return {}
        if K:
            poly = poly_mul(poly, {K: 1}, self.depth)
        return {(gh, M): c for M, c in poly.items()}

    def multiply_terms(self, a_terms, b_terms):
        out = {}
        for bw1, c in a_terms.items():
            for bw2, d in b_terms.items():
                cd = c * d
                for bw, e in self.mul_basis(bw1, bw2).items():
                    v = out.get(bw, 0) + cd * e
                    if v:
                        out[bw] = v
                    elif bw in out:
                        del out[bw]
        return out

    # -- vectors -----------------------------------------------------------

    def terms_to_vec(self, terms):
        return {self.index[bw]: c for bw, c in terms.items()}

    def vec_to_terms(self, row):
        row = np.asarray(row)
        nz = np.flatnonzero(row)
        return {self.basis[i]: c for i, c in zip(nz.tolist(), row[nz].tolist())}

    # -- ideal lattices ------------------------------------------------------

    def ideal_r(self):
        """r = all basis words of filtration degree >= 1."""
        if self._r_lattice is None:
            self._r_lattice = Lattice(
                self.rank, ({i: 1} for i, (_, J) in enumerate(self.basis) if J)
            )
        return self._r_lattice

    def ideal_f(self):
        """f = augmentation kernel: r plus the section differences."""
        if self._f_lattice is None:
            one = self.index[(0, ())]
            rows = (
                {i: 1} if J else {i: 1, one: -1}
                for i, (g, J) in enumerate(self.basis)
                if J or g != 0
            )
            self._f_lattice = Lattice(self.rank, rows)
        return self._f_lattice

    def right_generators(self, letter):
        """Elements generating the letter ideal as a right module."""
        if letter == "f":
            out = []
            one = self.one()
            for c in range(self.lp.copies):
                for i in range(self.lp.base_rank):
                    out.append(
                        self.normal_form(freegrp.gen_word(c, i)) - one
                    )
            return out
        if letter == "r":
            one = self.one()
            return [
                self.normal_form_of_rho(j) - one
                for j in range(self.lp.num_schreier_gens)
            ]
        raise ValueError(f"unknown letter {letter!r}")

    def eval_monomial(self, mono):
        """Lattice of the monomial ideal, built right to left: if T is the
        ideal of the tail, the full ideal is the span of gamma·T over the
        right-module generators gamma of the head letter (T absorbs ring
        factors on the left, so no other products arise)."""
        if mono in self._monomial_cache:
            return self._monomial_cache[mono]
        if len(mono) == 1:
            lat = self.ideal_f() if mono == "f" else self.ideal_r()
        else:
            tail = self.eval_monomial(mono[1:])
            gens = self.right_generators(mono[0])
            prods = (
                self.multiply_terms(gamma.terms, tail_terms)
                for tail_terms in map(self.vec_to_terms, tail.basis())
                for gamma in gens
            )
            lat = Lattice(self.rank, (self.terms_to_vec(prod) for prod in prods if prod))
        self._monomial_cache[mono] = lat
        return lat

    def eval_code(self, code):
        """Lattice of the code ideal: sums of intersections of monomials."""
        key = str(code)
        if key in self._code_cache:
            return self._code_cache[key]
        if required_truncation(code) > self.depth:
            raise ValueError(
                f"truncation N={self.depth} too shallow for {code} "
                f"(needs {required_truncation(code)})"
            )
        total = Lattice(
            self.rank,
            chain.from_iterable(
                reduce(lattice_intersection, map(self.eval_monomial, term)).basis()
                for term in code.terms
            ),
        )
        self._code_cache[key] = total
        return total


class RingElement:
    """Sparse element of a TruncatedRing; zero coefficients never stored."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {bw: c for bw, c in terms.items() if c}

    def _check(self, other):
        if self.ring is not other.ring:
            raise ValueError("ambient ring mismatch")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for bw, c in other.terms.items():
            v = out.get(bw, 0) + c
            if v:
                out[bw] = v
            else:
                out.pop(bw, None)
        return RingElement(self.ring, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for bw, c in other.terms.items():
            v = out.get(bw, 0) - c
            if v:
                out[bw] = v
            else:
                out.pop(bw, None)
        return RingElement(self.ring, out)

    def __neg__(self):
        return RingElement(self.ring, {bw: -c for bw, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElement(
                self.ring, {bw: c * other for bw, c in self.terms.items()}
            )
        self._check(other)
        return RingElement(self.ring, self.ring.multiply_terms(self.terms, other.terms))

    def __rmul__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return self * other

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.ring is other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("RingElement is unhashable")

    def is_zero(self):
        return not self.terms

    def augmentation(self):
        return sum(c for (g, J), c in self.terms.items() if not J)

    def to_vec(self):
        return self.ring.terms_to_vec(self.terms)

    def dump(self):
        """Debug format: one '±k*[g | j1,j2,...]' line per term, sorted."""
        lines = []
        for bw in sorted(self.terms, key=lambda b: (len(b[1]), b[0], b[1])):
            g, J = bw
            c = self.terms[bw]
            sign = "+" if c > 0 else "-"
            lines.append(f"{sign}{abs(c)}*[{g} | {','.join(str(j) for j in J)}]")
        return "\n".join(lines)

    def __repr__(self):
        return f"RingElement({self.dump().replace(chr(10), ' ')})"


class GroupContext:
    """Caches level presentations and truncated rings for one group, so
    coface-image memos and monomial lattices are shared across codes."""

    def __init__(self, group, rank_cap=DEFAULT_RANK_CAP):
        self.group = group
        self.rank_cap = rank_cap
        self._levels = {}
        self._rings = {}

    def level(self, p):
        if p not in self._levels:
            self._levels[p] = LevelPresentation(self.group, p)
        return self._levels[p]

    def ring(self, p, depth):
        key = (p, depth)
        if key not in self._rings:
            self._rings[key] = TruncatedRing(
                self.level(p), depth, rank_cap=self.rank_cap
            )
        return self._rings[key]


# -- functor values f/c and induced maps ----------------------------------------


class FunctorValue:
    """The abelian group f/c at one level, presented on the canonical basis
    of the f lattice with the c lattice as relations; the coordinate maps
    are kept so presentation morphisms induce matrices."""

    def __init__(self, ring, code):
        self.ring = ring
        self.code = code
        self.f_lattice = ring.ideal_f()
        self.c_lattice = ring.eval_code(code)
        rel_rows = self.f_lattice.coordinates(self.c_lattice.basis())
        if rel_rows is None:
            raise AssertionError("code lattice escapes f")
        self.group = FinPresAb(self.f_lattice.rank, rel_rows)


def hom_image_rows(hom, src_ring, tgt_ring, rows):
    """Images of a block of ring vectors (rows over the basis of src_ring)
    under a presentation morphism, as one dense block over the basis of
    tgt_ring.

    The image of a basis word is computed on a representative word and
    renormalized in the target ring; it is memoized, as a vector, in the
    target ring's ``_hom_images``.
    """
    memo = tgt_ring._hom_images.setdefault(hom, {})
    V = int_block(rows, src_ring.rank)
    used = np.flatnonzero(V.any(axis=0)).tolist()
    one = tgt_ring.one()
    for k in used:
        g, J = bw = src_ring.basis[k]
        if bw not in memo:
            elem = tgt_ring.normal_form(hom.apply(src_ring.lp.transversal[g]))
            for j in J:
                elem = elem * (tgt_ring.normal_form(hom.apply(src_ring.lp.schreier_gens[j])) - one)
            memo[bw] = elem.to_vec()
    images = int_block([memo[src_ring.basis[k]] for k in used], tgt_ring.rank)
    return safe_matmul(V[:, used], images)


def check_over_group(hom, src_lp, tgt_lp):
    """A presentation morphism must commute with the projections to G."""
    for c in range(src_lp.copies):
        for i in range(src_lp.base_rank):
            img = hom.image_of(c, i)
            if tgt_lp.eval_word(img) != src_lp.eval_word(freegrp.gen_word(c, i)):
                raise ValueError("homomorphism does not commute with the projections")


def induced_map(hom, src_value, tgt_value):
    """Matrix of f/c applied to a presentation morphism: the images of the
    f basis rows, in the target's f coordinates."""
    src_ring = src_value.ring
    tgt_ring = tgt_value.ring
    if src_ring.depth != tgt_ring.depth:
        raise ValueError("induced_map needs equal truncation depths")
    check_over_group(hom, src_ring.lp, tgt_ring.lp)
    images = hom_image_rows(hom, src_ring, tgt_ring, src_value.f_lattice.basis())
    coords = tgt_value.f_lattice.coordinates(images)
    if coords is None:
        raise ValueError("element does not lie in f")
    return AbMap(src_value.group, tgt_value.group, coords)
