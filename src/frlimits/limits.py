"""Higher limits of an fr-code over the category of presentations of G.

The value functor f/code is evaluated on the standard complex of the base
presentation (level p = the (p+1)-fold free product), giving a cosimplicial
abelian group; lim^i(code) for i >= 1 is the (i-1)-st cohomology of its
Moore complex, the shift coming from the short exact sequence
code -> f -> f/code and the vanishing of the limits of f.  lim^0 is zero
for the same reason.

The cosimplicial identities are proved for every complex built, batched:
every identity that lands in one level is one block row of one exact
product of the maps' sparse rows (``sparse_product``), the difference of
its two sides, so a complex of top degree D takes at most D + 1 products,
and only their nonzero rows reach the lattice engine, in one membership
test per target level.  The square of the alternate-sum differential,
sum (-1)^(i+j) d(p+1, j) d(p, i), is a signed sum of the differences of
the coface identities, so d^2 = 0 follows from them; the alternate-sum
complex is built, and its d^2 = 0 proved, only to cross-validate the
Moore cohomology.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import freegrp
from .errors import CapExceeded
from .frcode import max_monomial_length, normalize, required_truncation
from .intlin import (AbMap, FinPresAb, SparseRows, composite_is_zero, homology_at,
                     kernel_of_matrix, safe_matmul, sparse_product)
from .truncring import FunctorValue, GroupContext, induced_map, word_images


class Deadline:
    """Wall-clock budget checked between major pipeline steps, once per
    level's ring and, while a level's value is built, once per monomial
    suffix and once per block of ring products."""

    def __init__(self, seconds=None):
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self):
        if self.seconds is not None and time.monotonic() - self.start > self.seconds:
            raise CapExceeded(f"time budget of {self.seconds}s exhausted")


class CosimplicialAb:
    """Levels 0..D of f/code on the standard complex, in the rings truncated
    at the code's faithful depth N (``required_truncation``), with all
    cofaces and codegeneracies as maps of presented groups; the
    cosimplicial identities are verified on construction, with one sparse
    product and at most one membership test per target level
    (``verify_cosimplicial_identities``)."""

    def __init__(self, code, ctx, depth_d, deadline=None):
        self.code = code
        self.ctx = ctx
        self.D = depth_d
        self.N = required_truncation(code)
        deadline = deadline or Deadline()
        rank = ctx.group.ngens
        # every level's ring first, so one too wide is refused before any
        # lattice is built
        rings = []
        for p in range(depth_d + 1):
            deadline.check()
            rings.append(ctx.ring(p, self.N))
        self.values = []
        for ring in rings:
            deadline.check()
            self.values.append(FunctorValue(ring, code, deadline))
        self.levels = [v.group for v in self.values]
        # cofaces d[(p, i)]: level p -> p+1; codegeneracies s[(p, j)]: p+1 -> p
        self.d = {}
        self.s = {}
        for p in range(depth_d):
            deadline.check()
            for i in range(p + 2):
                hom = freegrp.coface(p, i, rank)
                self.d[(p, i)] = induced_map(hom, self.values[p], self.values[p + 1])
            for j in range(p + 1):
                hom = freegrp.codegeneracy(p, j, rank)
                self.s[(p, j)] = induced_map(hom, self.values[p + 1], self.values[p])
        self.verify_cosimplicial_identities()

    def verify_cosimplicial_identities(self):
        """All cosimplicial identities as equalities of presented maps.

        A composite applies its right map first, and its matrix is the
        product of the two matrices in the order they apply.  So an
        identity (first, second) = (first', second') holds iff every row of
        [first | -first'] @ [second; second'] lies in the relations of the
        level it lands in.  The identities, each composite written with
        its first map on the right, are:

        - coface d(p+1, j) d(p, i) = d(p+1, i) d(p, j-1) for i < j, in
          level p+2;
        - codegeneracy s(p, j) s(p+1, i) = s(p, i) s(p+1, j+1) for i <= j,
          in level p;
        - mixed s(p, j) d(p, i) = d(p-1, i) s(p-1, j-1) for i < j, the
          identity for i in {j, j+1} (the level's identity matrix on both
          sides, as a sparse diagonal) and d(p-1, i-1) s(p-1, j) for
          i > j+1, in level p.

        Every identity that lands in one level is one block row of one
        exact product (``sparse_product``): the left factor holds each
        [first | -first'] on the block diagonal, the right factor stacks
        each [second; second'].  That is at most D + 1 products, and only
        their nonzero rows are tested, with one ``contains`` per level.  A
        failing row names its identity by the row offsets, and a failure
        names the first failing identity in the order cofaces,
        codegeneracies, mixed, by (p, i, j) as above ((p, j, i) for
        mixed)."""
        D = self.D
        d = {key: SparseRows.of(m.matrix) for key, m in self.d.items()}
        s = {key: SparseRows.of(m.matrix) for key, m in self.s.items()}
        # (family, label, target level, (first, second, first', second'))
        identities = []
        for p in range(D - 1):
            for i in range(p + 2):
                for j in range(i + 1, p + 3):
                    sides = d[(p, i)], d[(p + 1, j)], d[(p, j - 1)], d[(p + 1, i)]
                    identities.append(("coface", (p, i, j), p + 2, sides))
        for p in range(D - 1):
            for j in range(p + 1):
                for i in range(j + 1):
                    sides = s[(p + 1, i)], s[(p, j)], s[(p + 1, j + 1)], s[(p, i)]
                    identities.append(("codegeneracy", (p, i, j), p, sides))
        for p in range(D):
            r = np.arange(self.levels[p].ngens)
            one = SparseRows.summed((len(r), len(r)), r, r, np.ones(len(r), dtype=np.int64))
            for j in range(p + 1):
                for i in range(p + 2):
                    if i < j:
                        rhs = s[(p - 1, j - 1)], d[(p - 1, i)]
                    elif i in (j, j + 1):
                        rhs = one, one
                    else:
                        rhs = s[(p - 1, j)], d[(p - 1, i - 1)]
                    identities.append(("mixed", (p, j, i), p, (d[(p, i)], s[(p, j)], *rhs)))
        failed = []
        for t in sorted({identity[2] for identity in identities}):
            ks = [k for k, identity in enumerate(identities) if identity[2] == t]
            # identity ks[b] takes rows row_at[b]..row_at[b + 1] of the product
            left, right, row_at, inner = [], [], [0], 0
            for k in ks:
                first, second, first2, second2 = identities[k][3]
                r, mid = row_at[-1], inner + first.shape[1]
                left += [(r, inner, 1, first), (r, mid, -1, first2)]
                right += [(inner, 0, 1, second), (mid, 0, 1, second2)]
                row_at.append(r + first.shape[0])
                inner = mid + first2.shape[1]
            level = self.levels[t]
            rows, block = sparse_product(
                SparseRows.placed((row_at[-1], inner), left),
                SparseRows.placed((inner, level.ngens), right),
            ).nonzero_rows()
            if len(block) and not level.relations.contains(block):
                wrong = rows[level.relations.reduce(block).any(axis=1)].min()
                failed.append(ks[np.searchsorted(row_at, wrong, side="right") - 1])
        if failed:
            family, label, *_ = identities[min(failed)]
            raise AssertionError(f"{family} identity fails at {label}")
        return True


@dataclass
class CochainComplex:
    """Bounded complex in degrees 0..D with maps[k]: levels[k] -> levels[k+1]."""

    levels: list
    maps: list

    def cohomology(self, k):
        """H^k; requires the outgoing differential, so k <= D - 1."""
        if k >= len(self.maps):
            raise ValueError(f"degree {k} needs level {k + 1} maps")
        if k == 0:
            incoming = AbMap.zero(FinPresAb.zero(), self.levels[0])
        else:
            incoming = self.maps[k - 1]
        return homology_at(incoming, self.maps[k])


def alternate_sum_complex(X):
    """C(X): same levels, differential sum_i (-1)^i d^i; d^2 = 0 is verified
    as maps of presented groups, by sparse products (``composite_is_zero``),
    and failure signals an induced-map bug."""
    maps = []
    for p in range(X.D):
        acc = X.d[(p, 0)]
        for i in range(1, p + 2):
            term = X.d[(p, i)]
            acc = acc + term if i % 2 == 0 else acc - term
        maps.append(acc)
    for k in range(len(maps) - 1):
        if not composite_is_zero(maps[k], maps[k + 1]):
            raise AssertionError("alternate-sum differential does not square to zero")
    return CochainComplex(list(X.levels), maps)


def moore_complex(X):
    """Q(X): degree n is X^n modulo the images of d^1..d^n; the differential
    is the class of d^0.  Each level's canonical relation basis is taken as
    it is, and only the images of d^1..d^n are eliminated into a copy of
    it."""
    levels = []
    for n in range(X.D + 1):
        rel = X.levels[n].relations.copy()
        # a generator: add reads a list as one block of rows
        rel.add(X.d[(n - 1, i)].matrix for i in range(1, n + 1))
        levels.append(FinPresAb(X.levels[n].ngens, rel))
    maps = [
        AbMap(levels[n], levels[n + 1], X.d[(n, 0)].matrix) for n in range(X.D)
    ]
    return CochainComplex(levels, maps)


def assemble(code, group, top_degree, deadline=None, ctx=None):
    """Build the cosimplicial abelian group for the code on levels
    0..top_degree of the standard complex of G's base presentation, in
    the rings truncated at the code's faithful depth.  A given context
    must be one of the same group object."""
    code = normalize(code)
    if top_degree < 1:
        raise ValueError("top_degree must be at least 1")
    if ctx is None:
        ctx = GroupContext(group)
    elif ctx.group is not group:
        raise ValueError(f"the context is one of {ctx.group.name}, not of {group.name}")
    return CosimplicialAb(code, ctx, top_degree, deadline=deadline)


def code_lattice_equalizer_rank(X):
    """Rank of the equalizer of the two cofaces from the code lattice in
    Z[F]/r^N to the code lattice in Z[F*F]/r^N.

    This is lim^0 of the truncated code, not of the code.  For the code f
    it reads |G| - 1: at N = 1 the truncated code is the augmentation
    ideal of Z[G], whose limit is not zero, while lim^0(f) = 0.  The code
    lattices are free abelian groups, so the equalizer is a plain integer
    kernel.  The coface images of the code rows are the rows' used
    columns times those columns' ``word_images``.

    Nothing in the package calls it: the report's lim^0 is 0 by theorem.
    The benchmark's tracer (``bench/layertrace.py``) still wraps it by
    name, and ROADMAP item 7 deletes it once item 1 moves the tracer.
    """
    v0, v1 = X.values[0], X.values[1]
    rows = v0.c_lattice.basis()
    if not len(rows):
        return 0
    used = np.flatnonzero(rows.any(axis=0))
    rank = X.ctx.group.ngens
    images = [
        safe_matmul(rows[:, used], word_images(freegrp.coface(0, i, rank), v0.ring, v1.ring, used))
        for i in (0, 1)
    ]
    coords = v1.c_lattice.coordinates(np.concatenate(images))
    if coords is None:
        raise AssertionError("coface image escapes the code lattice")
    # |coordinates| < 2**62 in int64, so the difference cannot wrap
    kern = kernel_of_matrix(coords[: len(rows)] - coords[len(rows) :], v1.c_lattice.rank)
    return len(kern)


@dataclass
class LimitsReport:
    code: str
    group: str
    trunc_n: int
    top_degree: int
    lims: list  # lims[i] = lim^i for 0 <= i <= top_degree (FinPresAb)
    moore_vanishing: dict
    checks: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "code": self.code,
            "group": self.group,
            "N": self.trunc_n,
            "levels": self.top_degree,
            "lims": [
                {"degree": i, "group": g.describe()} for i, g in enumerate(self.lims)
            ],
            "checks": dict(
                sorted(
                    {
                        **self.checks,
                        "moore_vanishing": {
                            str(k): v for k, v in sorted(self.moore_vanishing.items())
                        },
                    }.items()
                )
            ),
        }


def higher_limits(code, group, top_degree=None, deadline=None, ctx=None,
                  cross_validate=False):
    """lim^i(code) for 0 <= i <= top_degree over Pres(G).

    lim^0 = 0 (the code embeds in f, whose limits vanish) and
    lim^i = pi^{i-1} of the value cosimplicial group, computed from the
    Moore complex, the one cochain complex built.  The cosimplicial
    identities are proved on every call (``CosimplicialAb``), and the
    report flags which Moore degrees vanish.  Only with cross_validate is
    the alternate-sum complex built: its d^2 = 0 is proved and its
    cohomology is compared with the Moore one degree by degree
    ("d_squared_zero" and "moore_vs_alternate" in the checks).

    The default top_degree is n, the length of the code's longest
    monomial.  It assumes lim-finiteness: lim^i(code) = 0 for every i > n,
    so that the report leaves out no nonzero limit.  The tests check
    lim^(n+1) = 0 on small groups.
    """
    code = normalize(code)
    if top_degree is None:
        top_degree = max(1, max_monomial_length(code))
    deadline = deadline or Deadline()
    X = assemble(code, group, top_degree, deadline=deadline, ctx=ctx)
    deadline.check()
    Q = moore_complex(X)
    lims = [FinPresAb.zero()]
    for i in range(1, top_degree + 1):
        deadline.check()
        lims.append(Q.cohomology(i - 1))
    moore_vanishing = {k: Q.levels[k].is_trivial() for k in range(top_degree + 1)}
    checks = {"cosimplicial_identities": True}  # verified during assembly
    if cross_validate:
        C = alternate_sum_complex(X)  # raises unless d^2 = 0
        checks["d_squared_zero"] = True
        checks["moore_vs_alternate"] = all(
            lims[k + 1].iso_eq(C.cohomology(k)) for k in range(top_degree)
        )
    report = LimitsReport(
        code=str(code),
        group=group.name,
        trunc_n=X.N,
        top_degree=top_degree,
        lims=lims,
        moore_vanishing=moore_vanishing,
        checks=checks,
    )
    return report
