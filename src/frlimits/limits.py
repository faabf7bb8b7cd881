"""Higher limits of an fr-code over the category of presentations of G.

The value functor f/code is evaluated on the standard complex of the base
presentation (level p = the (p+1)-fold free product), giving a cosimplicial
abelian group; lim^i(code) for i >= 1 is the (i-1)-st cohomology of its
Moore complex, the shift coming from the short exact sequence
code -> f -> f/code and the vanishing of the limits of f.  lim^0 is zero
for the same reason.

``truncring`` builds the group's levels and structure maps
(``truncring.structure``) and each level's Moore degree
(``FunctorValue.moore``), and this module sees only presented groups and
maps between them: it proves the cosimplicial identities, cuts d^0 to the
Moore degrees, and reads the cohomology and the report.  Degree n of the
Moore complex is presented on the basis words whose letters use every
copy 1..n of F.  A word has fewer than N letters, N the code's truncation
depth, so Moore^n = 0 for every n >= N, and lim^i = 0 for every i > N.
So ``higher_limits`` builds levels 0..min(D, N - 1) of a report of top
degree D, proves their cosimplicial identities, has the relabellings the
cut rests on checked, and reads lim^i for N < i <= D as 0.  With
``cross_validate`` it builds levels 0..D, proves every identity among
them, and compares the alternate-sum cohomology with lim^i in every
degree.

The cosimplicial identities are proved for every complex built, batched:
every identity that lands in one level is one block row of one exact
product of the maps' sparse rows (``sparse_product``), the difference of
its two sides, so a complex of top degree D takes at most D + 1 products,
and only their nonzero rows reach the lattice engine, in one membership
test per target level.  The square of the alternate-sum differential,
sum (-1)^(i+j) d(p+1, j) d(p, i), is a signed sum of the differences of
the coface identities, so d^2 = 0 follows from them; the alternate-sum
complex is built only to cross-validate the Moore cohomology, each
level's map as one signed placement of the cofaces' sparse rows
(``SparseRows.placed``), and its d^2 = 0 is proved once, by the
coordinate solve of its cohomology pass.

Every structure map is held sparse (``AbMap.rows``), so the identities
read the maps' rows as they are stored.  A dense matrix is built only
where a lattice reads whole rows: the Moore cut of d^0 and the
cohomology pass's reduction of each map.

A complex's cohomology is one pass over its maps
(``intlin.cochain_homology``): each level is presented once, each map
reduced modulo its codomain once, and each degree read off the Smith
invariants of one twisted cone, with the rank the degree below needs
taken from the same cone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import freegrp
from .errors import CapExceeded, Deadline, InputError
from .frcode import FrCode, max_monomial_length, normalize, required_truncation
from .intlin import (AbMap, FinPresAb, Lattice, SparseRows, cochain_homology, safe_matmul,
                     sparse_product)
from .permgrp import GroupData
from .truncring import DEFAULT_RANK_CAP, GroupContext, structure, word_images


class CosimplicialAb:
    """Levels 0..D of f/code on the standard complex, in the rings truncated
    at the code's faithful depth N (``required_truncation``), with all
    cofaces and codegeneracies as maps of presented groups, as
    ``truncring.structure`` builds them; the cosimplicial identities are
    verified on construction, with one sparse product and at most one
    membership test per target level (``verify_cosimplicial_identities``)."""

    def __init__(self, code, ctx, depth_d, deadline=Deadline()):
        self.ctx = ctx
        self.D = depth_d
        self.N = required_truncation(code)
        self.values, self.d, self.s = structure(code, ctx, depth_d, deadline)
        self.levels = [v.group for v in self.values]
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
        d = {key: m.rows for key, m in self.d.items()}
        s = {key: m.rows for key, m in self.s.items()}
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
    """Bounded complex levels[0] --maps[0]--> levels[1] --> ... -->
    levels[D], with maps[k]: levels[k] -> levels[k+1]."""

    levels: list
    maps: list

    def cohomology(self, deadline=Deadline()):
        """[H^0, ..., H^(D-1)], every degree with an outgoing map, in one
        pass over the maps (``cochain_homology``), which checks the
        deadline once per degree.  The pass proves d^2 = 0 as maps of
        presented groups, and refuses a complex where it fails with
        ValueError."""
        return cochain_homology(self.maps, deadline)


def alternate_sum_complex(X):
    """C(X): same levels, differential sum_i (-1)^i d^i, each level's map
    one signed placement of the cofaces' sparse rows
    (``SparseRows.placed``).  Its d^2 = 0 is proved by its cohomology
    pass, which refuses it with ValueError, a sign of an induced-map bug,
    where it fails."""
    maps = []
    for p in range(X.D):
        d0 = X.d[(p, 0)]
        parts = [(0, 0, (-1) ** i, X.d[(p, i)].rows) for i in range(p + 2)]
        maps.append(AbMap(d0.dom, d0.cod, SparseRows.placed(d0.rows.shape, parts)))
    return CochainComplex(list(X.levels), maps)


def moore_complex(X):
    """Q(X), the Moore complex: degree n is X^n modulo the images of
    d^1..d^n, as each level's value presents it (``FunctorValue.moore``,
    which checks on every call that d^1..d^n relabel basis words and hit
    exactly the words that miss a copy), with degree 0 the level X^0 as
    it is, ``X.levels[0]``.  The differential is the class of d^0: its
    matrix cut to the rows and columns each degree keeps.  A word has
    fewer than N letters, so degree n is 0 for every n >= N; when X
    reaches level N - 1, the complex ends with the zero level X.D + 1, so
    that its top cohomology is the top level modulo the image of d^0."""
    keep, levels = zip(*(value.moore(below) for below, value in zip([None, *X.values], X.values)))
    levels = list(levels)
    maps = [AbMap(levels[n], levels[n + 1], X.d[(n, 0)].matrix[np.ix_(keep[n], keep[n + 1])])
            for n in range(X.D)]
    if X.D + 1 >= X.N:
        levels.append(FinPresAb.zero())
        maps.append(AbMap.zero(levels[-2], levels[-1]))
    return CochainComplex(levels, maps)


def _check_types(code, group, deadline):
    """Refuse a code, a group or a deadline of the wrong type (a code or
    a group name as a string, a budget as a number) with InputError, so
    that none fails later with AttributeError."""
    for value, kind in ((code, FrCode), (group, GroupData), (deadline, Deadline)):
        if not isinstance(value, kind):
            raise InputError(f"{value!r} is not a {kind.__name__}")


def assemble(code, group, top_degree, deadline=Deadline(), ctx=None):
    """Build the cosimplicial abelian group for the code on levels
    0..top_degree of the standard complex of G's base presentation, in
    the rings truncated at the code's faithful depth; top degree 0 is
    level 0 alone, with no structure maps.  A given context must be one
    of the same group object.  A top degree that is not exactly an int
    (a bool or a float would pass the comparison and build levels), or
    that is negative, and a code, a group, a deadline or a context of
    the wrong type raise InputError before any level is built."""
    _check_types(code, group, deadline)
    if type(top_degree) is not int:
        raise InputError(f"top_degree {top_degree!r} is not an int")
    code = normalize(code)
    if top_degree < 0:
        raise InputError("top_degree must be at least 0")
    if ctx is None:
        ctx = GroupContext(group)
    elif not isinstance(ctx, GroupContext):
        raise InputError(f"{ctx!r} is not a GroupContext")
    elif ctx.group is not group:
        raise ValueError(f"the context is one of {ctx.group.name}, not of {group.name}")
    return CosimplicialAb(code, ctx, top_degree, deadline=deadline)


def code_lattice_equalizer_rank(X):
    """Rank of the equalizer of the two cofaces from the code lattice in
    Z[F]/r^N to the code lattice in Z[F*F]/r^N.

    This is lim^0 of the truncated code, not of the code.  For the code f
    it reads |G| - 1: at N = 1 the truncated code is the augmentation
    ideal of Z[G], whose limit is not zero, while lim^0(f) = 0.  The code
    lattices are free abelian groups, so the equalizer is the left kernel
    of the difference of the two coface images in the coordinates of the
    level-1 code lattice, and by rank-nullity its rank is the rank of the
    level-0 code lattice minus the rank of those difference rows.  The
    coface images of the code rows are the rows' used columns times those
    columns' ``word_images``.

    It reads levels 0 and 1, so it needs an assembly of top degree at
    least 1, such as the full one of ``cross_validate``; the plain path
    of a code with N = 1 builds level 0 alone.  Nothing in the package
    calls it: the report's lim^0 is 0 by theorem.
    The benchmark's tracer (``bench/layertrace.py``) still wraps it by
    name, and ROADMAP item 9 deletes it once item 1 moves the tracer.
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
    return len(rows) - Lattice(v1.c_lattice.rank, coords[: len(rows)] - coords[len(rows) :]).rank


@dataclass
class LimitsReport:
    code: str
    group: str
    trunc_n: int
    top_degree: int
    levels_built: int  # levels 0..levels_built of the standard complex
    lims: list  # lims[i] = lim^i for 0 <= i <= top_degree (FinPresAb)
    moore_vanishing: dict
    checks: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "code": self.code,
            "group": self.group,
            "N": self.trunc_n,
            "levels": self.top_degree,
            "levels_built": self.levels_built,
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


def higher_limits(code, group, top_degree=None, deadline=Deadline(), ctx=None,
                  cross_validate=False):
    """lim^i(code) for 0 <= i <= top_degree over Pres(G).

    lim^0 = 0 (the code embeds in f, whose limits vanish) and
    lim^i = pi^{i-1} of the value cosimplicial group, computed from the
    Moore complex, the one cochain complex built.  Its degree n is 0 for
    every n >= N, the code's truncation depth (``moore_complex``: a word
    has fewer than N letters, so none uses all of the copies 1..n), so
    lim^i = 0 for every i > N, and the answer needs levels 0..T only,
    T = min(top_degree, N - 1).  Those are the levels built; their
    cosimplicial identities are proved (``CosimplicialAb``) and the
    relabellings the Moore complex is cut by are checked on every call.
    Its cohomology is one pass over its maps up to degree top_degree - 1
    (``CochainComplex.cohomology``), and the degrees past its last one
    share one zero group.  The report flags which Moore degrees vanish, the ones
    >= N by the theorem.  A top_degree above DEFAULT_RANK_CAP raises
    CapExceeded before any level is built: the report holds an entry per
    degree.  A code, a group, a deadline or a context of the wrong type
    raises InputError before any level is built.

    With cross_validate, levels 0..top_degree are built and every
    identity among them is proved; the alternate-sum complex is built,
    its cohomology pass proves its d^2 = 0, and that cohomology is
    compared with lim^i in every degree, the ones above N included
    ("d_squared_zero" and "moore_vs_alternate" in the checks).
    ``levels_built`` says which levels were built.

    The default top_degree is n, the length of the code's longest
    monomial, and N <= n: r^L lies in every monomial of length L, and an
    intersection term's depth is at most its longest monomial.  So the
    default misses no nonzero limit of the truncated complex.
    """
    _check_types(code, group, deadline)
    # a bool or a float would pass the comparison below and build levels
    if top_degree is not None and type(top_degree) is not int:
        raise InputError(f"top_degree {top_degree!r} is not an int")
    code = normalize(code)
    if top_degree is None:
        top_degree = max(1, max_monomial_length(code))
    if top_degree < 1:
        raise InputError("top_degree must be at least 1")
    # the report holds an entry per degree
    if top_degree > DEFAULT_RANK_CAP:
        raise CapExceeded(f"top_degree {top_degree} exceeds the cap {DEFAULT_RANK_CAP}")
    built = top_degree if cross_validate else min(top_degree, required_truncation(code) - 1)
    X = assemble(code, group, built, deadline=deadline, ctx=ctx)
    deadline.check()
    Q = moore_complex(X)
    # lim^i = H^(i-1) for i <= top_degree, so no degree from top_degree on is read
    moore = CochainComplex(Q.levels[: top_degree + 1], Q.maps[:top_degree]).cohomology(deadline)
    zero = FinPresAb.zero()
    lims = [zero, *moore] + [zero] * (top_degree - len(moore))
    moore_vanishing = {k: k >= X.N or Q.levels[k].is_trivial() for k in range(top_degree + 1)}
    checks = {"cosimplicial_identities": True}  # verified during assembly
    if cross_validate:
        alternate = alternate_sum_complex(X).cohomology(deadline)  # raises unless d^2 = 0
        checks["d_squared_zero"] = True
        checks["moore_vs_alternate"] = all(a.iso_eq(b) for a, b in zip(lims[1:], alternate))
    return LimitsReport(
        code=str(code),
        group=group.name,
        trunc_n=X.N,
        top_degree=top_degree,
        levels_built=X.D,
        lims=lims,
        moore_vanishing=moore_vanishing,
        checks=checks,
    )
