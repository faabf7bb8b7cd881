"""Higher limits of an fr-code over the category of presentations of G.

The value functor f/code is evaluated on the standard complex of the base
presentation (level p = the (p+1)-fold free product), giving a cosimplicial
abelian group; lim^i(code) for i >= 1 is the (i-1)-st cohomology of its
Moore complex, the shift coming from the short exact sequence
code -> f -> f/code and the vanishing of the limits of f.  lim^0 is zero
for the same reason; the report still verifies it via the equalizer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import freegrp
from .errors import CapExceeded
from .frcode import max_monomial_length, normalize, required_truncation
from .intlin import AbMap, FinPresAb, homology_at, kernel_of_matrix
from .truncring import (
    FunctorValue,
    GroupContext,
    hom_image_of_basisword,
    induced_map,
)


class Deadline:
    """Wall-clock budget checked between major pipeline steps."""

    def __init__(self, seconds=None):
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self):
        if self.seconds is not None and time.monotonic() - self.start > self.seconds:
            raise CapExceeded(f"time budget of {self.seconds}s exhausted")


class CosimplicialAb:
    """Levels 0..D of f/code on the standard complex, with all cofaces and
    codegeneracies as maps of presented groups; the cosimplicial identities
    are verified on construction."""

    def __init__(self, code, ctx, depth_d, trunc_n, deadline=None):
        self.code = code
        self.ctx = ctx
        self.D = depth_d
        self.N = trunc_n
        deadline = deadline or Deadline()
        rank = ctx.group.ngens
        self.values = []
        for p in range(depth_d + 1):
            deadline.check()
            self.values.append(FunctorValue(ctx.ring(p, trunc_n), code))
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
        """All cosimplicial identities as equalities of presented maps."""
        d, s, D = self.d, self.s, self.D
        for p in range(D - 1):
            for i in range(p + 2):
                for j in range(i + 1, p + 3):
                    lhs = d[(p + 1, j)].compose(d[(p, i)])
                    rhs = d[(p + 1, i)].compose(d[(p, j - 1)])
                    if not lhs.equals_as_map(rhs):
                        raise AssertionError(f"coface identity fails at {(p, i, j)}")
        for p in range(D - 1):
            for j in range(p + 1):
                for i in range(j + 1):
                    lhs = s[(p, j)].compose(s[(p + 1, i)])
                    rhs = s[(p, i)].compose(s[(p + 1, j + 1)])
                    if not lhs.equals_as_map(rhs):
                        raise AssertionError(f"codegeneracy identity fails at {(p, i, j)}")
        for p in range(D):
            for j in range(p + 1):
                for i in range(p + 2):
                    lhs = s[(p, j)].compose(d[(p, i)])
                    if i < j:
                        rhs = d[(p - 1, i)].compose(s[(p - 1, j - 1)])
                    elif i in (j, j + 1):
                        rhs = AbMap.identity(self.levels[p])
                    else:
                        rhs = d[(p - 1, i - 1)].compose(s[(p - 1, j)])
                    if not lhs.equals_as_map(rhs):
                        raise AssertionError(f"mixed identity fails at {(p, j, i)}")
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

    @property
    def top(self):
        return len(self.levels) - 1


def alternate_sum_complex(X):
    """C(X): same levels, differential sum_i (-1)^i d^i; d^2 = 0 is verified
    as maps of presented groups and failure signals an induced-map bug."""
    maps = []
    for p in range(X.D):
        acc = X.d[(p, 0)]
        for i in range(1, p + 2):
            term = X.d[(p, i)]
            acc = acc + term if i % 2 == 0 else acc - term
        maps.append(acc)
    for k in range(len(maps) - 1):
        comp = maps[k + 1].compose(maps[k])
        if not comp.is_zero_map():
            raise AssertionError("alternate-sum differential does not square to zero")
    return CochainComplex(list(X.levels), maps)


def moore_complex(X):
    """Q(X): degree n is X^n modulo the images of d^1..d^n; the differential
    is the class of d^0."""
    levels = []
    for n in range(X.D + 1):
        rel_rows = list(X.levels[n].relations.basis())
        for i in range(1, n + 1):
            rel_rows.extend(X.d[(n - 1, i)].matrix)
        levels.append(FinPresAb(X.levels[n].ngens, rel_rows))
    maps = [
        AbMap(levels[n], levels[n + 1], X.d[(n, 0)].matrix) for n in range(X.D)
    ]
    return CochainComplex(levels, maps)


def assemble(code, group, top_degree, trunc_n=None, rank_cap=None, deadline=None,
             ctx=None):
    """Build the cosimplicial abelian group for the code on levels
    0..top_degree of the standard complex of G's base presentation."""
    code = normalize(code)
    if trunc_n is None:
        trunc_n = required_truncation(code)
    if trunc_n < required_truncation(code):
        raise ValueError(
            f"truncation {trunc_n} below the faithful depth "
            f"{required_truncation(code)}"
        )
    if top_degree < 1:
        raise ValueError("top_degree must be at least 1")
    if ctx is None:
        kwargs = {} if rank_cap is None else {"rank_cap": rank_cap}
        ctx = GroupContext(group, **kwargs)
    return CosimplicialAb(code, ctx, top_degree, trunc_n, deadline=deadline)


def code_lattice_equalizer_rank(X):
    """Rank of eq(code(F) => code(F*F)); zero exactly when lim^0(code) = 0.

    The code functor itself is valued in free abelian groups (ideal
    lattices), so the equalizer is a plain integer kernel.
    """
    v0 = X.values[0]
    v1 = X.values[1]
    rank = X.ctx.group.ngens
    rows = []
    memo_d = [{}, {}]
    homs = [freegrp.coface(0, 0, rank), freegrp.coface(0, 1, rank)]
    c1 = v1.c_lattice
    for row in v0.c_lattice.basis():
        terms = v0.ring.vec_to_terms(row)
        images = []
        for hi, hom in enumerate(homs):
            img = v1.ring.zero()
            for bw, c in terms.items():
                img = img + hom_image_of_basisword(
                    hom, v0.ring, v1.ring, bw, memo_d[hi]
                ) * c
            coords = c1.coordinates(img.to_vec())
            if coords is None:
                raise AssertionError("coface image escapes the code lattice")
            images.append(coords)
        rows.append([a - b for a, b in zip(images[0], images[1])])
    if not rows:
        return 0
    kern = kernel_of_matrix(rows, c1.rank)
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


def higher_limits(code, group, top_degree=None, trunc_n=None, rank_cap=None,
                  deadline=None, ctx=None, cross_validate=False):
    """lim^i(code) for 0 <= i <= top_degree over Pres(G).

    lim^0 = 0 (the code embeds in f, whose limits vanish) and
    lim^i = pi^{i-1} of the value cosimplicial group, computed from the
    Moore complex.  The report flags which Moore degrees vanish; with
    cross_validate the alternate-sum cohomology is compared degreewise.
    """
    code = normalize(code)
    if top_degree is None:
        top_degree = max(1, max_monomial_length(code))
    deadline = deadline or Deadline()
    X = assemble(code, group, top_degree, trunc_n=trunc_n, rank_cap=rank_cap,
                 deadline=deadline, ctx=ctx)
    deadline.check()
    Q = moore_complex(X)
    lims = [FinPresAb.zero()]
    for i in range(1, top_degree + 1):
        deadline.check()
        lims.append(Q.cohomology(i - 1))
    moore_vanishing = {k: Q.levels[k].is_trivial() for k in range(top_degree + 1)}
    C = alternate_sum_complex(X)  # raises unless d^2 = 0
    checks = {
        "cosimplicial_identities": True,  # verified during assembly
        "lim0_equalizer_rank": code_lattice_equalizer_rank(X),
        "d_squared_zero": True,
    }
    if cross_validate:
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
