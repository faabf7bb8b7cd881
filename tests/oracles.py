"""Independent brute-force oracles used by the test suite.

These deliberately avoid the package's own linear algebra: finite abelian
groups are handled by element enumeration and invariant factors are
recovered from p-power annihilator counts or from determinantal divisors,
so agreement with the package is meaningful evidence.

The presentation of f/c as ring/(c + Z·1) (``RingQuotientValue`` and
``ring_quotient_map``) is the package's earlier presentation, kept as a
reference for the one on f's own basis: it adds the row 1 to a copy of c
and eliminates it, so its generators and maps differ from the package's,
and the two agree only up to the change of basis between them.

The pairwise cosimplicial check (``cosimplicial_identities_pairwise``) is
a reference of another kind: it shares the package's lattice engine, but
forms one dense composite per side of each identity and tests each
identity on its own, so it checks the batched sparse check's products,
blocks and bookkeeping.

The Moore complex by images (``moore_complex_by_images``) is the
package's earlier construction, kept as a reference for the one on the
all-copies words: it eliminates the images of d^1..d^n into a copy of
level n's relations, at every level built, so it does not rest on the
cofaces relabelling words, nor on the levels >= N being zero.

The two-step kernel (``kernel_by_two_eliminations``) is the package's
earlier kernel of a presented map, kept as a reference for the kernel
that ``intlin._lower`` slices off one elimination of [M | I], and as the
kernel the random complexes of the homology tests are drawn from: it
eliminates [G; R | I] with an identity block for
every row, relation rows included, and eliminates the kernel again after
cutting it to G's rows.  The homology by a kernel basis
(``homology_by_kernel``) is the package's earlier ``homology_at``, kept
as a reference for the cohomology pass read off ranks and Smith
invariants: it checks g o f = 0 on the dense composite, builds ker(g)
with the two-step kernel and presents the homology in its coordinates.

The monomial lattice by products (``monomial_by_products``) is the
span of every product of a right generator with a row of the tail, plus
the unit rows of r^k, as a reference for the seeded construction: it
writes no seed down, so it does not rest on the identity of the
``truncring`` module docstring nor on the powers of the augmentation
ideal.  Those powers, and the
quotients Delta/Delta^n, are built here from products in Z[G] on the
multiplication table (``augmentation_power_rows``,
``augmentation_quotient_invariants``), with no truncated ring.

The group homology H_n(G; Z) (``bar_homology``) is read off the
normalized bar complex, built from the group's multiplication alone
(``GroupData.mul``), with no free group, no truncated ring and no
presentation, so it anchors the answers the package reads off fr-codes
(lim^1(rr+frf) = H_3, lim^1(fr+rf) = Z^(|G|-1) + H_2) independently.

The package keeps a ring element as a dense row over the basis, laid out
by a formula it never tabulates; the oracle keeps an element as its terms
{(g, J): c}, places a basis word by that formula on its own (``position``)
and decodes an index back to its word (``word_at``), and the tests check
that the two are inverse.  Its normal form of a group word
(``normal_form_terms``) expands the rewritten word as a product of
truncated polynomials in the t_j, each rho_j^(+-1) a binomial series
(``expand_rho_word``), where the package shifts a row once per letter.

Ring products (``multiply_terms``) are formed by the cocycle and
conjugation identities, not from normal forms of words as in the
package.  The identity-component subalgebra of Z[F_p]/r^N is a truncated
free polynomial algebra in the t_j = rho_j - 1, and group sections
commute past it via

    s(g)·s(h) = s(gh)·(s(gh)^-1 s(g) s(h)),
    (rho_j - 1)·s(h) = s(h)·(s(h)^-1 rho_j s(h) - 1),

with the bracketed words in R rewritten in the Schreier generators and
expanded.  So (g, J)·(h, K) = s(gh)·c(g, h)·prod_j (conj(j, h) - 1)·t_K,
a product of truncated polynomials.
"""

import weakref
from itertools import combinations, product
from math import comb, gcd

import numpy as np

from frlimits import freegrp
from frlimits.intlin import AbMap, FinPresAb, Lattice, cochain_homology
from frlimits.limits import CochainComplex
from frlimits.truncring import word_images


def _factor(n):
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


def combine_cyclic_orders(orders):
    """Invariant-factor chain of a direct sum of cyclic groups."""
    per_prime = {}
    for n in orders:
        for p, e in _factor(n).items():
            per_prime.setdefault(p, []).append(e)
    if not per_prime:
        return ()
    slots = max(len(v) for v in per_prime.values())
    chain = [1] * slots
    for p, exps in per_prime.items():
        exps.sort(reverse=True)
        for i, e in enumerate(exps):
            chain[i] *= p**e
    chain.sort()
    return tuple(c for c in chain if c > 1)


def elements(mods):
    return list(product(*(range(m) for m in mods)))


def vec_add(a, b, mods):
    return tuple((x + y) % m for x, y, m in zip(a, b, mods))


def vec_scale(k, a, mods):
    return tuple((k * x) % m for x, m in zip(a, mods))


def apply_map(vec, matrix, mods_out):
    n = len(mods_out)
    out = [0] * n
    for i, x in enumerate(vec):
        if x:
            for j in range(n):
                out[j] = (out[j] + x * matrix[i][j]) % mods_out[j]
    return tuple(out)


def subgroup_span(gens, mods):
    """Closure of a generating set inside prod Z/mods."""
    zero = tuple(0 for _ in mods)
    seen = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = vec_add(cur, g, mods)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def brute_quotient_invariants(sub_elems, quot_gens, mods):
    """Invariant factors of S/T for T = span(quot_gens) inside S.

    Works by counting p^j-annihilated elements of the quotient: the
    number of parts of the p-partition of size >= j is
    log_p |{x in S : p^j x in T}| - log_p |{x : p^(j-1) x in T}|.
    """
    T = subgroup_span(quot_gens, mods)
    assert T <= set(sub_elems)
    order = len(sub_elems) // len(T)
    factors = []
    for p in _factor(order):
        logs = [0]
        j = 1
        while True:
            n_j = sum(1 for x in sub_elems if vec_scale(p**j, x, mods) in T) // len(T)
            e = 0
            while n_j > 1:
                assert n_j % p == 0
                n_j //= p
                e += 1
            logs.append(e)
            if logs[-1] == logs[-2]:
                break
            j += 1
        parts_ge = [logs[k] - logs[k - 1] for k in range(1, len(logs))]
        for k, cnt in enumerate(parts_ge):
            nxt = parts_ge[k + 1] if k + 1 < len(parts_ge) else 0
            factors.extend([p ** (k + 1)] * (cnt - nxt))
    return combine_cyclic_orders(factors)


def abelianization_by_enumeration(group):
    """Invariant factors of G/[G,G] from the group's multiplication table:
    the closure of all commutators, the table of the quotient on coset
    representatives, and p-power annihilator counts in that table."""
    n = group.order
    comms = {
        group.mul(group.mul(a, b), group.mul(group.inverse[a], group.inverse[b]))
        for a in range(n)
        for b in range(n)
    }
    sub = {0}
    frontier = [0]
    while frontier:
        cur = frontier.pop()
        for c in comms:
            nxt = group.mul(cur, c)
            if nxt not in sub:
                sub.add(nxt)
                frontier.append(nxt)
    coset_of, reps = {}, []
    for g in range(n):
        if g not in coset_of:
            for h in sub:
                coset_of[group.mul(h, g)] = len(reps)
            reps.append(g)
    m = len(reps)
    table = [[coset_of[group.mul(a, b)] for b in reps] for a in reps]

    def power(g, k):
        acc, base = 0, g
        while k:
            if k & 1:
                acc = table[acc][base]
            base = table[base][base]
            k >>= 1
        return acc

    factors = []
    for p in _factor(m):
        logs = [0]
        j = 1
        while True:
            cnt = sum(1 for g in range(m) if power(g, p**j) == 0)
            e = 0
            while cnt > 1:
                assert cnt % p == 0
                cnt //= p
                e += 1
            logs.append(e)
            if logs[-1] == logs[-2]:
                break
            j += 1
        parts_ge = [logs[k] - logs[k - 1] for k in range(1, len(logs))]
        for k, c in enumerate(parts_ge):
            nxt = parts_ge[k + 1] if k + 1 < len(parts_ge) else 0
            factors.extend([p ** (k + 1)] * (c - nxt))
    return combine_cyclic_orders(factors)


def brute_homology(mods_a, mat_f, mods_b, mat_g, mods_c):
    """Invariant factors of ker(g)/im(f) for finite A --f--> B --g--> C."""
    zero_c = tuple(0 for _ in mods_c)
    ker = [b for b in elements(mods_b) if apply_map(b, mat_g, mods_c) == zero_c]
    img_gens = [
        apply_map(a, mat_f, mods_b)
        for a in [tuple(1 if j == i else 0 for j in range(len(mods_a))) for i in range(len(mods_a))]
    ]
    return brute_quotient_invariants(ker, img_gens, mods_b)


def _det(m):
    """Determinant of a square integer matrix by Bareiss elimination."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def determinantal_invariant_factors(matrix):
    """Nonzero invariant factors d_k = D_k / D_(k-1) of an integer matrix,
    with D_k the gcd of all k x k minors (D_0 = 1)."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        dk = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                dk = gcd(dk, _det([[matrix[i][j] for j in cols] for i in rows]))
        if dk == 0:
            break
        factors.append(dk // prev)
        prev = dk
    return factors


def reference_hnf(rows, n):
    """Canonical row Hermite form of the lattice spanned by `rows` (dicts
    column -> entry or length-n sequences), in plain Python ints.

    Euclid down each column in turn: the row with the smallest nonzero
    entry reduces the others to remainders until one is left, which
    becomes the pivot row (made positive).  Then every entry above a
    pivot is reduced into [0, pivot).  Returns (basis rows, pivot columns).
    """
    pending = [
        [int(r.get(j, 0)) for j in range(n)] if isinstance(r, dict) else [int(c) for c in r]
        for r in rows
    ]
    basis, pivots = [], []
    for j in range(n):
        live = [r for r in pending if r[j]]
        pending = [r for r in pending if not r[j]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[j]))
            head, rest = live[0], []
            for r in live[1:]:
                q = r[j] // head[j]
                rest.append([a - q * b for a, b in zip(r, head)])
            live = [head] + [r for r in rest if r[j]]
            pending += [r for r in rest if not r[j]]
        if live:
            head = live[0]
            basis.append(head if head[j] > 0 else [-a for a in head])
            pivots.append(j)
    for k, j in enumerate(pivots):
        for i in range(k):
            q = basis[i][j] // basis[k][j]
            if q:
                basis[i] = [a - q * b for a, b in zip(basis[i], basis[k])]
    return basis, pivots


def kernel_by_two_eliminations(G, R):
    """The lattice {b : b·G lies in the span of the rows R}, for blocks G
    (nb × nc) and R (any × nc): the left kernel of the stacked [G; R],
    read off the canonical basis of [G; R | I] as its rows with a pivot
    in the identity block, then cut to the first nb coordinates and
    eliminated again as a lattice of its own."""
    nb, nc = G.shape
    M = np.concatenate([G, R])
    m = len(M)
    aug = np.zeros((m, nc + m), dtype=M.dtype)
    aug[:, :nc] = M
    aug[np.arange(m), nc + np.arange(m)] = 1
    lat = Lattice(nc + m, aug)
    rows = lat.basis(int(np.searchsorted(lat.pivot_cols, nc)))
    return Lattice(nb, rows[:, nc : nc + nb])


def surviving(lat):
    """(cols, rows): the columns that no unit pivot of lat's canonical
    basis takes, and the basis rows whose pivot is not 1, cut to them,
    read off the dense basis.  Z^n / lat is presented on ``cols`` with
    ``rows`` as relations, since a unit pivot's column is zero outside
    its row and the other rows are zero there."""
    rows, piv = lat.basis(), lat.pivot_cols
    unit = rows[np.arange(len(rows)), piv] == 1
    cols = np.setdiff1d(np.arange(lat.n), piv[unit])
    return cols, rows[~unit][:, cols]


def homology_by_kernel(f, g):
    """ker(g)/im(f) for presented maps A --f--> B --g--> C with g o f = 0,
    in the coordinates of a basis of ker(g): B and C are presented on
    their surviving generators (``surviving``), the kernel {b : b·g_cut
    in R_C} is ``kernel_by_two_eliminations``, and the images of f and the
    relations R_B are solved for in its basis.  g o f = 0 is checked on
    the dense product of the two matrices."""
    B, C = f.cod, g.cod
    if g.dom.ngens != B.ngens:
        raise ValueError("homology_by_kernel: the middle ranks differ")
    if not C.relations.contains(g.compose(f).matrix):
        raise ValueError("homology_by_kernel: composite g o f is not zero")
    cols_B, R_B = surviving(B.relations)
    cols_C, R_C = surviving(C.relations)
    g_cut = C.relations.reduce(g.matrix[cols_B])[:, cols_C]
    f_cut = B.relations.reduce(f.matrix)[:, cols_B]
    kernel = kernel_by_two_eliminations(g_cut, R_C)
    image, rel_B = kernel.coordinates(f_cut), kernel.coordinates(R_B)
    if image is None or rel_B is None:
        raise AssertionError("image of f or relations of B escape ker(g)")
    return FinPresAb(kernel.rank, np.concatenate([image, rel_B]))


def monomial_by_products(ring, mono, lats=None):
    """The monomial lattice from products alone, as a reference for
    ``eval_monomial``: right to left, from the whole ring, each suffix
    w = a·T of length k is the span of the unit rows of r^k (the words of
    the layers >= k, none for k >= N) and the products gamma·t, through
    ``left_multiply``, of every right generator of a with every canonical
    row t of T whose pivot lies below those layers.  T contains r^(k-1),
    so its other rows are unit rows of r^k, and their products lie in
    r^(k+1).  So no seed
    is written down and no power of the augmentation ideal is read.  Its
    suffixes live in the dict ``lats`` (a new one by default), which it
    fills in and reads, so it shares no lattice with the ring's caches."""
    lats = {} if lats is None else lats
    lats.setdefault("", Lattice(ring.rank, np.eye(ring.rank, dtype=np.int64)))
    for i in reversed(range(len(mono))):
        w = mono[i:]
        if w in lats:
            continue
        k, tail = len(w), lats[w[1:]]
        start = ring.layer_offsets[min(k, ring.depth)]
        lat = Lattice(ring.rank, np.eye(ring.rank, dtype=np.int64)[start:])
        rows = tail.basis(0, int(np.searchsorted(tail.pivot_cols, start)))
        lat.add(ring.left_multiply((u,), rows)[0] for u in ring.right_generators(w[0]))
        lats[w] = lat
    return lats[mono]


def group_ring_product(group, a, b):
    """The product of two elements of Z[G], given as coefficient lists
    over G's elements, from the multiplication table."""
    out = [0] * group.order
    for g, x in enumerate(a):
        if x:
            for h, y in enumerate(b):
                if y:
                    out[group.mul(g, h)] += x * y
    return out


def augmentation_power_rows(group, n):
    """The canonical basis of Delta^n in Z^|G|, Delta the augmentation
    ideal of Z[G], from products in Z[G] alone: Delta is spanned by the
    g - 1, and Delta^(k+1) by the products (g - 1)·v over the g - 1 and a
    basis v of Delta^k, brought to Hermite form by ``reference_hnf``."""
    one = [1] + [0] * (group.order - 1)
    delta = [[(h == g) - o for h, o in enumerate(one)] for g in range(1, group.order)]
    rows = reference_hnf(delta, group.order)[0]
    for _ in range(n - 1):
        rows = reference_hnf([group_ring_product(group, d, v) for d in delta for v in rows],
                             group.order)[0]
    return rows


def augmentation_quotient_invariants(group, n):
    """The invariant factors of Delta/Delta^n.  Delta is free on the
    e_g - e_1 over g != 1, and an element v of Delta has coordinates
    v[1:] there (the identity is element 0), so Delta/Delta^n is
    Z^(|G|-1) modulo those coordinates of Delta^n's basis, which has full
    rank; its invariant factors are the determinantal ones above 1."""
    coords = [row[1:] for row in augmentation_power_rows(group, n)]
    return tuple(d for d in determinantal_invariant_factors(coords) if d != 1)


def expand_schreier_word(lp, rho_word):
    """The word in F that a word in the Schreier generators of the level
    presentation lp stands for: each generator substituted back, so it
    inverts ``lp.rewrite_in_R``."""
    return freegrp.mul(
        *(
            lp.schreier_gens[j] if s > 0 else freegrp.inv(lp.schreier_gens[j])
            for j, s in rho_word
        )
    ) if rho_word else freegrp.IDENTITY


def position(ring, g, J):
    """Index of basis word (g, J) in the ring's layout: the sizes |G|·m^i
    of the layers i < |J| summed, then g followed by the letters of J read
    as one base-m number."""
    order, m = ring.lp.group.order, ring.lp.num_schreier_gens
    s = g
    for j in J:
        s = s * m + j
    return sum(order * m**i for i in range(len(J))) + s


def word_at(ring, i):
    """The basis word (g, J) at index i of the ring, decoded digit by
    digit rather than by ``position``'s formula: whole layers of |G|·m^k
    words are skipped, and the rest splits into g and the base-m digits
    of J, most significant first."""
    order, m = ring.lp.group.order, ring.lp.num_schreier_gens
    k = 0
    while k < ring.depth and i >= order * m**k:
        i -= order * m**k
        k += 1
    if k == ring.depth or i < 0:
        raise IndexError("no basis word at that index")
    g, rest = divmod(i, m**k)
    J = []
    for _ in range(k):
        rest, j = divmod(rest, m)
        J.insert(0, j)
    return g, tuple(J)


def vec_to_terms(ring, row):
    """A ring vector as the terms {basis word: coefficient} of the element,
    so that ``multiply_terms`` can serve as the reference product."""
    return {word_at(ring, i): int(c) for i, c in enumerate(row) if c}


def terms_to_vec(ring, terms):
    """The terms of a ring element as a dict row {basis index: coefficient}."""
    return {position(ring, g, J): c for (g, J), c in terms.items()}


# -- truncated free polynomials in the differences t_j -------------------------


def poly_mul(a, b, depth):
    """The product of two polynomials {J: c} in the noncommuting t_j,
    truncated at degree depth."""
    out = {}
    for J, c in a.items():
        for K, d in b.items():
            if len(J) + len(K) < depth:
                out[J + K] = out.get(J + K, 0) + c * d
    return {J: c for J, c in out.items() if c}


def rho_power_poly(depth, j, exp):
    """(1 + t_j)^exp truncated at degree depth: the binomial series, for a
    negative exponent the geometric series of (1 + t)^-1 raised."""
    if exp >= 0:
        return {(j,) * k: comb(exp, k) for k in range(min(exp, depth - 1) + 1)}
    return {(j,) * k: (-1) ** k * comb(k - exp - 1, k) for k in range(depth)}


def expand_rho_word(ring, rho_word):
    """The polynomial of a word in the Schreier generators, constant term 1."""
    poly = {(): 1}
    for j, sign in rho_word:
        poly = poly_mul(poly, rho_power_poly(ring.depth, j, sign), ring.depth)
    return poly


def normal_form_terms(ring, word):
    """The terms of a group word w = s(g)·u, u in R: s(g) times the
    polynomial of u rewritten in the Schreier generators."""
    lp = ring.lp
    g = lp.eval_word(word)
    u = freegrp.mul(freegrp.inv(lp.transversal[g]), word)
    return {(g, J): c for J, c in expand_rho_word(ring, lp.rewrite_in_R(u)).items()}


# -- the reference product of the truncated group ring -------------------------

_MEMO = weakref.WeakKeyDictionary()


def _memo(ring):
    """Per-ring tables of the cocycle and conjugate expansions."""
    return _MEMO.setdefault(ring, ({}, {}))


def _expand_relator_word(ring, word):
    return expand_rho_word(ring, ring.lp.rewrite_in_R(word))


def conj_poly(ring, j, h):
    """Expansion of s(h)^-1 rho_j s(h)."""
    conj = _memo(ring)[0]
    if (j, h) not in conj:
        s_h = ring.lp.transversal[h]
        word = freegrp.mul(freegrp.inv(s_h), ring.lp.schreier_gens[j], s_h)
        conj[(j, h)] = _expand_relator_word(ring, word)
    return conj[(j, h)]


def cocycle_poly(ring, g, h):
    """Expansion of s(gh)^-1 s(g) s(h)."""
    cocycle = _memo(ring)[1]
    if (g, h) not in cocycle:
        lp = ring.lp
        word = freegrp.mul(
            freegrp.inv(lp.transversal[lp.group.mul(g, h)]), lp.transversal[g], lp.transversal[h]
        )
        cocycle[(g, h)] = _expand_relator_word(ring, word)
    return cocycle[(g, h)]


def poly_drop_constant(p):
    out = dict(p)
    out.pop((), None)
    return out


def mul_basis(ring, bw1, bw2):
    """(g, J)·(h, K) via the cocycle and conjugation expansions."""
    g, J = bw1
    h, K = bw2
    if len(J) + len(K) >= ring.depth:
        # every contribution has filtration degree >= |J| + |K|
        return {}
    gh = ring.lp.group.mul(g, h)
    poly = cocycle_poly(ring, g, h)
    for j in J:
        poly = poly_mul(poly, poly_drop_constant(conj_poly(ring, j, h)), ring.depth)
        if not poly:
            return {}
    if K:
        poly = poly_mul(poly, {K: 1}, ring.depth)
    return {(gh, M): c for M, c in poly.items()}


def multiply_terms(ring, a_terms, b_terms):
    """The product of two ring elements given by their terms."""
    out = {}
    for bw1, c in a_terms.items():
        for bw2, d in b_terms.items():
            cd = c * d
            for bw, e in mul_basis(ring, bw1, bw2).items():
                v = out.get(bw, 0) + cd * e
                if v:
                    out[bw] = v
                elif bw in out:
                    del out[bw]
    return out


def minus_one(terms):
    """The terms of a - 1, for a given by its terms."""
    out = dict(terms)
    c = out.pop((0, ()), 0) - 1
    if c:
        out[(0, ())] = c
    return out


def word_image_terms(hom, src_ring, tgt_ring, k):
    """The image of basis word k = (g, J) of src_ring under a presentation
    morphism phi, as terms of tgt_ring: the normal form of phi(s(g)) times
    the normal form of phi(rho_j) - 1 for each letter j of J in turn, each
    product by the reference product ``multiply_terms``."""
    g, J = word_at(src_ring, k)
    lp = src_ring.lp
    terms = normal_form_terms(tgt_ring, hom.apply(lp.transversal[g]))
    for j in J:
        diff = minus_one(normal_form_terms(tgt_ring, hom.apply(lp.schreier_gens[j])))
        terms = multiply_terms(tgt_ring, terms, diff)
    return terms


def cosimplicial_identities_pairwise(X):
    """The cosimplicial identities of X checked one at a time: each side
    is one composite (``AbMap.compose``), and each pair is compared
    with ``equals_as_map``.  Raises AssertionError naming the first
    failing identity in the order cofaces, codegeneracies, mixed; returns
    True otherwise."""
    d, s, D = X.d, X.s, X.D
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
                    rhs = AbMap.identity(X.levels[p])
                else:
                    rhs = d[(p - 1, i - 1)].compose(s[(p - 1, j)])
                if not lhs.equals_as_map(rhs):
                    raise AssertionError(f"mixed identity fails at {(p, j, i)}")
    return True


class RingQuotientValue:
    """f/c presented as ring/(c + Z·1), for a ``FunctorValue`` v: the
    augmentation splits the ring as f + Z·1, so f/c = ring/rel with rel
    = c + Z·1.  ``group`` is presented on ``gens``, the basis words that
    no unit pivot of ``rel`` eliminates, with the other canonical rows of
    ``rel``, cut to ``gens``, as relations; a ring vector x stands for the
    class of ``rel.reduce(x)`` read on the ``gens`` columns."""

    def __init__(self, value):
        ring = value.ring
        self.ring = ring
        self.rel = value.c_lattice.copy()
        self.rel.add(np.eye(1, ring.rank, position(ring, 0, ()), dtype=np.int64))
        self.gens, rows = surviving(self.rel)
        self.group = FinPresAb(len(self.gens), rows)

    def classes(self, rows):
        """The classes of a block of ring vectors, on ``gens``."""
        return self.rel.reduce(rows)[:, self.gens]


def ring_quotient_map(hom, src, tgt):
    """The map of ring/(c + Z·1) presentations (``RingQuotientValue``)
    induced by a presentation morphism: row i is the image of the
    source's basis word ``gens[i]``, reduced modulo the target's rel."""
    images = word_images(hom, src.ring, tgt.ring, src.gens)
    return AbMap(src.group, tgt.group, tgt.classes(images))


def moore_complex_by_images(X):
    """The Moore complex of X, degree n being X^n modulo the images of
    d^1..d^n, for every level of X: each level's canonical relation basis
    is copied, the images are eliminated into the copy, and the
    differential is the class of d^0."""
    levels = []
    for n in range(X.D + 1):
        rel = X.levels[n].relations.copy()
        # a generator: add reads a list as one block of rows
        rel.add(X.d[(n - 1, i)].matrix for i in range(1, n + 1))
        levels.append(FinPresAb(X.levels[n].ngens, rel))
    maps = [AbMap(levels[n], levels[n + 1], X.d[(n, 0)].matrix) for n in range(X.D)]
    return CochainComplex(levels, maps)


def bar_homology(group, n):
    """H_n(G; Z) for n >= 1 from the normalized bar complex.  C_k is free
    on the k-tuples [g_1|...|g_k] of nonidentity elements, in
    lexicographic order, and

        d[g_1|...|g_k] = [g_2|...|g_k] + sum_{0<i<k} (-1)^i [...|g_i g_(i+1)|...]
                         + (-1)^k [g_1|...|g_(k-1)],

    a tuple with the identity (element 0) in it being 0.  H_n is
    ker d_n / im d_(n+1), the H^1 of the two-map complex
    C_(n+1) -> C_n -> C_(n-1), each map a matrix whose rows are the
    boundaries of the cells (``intlin.cochain_homology``).  C_(n+1) has
    (|G| - 1)^(n+1) cells: 2401 for H_3 at order 8, 14641 at order 12."""
    o = group.order
    table = np.array([[group.mul(a, b) for b in range(o)] for a in range(o)], dtype=np.intp)

    def boundary(k):
        cells = np.array(list(product(range(1, o), repeat=k)), dtype=np.intp)
        # a (k-1)-tuple's index reads its entries minus 1 in base |G| - 1
        weights = (o - 1) ** np.arange(k - 2, -1, -1)
        faces = [(1, cells[:, 1:]), ((-1) ** k, cells[:, :-1])]
        for i in range(1, k):
            merged = table[cells[:, i - 1], cells[:, i]]
            face = np.column_stack([cells[:, : i - 1], merged, cells[:, i + 1 :]])
            faces.append(((-1) ** i, face))
        out = np.zeros((len(cells), (o - 1) ** (k - 1)), dtype=np.int64)
        for sign, face in faces:
            keep = (face != 0).all(axis=1)
            np.add.at(out, (np.flatnonzero(keep), (face[keep] - 1) @ weights), sign)
        return AbMap(FinPresAb.free(len(cells)), FinPresAb.free(out.shape[1]), out)

    return cochain_homology([boundary(n + 1), boundary(n)])[1]
