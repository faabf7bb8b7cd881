"""Independent brute-force oracles used by the test suite.

These deliberately avoid the package's own linear algebra: finite abelian
groups are handled by element enumeration and invariant factors are
recovered from p-power annihilator counts or from determinantal divisors,
so agreement with the package is meaningful evidence.
"""

from itertools import combinations, product
from math import gcd


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
