"""Finite groups realized by permutations, and the level presentations of
the standard complex: Schreier transversals, Schreier free
generators of R = ker(F ->> G), and Reidemeister-Schreier rewriting.

G is specified by generator permutations, never by relators: R is the
kernel of the permutation action, so any optional relator list is only
sanity-checked to evaluate to the identity.
"""

from __future__ import annotations

import json

from . import freegrp
from .errors import CapExceeded, InputError
from .intlin import _sorted_chain

DEFAULT_ELEMENT_CAP = 5000


def _compose(p, q):
    """Right action: point^pq = (point^p)^q."""
    return tuple(q[i] for i in p)


class GroupData:
    """A finite permutation group with BFS-ordered elements.

    elements[0] is the identity; the multiplication table holds element
    indices; the element order is the deterministic BFS closure in fixed
    generator order (right multiplication by generators).
    """

    def __init__(self, gen_images, name="G", declared_order=None, cap=DEFAULT_ELEMENT_CAP):
        self.name = name
        self.degree = len(gen_images[0]) if gen_images else 1
        for img in gen_images:
            if sorted(img) != list(range(self.degree)):
                raise InputError(f"generator image {img} is not a bijection")
        self.gen_images = [tuple(img) for img in gen_images]

        identity = tuple(range(self.degree))
        elements = [identity]
        index = {identity: 0}
        queue = [identity]
        while queue:
            nxt = []
            for perm in queue:
                for img in self.gen_images:
                    new = _compose(perm, img)
                    if new not in index:
                        if len(elements) >= cap:
                            raise CapExceeded(
                                f"group closure exceeded the {cap}-element cap"
                            )
                        index[new] = len(elements)
                        elements.append(new)
                        nxt.append(new)
            queue = nxt
        self.elements = elements
        self.index = index
        n = len(elements)
        if declared_order is not None and declared_order != n:
            raise InputError(f"declared order {declared_order} but closure has {n}")
        self.mult_table = [
            [index[_compose(a, b)] for b in elements] for a in elements
        ]
        self.inverse = [0] * n
        for i, row in enumerate(self.mult_table):
            self.inverse[i] = row.index(0)

    @property
    def order(self):
        return len(self.elements)

    @property
    def ngens(self):
        return len(self.gen_images)

    def mul(self, a, b):
        return self.mult_table[a][b]

    def gen_element(self, i):
        return self.index[self.gen_images[i]]

    def abelianization(self):
        """Invariant factors of G/[G,G], computed from the closure tables."""
        n = self.order
        # commutator subgroup: closure of {aba^-1b^-1} under multiplication
        comms = set()
        for a in range(n):
            for b in range(n):
                c = self.mul(
                    self.mul(a, b), self.mul(self.inverse[a], self.inverse[b])
                )
                comms.add(c)
        sub = {0}
        frontier = [0]
        while frontier:
            cur = frontier.pop()
            for c in comms:
                nxt = self.mul(cur, c)
                if nxt not in sub:
                    sub.add(nxt)
                    frontier.append(nxt)
        # quotient group on coset representatives
        rep = {}
        cosets = []
        for g in range(n):
            key = frozenset(self.mul(h, g) for h in sub)
            if key not in rep:
                rep[key] = len(cosets)
                cosets.append(key)
        coset_of = {}
        for key, idx in rep.items():
            for g in key:
                coset_of[g] = idx
        m = len(cosets)
        reps = [min(key) for key in cosets]
        table = [
            [coset_of[self.mul(reps[i], reps[j])] for j in range(m)] for i in range(m)
        ]
        return _abelian_invariants_from_table(table)

    def __repr__(self):
        return f"GroupData({self.name}, order={self.order})"


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


def _abelian_invariants_from_table(table):
    """Invariant factors of a finite abelian group given by its table."""
    n = len(table)
    # element orders via p^j annihilation counts
    def power(g, k):
        acc = 0
        base = g
        while k:
            if k & 1:
                acc = table[acc][base]
            base = table[base][base]
            k >>= 1
        return acc

    factors = []
    for p in _factorint(n):
        logs = [0]
        j = 1
        while True:
            cnt = sum(1 for g in range(n) if power(g, p**j) == 0)
            e = 0
            while cnt > 1:
                if cnt % p:
                    raise AssertionError(f"the {p}^{j}-torsion count is not a power of {p}")
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
    return _sorted_chain(factors)


class LevelPresentation:
    """Level p of the standard complex: F^{*(p+1)} ->> G with the Schreier
    data fixing all downstream bases.

    The coset space is G itself; the transversal is the BFS tree over
    letters ordered (copy asc, generator asc, positive before negative),
    so transversal words are prefix-closed and reduced.  Every copy acts
    on G alike, so a copy-0 letter reaches each element first: every
    transversal word uses copy-0 letters only, and the transversal is
    the same at every level.  The relabelling structure maps of
    ``truncring`` rely on this.
    """

    def __init__(self, group, p):
        self.group = group
        self.level = p
        self.copies = p + 1
        rank = self.base_rank = group.ngens

        n = group.order
        # every copy of a generator acts on the cosets G as the base one
        gen_elt = [group.gen_element(i) for i in range(rank)]

        letters = [
            (c, i, sign)
            for c in range(self.copies)
            for i in range(rank)
            for sign in (1, -1)
        ]
        transversal = [None] * n
        transversal[0] = freegrp.IDENTITY
        queue = [0]
        while queue:
            nxt = []
            for g in queue:
                for c, i, sign in letters:
                    t = (
                        group.mul(g, gen_elt[i])
                        if sign > 0
                        else group.mul(g, group.inverse[gen_elt[i]])
                    )
                    if transversal[t] is None:
                        transversal[t] = freegrp.mul(
                            transversal[g], freegrp.gen_word(c, i, sign)
                        )
                        nxt.append(t)
            queue = nxt
        self.transversal = transversal

        # Schreier generators from non-tree positive edges, in (element,
        # copy, gen) order
        self.schreier_gens = []
        self.edge_to_gen = {}
        for g in range(n):
            for c in range(self.copies):
                for i in range(rank):
                    t = group.mul(g, gen_elt[i])
                    rho = freegrp.mul(
                        transversal[g],
                        freegrp.gen_word(c, i, 1),
                        freegrp.inv(transversal[t]),
                    )
                    if rho == freegrp.IDENTITY:
                        self.edge_to_gen[(g, c, i)] = None
                    else:
                        self.edge_to_gen[(g, c, i)] = len(self.schreier_gens)
                        self.schreier_gens.append(rho)

        expected = 1 + n * (self.copies * rank - 1)
        if len(self.schreier_gens) != expected:
            raise AssertionError(
                f"Schreier rank {len(self.schreier_gens)} != {expected}"
            )
        if len(set(self.schreier_gens)) != len(self.schreier_gens):
            raise AssertionError("two Schreier generators coincide")
        for rho in self.schreier_gens:
            if self.eval_word(rho) != 0:
                raise AssertionError(f"Schreier generator {rho} does not evaluate to 1")

    @property
    def num_schreier_gens(self):
        return len(self.schreier_gens)

    def eval_word(self, word):
        """Image of a word in G, as an element index."""
        g = 0
        group = self.group
        for c, i, e in word:
            if not (0 <= c < self.copies and 0 <= i < self.base_rank):
                raise ValueError(f"letter ({c},{i}) outside the level alphabet")
            x = self.group.gen_element(i)
            if e < 0:
                x = group.inverse[x]
            for _ in range(abs(e)):
                g = group.mul(g, x)
        return g

    def rewrite_in_R(self, word):
        """Rewrite w in R as a word in the Schreier generators.

        Returns a list of (generator index, +-1); the standard
        syllable-by-syllable Schreier process, so substituting the
        generators back reproduces w after free reduction.
        """
        if self.eval_word(word) != 0:
            raise ValueError("word does not lie in R (nontrivial image in G)")
        out = []
        g = 0
        group = self.group
        for c, i, sign in freegrp.word_letters(word):
            x = group.gen_element(i)
            if sign > 0:
                idx = self.edge_to_gen[(g, c, i)]
                if idx is not None:
                    out.append((idx, 1))
                g = group.mul(g, x)
            else:
                g2 = group.mul(g, group.inverse[x])
                idx = self.edge_to_gen[(g2, c, i)]
                if idx is not None:
                    out.append((idx, -1))
                g = g2
        return out

    def __repr__(self):
        return (
            f"LevelPresentation({self.group.name}, level={self.level}, "
            f"m={self.num_schreier_gens})"
        )


# -- group spec files ----------------------------------------------------------


def group_from_spec(spec):
    """Build GroupData from a parsed spec dict.

    Spec schema: {"name": str, "generators": [str], "images": [[int]]
    (one-line, 1-indexed), "order": int optional, "relators": [word]
    optional}.
    """
    try:
        names = list(spec["generators"])
        images = spec["images"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed group spec: {exc}") from exc
    if not isinstance(images, list) or not images or len(images) != len(names):
        raise InputError("group spec needs one image per generator")
    degree = len(images[0])
    if degree < 1 or any(len(row) != degree for row in images):
        raise InputError("generator images must share a common degree")
    zero_based = []
    for row in images:
        try:
            z = [int(v) - 1 for v in row]
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad permutation entry: {exc}") from exc
        if sorted(z) != list(range(degree)):
            raise InputError(f"image {row} is not a permutation of 1..{degree}")
        zero_based.append(z)
    group = GroupData(
        zero_based,
        name=spec.get("name", "G"),
        declared_order=spec.get("order"),
    )
    relators = spec.get("relators", []) or []
    if relators:
        lp0 = LevelPresentation(group, 0)
        for relator in relators:
            word = freegrp.parse_word(relator, names)
            if lp0.eval_word(word) != 0:
                raise InputError(
                    f"relator {relator!r} does not evaluate to the identity"
                )
    return group


def load_group_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read group spec {path}: {exc}") from exc
    return group_from_spec(spec)
