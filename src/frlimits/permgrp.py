"""Finite groups realized by permutations, and the level presentations of
the standard complex: Schreier transversals, Schreier free
generators of R = ker(F ->> G), and Reidemeister-Schreier rewriting.

G is specified by generator permutations, never by relators: R is the
kernel of the permutation action, so any optional relator list is only
sanity-checked to evaluate to the identity.  The level-0 Schreier
generators generate R (Schreier's lemma), so G_ab is Z^ngens modulo their
exponent sums, and its invariant factors come from the lattice engine of
``intlin`` like every other invariant in the package.
"""

from __future__ import annotations

import json
import operator

from . import freegrp
from .errors import CapExceeded, InputError
from .intlin import FinPresAb

DEFAULT_ELEMENT_CAP = 5000


def _compose(p, q):
    """Right action: point^pq = (point^p)^q."""
    return tuple(q[i] for i in p)


def _invert(p):
    """The inverse permutation."""
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


class GroupData:
    """A finite permutation group with BFS-ordered elements.

    elements[0] is the identity; the element order is the deterministic
    BFS closure in fixed generator order (right multiplication by
    generators).  The package multiplies only by a generator or its
    inverse, so the closure keeps each generator's right action on the
    element indices and the action of its inverse (``step``), |G|·2k
    entries for k generators, and no |G|×|G| table; ``mul`` and
    ``inverse`` compose and invert the permutations themselves.
    """

    def __init__(self, gen_images, name="G", declared_order=None):
        self.name = name
        self.degree = len(gen_images[0]) if gen_images else 1
        for img in gen_images:
            if sorted(img) != list(range(self.degree)):
                raise InputError(f"generator image {img} is not a bijection")
        self.gen_images = [tuple(img) for img in gen_images]

        identity = tuple(range(self.degree))
        elements = [identity]
        index = {identity: 0}
        # right[i][g]: the index of element g times generator i
        right = [[] for _ in self.gen_images]
        for perm in elements:  # grows while it is read: the BFS queue
            for act, img in zip(right, self.gen_images):
                new = _compose(perm, img)
                if new not in index:
                    if len(elements) >= DEFAULT_ELEMENT_CAP:
                        raise CapExceeded(
                            f"group closure exceeded the {DEFAULT_ELEMENT_CAP}-element cap"
                        )
                    index[new] = len(elements)
                    elements.append(new)
                act.append(index[new])
        self.elements = elements
        self.index = index
        n = len(elements)
        if declared_order is not None and declared_order != n:
            raise InputError(f"declared order {declared_order} but closure has {n}")
        left = [[0] * n for _ in right]
        for act, back in zip(right, left):
            for g, h in enumerate(act):
                back[h] = g
        self._step = {1: right, -1: left}
        self.inverse = [index[_invert(p)] for p in elements]

    @property
    def order(self):
        return len(self.elements)

    @property
    def ngens(self):
        return len(self.gen_images)

    def mul(self, a, b):
        return self.index[_compose(self.elements[a], self.elements[b])]

    def step(self, i, sign):
        """The right action of generator i (sign 1) or of its inverse
        (sign -1) on the element indices, as a list: entry g is the index
        of g·x_i^sign."""
        return self._step[sign][i]

    def abelianization(self):
        """Invariant factors of G_ab = G/[G,G], () for a perfect group.

        By Schreier's lemma the level-0 Schreier generators generate
        R = ker(F ->> G), so G_ab = F/R[F,F] is Z^ngens modulo their
        exponent-sum vectors, and the lattice engine reads the invariants
        off that presentation."""
        rows = []
        for rho in LevelPresentation(self, 0).schreier_gens:
            row = [0] * self.ngens
            for _, i, e in rho:
                row[i] += e
            rows.append(row)
        return FinPresAb(self.ngens, rows).torsion

    def __repr__(self):
        return f"GroupData({self.name}, order={self.order})"


def schreier_rank(order, copies, rank):
    """The rank 1 + |G|·(copies·rank - 1) of the kernel of F ->> G, F free
    on copies·rank generators (Schreier's formula): the number of
    Schreier generators of a level presentation with that many copies."""
    return 1 + order * (copies * rank - 1)


def check_level(p):
    """Refuse a level of the standard complex that is not a non-negative
    int (a bool, a float, a negative int) with InputError."""
    if isinstance(p, bool) or not isinstance(p, int) or p < 0:
        raise InputError(f"level {p!r} is not a non-negative int")


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
        check_level(p)
        self.group = group
        self.level = p
        self.copies = p + 1
        rank = self.base_rank = group.ngens

        n = group.order
        letters = [
            (c, i, sign)
            for c in range(self.copies)
            for i in range(rank)
            for sign in (1, -1)
        ]
        # every copy of a generator acts on the cosets G as the base one
        transversal = [None] * n
        transversal[0] = freegrp.IDENTITY
        queue = [0]
        while queue:
            nxt = []
            for g in queue:
                for c, i, sign in letters:
                    t = group.step(i, sign)[g]
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
                    t = group.step(i, 1)[g]
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

        expected = schreier_rank(n, self.copies, rank)
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
            act = group.step(i, 1 if e > 0 else -1)
            # x^|G| = 1, so x^e = x^(e mod |G|)
            for _ in range(abs(e) % group.order):
                g = act[g]
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
            if sign > 0:
                idx = self.edge_to_gen[(g, c, i)]
                if idx is not None:
                    out.append((idx, 1))
                g = group.step(i, 1)[g]
            else:
                g2 = group.step(i, -1)[g]
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
    (one-line, 1-indexed), "order": int optional, "relators": [str]
    optional}.  Every malformed part raises InputError: a name that is
    not a string, a generator list that is not a list of distinct
    strings, a generator name that no word can name (empty, ``1``, or
    holding ``*``, ``^``, ``@`` or whitespace), an image entry or a
    declared order that is not exactly an int (a float or a bool), an
    image or a relator list that is not a list, and a relator that does
    not parse or uses a letter outside the base alphabet.
    """
    try:
        names = spec["generators"]
        images = spec["images"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed group spec: {exc}") from exc
    # a string would be read letter by letter
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise InputError("generators are a list of names")
    # no relator could name the second of two equal names
    if len(set(names)) != len(names):
        raise InputError(f"generator names {names} repeat")
    # parse_word splits a word on "*", "^" and "@", strips the whitespace
    # around each part and reads "" and "1" as the identity; a name free
    # of all these reads back as itself in every relator
    for gen in names:
        if gen in ("", "1") or any(ch in "*^@" or ch.isspace() for ch in gen):
            raise InputError(f"generator name {gen!r} cannot be written in a word")
    name = spec.get("name", "G")
    if not isinstance(name, str):
        raise InputError(f"group name {name!r} is not a string")
    if not isinstance(images, list) or not images or len(images) != len(names):
        raise InputError("group spec needs one image per generator")
    if not all(isinstance(row, list) for row in images):
        raise InputError("each generator image is a list of points")
    degree = len(images[0])
    if degree < 1 or any(len(row) != degree for row in images):
        raise InputError("generator images must share a common degree")
    zero_based = []
    for row in images:
        # read exactly, as int_block does: a float is refused, not truncated
        if any(isinstance(v, bool) for v in row):
            raise InputError(f"bad permutation entry in {row}: a bool is not a point")
        try:
            z = [operator.index(v) - 1 for v in row]
        except TypeError as exc:
            raise InputError(f"bad permutation entry in {row}: {exc}") from exc
        if sorted(z) != list(range(degree)):
            raise InputError(f"image {row} is not a permutation of 1..{degree}")
        zero_based.append(z)
    order = spec.get("order")
    if order is not None and (isinstance(order, bool) or not isinstance(order, int)):
        raise InputError(f"declared order {order!r} is not an int")
    group = GroupData(zero_based, name=name, declared_order=order)
    relators = spec.get("relators", [])
    if not isinstance(relators, list):
        raise InputError("relators are a list of words")
    if relators:
        lp0 = LevelPresentation(group, 0)
        for relator in relators:
            if not isinstance(relator, str):
                raise InputError(f"relator {relator!r} is not a word")
            try:
                value = lp0.eval_word(freegrp.parse_word(relator, names))
            except ValueError as exc:
                raise InputError(f"relator {relator!r}: {exc}") from exc
            if value != 0:
                raise InputError(
                    f"relator {relator!r} does not evaluate to the identity"
                )
    return group


def load_group_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read group spec {path}: {exc}") from exc
    return group_from_spec(spec)
