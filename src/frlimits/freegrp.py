"""Free products of free groups: reduced words, homomorphisms, and the
combinatorics of the standard complex (cofaces, codegeneracies, homotopies).

A word is a tuple of syllables (copy, gen, exp) with nonzero exponents and
no two adjacent syllables sharing (copy, gen).  Copies are 0-indexed.
"""

from __future__ import annotations

from dataclasses import dataclass


IDENTITY = ()


def reduce_word(syllables):
    """Freely reduce a syllable sequence (stack pass; a pop re-exposes the
    previous syllable for merging, so one pass is complete).  Idempotent."""
    out = []
    for copy, gen, exp in syllables:
        if exp == 0:
            continue
        if out and out[-1][0] == copy and out[-1][1] == gen:
            total = out[-1][2] + exp
            out.pop()
            if total:
                out.append((copy, gen, total))
        else:
            out.append((copy, gen, exp))
    return tuple(out)


def mul(*words):
    """Product of reduced words, reduced."""
    acc = []
    for w in words:
        acc.extend(w)
    return reduce_word(acc)


def inv(word):
    return tuple((c, g, -e) for c, g, e in reversed(word))


def word_letters(word):
    """Expand to single letters (copy, gen, +-1)."""
    out = []
    for c, g, e in word:
        step = 1 if e > 0 else -1
        out.extend((c, g, step) for _ in range(abs(e)))
    return out


def gen_word(copy, gen, exp=1):
    return ((copy, gen, exp),) if exp else IDENTITY


def word_in_alphabet(word, copies, rank):
    return all(0 <= c < copies and 0 <= g < rank for c, g, _ in word)


# -- word syntax --------------------------------------------------------------


def format_word(word, names):
    """Render using generator names, '^' powers, '@' copies, '*' joins."""
    if not word:
        return "1"
    parts = []
    for c, g, e in word:
        s = names[g]
        if c:
            s += f"@{c}"
        if e != 1:
            s += f"^{e}"
        parts.append(s)
    return "*".join(parts)


def parse_word(text, names):
    """Inverse of format_word: 'x*y^-2*x@2' -> reduced word."""
    text = text.strip()
    if text in ("", "1"):
        return IDENTITY
    sylls = []
    for chunk in text.split("*"):
        chunk = chunk.strip()
        exp = 1
        if "^" in chunk:
            chunk, pow_s = chunk.split("^", 1)
            exp = int(pow_s)
        copy = 0
        if "@" in chunk:
            chunk, copy_s = chunk.split("@", 1)
            copy = int(copy_s)
        if chunk not in names:
            raise ValueError(f"unknown generator {chunk!r}")
        sylls.append((copy, names.index(chunk), exp))
    return reduce_word(sylls)


# -- homomorphisms -------------------------------------------------------------


@dataclass(frozen=True)
class FreeHom:
    """Homomorphism between free products of free groups of uniform rank.

    `images[copy * dom_rank + gen]` is the reduced image word of that
    generator in the codomain alphabet.
    """

    dom_copies: int
    dom_rank: int
    cod_copies: int
    cod_rank: int
    images: tuple

    def __post_init__(self):
        if len(self.images) != self.dom_copies * self.dom_rank:
            raise ValueError(
                f"{len(self.images)} images for {self.dom_copies * self.dom_rank} generators"
            )
        for w in self.images:
            if w != reduce_word(w):
                raise ValueError(f"image {w!r} is not a reduced word")
            if not word_in_alphabet(w, self.cod_copies, self.cod_rank):
                raise ValueError(f"image {w!r} is not in the codomain alphabet")

    def image_of(self, copy, gen):
        return self.images[copy * self.dom_rank + gen]

    def apply(self, word):
        if not word_in_alphabet(word, self.dom_copies, self.dom_rank):
            raise ValueError("word not in the domain alphabet")
        pieces = []
        for c, g, e in word:
            img = self.image_of(c, g)
            if e < 0:
                img = inv(img)
            pieces.extend(img * abs(e) if abs(e) > 1 else img)
        return reduce_word(pieces)

    def compose(self, other):
        """self o other (apply other first)."""
        if (other.cod_copies, other.cod_rank) != (self.dom_copies, self.dom_rank):
            raise ValueError("rank mismatch in composition")
        images = tuple(self.apply(w) for w in other.images)
        return FreeHom(other.dom_copies, other.dom_rank, self.cod_copies, self.cod_rank, images)

    @classmethod
    def identity(cls, copies, rank):
        images = tuple(gen_word(c, g) for c in range(copies) for g in range(rank))
        return cls(copies, rank, copies, rank, images)

    @classmethod
    def from_copy_map(cls, dom_copies, cod_copies, rank, copy_map):
        """Map copy t identically onto copy copy_map(t)."""
        images = tuple(
            gen_word(copy_map(c), g) for c in range(dom_copies) for g in range(rank)
        )
        return cls(dom_copies, rank, cod_copies, rank, images)

    @classmethod
    def free_product(cls, homs):
        """h_0 ⊔ h_1 ⊔ ...: copy t mapped by homs[t] into copy t."""
        dom_rank = homs[0].dom_rank
        cod_rank = homs[0].cod_rank
        for h in homs:
            if (h.dom_copies, h.cod_copies) != (1, 1):
                raise ValueError("free_product takes maps between single free groups")
            if (h.dom_rank, h.cod_rank) != (dom_rank, cod_rank):
                raise ValueError("free_product takes maps of one domain and codomain rank")
        images = []
        for t, h in enumerate(homs):
            for w in h.images:
                images.append(tuple((t, g, e) for _, g, e in w))
        return cls(len(homs), dom_rank, len(homs), cod_rank, tuple(images))


def coface(n, j, rank):
    """d^j: F^{*(n+1)} -> F^{*(n+2)}, copy t -> t if t < j else t + 1."""
    if not 0 <= j <= n + 1:
        raise ValueError(f"coface index {j} out of range for level {n}")
    return FreeHom.from_copy_map(n + 1, n + 2, rank, lambda t: t if t < j else t + 1)


def codegeneracy(n, j, rank):
    """s^j: F^{*(n+2)} -> F^{*(n+1)}, copy t -> t if t <= j else t - 1."""
    if not 0 <= j <= n:
        raise ValueError(f"codegeneracy index {j} out of range for level {n}")
    return FreeHom.from_copy_map(n + 2, n + 1, rank, lambda t: t if t <= j else t - 1)


def diagonal_power(h, copies):
    """B(h)^(copies-1): h on every copy of the free product."""
    return FreeHom.free_product([h] * copies)


def homotopy_maps(f, g, n):
    """The maps k^i = s^i (f ⊔ ... ⊔ f ⊔ g ⊔ ... ⊔ g), 0 <= i <= n.

    f, g: single-copy homs with equal ranks; k^i sends level n+1 of the
    complex on the domain to level n on the codomain, with i+1 copies
    routed through f and the remaining n+1-i through g.
    """
    if (f.dom_rank, f.cod_rank) != (g.dom_rank, g.cod_rank):
        raise ValueError("rank mismatch between the two homomorphisms")
    if f.dom_copies != 1 or g.dom_copies != 1 or f.cod_copies != 1 or g.cod_copies != 1:
        raise ValueError("homotopy inputs must be single-copy homomorphisms")
    out = []
    for i in range(n + 1):
        alpha = FreeHom.free_product([f] * (i + 1) + [g] * (n + 1 - i))
        out.append(codegeneracy(n, i, f.cod_rank).compose(alpha))
    return out
