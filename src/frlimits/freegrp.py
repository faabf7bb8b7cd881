"""Free products of free groups: reduced words, homomorphisms, and the
combinatorics of the standard complex (cofaces and codegeneracies).

A word is a tuple of syllables (copy, gen, exp) with nonzero exponents and
no two adjacent syllables sharing (copy, gen).  Copies are 0-indexed.
"""

from __future__ import annotations

import re
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


def _number(text, sign):
    """An int in ASCII digits after an optional ``sign`` pattern: ``int``
    would also read other scripts' digits and '_' separators."""
    if not re.fullmatch(sign + "[0-9]+", text.strip()):
        raise ValueError(f"{text!r} is not a number in ASCII digits")
    return int(text)


def parse_word(text, names):
    """The reduced word written with generator names, '^' powers, '@'
    copies and '*' joins: 'x*y^-2*x@2'; '1' or nothing is the identity.
    Exponents and copy indices are read in ASCII digits only."""
    text = text.strip()
    if text in ("", "1"):
        return IDENTITY
    sylls = []
    for chunk in text.split("*"):
        chunk = chunk.strip()
        exp = 1
        if "^" in chunk:
            chunk, pow_s = chunk.split("^", 1)
            exp = _number(pow_s, "-?")
        copy = 0
        if "@" in chunk:
            chunk, copy_s = chunk.split("@", 1)
            copy = _number(copy_s, "")
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
