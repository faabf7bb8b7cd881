"""fr-code expressions: parsing, canonical form, sound containment tests.

A code is a sum of terms, each term an intersection of monomials in the
letters f and r.  Monomials are plain strings over 'f'/'r'; the AST keeps
intersections as explicit nodes and never distributes them over sums
(distribution is not an ideal identity).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError

# the most letters a code may spell out, summed over its monomials; the
# value of truncring.DEFAULT_RANK_CAP, which imports this module
MAX_LETTERS = 200_000


class FrCodeError(InputError):
    """Syntax error; `offset` is the byte offset of the offending input."""

    def __init__(self, message, offset):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


def _mono_key(mono):
    # sort by length, then lexicographically with r < f
    return (len(mono), tuple(0 if c == "r" else 1 for c in mono))


def _term_key(term):
    return (len(term), tuple(_mono_key(m) for m in term))


@dataclass(frozen=True)
class FrCode:
    """Canonically ordered sum of intersections of monomials."""

    terms: tuple  # tuple of terms; a term is a tuple of monomial strings

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a code needs at least one term")
        for term in self.terms:
            if not term:
                raise ValueError("a term needs at least one monomial")
            for mono in term:
                if not mono or any(c not in "fr" for c in mono):
                    raise ValueError(f"bad monomial {mono!r}")

    def __str__(self):
        return "+".join("&".join(term) for term in self.terms)

    @property
    def monomials(self):
        return [m for term in self.terms for m in term]


def make_code(terms):
    """Build an FrCode with canonical ordering and duplicates removed."""
    canon_terms = []
    for term in terms:
        monos = sorted(set(term), key=_mono_key)
        canon_terms.append(tuple(monos))
    canon_terms = sorted(set(canon_terms), key=_term_key)
    return FrCode(tuple(canon_terms))


def _byte_offset(text, idx):
    return len(text[:idx].encode("utf-8"))


def parse(text):
    """Parse the surface syntax into a canonical FrCode.

    Grammar: code := intersection ('+' intersection)*;
             intersection := mono (('∩'|'&') mono)*;
             mono := item+; item := ('f'|'r') ('^' positive-int)?.
    Whitespace is ignored; anything else is a syntax error reported with
    its byte offset.  A code whose monomials spell out more than
    MAX_LETTERS letters in all is refused at the letter or exponent that
    passes the cap, before that exponent is expanded.
    """
    i = 0
    n = len(text)
    # letters spelled out so far, summed before each exponent is expanded
    spelled = 0

    def skip_ws():
        nonlocal i
        while i < n and text[i].isspace():
            i += 1

    def error(msg, at=None):
        raise FrCodeError(msg, _byte_offset(text, i if at is None else at))

    def parse_mono():
        nonlocal i, spelled
        letters = []
        while True:
            skip_ws()
            if i < n and text[i] in "fr":
                letter, at = text[i], i
                i += 1
                exp = 1
                skip_ws()
                if i < n and text[i] == "^":
                    i += 1
                    skip_ws()
                    start = i
                    while i < n and "0" <= text[i] <= "9":
                        i += 1
                    if i == start:
                        error("expected an exponent", start)
                    # without its leading zeros, a long digit string is over
                    # the cap: no huge int is formed
                    digits = text[start:i].lstrip("0")
                    exp = int(digits or 0) if len(digits) <= len(str(MAX_LETTERS)) else MAX_LETTERS + 1
                    if exp == 0:
                        error("exponent must be positive", start)
                    at = start
                if spelled + exp > MAX_LETTERS:
                    error(f"the code spells out more than {MAX_LETTERS} letters", at)
                spelled += exp
                letters.append(letter * exp)
            else:
                break
        if not letters:
            if i >= n:
                error("unexpected end of input")
            error(f"unexpected character {text[i]!r}")
        return "".join(letters)

    def parse_intersection():
        nonlocal i
        monos = [parse_mono()]
        while True:
            skip_ws()
            if i < n and text[i] in "∩&":
                i += 1
                monos.append(parse_mono())
            else:
                return monos

    skip_ws()
    if i >= n:
        error("empty code")
    terms = [parse_intersection()]
    while True:
        skip_ws()
        if i >= n:
            break
        if text[i] == "+":
            i += 1
            terms.append(parse_intersection())
        else:
            error(f"unexpected character {text[i]!r}")
    return make_code(terms)


def dominated(v, w):
    """Sound test for the monomial ideal containment v ⊆ w.

    True iff w embeds in v as a subsequence where every r of w matches an
    r of v (an f of w may match either letter).  Sufficient, not claimed
    necessary: it only uses ff ⊆ f and r ⊆ f.
    """
    pos = 0
    for c in w:
        while pos < len(v):
            if c == "f" or v[pos] == "r":
                pos += 1
                break
            pos += 1
        else:
            return False
    return True


def _term_contained(t, t_prime):
    """Sound test for ideal(t) ⊆ ideal(t_prime) between intersections."""
    return all(any(dominated(v, w) for v in t) for w in t_prime)


def normalize(code):
    """Drop every term certified (by dominance) to lie inside another term.

    The output denotes the same ideal; mutually-absorbing terms keep the
    canonically first one.  Idempotent.
    """
    terms = list(code.terms)
    keep = []
    for idx, t in enumerate(terms):
        absorbed = False
        for jdx, t2 in enumerate(terms):
            if idx == jdx:
                continue
            if _term_contained(t, t2):
                if _term_contained(t2, t) and jdx > idx:
                    continue  # mutual: the earlier term survives
                absorbed = True
                break
        if not absorbed:
            keep.append(t)
    return make_code(keep)


def min_r_power(code):
    """Least n with r^n ⊆ code, certified by dominance.

    r^n lies in a term iff it lies in each of its monomials, and
    r^n ⊆ w iff n >= len(w); so the answer is the smallest over terms of
    the longest monomial in the term.
    """
    return min(max(len(m) for m in term) for term in code.terms)


def max_monomial_length(code):
    return max(len(m) for m in code.monomials)


def required_truncation(code):
    """Truncation depth N making f/code faithful in Z[F]/r^N.

    min_r_power suffices for pure sums; a term that is a genuine
    intersection additionally needs r^N inside each intersectand so that
    truncated intersections agree with intersected ideals (modular law).
    """
    depth = min_r_power(code)
    for term in code.terms:
        if len(term) > 1:
            depth = max(depth, max(len(m) for m in term))
    return depth
