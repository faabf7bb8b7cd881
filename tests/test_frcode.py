import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frlimits.errors import InputError
from frlimits.frcode import (
    MAX_LETTERS,
    FrCodeError,
    dominated,
    make_code,
    max_monomial_length,
    min_r_power,
    normalize,
    parse,
    required_truncation,
)
from frlimits.truncring import DEFAULT_RANK_CAP


class TestParse:
    def test_sum(self):
        code = parse("rr+frf")
        assert code.terms == (("rr",), ("frf",))
        assert str(code) == "rr+frf"

    def test_exponents_and_intersection(self):
        code = parse("r^2∩f^3")
        assert code.terms == (("rr", "fff"),)
        assert str(code) == "rr&fff"
        assert parse("r^2 & f^3") == code

    def test_bad_letter_offset(self):
        with pytest.raises(FrCodeError) as exc:
            parse("rq+f")
        assert exc.value.offset == 1

    def test_empty_input(self):
        with pytest.raises(FrCodeError):
            parse("")
        with pytest.raises(FrCodeError):
            parse("   ")

    def test_zero_exponent(self):
        with pytest.raises(FrCodeError):
            parse("r^0")

    def test_dangling_plus(self):
        with pytest.raises(FrCodeError):
            parse("r+")

    def test_whitespace_ignored(self):
        assert parse(" r r + f r f ") == parse("rr+frf")

    def test_canonical_order(self):
        # monomials sort by (length, lex with r < f); terms sorted, deduped
        assert str(parse("frf+rr+rr")) == "rr+frf"
        assert str(parse("f+r")) == "r+f"

    @pytest.mark.parametrize("text,offset", [("x", 0), ("f^0", 2), ("rf^", 3), ("f^2²", 3)])
    def test_a_syntax_error_is_an_input_error(self, text, offset):
        # a bad code exits with code 1, like every InputError; a digit
        # outside 0-9 is no exponent digit
        with pytest.raises(InputError) as exc:
            parse(text)
        assert type(exc.value) is FrCodeError
        assert exc.value.offset == offset

    @pytest.mark.parametrize(
        "text,offset",
        [("f^99999999999", 2), ("r+f^" + "9" * 5000, 4), (f"rf^{MAX_LETTERS}", 3),
         (f"f^{MAX_LETTERS} r", 9), (f"f^100000+rf^100000", 12)],
    )
    def test_an_oversize_code_is_refused_before_it_is_spelled_out(self, text, offset):
        # the letters are summed before each exponent is expanded, and a
        # digit string too long for the cap is never read as an int
        tracemalloc.start()
        try:
            with pytest.raises(FrCodeError, match=f"more than {MAX_LETTERS} letters") as exc:
                parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.offset == offset
        assert peak < 1_000_000

    def test_leading_zeros_of_an_exponent_are_read(self):
        # the digit count is taken without the leading zeros, so they
        # neither pass the letter cap nor hide a zero exponent
        assert parse("f^0000001") == parse("f")
        assert parse("r^" + "0" * 50 + "2") == parse("rr")
        with pytest.raises(FrCodeError, match="exponent must be positive") as exc:
            parse("f^0000000")
        assert exc.value.offset == 2
        with pytest.raises(FrCodeError, match=f"more than {MAX_LETTERS} letters") as exc:
            parse("r+f^" + "0" * 20 + str(MAX_LETTERS + 1))
        assert exc.value.offset == 4

    def test_the_letter_cap_is_the_rank_cap(self):
        # frcode cannot import truncring, which imports it, so it keeps
        # the cap's value as a literal of its own
        assert MAX_LETTERS == DEFAULT_RANK_CAP

    def test_a_code_at_the_letter_cap_is_read(self):
        assert max_monomial_length(parse(f"r+f^{MAX_LETTERS - 1}")) == MAX_LETTERS - 1

    def test_byte_offset_after_unicode(self):
        with pytest.raises(FrCodeError) as exc:
            parse("r∩q")
        # '∩' occupies bytes 1..3, so 'q' sits at byte offset 4
        assert exc.value.offset == 4


class TestDominance:
    @pytest.mark.parametrize(
        "v,w,expected",
        [
            ("rff", "rf", True),  # ff ⊆ f
            ("fr", "ff", True),  # r ⊆ f
            ("rf", "ff", True),
            ("rr", "fr", True),
            ("rr", "rf", True),
            ("rr", "rrr", False),  # longer cannot embed
            ("frf", "rr", False),  # only one r available
            ("rr", "frf", False),
            ("rff", "frf", False),
            ("frf", "rff", False),
            ("rrr", "rr", True),
        ],
    )
    def test_pairs(self, v, w, expected):
        assert dominated(v, w) is expected

    def test_reflexive(self):
        for m in ["r", "f", "rfr", "ffrr"]:
            assert dominated(m, m)


class TestNormalize:
    def test_absorb_longer(self):
        assert str(normalize(parse("rf+rff"))) == "rf"

    def test_absorb_into_ff(self):
        assert str(normalize(parse("fr+rf+ff"))) == "ff"

    def test_incomparable_unchanged(self):
        code = parse("rr+frf+rff")
        assert normalize(code) == code

    def test_idempotent(self):
        for text in ["rf+rff", "fr+rf+ff", "rr+frf+rff", "r&rr+r", "rr+fff"]:
            once = normalize(parse(text))
            assert normalize(once) == once

    def test_intersection_term_absorbed(self):
        # r&rr ⊆ r, so the intersection term is dropped
        assert str(normalize(parse("r&rr+r"))) == "r"


class TestMinRPower:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("fr+rf", 2),
            ("rr+fff", 2),
            ("rrr", 3),
            ("r", 1),
            ("r+ff", 1),
            ("rr+frf", 2),
            ("rrf+frr", 3),
            ("r^2&f^3", 3),
        ],
    )
    def test_values(self, text, expected):
        assert min_r_power(parse(text)) == expected

    def test_required_truncation_plain_sum(self):
        assert required_truncation(parse("rr+fff")) == min_r_power(parse("rr+fff"))

    def test_required_truncation_intersection(self):
        # the intersection term forces depth 3 even though r ⊆ the code
        assert required_truncation(parse("r+rr&fff")) == 3

    def test_max_monomial_length(self):
        assert max_monomial_length(parse("rr+fff")) == 3


_mono = st.text(alphabet="fr", min_size=1, max_size=4)
_term = st.lists(_mono, min_size=1, max_size=2)
_code = st.lists(_term, min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(_code)
def test_roundtrip_print_parse(terms):
    code = make_code(terms)
    assert parse(str(code)) == code


@settings(max_examples=200, deadline=None)
@given(_code)
def test_normalize_idempotent_property(terms):
    code = make_code(terms)
    once = normalize(code)
    assert normalize(once) == once
