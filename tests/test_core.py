import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from precedence import (
    DomainError,
    InputFormatError,
    RationalParseError,
    SubsetMask,
    enumerate_d,
    rational_format,
    rational_parse,
)
from precedence.core import (
    RATIONAL_RE,
    _literal_ints,
    check_dimension,
    decimal_int,
    json_entries,
    json_dimension,
    max_dimension,
    validate_permutation,
    validate_prefix,
)


class TestRationalParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [("2/18", Fraction(1, 9)), ("0", Fraction(0)), ("5/18", Fraction(5, 18)),
         ("-3/6", Fraction(-1, 2)), ("7", Fraction(7))],
    )
    def test_parse(self, text, expected):
        assert rational_parse(text) == expected

    @pytest.mark.parametrize(
        "bad",
        ["1/0", "3/00", "1.5", "1e3", "a", "1/-2", "", "1/2/3",
         "1_000", " 5", "5\n", "\u0663", "1/\u0662"],
    )
    def test_rejects(self, bad):
        for parse in (rational_parse, _literal_ints):
            with pytest.raises(RationalParseError):
                parse(bad)

    def test_rejects_more_digits_than_int_converts(self):
        with pytest.raises(RationalParseError, match="too long"):
            rational_parse("1" * 5000)

    # RATIONAL_RE's literals: a sign, leading zeros, sides up to int()'s
    # 4300-digit limit, denominators not in lowest terms, or none
    DIGITS = st.text("0123456789", min_size=1, max_size=4300)
    LITERALS = st.builds(
        lambda sign, num, den: sign + num + ("" if den is None else "/" + den),
        st.sampled_from(["", "+", "-"]),
        DIGITS | st.sampled_from(["0", "00", "0007", "2", "9" * 4300]),
        st.none() | DIGITS | st.sampled_from(["8", "08", "000", "1" + "0" * 4299]),
    )

    @example("-0")
    @example("2/8")
    @example("-006/0009")
    @example("9" * 4300 + "/" + "6" * 4300)
    @given(LITERALS)
    def test_parse_equals_fraction_of_the_literal(self, text):
        assert RATIONAL_RE.match(text)
        if "/" in text and not text.partition("/")[2].strip("0"):
            with pytest.raises(RationalParseError, match="^zero denominator"):
                rational_parse(text)
            return
        q = rational_parse(text)
        assert type(q) is Fraction and q == Fraction(text)
        num, _, den = text.partition("/")
        assert _literal_ints(text) == (int(num), int(den or "1"))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1/" + "0" * 5000, "zero denominator"),
            ("x" * 5000, "not a rational literal"),
            ("1" * 5000, "literal of 5000 characters is too long"),
            ("1/" + "1" * 5000, "literal of 5002 characters is too long"),
        ],
        ids=["zero-denominator", "not-a-literal", "numerator", "denominator"],
    )
    def test_refusals_keep_their_order(self, text, message):
        for parse in (rational_parse, _literal_ints):
            with pytest.raises(RationalParseError) as info:
                parse(text)
            assert str(info.value).startswith(message)

    def test_format_canonical(self):
        assert rational_format(Fraction(0)) == "0"
        assert rational_format(Fraction(4, 2)) == "2"
        assert rational_format(Fraction(-5, 15)) == "-1/3"
        assert rational_format(7) == "7"

    @pytest.mark.parametrize(
        "value, text",
        [(Fraction(-6, 4), "-3/2"), (-3, "-3"), (True, "1"), (False, "0"), (0.375, "3/8"), (-2.0, "-2")],
        ids=["fraction", "int", "true", "false", "float", "integral-float"],
    )
    def test_format_prints_every_kind_as_its_fraction(self, value, text):
        # one text builder for all kinds: a bool prints as its int, a float as its exact ratio
        assert rational_format(value) == text == rational_format(Fraction(value))

    @pytest.mark.parametrize(
        "value",
        [Fraction(10**4300), Fraction(1, 10**4300), -(10**4300)],
        ids=["numerator", "denominator", "int"],
    )
    def test_format_refuses_an_integer_too_long_to_print(self, value):
        with pytest.raises(DomainError) as info:
            rational_format(value)
        assert str(info.value) == "rational: integer has more than 4300 digits to print"

    @given(n=st.integers(-10**12, 10**12), d=st.integers(1, 10**12))
    def test_roundtrip(self, n, d):
        q = Fraction(n, d)
        assert rational_parse(rational_format(q)) == q

    @given(
        a=st.fractions(), b=st.fractions(), c=st.fractions()
    )
    def test_arithmetic_is_exact_and_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a


class TestJsonLoading:
    @pytest.mark.parametrize("doc", [[], {"n": 3}, {"m": "3"}, {"m": 3.0}, {"m": True}])
    def test_int_field_is_a_json_integer(self, doc):
        with pytest.raises(InputFormatError):
            json_dimension(doc, "m")

    @staticmethod
    def entry(k, v):
        return k, decimal_int(v, "v")

    @pytest.mark.parametrize(
        "entries, message",
        [
            (5, "xs: must be a list"),
            ([{"k": 1, "v": 1}, 7], "xs[1]: needs the fields k, v"),
            ([{"k": 1}], "xs[0]: needs the fields k, v"),
            ([{"k": 1, "v": "+1"}], "xs[0].v: '+1' is not an integer"),
            ([{"k": [1], "v": 1}], "xs[0]: unhashable type"),
            ([{"k": 1, "v": 1}, {"k": 1, "v": 2}], "xs[1]: duplicate entry 1"),
        ],
    )
    def test_entry_errors_name_the_path(self, entries, message):
        with pytest.raises(InputFormatError) as info:
            json_entries({"xs": entries}, "xs", ("k", "v"), self.entry)
        assert str(info.value).startswith(message)

    def test_entries_keep_document_order(self):
        doc = {"xs": [{"k": 2, "v": "5", "extra": None}, {"k": 1, "v": 7}]}
        assert list(json_entries(doc, "xs", ("k", "v"), self.entry).items()) == [(2, 5), (1, 7)]

    def test_permutation_length_is_checked_before_the_range_is_built(self):
        with pytest.raises(DomainError):
            validate_permutation(10**18, [1])


class TestPrefixes:
    @pytest.mark.parametrize("prefix", [(), (3,), (2, 4, 1), (4, 3, 2, 1)])
    def test_accepts(self, prefix):
        assert validate_prefix(4, list(prefix)) == prefix

    @pytest.mark.parametrize(
        "prefix, message",
        [
            ((True, 2), "prefix element True outside [4]"),
            ((1, 2.0), "prefix element 2.0 outside [4]"),
            (("1",), "prefix element '1' outside [4]"),
            ((0, 1), "prefix element 0 outside [4]"),
            ((1, 5), "prefix element 5 outside [4]"),
            ((1, [2]), "prefix element [2] outside [4]"),
            ((3, 1, None), "prefix element None outside [4]"),
            ((2, 1, 2), "repeated element 2 in prefix (2, 1, 2)"),
            ((1, 2, 3, 4, 1), "repeated element 1 in prefix (1, 2, 3, 4, 1)"),
        ],
    )
    def test_rejects_with_the_first_bad_element(self, prefix, message):
        with pytest.raises(DomainError) as info:
            validate_prefix(4, prefix)
        assert str(info.value) == message


class TestSubsetMask:
    def test_members_and_mask_agree(self):
        s = SubsetMask.of(5, [4, 1])
        assert s.members() == (1, 4)
        assert len(s) == 2
        assert 4 in s and 2 not in s
        assert s.complement().members() == (2, 3, 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            SubsetMask.of(3, [4])

    @pytest.mark.parametrize(
        "m, mask, message",
        [
            (True, 1, "dimension must be an int, got True"),
            (2.5, 1, "dimension must be an int, got 2.5"),
            (3, True, "mask must be an int, got True"),
            (3, 1.0, "mask must be an int, got 1.0"),
        ],
        ids=["bool-dimension", "float-dimension", "bool-mask", "float-mask"],
    )
    def test_rejects_a_dimension_or_mask_that_is_not_an_int(self, m, mask, message):
        with pytest.raises(DomainError) as info:
            SubsetMask(m, mask)
        assert str(info.value) == message

    def test_rejects_a_repeated_member(self):
        # the text subset_members gives, which every other subset entry runs
        with pytest.raises(DomainError) as info:
            SubsetMask.of(3, [1, 1])
        assert str(info.value) == "repeated elements in subset (1, 1)"

    @pytest.mark.parametrize("x", [True, 1.0, "1"])
    def test_holds_no_value_that_is_not_an_int(self, x):
        # True == 1 and hashes as 1, but it is not component 1
        s = SubsetMask.of(2, [1])
        assert 1 in s
        assert x not in s

    def test_dimension_cap(self, monkeypatch):
        with pytest.raises(DomainError):
            check_dimension(9)
        monkeypatch.setenv("PRECEDENCE_MAX_M", "10")
        with pytest.warns(RuntimeWarning):
            check_dimension(9)

    @pytest.mark.parametrize(
        "raw", ["1_0", " 9", "+9", "\u0669", pytest.param("9" * 5000, id="9...9"), "10"]
    )
    def test_dimension_cap_reads_ascii_digits_only(self, monkeypatch, raw):
        # int() would read the first four as 10 or 9
        monkeypatch.setenv("PRECEDENCE_MAX_M", raw)
        if raw == "10":
            assert max_dimension() == 10
            return
        with pytest.raises(DomainError) as info:
            max_dimension()
        assert str(info.value) == f"PRECEDENCE_MAX_M must be an integer, got {raw!r}"


class TestEnumerateD:
    def test_empty_base_full_length_gives_all_permutations(self):
        got = list(enumerate_d(SubsetMask.empty(3), 3))
        assert got == list(itertools.permutations([1, 2, 3]))
        assert len(got) == 6

    def test_single_survivor(self):
        assert list(enumerate_d(SubsetMask.of(3, [1, 2]), 1)) == [(3,)]

    def test_pairs_outside_base(self):
        got = list(enumerate_d(SubsetMask.of(4, [4]), 2))
        # 3!/1! = 6 ordered pairs from {1,2,3}
        assert len(got) == 6
        assert got == sorted(got)  # lexicographic
        for pair in got:
            assert 4 not in pair and len(set(pair)) == 2

    @pytest.mark.parametrize("m,base,k", [(3, [1], 3), (3, [], 4), (3, [], -1)])
    def test_out_of_range_k(self, m, base, k):
        with pytest.raises(DomainError):
            enumerate_d(SubsetMask.of(m, base), k)

    @given(
        m=st.integers(2, 6),
        data=st.data(),
    )
    def test_counts_and_disjointness(self, m, data):
        base = data.draw(st.sets(st.integers(1, m), max_size=m - 1))
        b = SubsetMask.of(m, base)
        k = data.draw(st.integers(0, m - len(b)))
        got = list(enumerate_d(b, k))
        free = m - len(b)
        assert len(got) == math.factorial(free) // math.factorial(free - k)
        assert len(set(got)) == len(got)
        for sample in got:
            assert len(sample) == k
            assert not set(sample) & set(base)
