import pytest
from hypothesis import given

from conftest import perm_strategy
from popsort import perms
from popsort.perms import (
    EMPTY,
    ParseError,
    Permutation,
    all_perms,
    contains,
    contains_values,
    contains_values_through,
    count_occurrences,
    delete_entry,
    identity,
    inflate,
    is_simple,
    occurrences,
    parallel_alternation,
    parse,
    pattern_of,
    substitution_decompose,
    substitution_decompose_values,
)
from popsort.verify import naive_contains


class TestParse:
    def test_digit_form(self):
        assert parse("24513") == Permutation((2, 4, 5, 1, 3))

    def test_singleton(self):
        assert parse("1") == Permutation((1,))

    def test_comma_form_is_canonical(self):
        p = parse("2,4,5,1,3")
        assert p == parse("24513")
        assert str(p) == "2,4,5,1,3"

    def test_empty(self):
        assert parse("") == EMPTY

    def test_repeated_entry_names_token(self):
        with pytest.raises(ParseError, match="repeated entry '2'"):
            parse("221")

    def test_out_of_range_names_token(self):
        with pytest.raises(ParseError, match="'3' outside 1..2"):
            parse("1,3")

    def test_malformed_token(self):
        with pytest.raises(ParseError, match="'x'"):
            parse("1,x")

    def test_digit_form_rejected_for_length_ten(self):
        with pytest.raises(ParseError, match="commas"):
            parse("1234567891")

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            Permutation((1, 1))
        with pytest.raises(ValueError):
            Permutation((0, 1))


class TestContainment:
    def test_west_footnote_pair(self):
        assert contains(parse("3241"), parse("35241"))

    def test_singleton_in_anything_nonempty(self):
        for p in (parse("1"), parse("21"), parse("24513")):
            assert contains(parse("1"), p)
        assert not contains(parse("1"), EMPTY)

    def test_two_copies_host(self):
        assert contains(parse("2341"), parse("235174896"))

    def test_count_in_first_antichain_element(self):
        assert count_occurrences(parse("2341"), parse("2351674")) == 2

    def test_count_no_occurrence(self):
        assert count_occurrences(parse("21"), parse("12")) == 0

    def test_count_in_second_antichain_element(self):
        assert count_occurrences(parse("2341"), parse("235174896")) == 2

    def test_empty_pattern_contained(self):
        assert contains(EMPTY, parse("21"))
        assert count_occurrences(EMPTY, parse("21")) == 1
        assert count_occurrences(EMPTY, EMPTY) == 1
        assert naive_contains(EMPTY, EMPTY)
        assert naive_contains(EMPTY, parse("21"))

    @given(perm_strategy(max_n=7))
    def test_reflexive(self, p):
        assert contains(p, p)

    @given(perm_strategy(max_n=7, min_n=2))
    def test_deletion_is_contained(self, p):
        for pos in range(1, len(p) + 1):
            assert contains(delete_entry(p, pos), p)


class TestContainmentThrough:
    """`contains_values_through`: occurrences that put the pattern's maximum
    at one host position, the test the basis-class walks run."""

    def test_examples(self):
        # 3142 occurs in 351642 as 3,1,6,2, 5,1,6,4 and 5,1,6,2, with the 6
        # at position 3, and as 3,1,4,2, with the 4 at position 4.
        hv = parse("351642").values
        assert [s for s in range(6) if contains_values_through((3, 1, 4, 2), hv, s)] == [3, 4]
        assert contains_values_through((1,), (2, 1), 1)
        assert contains_values_through((1, 2), (1, 2), 1)
        assert not contains_values_through((1, 2), (1, 2), 0)
        assert not contains_values_through((1, 2), (2, 1), 0)
        # The anchored entry must exceed the entries placed before it.
        assert not contains_values_through((1, 2), (2, 1), 1)

    def test_empty_pattern_contained(self):
        assert contains_values_through((), (1,), 0)

    @given(perm_strategy(max_n=5, min_n=1), perm_strategy(max_n=9, min_n=1))
    def test_equals_anchored_occurrences(self, pattern, host):
        pv, hv = pattern.values, host.values
        m = pv.index(len(pv))
        anchored = {idx[m] for idx in occurrences(pv, hv)}
        for s in range(len(hv)):
            assert contains_values_through(pv, hv, s) == (s in anchored), s
        assert contains_values(pv, hv) == bool(anchored)


class TestSymmetries:
    def test_reverse(self):
        assert parse("231").reverse() == parse("132")

    def test_complement_of_identity(self):
        assert identity(5).complement() == Permutation((5, 4, 3, 2, 1))

    def test_inverse(self):
        assert parse("312").inverse() == parse("231")

    def test_dual_fixes_identity(self):
        for n in range(0, 7):
            assert identity(n).dual() == identity(n)

    def test_dual_by_hand_at_length_three(self):
        assert parse("231").dual() == parse("231")

    @given(perm_strategy(max_n=8))
    def test_involutions(self, p):
        assert p.reverse().reverse() == p
        assert p.complement().complement() == p
        assert p.inverse().inverse() == p
        assert p.dual().dual() == p

    @given(perm_strategy(max_n=8))
    def test_dual_equals_reverse_inverse_reverse(self, p):
        assert p.dual() == p.reverse().inverse().reverse()


class TestSums:
    def test_direct_sum(self):
        assert parse("12").direct_sum(parse("1")) == parse("123")

    def test_skew_sum(self):
        assert parse("1").skew_sum(parse("1")) == parse("21")

    def test_sum_of_inversions(self):
        assert parse("21").direct_sum(parse("21")) == parse("2143")

    def test_empty_is_identity_for_both(self):
        p = parse("3142")
        assert p.direct_sum(EMPTY) == p == EMPTY.direct_sum(p)
        assert p.skew_sum(EMPTY) == p == EMPTY.skew_sum(p)


class TestInflate:
    def test_worked_example(self):
        assert inflate(
            parse("2413"), [parse("1"), parse("132"), parse("321"), parse("12")]
        ) == parse("479832156")

    def test_singleton_quotient(self):
        p = parse("3142")
        assert inflate(parse("1"), [p]) == p

    def test_trivial_parts(self):
        assert inflate(parse("12"), [parse("1"), parse("1")]) == parse("12")

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="parts"):
            inflate(parse("12"), [parse("1")])

    def test_empty_part_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            inflate(parse("12"), [parse("1"), EMPTY])


class TestSimple:
    def test_interval_witness(self):
        assert not is_simple(parse("31542"))  # {3,4} maps onto {4,5}

    def test_simple_example(self):
        assert is_simple(parse("25314"))

    def test_singleton(self):
        assert is_simple(parse("1"))

    def test_length_two(self):
        assert is_simple(parse("12")) and is_simple(parse("21"))

    def test_identity_not_simple_beyond_two(self):
        assert not is_simple(parse("123"))


class TestDecompose:
    def test_worked_example(self):
        quotient, parts = substitution_decompose(parse("479832156"))
        assert quotient == parse("2413")
        assert parts == [parse("1"), parse("132"), parse("321"), parse("12")]

    def test_increasing_splits_after_first(self):
        assert substitution_decompose(parse("123")) == (
            parse("12"),
            [parse("1"), parse("12")],
        )

    def test_skew_first_part_indecomposable(self):
        assert substitution_decompose(parse("321")) == (
            parse("21"),
            [parse("1"), parse("21")],
        )

    def test_simple_input_decomposes_trivially(self):
        assert substitution_decompose(parse("25314")) == (
            parse("25314"),
            [parse("1")] * 5,
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            substitution_decompose(EMPTY)

    def test_wrapper_agrees_with_tuple_core(self):
        for n in range(1, 8):
            for p in all_perms(n):
                v = p.values
                qv, spans = substitution_decompose_values(v)
                quotient, parts = substitution_decompose(p)
                assert quotient.values == qv
                assert [q.values for q in parts] == [pattern_of(v[a:b]) for a, b in spans]

    def test_self_check_catches_wrong_core(self, monkeypatch):
        # The quotient 12 over the blocks of 21 inflates to 12, not 21.
        monkeypatch.setattr(
            perms, "substitution_decompose_values", lambda v: ((1, 2), [(0, 1), (1, 2)])
        )
        with pytest.raises(AssertionError):
            substitution_decompose(parse("21"))
        # Singleton blocks round-trip, but the quotient 123 is not simple.
        monkeypatch.setattr(
            perms,
            "substitution_decompose_values",
            lambda v: (v, [(i, i + 1) for i in range(len(v))]),
        )
        with pytest.raises(AssertionError):
            substitution_decompose(parse("123"))

    @given(perm_strategy(max_n=8, min_n=1))
    def test_roundtrip_property(self, p):
        quotient, parts = substitution_decompose(p)
        assert is_simple(quotient)
        assert inflate(quotient, parts) == p
        if quotient == parse("12"):
            first = parts[0]
            # no proper prefix of the first part is a sum component
            assert all(
                max(first.values[:k]) != k for k in range(1, len(first))
            )


class TestParallelAlternation:
    def test_smallest(self):
        assert parallel_alternation(2) == parse("2413")

    def test_next(self):
        assert parallel_alternation(3) == parse("246135")

    def test_simple_up_to_six(self):
        for m in range(2, 7):
            assert is_simple(parallel_alternation(m))

    def test_guard(self):
        with pytest.raises(ValueError):
            parallel_alternation(1)


class TestDeleteEntry:
    def test_definition_at_position_four(self):
        # removing the entry at position 4 (the value 1) leaves 2,4,5,3
        assert delete_entry(parse("24513"), 4) == Permutation((1, 3, 4, 2))

    def test_definition_at_position_five(self):
        # removing the entry at position 5 (the value 3) leaves 2,4,5,1
        assert delete_entry(parse("24513"), 5) == Permutation((2, 3, 4, 1))

    def test_singleton_to_empty(self):
        assert delete_entry(parse("1"), 1) == EMPTY

    def test_rank_normalization(self):
        assert delete_entry(parse("2351674"), 2) == Permutation((2, 4, 1, 5, 6, 3))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            delete_entry(parse("21"), 3)
        with pytest.raises(ValueError):
            delete_entry(parse("21"), 0)
