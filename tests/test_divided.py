import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perm_strategy
from popsort import divided
from popsort.antichain import forbidden_divided_patterns
from popsort.divided import (
    DividedPermutation,
    all_divisions,
    blockwise_reverse,
    div_avoids,
    div_contains,
    exists_division_avoiding,
    parse_divided,
    reachable_by_local_reversals,
)
from popsort.machines import DIVIDED_OBSTRUCTIONS, MachineKind
from popsort.perms import (
    EMPTY,
    ParseError,
    Permutation,
    all_perms,
    contains,
    identity,
    parse,
)
from popsort.verify import naive_div_contains

PS_PATTERNS = DIVIDED_OBSTRUCTIONS[MachineKind.PS]
PQS_PATTERNS = DIVIDED_OBSTRUCTIONS[MachineKind.PQS]
PATTERN_SETS = {
    "ps": PS_PATTERNS,
    "pqs": PQS_PATTERNS,
    "antichain": forbidden_divided_patterns(),
}


def first_avoiding_division(p, patterns):
    """Reference: the first division in all_divisions order avoiding every pattern."""
    return next((d for d in all_divisions(p) if div_avoids(d, patterns)), None)


class TestDividedPermutation:
    def test_parse_digit_and_comma_forms_agree(self):
        assert parse_divided("31|42") == parse_divided("3,1|4,2")

    def test_str_is_canonical(self):
        assert str(parse_divided("31|42")) == "3,1|4,2"

    def test_blocks(self):
        d = parse_divided("513|4|2")
        assert d.blocks() == ((5, 1, 3), (4,), (2,))
        assert d.block_ids() == (0, 0, 0, 1, 2)

    def test_empty_block_rejected(self):
        with pytest.raises(ParseError):
            parse_divided("3||42")

    def test_divider_out_of_range(self):
        with pytest.raises(ValueError):
            DividedPermutation(parse("21"), (2,))

    def test_base_must_be_permutation(self):
        with pytest.raises(ParseError):
            parse_divided("31|52")


class TestDivContains:
    def test_contained_via_532(self):
        assert div_contains(parse_divided("32|1"), parse_divided("513|4|2"))

    def test_blocked_despite_subsequence(self):
        assert not div_contains(parse_divided("32|1"), parse_divided("51|34|2"))

    def test_undivided_pattern_needs_single_block(self):
        assert not div_contains(parse_divided("21"), parse_divided("2|1"))
        assert div_contains(parse_divided("21"), parse_divided("21"))

    def test_distinct_pattern_blocks_need_distinct_host_blocks(self):
        # 2|3|1 needs three blocks
        assert not div_contains(parse_divided("2|3|1"), parse_divided("23|1"))
        assert div_contains(parse_divided("2|3|1"), parse_divided("2|3|1"))

    @settings(max_examples=150)
    @given(perm_strategy(max_n=7, min_n=1), st.integers(0, 1 << 6), st.integers(0, 1 << 6))
    def test_agrees_with_naive_oracle_random(self, host_base, hmask, pmask):
        hosts = list(all_divisions(host_base))
        host = hosts[hmask % len(hosts)]
        pat_base = parse("3142")
        pats = list(all_divisions(pat_base))
        pat = pats[pmask % len(pats)]
        assert div_contains(pat, host) == naive_div_contains(pat, host)

class TestAllDivisions:
    @pytest.mark.parametrize("n,count", [(1, 1), (3, 4), (5, 16)])
    def test_division_counts(self, n, count):
        p = Permutation(tuple(range(1, n + 1)))
        assert len(list(all_divisions(p))) == count

    def test_empty_permutation_has_one_division(self):
        assert list(all_divisions(EMPTY)) == [DividedPermutation(EMPTY)]

    def test_deterministic_order(self):
        divs = list(all_divisions(parse("321")))
        assert [d.dividers for d in divs] == [(), (1,), (2,), (1, 2)]


class TestExistsDivisionAvoiding:
    def test_division_found_for_3142(self):
        d = exists_division_avoiding(parse("3142"), PQS_PATTERNS)
        assert d is not None
        assert d.dividers == (2,)  # 3,1|4,2

    def test_no_division_for_2431(self):
        assert exists_division_avoiding(parse("2431"), PS_PATTERNS) is None

    def test_identity_returns_undivided(self):
        # at 2000, a search that recursed once per position would overflow
        for n in (1, 4, 6, 2000):
            p = Permutation(tuple(range(1, n + 1)))
            d = exists_division_avoiding(p, PS_PATTERNS)
            assert d == DividedPermutation(p, ())

    def test_empty_permutation(self):
        assert exists_division_avoiding(EMPTY, PS_PATTERNS) == DividedPermutation(EMPTY)

    def test_empty_pattern_occurs_in_empty_host(self):
        empty = DividedPermutation(EMPTY)
        assert div_contains(empty, empty) and naive_div_contains(empty, empty)
        assert exists_division_avoiding(EMPTY, [empty]) is None

    @pytest.mark.parametrize("set_name,bases", [("antichain", 2), ("pqs", 4), ("ps", 3)])
    def test_one_matcher_per_base(self, monkeypatch, set_name, bases):
        built = []
        matcher = divided._matcher

        def spy(group, hv, hb):
            built.append(group[0])
            return matcher(group, hv, hb)

        monkeypatch.setattr(divided, "_matcher", spy)
        exists_division_avoiding(parse("31524"), PATTERN_SETS[set_name])
        assert len(built) == len(set(built)) == bases

    def test_pattern_set_prepared_once(self, monkeypatch):
        prepared = []
        prepare = divided._prepare

        def spy(base, masks):
            prepared.append(base)
            return prepare(base, masks)

        divided._groups.cache_clear()
        monkeypatch.setattr(divided, "_prepare", spy)
        pats = PATTERN_SETS["antichain"]
        exists_division_avoiding(parse("2341"), pats)
        assert sorted(prepared) == [(2, 3, 4, 1), (3, 1, 4, 2)]
        exists_division_avoiding(parse("3142"), pats)
        exists_division_avoiding(parse("3142"), list(pats))
        assert len(prepared) == 2

    def test_div_avoids_tests_pattern_by_pattern(self, monkeypatch):
        tested = []
        contains_one = divided.div_contains

        def spy(pattern, host):
            tested.append(pattern)
            return contains_one(pattern, host)

        monkeypatch.setattr(divided, "div_contains", spy)
        pats = PATTERN_SETS["antichain"]
        assert div_avoids(DividedPermutation(identity(6)), pats)
        assert tested == list(pats)

    # Equal divided permutations of one base have equal dividers.
    @pytest.mark.parametrize("set_name", sorted(PATTERN_SETS))
    def test_first_witness_matches_reference_to_seven(self, set_name):
        pats = PATTERN_SETS[set_name]
        for n in range(0, 8):
            for p in all_perms(n):
                assert exists_division_avoiding(p, pats) == first_avoiding_division(p, pats), p

    @pytest.mark.parametrize("set_name", sorted(PATTERN_SETS))
    def test_first_witness_matches_reference_random(self, set_name):
        pats = PATTERN_SETS[set_name]
        rng = random.Random(f"divisions:{set_name}")
        for _ in range(30):
            vals = list(range(1, rng.randint(9, 11) + 1))
            rng.shuffle(vals)
            p = Permutation(tuple(vals))
            assert exists_division_avoiding(p, pats) == first_avoiding_division(p, pats), p

    def test_decreasing_forty_divided_everywhere(self):
        # 2^39 divisions; 21 forces a divider at every descent
        p = identity(40).reverse()
        d = exists_division_avoiding(p, PS_PATTERNS)
        assert d is not None and d.dividers == tuple(range(1, 40))


class TestBlockwiseReverse:
    def test_one_divider(self):
        assert blockwise_reverse(parse_divided("31|42")) == parse("1324")

    def test_single_block_reverses_wholly(self):
        p = parse("3142")
        assert blockwise_reverse(DividedPermutation(p)) == p.reverse()

    def test_fully_divided_is_fixed(self):
        p = parse("3142")
        assert blockwise_reverse(DividedPermutation(p, (1, 2, 3))) == p


class TestLocalReversals:
    def avoids_231(self, q):
        return not contains(parse("231"), Permutation(q))

    def test_3142_reachable(self):
        assert reachable_by_local_reversals(parse("3142"), self.avoids_231)

    def test_identity_reachable(self):
        assert reachable_by_local_reversals(Permutation((1, 2, 3, 4, 5)), self.avoids_231)

    def test_465132_not_reachable(self):
        assert not reachable_by_local_reversals(parse("465132"), self.avoids_231)

    def test_tries_blockwise_reversals_in_division_order(self):
        # The reference: blockwise_reverse of every all_divisions entry.
        for n in range(0, 6):
            for p in all_perms(n):
                tried = []
                assert not reachable_by_local_reversals(
                    p, lambda q: tried.append(q) or False
                )
                assert tried == [blockwise_reverse(d).values for d in all_divisions(p)]

    def test_stops_at_first_accepted_reversal(self):
        p = parse("2413")
        expected = [blockwise_reverse(d).values for d in all_divisions(p)]
        for stop in range(len(expected)):
            tried = []

            def member(q):
                tried.append(q)
                return len(tried) == stop + 1

            assert reachable_by_local_reversals(p, member)
            assert tried == expected[: stop + 1]
