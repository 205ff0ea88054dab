import pytest

from popsort.antichain import (
    BasisElementReport,
    MAX_ANTICHAIN_K,
    MAX_BASIS_ELEMENT_K,
    antichain_element,
    check_antichain,
    check_basis_element,
    forbidden_divided_patterns,
    in_avoidance_class,
    witness_division,
)
from popsort.divided import DividedPermutation, div_avoids, parse_divided
from popsort.perms import Permutation, delete_entry, identity, parse


class TestElements:
    def test_first_three(self):
        assert antichain_element(1) == parse("2351674")
        assert antichain_element(2) == parse("235174896")
        assert antichain_element(3) == Permutation((2, 3, 5, 1, 7, 4, 9, 6, 10, 11, 8))

    def test_lengths(self):
        for k in range(1, 8):
            assert len(antichain_element(k)) == 2 * k + 5

    def test_index_guard(self):
        with pytest.raises(ValueError):
            antichain_element(0)


class TestForbiddenPatterns:
    def test_cardinality(self):
        assert len(forbidden_divided_patterns()) == 8

    def test_contains_undivided_2341(self):
        assert parse_divided("2341") in forbidden_divided_patterns()

    def test_contains_divided_31_42(self):
        pats = forbidden_divided_patterns()
        assert parse_divided("31|42") in pats
        assert any(p.dividers == (2,) and p.base == parse("3142") for p in pats)


class TestMembership:
    def test_u1_outside_class(self):
        assert not in_avoidance_class(antichain_element(1))

    def test_identity_inside_class(self):
        for n in (1, 4, 8):
            assert in_avoidance_class(identity(n))
            assert witness_division(identity(n)) == DividedPermutation(identity(n))

    def test_quoted_deletion_witness_from_u5(self):
        # deleting the 3 from u_5 leaves 2,5,1,7,4,9,6,11,8,13,10,14,15,12;
        # the division 2,5|1|7|4|9|6|11|8|13|10,14,15,12 avoids all eight
        # patterns, so the deletion is back inside the class
        deleted = delete_entry(antichain_element(5), 2)
        assert in_avoidance_class(deleted)
        quoted = DividedPermutation(deleted, (2, 3, 4, 5, 6, 7, 8, 9, 10))
        assert div_avoids(quoted, forbidden_divided_patterns())


class TestBasisElementReports:
    @pytest.mark.parametrize("k", [1, 2])
    def test_reports_pass(self, k):
        report = check_basis_element(k)
        assert isinstance(report, BasisElementReport)
        assert report.passed
        assert not report.element_in_class
        assert len(report.deletions) == 2 * k + 5
        assert all(d.in_class and d.witness is not None for d in report.deletions)
        assert report.failures() == []

    def test_unnormalized_display_uses_original_values(self):
        report = check_basis_element(1)
        # u_1 = 2,3,5,1,6,7,4; deleting position 1 leaves 3,5,1,6,7,4
        first = report.deletions[0]
        flat = first.unnormalized.replace("|", ",")
        assert flat == "3,5,1,6,7,4"

    def test_bound_guard(self):
        with pytest.raises(ValueError):
            check_basis_element(MAX_BASIS_ELEMENT_K + 1)


class TestAntichainReports:
    def test_bound_guard(self):
        with pytest.raises(ValueError):
            check_antichain(MAX_ANTICHAIN_K + 1)

    def test_self_containment_is_not_checked(self):
        report = check_antichain(1)
        assert report.pairs_checked == 0
        assert report.passed

