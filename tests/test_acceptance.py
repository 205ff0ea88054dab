"""Acceptance suite: the thirteen exit criteria, each at its stated bound.

The checks live in the invariant registry `popsort.verify._CHECKS`, which
`popsort verify` also runs; an entry tagged with a criterion id states that
criterion.  Each `test_criterion_*` runs every entry tagged with its id at
the entry's full bound and prints one `ACCEPTANCE PASS <id>` line per entry
(run with -s to see them); a failing entry fails the test with its detail.
Criterion 03 also runs its entry at n <= 8, the bound the paper's table
confirms, apart from the n = 9 extension.
`test_criterion_bounds` pins which entries state each criterion and at
what full bound, so no criterion loses an entry or a bound unseen.
`test_fast_bound_floors` pins the least fast bound of the entries that
took over exhaustive loops from `tests/`, since tier-1 runs them only there.
"""
import sys

from popsort.verify import _CHECKS

# criterion id -> [(registry entry, full bound)]
CRITERIA = {
    "01": [("ps-machine-basis", 6)],
    "02": [("ps-triple-characterization", 8)],
    "03": [("pqs-counts", 9)],
    "04": [("pqs-basis-sound", 9)],
    "05": [("ps-count-equals-series-coefficients", 9), ("closed-form-equals-fixed-point", 200)],
    "06": [("sp-equals-sqp", 7), ("pqs-equals-sp-of-dual", 7)],
    "07": [("di-separations", None)],
    "08": [("simple-permutation-census", 10)],
    "09": [("structural-recognizer-equals-avoidance", 9)],
    "10": [("wilf-equivalence-of-three-classes", 9)],
    "11": [("antichain-elements-are-basis-elements", 4), ("antichain-pairwise-incomparable", 5)],
    "12": [("witnesses-replay-to-identity", 7)],
    "13": [("pruned-search-equals-unpruned", 6)],
}

# registry entry -> least fast bound; a tuple bound is floored entry by entry
FAST_FLOORS = {
    "contains-agrees-with-naive-oracle": (4, 6),
    "substitution-decomposition-roundtrip": 6,
    "undivided-div-contains-degenerates-to-contains": 5,
    "pqs-division-equals-local-reversals": 6,
    "pqs-division-characterization": 6,
    "single-stack-sorts-iff-avoids-231": 6,
    "ps-sum-closure": 7,
    "division-search-equals-naive-first-division": 4,
}


def criterion_test(cid, bound=None):
    def test():
        entries = [check for check in _CHECKS if check.criterion == cid]
        assert entries, f"no registry entry states criterion {cid}"
        for entry in entries:
            ok, detail = entry.run(entry.full if bound is None else bound)
            assert ok, f"{entry.name}: {detail}"
            line = f"ACCEPTANCE PASS {cid} {entry.name}: {detail}"
            print(line)
            print(line, file=sys.__stderr__)

    return test


test_criterion_01_ps_basis_recovery = criterion_test("01")
test_criterion_02_ps_triple_characterization_to_eight = criterion_test("02")
test_criterion_03_pqs_enumeration_to_eight = criterion_test("03", bound=8)
test_criterion_03_pqs_enumeration_nine_extended = criterion_test("03")
test_criterion_04_pqs_basis_conjecture_desk_check = criterion_test("04")
test_criterion_05_generating_function_triple_agreement = criterion_test("05")
test_criterion_06_machine_equivalences_to_seven = criterion_test("06")
test_criterion_07_di_separations = criterion_test("07")
test_criterion_08_simple_permutation_census_to_ten = criterion_test("08")
test_criterion_09_structural_recognizer_to_nine = criterion_test("09")
test_criterion_10_wilf_equivalence_to_nine = criterion_test("10")
test_criterion_11_antichain_construction = criterion_test("11")
test_criterion_12_witness_soundness_to_seven = criterion_test("12")
test_criterion_13_pruning_soundness_to_six = criterion_test("13")


def test_criterion_bounds():
    tagged = {}
    for check in _CHECKS:
        if check.criterion is not None:
            tagged.setdefault(check.criterion, []).append((check.name, check.full))
    assert tagged == CRITERIA
    tested = {name[15:17] for name in globals() if name.startswith("test_criterion_")}
    assert tested >= set(CRITERIA)


def test_fast_bound_floors():
    fast = {check.name: check.fast for check in _CHECKS}
    for name, floor in FAST_FLOORS.items():
        bound = fast[name]
        if isinstance(floor, tuple):
            assert all(b >= f for b, f in zip(bound, floor)), (name, bound)
        else:
            assert bound >= floor, (name, bound)
