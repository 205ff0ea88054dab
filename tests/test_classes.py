import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perm_strategy
from popsort import classes
from popsort.classes import (
    ClassSpec,
    MalformedOracleError,
    compute_basis,
    count_by_length,
    count_members,
    simples_in_class,
    structural_member,
    wilf_table,
)
from popsort.machines import MachineKind, PS_BASIS, is_sortable, is_sortable_unpruned
from popsort.perms import (
    Permutation,
    all_perms,
    avoids,
    count_occurrences,
    identity,
    inflate,
    one_entry_deletions,
    parallel_alternation,
    parse,
)
from popsort.series import closed_form

PS_SPEC = ClassSpec.from_machine(MachineKind.PS)
PS_BASIS_SPEC = ClassSpec.from_basis(PS_BASIS)
# Av(231), Av(2431, 3142) and the three Wilf-equivalent classes of
# acceptance criterion 10.
WALKED_BASES = (
    ("231",),
    ("2431", "3142"),
    ("2431", "3142", "3241"),
    ("2431", "4231", "4321"),
    ("2143", "2413", "3142"),
)


def scan_count(spec, n):
    """Reference count: every permutation of length n put to the oracle."""
    return sum(1 for p in all_perms(n) if spec.member(p))


def level_basis(spec, max_len):
    """Reference basis mining, length by length: a permutation reaches the
    oracle only when its one-entry deletions are all members of the
    previous length."""

    def deletions(vals):
        for t, v in enumerate(vals):
            yield tuple(w - (w > v) for s, w in enumerate(vals) if s != t)

    basis = []
    prev = {(1,)}
    for n in range(2, max_len + 1):
        cur = set()
        for vals in itertools.permutations(range(1, n + 1)):
            if all(d in prev for d in deletions(vals)):
                if spec.member(Permutation(vals)):
                    cur.add(vals)
                else:
                    basis.append(Permutation(vals))
        prev = cur
    return basis


class TestClassSpec:
    def test_fingerprint_stable_across_instances(self):
        a = ClassSpec.from_basis([parse("2431"), parse("3142")])
        b = ClassSpec.from_basis([parse("3142"), parse("2431")])  # order-insensitive
        assert a.fingerprint == b.fingerprint

    def test_fingerprints_distinguish_specs(self):
        specs = [
            ClassSpec.from_machine(MachineKind.PS),
            ClassSpec.from_machine(MachineKind.PQS),
            ClassSpec.from_basis([parse("231")]),
        ]
        assert len({s.fingerprint for s in specs}) == 3

    def test_predicate_spec(self):
        spec = ClassSpec.from_predicate("increasing", lambda p: list(p) == sorted(p))
        assert count_members(spec, 4) == 1
        assert count_by_length(spec, 4) == [1, 1, 1, 1]


class TestCountMembers:
    def test_pqs_counts_to_six(self):
        spec = ClassSpec.from_machine(MachineKind.PQS)
        assert [count_members(spec, n) for n in range(1, 7)] == [1, 2, 6, 24, 120, 685]

    def test_short_lengths_unconstrained_by_length_four_basis(self):
        assert count_members(PS_BASIS_SPEC, 3) == 6

    def test_basis_count_at_four(self):
        assert count_members(PS_BASIS_SPEC, 4) == 21

    def test_empty_length(self):
        assert count_members(PS_SPEC, 0) == 1

    def test_jobs_do_not_change_counts(self):
        spec = ClassSpec.from_machine(MachineKind.PQS)
        assert count_members(spec, 5, jobs=2) == count_members(spec, 5, jobs=1)

    def test_one_walk_counts_every_length(self):
        calls = []
        sp = ClassSpec.from_machine(MachineKind.SP)
        spec = ClassSpec(sp.name, sp.canonical_text, sp.member, sp.descriptor,
                         lambda vals: calls.append(vals) or sp.member_values(vals))
        assert count_by_length(spec, 7) == [count_members(sp, n) for n in range(1, 8)]
        assert len(calls) == 5511  # one count_members call per n makes 6583

    def test_machine_and_basis_agree_for_ps(self):
        for n in range(0, 7):
            assert count_members(PS_SPEC, n) == count_members(PS_BASIS_SPEC, n)


class TestWalkAgainstReferences:
    @pytest.mark.parametrize("kind", list(MachineKind), ids=lambda k: k.value)
    def test_machine_counts_equal_scan(self, kind):
        spec = ClassSpec.from_machine(kind)
        top = 7 if kind is MachineKind.SQP else 8
        lengths = range(0, top + 1)
        assert [count_members(spec, n) for n in lengths] == [
            scan_count(spec, n) for n in lengths
        ]

    @pytest.mark.parametrize("texts", WALKED_BASES, ids=",".join)
    def test_basis_counts_equal_scan(self, texts):
        spec = ClassSpec.from_basis([parse(t) for t in texts])
        lengths = range(0, 9)
        assert [count_members(spec, n) for n in lengths] == [
            scan_count(spec, n) for n in lengths
        ]

    @pytest.mark.parametrize(
        "kind",
        [MachineKind.S, MachineKind.PS, MachineKind.PQS, MachineKind.SP, MachineKind.DI],
        ids=lambda k: k.value,
    )
    def test_basis_equals_level_by_level_mining(self, kind):
        spec = ClassSpec.from_machine(kind)
        assert compute_basis(spec, 8) == level_basis(spec, 8)

    @pytest.mark.parametrize(
        "spec", [ClassSpec.from_machine(MachineKind.PQS), PS_BASIS_SPEC], ids=str
    )
    def test_jobs_split_by_subtree(self, spec):
        assert count_members(spec, 7, jobs=2) == count_members(spec, 7, jobs=1)

    def test_basis_to_length_one_is_empty(self):
        assert compute_basis(ClassSpec.from_basis([parse("12")]), 1) == []
        assert compute_basis(ClassSpec.from_basis([parse("12")]), 2) == [parse("12")]

    def test_class_without_singleton_counts_zero(self):
        spec = ClassSpec.from_basis([parse("1")])
        assert [count_members(spec, n) for n in range(0, 4)] == [1, 0, 0, 0]


WALKED_SPECS = [ClassSpec.from_machine(kind) for kind in MachineKind] + [
    ClassSpec.from_basis([parse(t) for t in texts]) for texts in WALKED_BASES
]


class TestValuesOracle:
    """`member_values` is what the walks call, on tuples they never validate."""

    @pytest.mark.parametrize("spec", WALKED_SPECS, ids=str)
    def test_walk_hands_over_bijections(self, spec):
        handed = []
        spy = ClassSpec(spec.name, spec.canonical_text, spec.member, spec.descriptor,
                        lambda vals: handed.append(vals) or spec.member_values(vals))
        count_by_length(spy, 7)
        compute_basis(spy, 7)
        assert handed
        for vals in handed:
            assert type(vals) is tuple
            assert sorted(vals) == list(range(1, len(vals) + 1)), vals

    @pytest.mark.parametrize("spec", WALKED_SPECS, ids=str)
    def test_agrees_with_reference(self, spec):
        # `member` is `member_values` on p.values, so both are checked
        # against a route sharing no code with them: the unpruned move graph
        # for machines (to length 5; the unpruned SQP search alone takes
        # seconds at length 6) and occurrence counting over index subsets
        # for bases.
        tag, payload = spec.descriptor
        if tag == "machine":
            kind = MachineKind.from_name(payload)
            cases = [(p, is_sortable_unpruned(kind, p)) for n in range(6) for p in all_perms(n)]
        else:
            pats = [Permutation(pv) for pv in payload]
            cases = [(p, not any(count_occurrences(q, p) for q in pats))
                     for n in range(8) for p in all_perms(n)]
        for p, expected in cases:
            assert spec.member(p) == spec.member_values(p.values) == expected, p

    @pytest.mark.parametrize("spec", WALKED_SPECS, ids=str)
    def test_count_builds_no_permutation(self, spec, monkeypatch):
        built = []
        validate = Permutation.__post_init__

        def spy(p):
            built.append(p.values)
            validate(p)

        monkeypatch.setattr(Permutation, "__post_init__", spy)
        count_by_length(spec, 7)
        assert built == []


@st.composite
def grown_member(draw, kind, max_n=10):
    """A member grown from the empty permutation by inserting the maximum at
    a random site, among all sites that keep it sortable."""
    vals = ()
    for k in range(draw(st.integers(0, max_n))):
        top = (k + 1,)
        sites = [
            s
            for s in range(k + 1)
            if is_sortable(kind, Permutation(vals[:s] + top + vals[s:]))
        ]
        s = draw(st.sampled_from(sites))
        vals = vals[:s] + top + vals[s:]
    return Permutation(vals)


class TestDownwardClosure:
    """The walk's precondition: every one-entry deletion of a member is a
    member.  DI, whose stacks compare values, is the least obvious kind."""

    @pytest.mark.parametrize("kind", list(MachineKind), ids=lambda k: k.value)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_grown_members(self, kind, data):
        p = data.draw(grown_member(kind))
        assert is_sortable(kind, p)
        for d in one_entry_deletions(p):
            assert is_sortable(kind, d), (p, d)

    @pytest.mark.parametrize("kind", list(MachineKind), ids=lambda k: k.value)
    @settings(max_examples=100, deadline=None)
    @given(p=perm_strategy(10))
    def test_uniform_inputs(self, kind, p):
        if is_sortable(kind, p):
            for d in one_entry_deletions(p):
                assert is_sortable(kind, d), (p, d)


class TestComputeBasis:
    def test_single_stack_basis(self):
        assert compute_basis(ClassSpec.from_machine(MachineKind.S), 5) == [parse("231")]

    def test_ps_basis(self):
        assert compute_basis(PS_SPEC, 6) == sorted(
            PS_BASIS, key=lambda p: (len(p), p.values)
        )

    def test_av_basis_recovered(self):
        mined = compute_basis(PS_BASIS_SPEC, 6)
        assert mined == sorted(PS_BASIS, key=lambda p: (len(p), p.values))

    def test_oracle_rejecting_singleton_is_malformed(self):
        spec = ClassSpec.from_predicate("empty-class", lambda p: False)
        with pytest.raises(MalformedOracleError):
            compute_basis(spec, 3)

    def test_whole_universe_has_empty_basis(self):
        spec = ClassSpec.from_predicate("everything", lambda p: True)
        assert compute_basis(spec, 4) == []


class TestWilfTable:
    def test_three_wilf_equivalent_classes_to_four(self):
        specs = [
            ClassSpec.from_basis([parse(t) for t in texts])
            for texts in (
                ("2431", "3142", "3241"),
                ("2431", "4231", "4321"),
                ("2143", "2413", "3142"),
            )
        ]
        table = wilf_table(specs, 4)
        assert table.all_equal
        assert table.rows[-1].counts == (21, 21, 21)

    def test_single_spec_trivially_equal(self):
        table = wilf_table([PS_SPEC], 4)
        assert table.all_equal

    def test_catalan_vs_ps_diverge_at_four(self):
        specs = [ClassSpec.from_basis([parse("231")]), PS_BASIS_SPEC]
        table = wilf_table(specs, 4)
        assert table.rows[3].counts == (14, 21)
        assert not table.rows[3].all_equal
        assert not table.all_equal

    def test_serialization(self):
        specs = [ClassSpec.from_basis([parse("231")]), PS_BASIS_SPEC]
        table = wilf_table(specs, 3)
        lines = table.to_csv().splitlines()
        assert lines[0] == f"n,{specs[0].name},{specs[1].name}"
        assert lines[1:] == ["1,1,1", "2,2,2", "3,5,6"]
        obj = table.to_json_obj()
        assert obj["rows"][2] == {"n": 3, "counts": [5, 6], "all_equal": False}


class TestSimples:
    def test_census_to_six(self):
        got = simples_in_class([parse("2431"), parse("3142")], 6)
        assert got == [parse("1"), parse("12"), parse("21"), parse("2413"), parse("246135")]

    def test_no_simples_of_length_three(self):
        assert simples_in_class([parse("2431"), parse("3142")], 3) == [
            parse("1"), parse("12"), parse("21"),
        ]

    def test_unconstrained_census_to_four(self):
        assert simples_in_class([], 4) == [
            parse("1"), parse("12"), parse("21"), parse("2413"), parse("3142"),
        ]


@st.composite
def ps_members(draw, n):
    """A member of Av(2431, 3142, 3241) of length n, built by its shape: a
    direct sum of members, an increasing run skew-summed over a member, or
    an inflation of a parallel alternation with m = 2..4 whose even entries
    become increasing runs and whose odd entries become members."""
    if n <= 1:
        return identity(n)
    shapes = ["sum", "skew"] + (["alternation"] if n >= 4 else [])
    shape = draw(st.sampled_from(shapes))
    if shape != "alternation":
        k = draw(st.integers(1, n - 1))
        if shape == "sum":
            return draw(ps_members(k)).direct_sum(draw(ps_members(n - k)))
        return identity(k).skew_sum(draw(ps_members(n - k)))
    m = draw(st.integers(2, min(4, n // 2)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=2 * m - 1, max_size=2 * m - 1)))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    parts = [identity(s) for s in sizes[:m]] + [draw(ps_members(s)) for s in sizes[m:]]
    return inflate(parallel_alternation(m), parts)


@st.composite
def adjacent_swaps(draw, p):
    """p with two adjacent entries swapped: near a member when p is one."""
    i = draw(st.integers(0, len(p) - 2))
    v = list(p.values)
    v[i], v[i + 1] = v[i + 1], v[i]
    return Permutation(tuple(v))


class TestStructuralMember:
    def test_figure_permutation(self):
        assert structural_member(parse("24513"))

    def test_basis_elements_rejected(self):
        for t in ("2431", "3142", "3241"):
            assert not structural_member(parse(t))

    def test_alternation_inflation_with_decreasing_odd_part(self):
        # odd entries may be inflated by any member, including 21
        p = inflate(parse("2413"), [parse("12"), parse("1"), parse("21"), parse("1")])
        assert p == parse("346215")
        assert avoids(p, PS_BASIS)  # cross-check with the containment oracle
        assert structural_member(p)

    def test_alternation_inflation_with_decreasing_even_part(self):
        # even entries must inflate to increasing intervals: 21 there breaks it
        p = inflate(parse("2413"), [parse("21"), parse("1"), parse("1"), parse("1")])
        assert p == parse("32514")
        assert not avoids(p, PS_BASIS)
        assert not structural_member(p)

    def test_builds_no_permutation(self, monkeypatch):
        inputs = [p for n in range(0, 8) for p in all_perms(n)]
        monkeypatch.setattr(classes, "_structural_memo", {})
        built = []
        validate = Permutation.__post_init__

        def spy(p):
            built.append(p.values)
            validate(p)

        monkeypatch.setattr(Permutation, "__post_init__", spy)
        for p in inputs:
            structural_member(p)
        assert built == []
        # perfbench reports this size as classes.structural_memo_entries.
        assert len(classes._structural_memo) == 5912

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_avoidance_long(self, data):
        p = data.draw(
            st.one_of(
                perm_strategy(max_n=16, min_n=10),
                st.integers(10, 16).flatmap(ps_members),
                st.integers(10, 16).flatmap(ps_members).flatmap(adjacent_swaps),
            )
        )
        assert structural_member(p) == avoids(p, PS_BASIS), p

    @given(st.integers(10, 16).flatmap(ps_members))
    def test_members_by_construction_long(self, p):
        assert avoids(p, PS_BASIS), p
        assert structural_member(p), p

    def test_reverse_layered_members(self):
        # iota_1 (-) iota_2 (-) ... shapes are members for any increasing runs
        p = parse("563412")  # 12 (-) 12 (-) 12
        assert structural_member(p)
        assert structural_member(parse("321"))


class TestCountsMatchSeries:
    def test_machine_counts_equal_series_coefficients(self):
        coeffs = closed_form(7).integer_coefficients()
        for n in range(1, 8):
            assert count_members(PS_SPEC, n) == coeffs[n]


class TestSpecGuards:
    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            count_members(PS_SPEC, -1)
