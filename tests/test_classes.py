import itertools
import pickle
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perm_strategy
from popsort import classes, machines
from popsort.classes import (
    ClassSpec,
    MalformedOracleError,
    class_members,
    compute_basis,
    count_by_length,
    count_members,
    simples_in_class,
    structural_member,
    wilf_table,
)
from popsort.machines import MachineKind, PQS_SEQUENCE, PS_BASIS, is_sortable, is_sortable_unpruned
from popsort.perms import (
    EMPTY,
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

PS_SPEC = ClassSpec.from_machine(MachineKind.PS)
PS_BASIS_SPEC = ClassSpec.from_basis(PS_BASIS)
# The same class, Av(2431, 3142, 3241), by its structural recognizer.
STRUCTURAL_SPEC = ClassSpec.from_predicate("structural", structural_member)
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

    def test_fingerprints_pinned(self):
        # Fingerprints key `enumerate --cache` files, so caches written by
        # earlier versions must keep hitting.
        specs = [
            ClassSpec.from_machine(MachineKind.PQS),
            ClassSpec.from_basis([parse(t) for t in ("3241", "2431", "3142")]),
            ClassSpec.from_basis([parse("231")]),
            ClassSpec.from_predicate("structural", structural_member),
        ]
        assert [(s.canonical_text, s.fingerprint) for s in specs] == [
            ("machine:pqs", "685f881dcf2b85c0"),
            ("basis:2,4,3,1;3,1,4,2;3,2,4,1", "6761e6abcbcee8de"),
            ("basis:2,3,1", "16262693fb76b38f"),
            ("predicate:structural", "1aa50fb082213b25"),
        ]

    def test_equality_ignores_walk_oracle(self):
        # child_member is derived from the other fields, so two specs of one
        # machine, which share their decider, compare and hash equal.
        a, b = ClassSpec.from_machine(MachineKind.PS), ClassSpec.from_machine(MachineKind.PS)
        assert a.child_member is not b.child_member
        assert a == b and hash(a) == hash(b)

    def test_specs_of_one_basis_are_equal(self):
        # A spec is its canonical text: each from_basis call builds fresh
        # oracles, and the specs still compare, hash and dedupe as one.
        a, b = ClassSpec.from_basis([parse("231")]), ClassSpec.from_basis([parse("231")])
        assert a.member_values is not b.member_values
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert ClassSpec.from_machine(MachineKind.PQS) == ClassSpec.from_machine(MachineKind.PQS)
        assert a != ClassSpec.from_basis([parse("312")])
        assert a != ClassSpec.from_basis([parse("231"), parse("312")])

    def test_empty_pattern_has_its_own_text(self):
        # Av() holds every permutation and Av(ε) none, so they must not
        # share a text, and so a count-cache key.  A basis holding ε is ε.
        everything = ClassSpec.from_basis([])
        nothing = ClassSpec.from_basis([EMPTY])
        assert everything.canonical_text == "basis:"
        assert nothing.canonical_text == "basis:()"
        assert ClassSpec.from_basis([parse("12"), EMPTY]).canonical_text == "basis:()"
        assert everything.fingerprint != nothing.fingerprint
        assert [count_members(everything, n) for n in range(0, 7)] == [1, 1, 2, 6, 24, 120, 720]
        assert [count_members(nothing, n) for n in range(0, 7)] == [0] * 7
        assert count_by_length(nothing, 6) == [0] * 6
        assert compute_basis(everything, 4) == []
        with pytest.raises(MalformedOracleError):
            compute_basis(nothing, 4)

    def test_predicate_spec(self):
        spec = ClassSpec.from_predicate("increasing", lambda p: list(p) == sorted(p))
        assert count_members(spec, 4) == 1
        assert count_by_length(spec, 4) == [1, 1, 1, 1]

    @pytest.mark.parametrize("spec, workers", [
        (PS_SPEC, [21]),  # one task per PS member of length 4
        (ClassSpec.from_basis([parse("12"), parse("21")]), []),  # no member of length 4
    ], ids=["ps", "empty"])
    def test_pool_has_no_more_workers_than_tasks(self, spec, workers, monkeypatch):
        # A spy pool records its size and maps serially: no process starts.
        started = []

        class SerialPool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, tasks):
                return [fn(*task) for task in tasks]

        serial = count_by_length(spec, 6)
        monkeypatch.setattr(classes.multiprocessing, "Pool", SerialPool)
        assert count_by_length(spec, 6, jobs=100_000) == serial
        assert started == workers


class TestCountMembers:
    def test_short_lengths_unconstrained_by_length_four_basis(self):
        assert count_members(PS_BASIS_SPEC, 3) == 6

    def test_basis_count_at_four(self):
        assert count_members(PS_BASIS_SPEC, 4) == 21

    def test_empty_length(self):
        assert count_members(PS_SPEC, 0) == 1

    def test_jobs_do_not_change_counts(self):
        spec = ClassSpec.from_machine(MachineKind.PQS)
        assert count_by_length(spec, 5, jobs=2) == count_by_length(spec, 5)

    def test_one_walk_counts_every_length(self):
        calls = []
        sp = ClassSpec.from_machine(MachineKind.SP)
        spec = ClassSpec(sp.canonical_text,
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
        lengths = range(0, 9)
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

    def test_predicate_counts_equal_scan(self):
        lengths = range(0, 9)
        assert [count_members(STRUCTURAL_SPEC, n) for n in lengths] == [
            scan_count(STRUCTURAL_SPEC, n) for n in lengths
        ]

    @pytest.mark.parametrize("kind", list(MachineKind), ids=lambda k: k.value)
    def test_basis_equals_level_by_level_mining(self, kind):
        spec = ClassSpec.from_machine(kind)
        assert compute_basis(spec, 8) == level_basis(spec, 8)

    @pytest.mark.parametrize("spec, max_n", [
        pytest.param(spec, max_n, id=str(spec))
        for spec, max_n in (
            (ClassSpec.from_machine(MachineKind.PQS), 8),
            # SP's counts are the PQS walk's, read before the split
            (ClassSpec.from_machine(MachineKind.SP), 8),
            (PS_BASIS_SPEC, 8),
            (STRUCTURAL_SPEC, 7),
        )
    ])
    def test_jobs_split_by_subtree(self, spec, max_n):
        assert count_by_length(spec, max_n, jobs=2) == count_by_length(spec, max_n)

    def test_basis_to_length_one_is_empty(self):
        assert compute_basis(ClassSpec.from_basis([parse("12")]), 1) == []
        assert compute_basis(ClassSpec.from_basis([parse("12")]), 2) == [parse("12")]

    def test_class_without_singleton_counts_zero(self):
        spec = ClassSpec.from_basis([parse("1")])
        assert [count_members(spec, n) for n in range(0, 4)] == [1, 0, 0, 0]


WALKED_SPECS = [ClassSpec.from_machine(kind) for kind in MachineKind] + [
    ClassSpec.from_basis([parse(t) for t in texts]) for texts in WALKED_BASES
]


def _avoids_by_occurrences(patterns, p):
    return not any(count_occurrences(q, p) for q in patterns)


def _reference(spec, reference, max_n):
    return pytest.param(spec, reference, max_n, id=str(spec))


# (spec, independent reference, longest length checked): the unpruned move
# graph for machines (to length 5; the unpruned SQP search alone takes
# seconds at length 6) and occurrence counting over index subsets for bases.
REFERENCES = [
    _reference(ClassSpec.from_machine(kind), partial(is_sortable_unpruned, kind), 5)
    for kind in MachineKind
] + [
    _reference(ClassSpec.from_basis(pats), partial(_avoids_by_occurrences, pats), 7)
    for pats in ([parse(t) for t in texts] for texts in WALKED_BASES)
]


class TestValuesOracle:
    """`child_member` and `member_values` are what the walks call, on tuples
    they never validate."""

    @pytest.mark.parametrize("spec", WALKED_SPECS, ids=str)
    def test_walk_hands_over_bijections(self, spec):
        handed, children = [], []
        spy = ClassSpec(
            spec.canonical_text,
            lambda vals: handed.append(vals) or spec.member_values(vals),
            child_member=lambda vals, s: (
                children.append((vals, s)) or spec.child_member(vals, s)
            ),
            child_run=spec.child_run and (lambda vals, s, run, expand: (
                children.append((vals, s)) or spec.child_run(vals, s, run, expand)
            )),
        )
        count_by_length(spy, 7)
        compute_basis(spy, 7)
        assert handed and children
        for vals, s in children:
            assert vals[s] == len(vals), (vals, s)
        for vals in handed + [vals for vals, _ in children]:
            assert type(vals) is tuple
            assert sorted(vals) == list(range(1, len(vals) + 1)), vals

    @pytest.mark.parametrize("spec, reference, max_n", REFERENCES)
    def test_agrees_with_reference(self, spec, reference, max_n):
        # `member` is `member_values` on p.values, so both are checked
        # against a route sharing no code with them.
        for p in (p for n in range(max_n + 1) for p in all_perms(n)):
            assert spec.member(p) == spec.member_values(p.values) == reference(p), p

    @pytest.mark.parametrize("spec", WALKED_SPECS + [STRUCTURAL_SPEC], ids=str)
    def test_oracle_pickles(self, spec):
        # Worker processes of count_by_length receive the walk's oracle itself.
        oracle = pickle.loads(pickle.dumps(spec.member_values))
        child = pickle.loads(pickle.dumps(spec.child_member))
        for vals in (v for n in range(1, 7) for v in itertools.permutations(range(1, n + 1))):
            s = vals.index(len(vals))
            assert oracle(vals) == spec.member_values(vals), vals
            assert child(vals, s) == spec.child_member(vals, s), vals
        assert oracle(()) == spec.member_values(())
        if spec.child_run is not None:
            # ... and each member's run, which the PQS walk's oracle reads.
            grow = pickle.loads(pickle.dumps(spec.child_run))
            for vals, _, run in classes._walk(spec, 6):
                if len(vals) < 6:
                    copy = pickle.loads(pickle.dumps(run))
                    assert copy == run, vals
                    for s in range(len(vals) + 1):
                        c = vals[:s] + (len(vals) + 1,) + vals[s:]
                        for expand in (False, True):
                            assert grow(c, s, copy, expand) == spec.child_run(c, s, run, expand)

    @pytest.mark.parametrize(
        "kind", [MachineKind.PQS, MachineKind.SP, MachineKind.SQP], ids=lambda k: k.value
    )
    def test_pqs_walk_searches_few_children(self, kind, monkeypatch):
        # The parent's site test accepts most PQS children with no search:
        # without it the walk to 7 runs 5,505 searches, with it about 1,355.
        # SP and SQP are counted by the same walk, read through the dual.
        # Walked as their own classes, with the PQS search on the dual as
        # the oracle, they would make 5,511 searches: the dual of a maximum
        # inserted at site s is a new first entry, which no site test sees.
        searched, backwards = [], []
        search, solve_backwards = machines._solve_pqs, machines._solve_backwards
        monkeypatch.setattr(
            machines, "_solve_pqs", lambda p, path=None: searched.append(p) or search(p, path)
        )
        monkeypatch.setattr(
            machines, "_solve_backwards",
            lambda k, p, rec=None: backwards.append(p) or solve_backwards(k, p, rec),
        )
        for k in (MachineKind.SP, MachineKind.SQP):
            # the deciders are partials bound at import; rebind them to the spy
            monkeypatch.setitem(machines._SOLVERS, k, partial(machines._solve_backwards, k))
        spec = ClassSpec.from_machine(kind)
        assert count_by_length(spec, 7) == list(PQS_SEQUENCE[:7])
        assert 0 < len(searched) < 2000
        assert backwards == []

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
def grown_member(draw, member, max_n=10):
    """A member grown from the empty permutation by inserting the maximum at
    a random site, among all sites that keep it a member; growth stops
    early when no site does."""
    vals = ()
    for k in range(draw(st.integers(0, max_n))):
        top = (k + 1,)
        sites = [
            s for s in range(k + 1) if member(Permutation(vals[:s] + top + vals[s:]))
        ]
        if not sites:
            break
        s = draw(st.sampled_from(sites))
        vals = vals[:s] + top + vals[s:]
    return Permutation(vals)


@st.composite
def patterns(draw, max_k=5):
    """A pattern of length 1..max_k whose maximum is first, last or at a
    random index."""
    k = draw(st.integers(1, max_k))
    vals = list(draw(st.permutations(range(1, k))))
    vals.insert(draw(st.sampled_from([0, k - 1, draw(st.integers(0, k - 1))])), k)
    return Permutation(tuple(vals))


class TestChildMember:
    """The walk's oracle on a child equals the full oracle: a basis spec
    tests only the occurrences through the inserted maximum, which is
    exact because the parent avoids every pattern."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_member_values_on_children_of_members(self, data):
        spec = ClassSpec.from_basis(data.draw(st.lists(patterns(), max_size=3)))
        v = data.draw(grown_member(spec.member)).values
        top = (len(v) + 1,)
        for s in range(len(v) + 1):
            c = v[:s] + top + v[s:]
            assert spec.child_member(c, s) == spec.member_values(c), (spec, c, s)


class TestDownwardClosure:
    """The walk's precondition: every one-entry deletion of a member is a
    member.  DI, whose stacks compare values, is the least obvious kind."""

    @pytest.mark.parametrize("kind", list(MachineKind), ids=lambda k: k.value)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_grown_members(self, kind, data):
        p = data.draw(grown_member(partial(is_sortable, kind)))
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

    def test_oracle_rejecting_singleton_is_malformed(self):
        spec = ClassSpec.from_predicate("empty-class", lambda p: False)
        with pytest.raises(MalformedOracleError):
            compute_basis(spec, 3)

    def test_whole_universe_has_empty_basis(self):
        spec = ClassSpec.from_predicate("everything", lambda p: True)
        assert compute_basis(spec, 4) == []


class TestWilfTable:
    def test_single_spec_trivially_equal(self):
        assert wilf_table([PS_SPEC], 4) == [(1,), (2,), (6,), (21,)]

    def test_catalan_vs_ps_diverge_at_four(self):
        specs = [ClassSpec.from_basis([parse("231")]), PS_BASIS_SPEC]
        assert wilf_table(specs, 4)[3] == (14, 21)


class TestClassMembers:
    @pytest.mark.parametrize("spec", [
        ClassSpec.from_machine(MachineKind.PQS), PS_BASIS_SPEC, ClassSpec.from_machine(MachineKind.SP)
    ])
    def test_each_member_once_counted_by_length(self, spec):
        members = list(class_members(spec, 7))
        assert len(set(members)) == len(members)
        by_length = [sum(1 for v in members if len(v) == n) for n in range(1, 8)]
        assert by_length == count_by_length(spec, 7)
        assert all(spec.member_values(v) for v in members)


class TestSimples:
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
        assert avoids(parse("24513"), PS_BASIS)
        assert avoids(identity(7), PS_BASIS)

    def test_basis_elements_rejected(self):
        for t in ("2431", "3142", "3241"):
            assert not structural_member(parse(t))
            assert not avoids(parse(t), PS_BASIS)

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

    def test_reverse_layered_members(self, monkeypatch):
        # iota_1 (-) iota_2 (-) ... shapes are members for any increasing runs
        p = parse("563412")  # 12 (-) 12 (-) 12
        assert structural_member(p)
        assert structural_member(parse("321"))
        # Sum and skew chains are walked in a loop, not one frame per
        # component, so length 2000 stays far from the recursion limit.
        monkeypatch.setattr(classes, "_structural_memo", {})
        n = 2000
        layered = tuple(v for t in range(n - 1, 0, -2) for v in (t, t + 1))  # 12 (-) 12 (-) ...
        for q in (identity(n), identity(n).reverse(), Permutation(layered)):
            assert structural_member(q)

    def test_chain_memoizes_only_the_permutation_asked(self, monkeypatch):
        # The identity is a sum chain of 1999 suffixes; storing each would
        # keep about two million values for one question.
        monkeypatch.setattr(classes, "_structural_memo", {})
        assert structural_member(identity(2000))
        assert list(classes._structural_memo) == [identity(2000).values]

    def test_nested_shapes_stay_under_the_recursion_limit(self, monkeypatch):
        # v -> (m+1, v..., m+2): a sum whose first summand is a skew sum
        # 1 (-) v, so each of the 900 levels costs one recursive frame.
        v = (1,)
        for _ in range(900):
            m = len(v)
            v = (m + 1,) + v + (m + 2,)
        assert len(v) == 1801
        monkeypatch.setattr(classes, "_structural_memo", {})
        assert structural_member(Permutation(v))


class TestSpecGuards:
    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            count_members(PS_SPEC, -1)
