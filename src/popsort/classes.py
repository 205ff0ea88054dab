"""Class-level computations: counting, basis mining, Wilf tables, simples.

A `ClassSpec` is a canonical text, a membership oracle on value tuples
(`member_values`) and the oracle the walk asks about a child
(`child_member`); its fingerprint, a cache key, is a hash of the text.
Machine specs decide membership by the kind's decision
(`machines.decider`, which for SP and SQP is the PQS search on the
dual), basis specs by `avoids_values` over their pattern tuples, and
predicate specs wrap the tuple in a Permutation for their predicate;
these oracles are module-level functions or partials of them, so they
pickle whenever the predicate does.

The SP and SQP specs are not walked: they carry `dual_of`, the PQS
spec, and are counted, mined and listed as the PQS class read through
the two-stack dual.  Their membership is the PQS decision on the dual,
and the dual is an involution that keeps length and pattern containment,
so their members are the duals of the PQS members and their basis the
duals of the PQS basis.

Every spec describes a permutation class, which is downward closed:
deleting an entry of a member leaves a member.  Classes are counted and
mined by a depth-first walk of the generating tree (West, 1995), in
which a member of length k + 1 is the child of the member of length k
left by deleting its maximum.  Inserting k + 1 into a member v of length
k at site s (0 <= s <= k, the number of entries before it) gives a child
when the oracle accepts it; the accepted sites are the active sites of
v.  A member c made from v at site s can only have a child at site j
when the matching site of v, j if j <= s else j - 1, is active: deleting
k + 1 from that child leaves v with the maximum at the matching site.
So each member is made once, by an oracle call on one of the
|active(v)| + 1 candidates of its parent, and the walk keeps no set of
members.  A candidate is a bijection by construction, so the oracle gets
it as it is and no Permutation is built per candidate.

A candidate's parent is a member, so a basis class's candidate made at
site s contains a basis pattern only by an occurrence that maps the
pattern's maximum onto position s: an occurrence that skips position s
lies in the parent, and one that uses it maps the pattern's maximum
there, since k + 1 is the largest entry.  So the walk asks
`child_member(c, s)`, which basis specs answer by
`perms.avoids_values_through`, a containment search anchored there.  By
the same argument the division search tests only the occurrences that
start at the entry it just placed.  Specs without an anchored test get
`member_values` with s ignored.

The PQS spec's walk oracle, `child_run`, starts from the parent's run:
the block path that sorts it (`machines.PqsRun`).  k + 1 is the largest
value, and a value is only dequeued onto a larger top, so k + 1 can only
land on an empty stack, where it stays at the bottom and blocks nothing
until 1..k have been output.  So the parent's path, with k + 1 put in a
block that holds site s, sorts the child when the stack is empty at the
moment k + 1 is dequeued, and one replay of the path answers every site.
There are four cases: k + 1 inside a block or starting the next one
needs the stack empty after the entry at s; a block of its own at a
boundary s needs it empty at s; ending the block [a, s) needs it empty
at a; and s = 0 and s = k always pass.  A site that passes is a member
with a known path and needs no search.  Any other site gets the full
search, since another path may still sort the child: the test only ever
accepts, so counts and bases are those of the decision.  A member's run
is only built when the walk will ask about its children; basis and
predicate specs carry none.
"""
from __future__ import annotations

import hashlib
import multiprocessing
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import machines
from .machines import MachineKind
from .perms import (
    EMPTY,
    Permutation,
    avoids,  # unused here, but perfbench's tracer wraps classes.avoids
    avoids_values,
    avoids_values_through,
    dual_values,
    is_simple_values,
    substitution_decompose_values,
)


class MalformedOracleError(RuntimeError):
    """The membership oracle cannot describe a permutation class."""


def _on_permutation(member: Callable[[Permutation], bool], vals: tuple[int, ...]) -> bool:
    """A predicate on permutations as an oracle on value tuples."""
    return member(Permutation(vals))


def _any_site(
    member_values: Callable[[tuple[int, ...]], bool], vals: tuple[int, ...], s: int
) -> bool:
    """`member_values` as a walk oracle: the site of the maximum is unused."""
    return member_values(vals)


@dataclass(frozen=True)
class ClassSpec:
    """A canonical text and its membership oracles.

    `member_values` is the oracle: it decides membership on a value tuple
    that the caller vouches is a bijection on 1..len, as the walks'
    candidates are by construction.  `member(p)` is that oracle on
    `p.values`.  `child_member(vals, s)` is the oracle the walk asks about
    a child, a member with its maximum inserted at site s; basis specs
    test only the occurrences through that site, and a spec built without
    one gets `member_values` with s ignored.  `child_run(vals, s, run,
    expand)`, when given, replaces `child_member` in the walk: it is also
    handed the parent's run, and answers False for a non-member, else the
    child's run when `expand`, else True.  The oracle must describe a
    downward-closed class, since every count and basis is read off the
    walk; when the oracles pickle, `count_by_length` hands the spec and
    each subtree's run to worker processes as they are.

    `dual_of`, when given, is a spec whose class is this one's image under
    the two-stack dual (`perms.dual_values`): counts, members and basis
    are read off its walk, and this spec's oracles are used only to
    decide single permutations.
    """

    canonical_text: str
    # A spec is its canonical text: equality and hashing ignore the oracles,
    # which compare by identity (`from_basis` builds new partials each call).
    member_values: Callable[[tuple[int, ...]], bool] = field(compare=False)
    child_member: Callable[[tuple[int, ...], int], bool] = field(  # type: ignore[assignment]
        default=None, compare=False
    )
    child_run: Callable[[tuple[int, ...], int, Any, bool], Any] | None = field(
        default=None, compare=False
    )
    dual_of: "ClassSpec | None" = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.child_member is None:
            object.__setattr__(self, "child_member", partial(_any_site, self.member_values))

    @property
    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical_text.encode()).hexdigest()[:16]

    def member(self, p: Permutation) -> bool:
        return self.member_values(p.values)

    def __repr__(self) -> str:
        return f"ClassSpec({self.canonical_text!r})"

    @staticmethod
    def from_basis(patterns: Iterable[Permutation]) -> "ClassSpec":
        pats = tuple(sorted(set(patterns), key=lambda p: (len(p), p.values)))
        if EMPTY in pats:  # every permutation contains it: Av(ε) is empty
            pats = (EMPTY,)
        pvs = tuple(p.values for p in pats)
        return ClassSpec(
            "basis:" + ";".join(str(p) or "()" for p in pats),
            partial(avoids_values, pvs),
            child_member=partial(avoids_values_through, pvs),
        )

    @staticmethod
    def from_machine(kind: MachineKind) -> "ClassSpec":
        child_run = machines.pqs_child_run if kind is MachineKind.PQS else None
        dual_of = (
            ClassSpec.from_machine(MachineKind.PQS)
            if kind in (MachineKind.SP, MachineKind.SQP) else None
        )
        return ClassSpec(
            f"machine:{kind.value}", machines.decider(kind), child_run=child_run, dual_of=dual_of
        )

    @staticmethod
    def from_predicate(name: str, member: Callable[[Permutation], bool]) -> "ClassSpec":
        return ClassSpec(f"predicate:{name}", partial(_on_permutation, member))


def _walk(
    spec: ClassSpec,
    max_len: int,
    vals: tuple[int, ...] = (),
    sites: int = 1,
    run: Any = None,
    rejected: list[tuple[int, ...]] | None = None,
    expand_to: int | None = None,
) -> Iterator[tuple[tuple[int, ...], int, Any]]:
    """Members of length <= max_len below the member vals, depth first.

    Yields (values, candidates, run) for each member, where bit s of the
    candidate mask marks site s as one the member's children may use;
    `sites` and `run` are those of vals itself.  Candidates the oracle
    rejects are appended to `rejected` when it is given.  The oracle is
    asked about each candidate c with the site s of its maximum: c is a
    member with k + 1 inserted, a bijection by construction, so none is
    validated.  It is `ClassSpec.child_member`, or `child_run` when the
    spec has one, which is also handed the parent's run and asked for
    the child's run when the child is shorter than `expand_to` (default
    max_len; count_by_length's tasks go on below the members it yields).
    """
    child_member, child_run = spec.child_member, spec.child_run
    expand_to = max_len if expand_to is None else expand_to
    stack = [(vals, sites, run)] if len(vals) < max_len else []
    while stack:
        v, cand, run = stack.pop()
        k = len(v)
        top = (k + 1,)
        expand = k + 1 < expand_to
        active = 0
        children = []
        for s in range(k + 1):
            if cand >> s & 1:
                c = v[:s] + top + v[s:]
                r = child_member(c, s) if child_run is None else child_run(c, s, run, expand)
                if r:
                    active |= 1 << s
                    children.append((s, c, r))
                elif rejected is not None:
                    rejected.append(c)
        deeper = k + 2 <= max_len
        for s, c, r in children:
            # Sites up to s keep their index; site s of v splits into the
            # two sites either side of k + 1; later sites shift right.
            c_sites = (active & ((2 << s) - 1)) | (active >> s << (s + 1))
            yield c, c_sites, r
            if deeper:
                stack.append((c, c_sites, r))


def class_members(spec: ClassSpec, max_len: int) -> Iterator[tuple[int, ...]]:
    """Value tuples of a spec's members of length 1..max_len, each
    yielded once, in the order of the generating-tree walk (of `dual_of`,
    each member read through the dual, when the spec has one)."""
    if spec.dual_of is not None:
        return map(dual_values, class_members(spec.dual_of, max_len))
    return (v for v, _, _ in _walk(spec, max_len))


def _count_walk(
    spec: ClassSpec,
    max_n: int,
    vals: tuple[int, ...] = (),
    sites: int = 1,
    run: Any = None,
) -> list[int]:
    """Members below vals by length: entry k counts those of length k."""
    counts = [0] * (max_n + 1)
    for v, _, _ in _walk(spec, max_n, vals, sites, run):
        counts[len(v)] += 1
    return counts


# With jobs > 1 the walk is split into the subtrees below the members of
# this length, one task each.
_PARTITION_LEN = 4


def count_by_length(spec: ClassSpec, max_n: int, jobs: int = 1) -> list[int]:
    """Numbers of members of each length 1..max_n, from one walk.

    The generating tree is walked to length max_n once.  With jobs > 1 and
    max_n > _PARTITION_LEN the walk is split into the subtrees below the
    members of length _PARTITION_LEN, one task each, on at most that many
    worker processes; each worker is handed the spec and the member's run
    and returns its counts by length, and the lists are summed in a fixed order, so the
    result is identical for any job count.  A spec with `dual_of` has its
    counts, since the dual keeps length, so workers only get that spec.
    """
    if spec.dual_of is not None:
        return count_by_length(spec.dual_of, max_n, jobs)
    if jobs > 1 and max_n > _PARTITION_LEN:
        counts = [0] * (max_n + 1)
        tasks = []
        for v, sites, run in _walk(spec, _PARTITION_LEN, expand_to=max_n):
            counts[len(v)] += 1
            if len(v) == _PARTITION_LEN:
                tasks.append((spec, max_n, v, sites, run))
        if tasks:
            with multiprocessing.Pool(min(jobs, len(tasks))) as pool:
                for sub in pool.starmap(_count_walk, tasks):
                    counts = [a + b for a, b in zip(counts, sub)]
        return counts[1:]
    return _count_walk(spec, max_n)[1:]


def count_members(spec: ClassSpec, n: int) -> int:
    """Number of length-n members, from the walk count_by_length makes."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1 if spec.member_values(()) else 0
    return count_by_length(spec, n)[-1]


def _by_length(vals: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return len(vals), vals


def compute_basis(spec: ClassSpec, max_len: int) -> list[Permutation]:
    """Minimal non-members up to max_len, sorted by (length, values).

    Every basis element is a candidate
    of the generating-tree walk that the oracle rejects (deleting its
    maximum leaves a member, and deleting any other entry does too), so
    the walk to max_len collects them all.  A rejected candidate of length
    m is minimal when its one-entry deletions are members; deleting m
    leaves its parent and deleting m - 1 leaves a member by the choice of
    candidates, so only the other m - 2 deletions are tested.  A spec with
    `dual_of` has the duals of that spec's basis, since the dual keeps
    pattern containment.
    """
    if max_len < 1:
        return []
    if spec.dual_of is not None:
        duals = (p.dual() for p in compute_basis(spec.dual_of, max_len))
        return sorted(duals, key=lambda p: _by_length(p.values))
    if not spec.member_values((1,)):
        raise MalformedOracleError(
            f"{spec.canonical_text}: oracle rejects the singleton permutation; "
            "basis mining expects a class containing 1"
        )
    rejected: list[tuple[int, ...]] = []
    for _ in _walk(spec, max_len, (1,), 0b11, rejected=rejected):
        pass
    rejected.sort(key=_by_length)
    # Rejected candidates share deletions; each is put to the oracle once.
    is_member = cache(spec.member_values)
    return [
        Permutation(vals)
        for vals in rejected
        if all(is_member(d) for d in _lower_deletions(vals))
    ]


def _lower_deletions(vals: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The one-entry deletions of vals that remove a value below m - 1."""
    m = len(vals)
    for t, v in enumerate(vals):
        if v < m - 1:
            yield tuple(w - (w > v) for s, w in enumerate(vals) if s != t)


def wilf_table(specs: Sequence[ClassSpec], max_n: int) -> list[tuple[int, ...]]:
    """Counts by length: row n - 1 holds each spec's count at n."""
    columns = [count_by_length(spec, max_n) for spec in specs]
    return [tuple(column[n] for column in columns) for n in range(max_n)]


def simples_in_class(basis: Iterable[Permutation], max_len: int) -> list[Permutation]:
    """All simple permutations of length <= max_len avoiding the basis.

    Walks the generating tree of Av(basis) and keeps its simple members,
    sorted by (length, values).
    """
    members = class_members(ClassSpec.from_basis(basis), max_len)
    simples = [v for v in members if is_simple_values(v)]
    simples.sort(key=_by_length)
    return [Permutation(v) for v in simples]


# ---------------------------------------------------------------------------
# Structural recognizer for the class avoiding 2431, 3142 and 3241 (the
# PS-sortable permutations).  A member is a sum of members, or a skew sum
# of a reverse layered permutation over a member, or an inflation of a
# parallel alternation 24...(2m)13...(2m-1) whose even entries become
# increasing intervals and whose odd entries become members.  It works on
# value tuples: the quotient and block spans come from the tuple core of
# the substitution decomposition, and no Permutation is built per call.
# ---------------------------------------------------------------------------

_structural_memo: dict[tuple[int, ...], bool] = {}


def structural_member(p: Permutation) -> bool:
    """Membership test for Av(2431, 3142, 3241) by shape.

    A sum or skew chain is walked in a loop, in one frame at any length,
    and only the permutation asked is memoized; nested shapes, such as a
    sum inside a skew sum inside a sum, recurse once per level."""
    return _structural(p.values)


def _structural(vals: tuple[int, ...]) -> bool:
    # Test the chain's first summand or first layer, then go on with the
    # rest.  A suffix found in the memo answers for the chain, but only
    # the permutation asked (length 2 or more) is memoized.
    asked = vals
    result = True
    while len(vals) > 1:
        cached = _structural_memo.get(vals)
        if cached is not None:
            result = cached
            break
        qv, spans = substitution_decompose_values(vals)
        if len(qv) == 2:
            # Direct sums: the first summand and the rest must both be
            # members.  Skew sums: a reverse layered permutation over a
            # member.  The first part is skew indecomposable, so it is the
            # first layer and must be increasing; the rest, the other layers
            # over the member, must be a member.
            (a, b), (c, d) = spans
            first_ok = _structural(_part(vals, a, b)) if qv == (1, 2) else _is_run(vals, a, b)
            if first_ok:
                vals = _part(vals, c, d)
                continue
            result = False
        else:
            # Inflations of a parallel alternation, whose simple quotient
            # and blocks are unique.
            m = len(qv) // 2
            result = (
                m >= 2
                and qv == _alternation(m)
                and all(_is_run(vals, a, b) for a, b in spans[:m])
                and all(_structural(_part(vals, a, b)) for a, b in spans[m:])
            )
        break
    if len(asked) > 1:
        _structural_memo[asked] = result
    return result


def _is_run(vals: tuple[int, ...], a: int, b: int) -> bool:
    """True iff vals[a:b] is increasing by steps of one."""
    return vals[a:b] == tuple(range(vals[a], vals[a] + b - a))


def _part(vals: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """Block vals[a:b] of a decomposition rank-normalised.  The block holds
    an interval of values, so subtracting its minimum less one suffices."""
    block = vals[a:b]
    shift = min(block) - 1
    return tuple(w - shift for w in block) if shift else block


@cache
def _alternation(m: int) -> tuple[int, ...]:
    """Values of parallel_alternation(m), without building it."""
    return tuple(range(2, 2 * m + 1, 2)) + tuple(range(1, 2 * m, 2))
