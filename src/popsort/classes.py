"""Class-level computations: counting, basis mining, Wilf tables, simples.

A `ClassSpec` wraps a membership oracle (a finite basis, a machine kind,
or an arbitrary named predicate) together with a canonical text and a
stable fingerprint used as a cache key.

Machine and basis classes are downward closed: deleting an entry of a
member leaves a member.  They are counted and mined by a depth-first walk
of the generating tree (West, 1995), in which a member of length k + 1
is the child of the member of length k left by deleting its maximum.
Inserting k + 1 into a member v of length k at site s (0 <= s <= k, the
number of entries before it) gives a child when the oracle accepts it;
the accepted sites are the active sites of v.  A member c made from v at
site s can only have a child at site j when the matching site of v,
j if j <= s else j - 1, is active: deleting k + 1 from that child leaves v
with the maximum at the matching site.  So each member is made once, by
an oracle call on one of the |active(v)| + 1 candidates of its parent,
and the walk keeps no set of members.  The walk's oracle takes value
tuples (`ClassSpec.member_values`): a candidate is a bijection by
construction, so machine specs hand it straight to the kind's search
(`machines.decider`) and basis specs to `avoids_values`, and no
Permutation is built per candidate; predicate specs wrap the tuple in a
Permutation for their predicate.  Predicate-backed classes are not
assumed closed and are counted by a scan of all n! permutations.
"""
from __future__ import annotations

import hashlib
import multiprocessing
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Iterator, Sequence

from . import machines
from .machines import MachineKind
from .perms import (
    EMPTY,
    Permutation,
    all_perms,
    avoids,  # unused here, but perfbench's tracer wraps classes.avoids
    avoids_values,
    is_simple_values,
    substitution_decompose_values,
)


class MalformedOracleError(RuntimeError):
    """The membership oracle cannot describe a permutation class."""


class ClassSpec:
    """A named membership oracle with a canonical text and fingerprint.

    `member` takes a Permutation and is the public oracle.  `member_values`
    decides the same membership on a value tuple that the caller vouches
    is a bijection on 1..len, as the walks' candidates are by construction.
    Machine and basis specs have one oracle, on value tuples, and `member`
    hands it `p.values`; predicate specs have one on Permutations, and
    `member_values` wraps the tuple and asks `member`.  `descriptor` is a
    picklable recipe for rebuilding the spec inside worker processes;
    predicate-backed specs have none and always scan serially.
    """

    __slots__ = ("name", "canonical_text", "fingerprint", "descriptor", "_member",
                 "member_values")

    def __init__(
        self,
        name: str,
        canonical_text: str,
        member: Callable[[Permutation], bool],
        descriptor: tuple | None = None,
        member_values: Callable[[tuple[int, ...]], bool] | None = None,
    ):
        self.name = name
        self.canonical_text = canonical_text
        self.fingerprint = hashlib.sha256(canonical_text.encode()).hexdigest()[:16]
        self.descriptor = descriptor
        self._member = member
        self.member_values = member_values or (lambda vals: member(Permutation(vals)))

    def member(self, p: Permutation) -> bool:
        return self._member(p)

    def __repr__(self) -> str:
        return f"ClassSpec({self.canonical_text!r})"

    @staticmethod
    def from_basis(patterns: Iterable[Permutation], name: str | None = None) -> "ClassSpec":
        pats = tuple(sorted(set(patterns), key=lambda p: (len(p), p.values)))
        text = "basis:" + ";".join(str(p) for p in pats)
        pattern_values = tuple(p.values for p in pats)

        def member_values(vals: tuple[int, ...]) -> bool:
            return avoids_values(vals, pattern_values)

        return ClassSpec(
            name or f"Av({','.join(str(p).replace(',', '') for p in pats)})",
            text,
            lambda p: member_values(p.values),
            descriptor=("basis", pattern_values),
            member_values=member_values,
        )

    @staticmethod
    def from_machine(kind: MachineKind) -> "ClassSpec":
        member_values = machines.decider(kind)
        return ClassSpec(
            f"{kind.name}-sortable",
            f"machine:{kind.value}",
            lambda p: member_values(p.values),
            descriptor=("machine", kind.value),
            member_values=member_values,
        )

    @staticmethod
    def from_predicate(name: str, member: Callable[[Permutation], bool]) -> "ClassSpec":
        return ClassSpec(name, f"predicate:{name}", member)


def _rebuild_spec(descriptor: tuple) -> ClassSpec:
    tag, payload = descriptor
    if tag == "machine":
        return ClassSpec.from_machine(MachineKind.from_name(payload))
    if tag == "basis":
        return ClassSpec.from_basis(Permutation(vals) for vals in payload)
    raise ValueError(f"unknown spec descriptor {descriptor!r}")


def _walk(
    member_values: Callable[[tuple[int, ...]], bool],
    max_len: int,
    vals: tuple[int, ...] = (),
    sites: int = 1,
    rejected: list[tuple[int, ...]] | None = None,
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Members of length <= max_len below the member vals, depth first.

    Yields (values, candidates) for each member, where bit s of the
    candidate mask marks site s as one the member's children may use;
    `sites` is that mask for vals itself.  Candidates the oracle rejects
    are appended to `rejected` when it is given.  The oracle takes value
    tuples (`ClassSpec.member_values`): every candidate is a member with
    k + 1 inserted, a bijection by construction, so none is validated.  It
    must describe a downward-closed class.
    """
    stack = [(vals, sites)] if len(vals) < max_len else []
    while stack:
        v, cand = stack.pop()
        k = len(v)
        top = (k + 1,)
        active = 0
        children = []
        for s in range(k + 1):
            if cand >> s & 1:
                c = v[:s] + top + v[s:]
                if member_values(c):
                    active |= 1 << s
                    children.append((s, c))
                elif rejected is not None:
                    rejected.append(c)
        deeper = k + 2 <= max_len
        for s, c in children:
            # Sites up to s keep their index; site s of v splits into the
            # two sites either side of k + 1; later sites shift right.
            c_sites = (active & ((2 << s) - 1)) | (active >> s << (s + 1))
            yield c, c_sites
            if deeper:
                stack.append((c, c_sites))


def _count_walk(
    member_values: Callable[[tuple[int, ...]], bool],
    max_n: int,
    vals: tuple[int, ...] = (),
    sites: int = 1,
) -> list[int]:
    """Members below vals by length: entry k counts those of length k."""
    counts = [0] * (max_n + 1)
    for v, _ in _walk(member_values, max_n, vals, sites):
        counts[len(v)] += 1
    return counts


def _scan_count(spec: ClassSpec, n: int) -> int:
    return sum(1 for p in all_perms(n) if spec.member(p))


# With jobs > 1 the walk is split into the subtrees below the members of
# this length, one task each.
_PARTITION_LEN = 4


def _count_subtree(args: tuple) -> list[int]:
    descriptor, max_n, vals, sites = args
    return _count_walk(_rebuild_spec(descriptor).member_values, max_n, vals, sites)


def count_by_length(spec: ClassSpec, max_n: int, jobs: int = 1) -> list[int]:
    """Numbers of members of each length 1..max_n, from one walk.

    Machine and basis specs (the ones with a descriptor) are downward
    closed and are counted by walking the generating tree to length max_n
    once.  With jobs > 1 and max_n > _PARTITION_LEN the walk is split into
    the subtrees below the members of length _PARTITION_LEN; each worker
    process returns its counts by length and the lists are summed in a
    fixed order, so the result is identical for any job count.
    Predicate-backed specs, which may not be closed and cannot cross a
    process boundary, are counted by a serial scan of all n! permutations
    of each length.
    """
    if spec.descriptor is None:
        return [_scan_count(spec, n) for n in range(1, max_n + 1)]
    if jobs > 1 and max_n > _PARTITION_LEN:
        counts = [0] * (max_n + 1)
        tasks = []
        for v, sites in _walk(spec.member_values, _PARTITION_LEN):
            counts[len(v)] += 1
            if len(v) == _PARTITION_LEN:
                tasks.append((spec.descriptor, max_n, v, sites))
        with multiprocessing.Pool(jobs) as pool:
            for sub in pool.map(_count_subtree, tasks):
                counts = [a + b for a, b in zip(counts, sub)]
        return counts[1:]
    return _count_walk(spec.member_values, max_n)[1:]


def count_members(spec: ClassSpec, n: int, jobs: int = 1) -> int:
    """Number of length-n members.

    Walks the generating tree to length n as count_by_length does, or
    scans the n! permutations of length n for a predicate-backed spec.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1 if spec.member(EMPTY) else 0
    if spec.descriptor is None:
        return _scan_count(spec, n)
    return count_by_length(spec, n, jobs)[-1]


def _by_length(vals: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return len(vals), vals


def compute_basis(spec: ClassSpec, max_len: int) -> list[Permutation]:
    """Minimal non-members up to max_len, sorted by (length, values).

    Requires a downward-closed oracle.  Every basis element is a candidate
    of the generating-tree walk that the oracle rejects (deleting its
    maximum leaves a member, and deleting any other entry does too), so
    the walk to max_len collects them all.  A rejected candidate of length
    m is minimal when its one-entry deletions are members; deleting m
    leaves its parent and deleting m - 1 leaves a member by the choice of
    candidates, so only the other m - 2 deletions are tested.
    """
    if max_len < 1:
        return []
    if not spec.member_values((1,)):
        raise MalformedOracleError(
            f"{spec.name}: oracle rejects the singleton permutation; "
            "basis mining expects a class containing 1"
        )
    rejected: list[tuple[int, ...]] = []
    for _ in _walk(spec.member_values, max_len, (1,), 0b11, rejected):
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


@dataclass(frozen=True)
class WilfRow:
    n: int
    counts: tuple[int, ...]
    all_equal: bool


@dataclass(frozen=True)
class WilfTable:
    spec_names: tuple[str, ...]
    rows: tuple[WilfRow, ...]

    @property
    def all_equal(self) -> bool:
        return all(row.all_equal for row in self.rows)

    def to_csv(self) -> str:
        """One row per n: n, then one count column per spec."""
        lines = [",".join(["n", *self.spec_names])]
        for row in self.rows:
            lines.append(",".join([str(row.n), *(str(c) for c in row.counts)]))
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "specs": list(self.spec_names),
            "rows": [
                {"n": row.n, "counts": list(row.counts), "all_equal": row.all_equal}
                for row in self.rows
            ],
            "all_equal": self.all_equal,
        }


def wilf_table(specs: Sequence[ClassSpec], max_n: int, jobs: int = 1) -> WilfTable:
    """Counts of each spec for each n <= max_n, with equality flags."""
    columns = [count_by_length(spec, max_n, jobs=jobs) for spec in specs]
    rows = []
    for n in range(1, max_n + 1):
        counts = tuple(column[n - 1] for column in columns)
        rows.append(WilfRow(n, counts, len(set(counts)) <= 1))
    return WilfTable(tuple(spec.name for spec in specs), tuple(rows))


def simples_in_class(basis: Iterable[Permutation], max_len: int) -> list[Permutation]:
    """All simple permutations of length <= max_len avoiding the basis.

    Walks the generating tree of Av(basis) and keeps its simple members,
    sorted by (length, values).
    """
    spec = ClassSpec.from_basis(basis)
    simples = [v for v, _ in _walk(spec.member_values, max_len) if is_simple_values(v)]
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
    """Recursive membership test for Av(2431, 3142, 3241) by shape."""
    return _structural(p.values)


def _structural(vals: tuple[int, ...]) -> bool:
    if len(vals) <= 1:
        return True
    cached = _structural_memo.get(vals)
    if cached is not None:
        return cached
    result = _structural_uncached(vals)
    _structural_memo[vals] = result
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


def _structural_uncached(vals: tuple[int, ...]) -> bool:
    qv, spans = substitution_decompose_values(vals)
    # Direct sums: the first summand and the rest must both be members.
    if qv == (1, 2):
        (a, b), (c, d) = spans
        return _structural(_part(vals, a, b)) and _structural(_part(vals, c, d))
    # Skew sums: a reverse layered permutation over a member.  The first
    # part is skew indecomposable, so it is the first layer and must be
    # increasing; the rest, the other layers over the member, must be a
    # member.
    if qv == (2, 1):
        (a, b), (c, d) = spans
        return _is_run(vals, a, b) and _structural(_part(vals, c, d))
    # Inflations of a parallel alternation, whose simple quotient and
    # blocks are unique.
    m = len(qv) // 2
    if m >= 2 and qv == _alternation(m):
        return all(_is_run(vals, a, b) for a, b in spans[:m]) and all(
            _structural(_part(vals, a, b)) for a, b in spans[m:]
        )
    return False
