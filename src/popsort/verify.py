"""The invariant registry behind `popsort verify` and the acceptance suite.

Each check pits at least two independent routes against each other
(simulator vs basis vs division, closed form vs fixed point vs brute
force, pruned vs unpruned search, searches vs value-blind runs,
backtracking vs naive enumeration) over exhaustive desk-scale ranges.
`_CHECKS` is the one registry of them.  An entry holds a name, a fast
bound, a full bound and a check that takes its bound and returns (ok,
detail); the entries that state one of the paper's thirteen exit criteria
also carry its id.  `popsort verify --suite fast` runs every entry at its
fast bound (n <= 6 territory, about 3 s); `--suite all` runs the full
bounds in about 55 s (2-vCPU host, Python 3.11.7).  The acceptance tests
run the criterion-tagged entries at their full bounds.
"""
from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from functools import cache
from typing import Any, Callable, Iterable, NamedTuple

from . import machines, series
from .antichain import (
    check_antichain,
    check_basis_element,
    forbidden_divided_patterns,
    in_avoidance_class,
)
from .classes import ClassSpec, _walk, class_members, compute_basis, count_by_length, simples_in_class, structural_member, wilf_table
from .divided import (
    DividedPermutation,
    all_divisions,
    div_contains,
    exists_division_avoiding,
    local_reversal_image,
    parse_divided,
)
from .machines import (
    DIVIDED_OBSTRUCTIONS,
    PQS_BASIS_CONJECTURE_LEN,
    PQS_BASIS_CONJECTURED_COUNT,
    PQS_SEQUENCE,
    PS_BASIS,
    MachineKind,
)
from .perms import (
    Permutation,
    all_perms,
    contains,
    dual_values,
    identity,
    inflate,
    is_simple,
    one_entry_deletions,
    parallel_alternation,
    parse,
    pattern_of,
    substitution_decompose,
)


class Check(NamedTuple):
    """One registry entry; `run(bound)` returns (ok, detail)."""

    name: str
    fast: Any
    full: Any
    run: Callable[[Any], tuple[bool, str]]
    criterion: str | None = None


_CHECKS: list[Check] = []


def _check(name: str, fast: Any, full: Any, criterion: str | None = None):
    def register(fn: Callable[[Any], tuple[bool, str]]):
        _CHECKS.append(Check(name, fast, full, fn, criterion))
        return fn

    return register


def _perms_upto(max_n: int, start: int = 0) -> Iterable[Permutation]:
    for n in range(start, max_n + 1):
        yield from all_perms(n)


def _members_upto(spec: ClassSpec, bound: int) -> set[tuple[int, ...]]:
    """Value tuples of the spec's members of length <= bound, built whole by
    the class walk, which starts below the empty permutation: a member of
    every class checked here."""
    return {(), *class_members(spec, bound)}


# -- independent naive oracles ----------------------------------------------

def _subsets(hv: tuple[int, ...], sizes: Iterable[int]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each index subset of hv with a size in `sizes`, with its pattern."""
    return [
        (idx, pattern_of([hv[i] for i in idx]))
        for k in sizes for idx in itertools.combinations(range(len(hv)), k)
    ]


def _cuts(block_ids: tuple[int, ...], idx: Iterable[int]) -> tuple[bool, ...]:
    """For each pair of neighbouring entries of idx, whether a block ends
    between them: the partition that the blocks cut idx into."""
    ids = [block_ids[i] for i in idx]
    return tuple(a != b for a, b in zip(ids, ids[1:]))


def _occurring(subsets: list[tuple[tuple[int, ...], tuple[int, ...]]],
               block_ids: tuple[int, ...]) -> set[tuple[tuple[int, ...], tuple[bool, ...]]]:
    """The (base, cuts) pair of every divided pattern occurring on those
    subsets of a host with these block ids.

    A divided pattern occurs on an occurrence of its base when the block
    map, pattern block to the host block holding its entries, is a
    bijection onto the host blocks met.  Blocks on both sides are runs of
    neighbouring entries, so that holds exactly when neighbouring entries
    share a pattern block iff they share a host block: when the cuts agree.
    """
    return {(pat, _cuts(block_ids, idx)) for idx, pat in subsets}


def _divided_key(pattern: DividedPermutation) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    return pattern.base.values, _cuts(pattern.block_ids(), range(len(pattern)))


def naive_contains(pattern: Permutation, host: Permutation) -> bool:
    """Containment by checking every index subset of the host."""
    return any(pat == pattern.values for _, pat in _subsets(host.values, (len(pattern),)))


def naive_div_contains(pattern: DividedPermutation, host: DividedPermutation) -> bool:
    """Divided containment: some index subset of the host has the pattern's
    base and cuts (`_occurring`)."""
    base, cuts = _divided_key(pattern)
    hb = host.block_ids()
    return any(pat == base and _cuts(hb, idx) == cuts
               for idx, pat in _subsets(host.base.values, (len(pattern),)))


# The value-blind machines as device chains, first device first.
_CHAINS = {
    MachineKind.S: ("stack",),
    MachineKind.PS: ("pop", "stack"),
    MachineKind.PQS: ("pop", "queue", "stack"),
    MachineKind.SP: ("stack", "pop"),
    MachineKind.SQP: ("stack", "queue", "pop"),
}


def generated_class(kind: MachineKind, n: int) -> set[tuple[int, ...]]:
    """The kind's members of length n, from every run of its device chain
    fed 1..n.  No move compares values, so a run that turns 1..n into tau
    turns the inverse of tau into 1..n: the members are the inverses of the
    distinct outputs.  A device receives entries at its end; a stack lets
    out its last entry, a queue its first, a pop stack all, last first."""
    chain = _CHAINS[kind]
    start = (0, ((),) * len(chain), ())
    seen = {start}
    todo = [start]
    outputs = set()
    while todo:
        fed, devices, out = todo.pop()
        if len(out) == n:
            outputs.add(out)
            continue
        nexts = []
        if fed < n:
            nexts.append((fed + 1, (devices[0] + (fed + 1,),) + devices[1:], out))
        for d, device in enumerate(chain):
            held = devices[d]
            if not held:
                continue
            if device == "stack":
                moved, kept = held[-1:], held[:-1]
            elif device == "queue":
                moved, kept = held[:1], held[1:]
            else:
                moved, kept = held[::-1], ()
            after = list(devices)
            after[d] = kept
            if d + 1 < len(chain):
                after[d + 1] += moved
                nexts.append((fed, tuple(after), out))
            else:
                nexts.append((fed, tuple(after), out + moved))
        for state in nexts:
            if state not in seen:
                seen.add(state)
                todo.append(state)
    return {Permutation(out).inverse().values for out in outputs}


# -- permutation core ---------------------------------------------------------

@_check("symmetries-are-involutions", fast=5, full=8)
def _chk_involutions(bound: int):
    for p in _perms_upto(bound):
        for op in ("reverse", "complement", "inverse", "dual"):
            if getattr(getattr(p, op)(), op)() != p:
                return False, f"{op} not an involution on {p}"
    return True, f"reverse/complement/inverse/dual involutive for n <= {bound}"


@_check("dual-matches-reverse-inverse-reverse", fast=5, full=8)
def _chk_dual_formula(bound: int):
    for p in _perms_upto(bound):
        if p.dual() != p.reverse().inverse().reverse():
            return False, f"dual mismatch on {p}"
    return True, f"both dual implementations agree for n <= {bound}"


@_check("substitution-decomposition-roundtrip", fast=6, full=8)
def _chk_decompose(bound: int):
    for p in _perms_upto(bound, start=1):
        quotient, parts = substitution_decompose(p)
        if not is_simple(quotient):
            return False, f"non-simple quotient for {p}"
        if inflate(quotient, parts) != p:
            return False, f"roundtrip failed for {p}"
    return True, f"inflate(decompose(p)) == p with simple quotient for n <= {bound}"


@_check("contains-agrees-with-naive-oracle", fast=(4, 6), full=(4, 7))
def _chk_contains_oracle(bounds: tuple[int, int]):
    pat_bound, host_bound = bounds
    pats = list(_perms_upto(pat_bound, start=1))
    for host in _perms_upto(host_bound):
        occurring = {pat for _, pat in _subsets(host.values, range(pat_bound + 1))}
        for pat in pats:
            if contains(pat, host) != (pat.values in occurring):
                return False, f"contains({pat}, {host}) disagrees with naive oracle"
    return True, f"backtracking == subset scan for |pat| <= {pat_bound}, |host| <= {host_bound}"


@_check("containment-reflexive-transitive", fast=(5, 200, 20240), full=(7, 600, 20241))
def _chk_contains_order(bounds: tuple[int, int, int]):
    bound, trials, seed = bounds
    for p in _perms_upto(bound):
        if not contains(p, p):
            return False, f"containment not reflexive on {p}"
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(1, bound)
        host = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        k = rng.randint(1, n)
        mid = Permutation(pattern_of([host.values[i] for i in sorted(rng.sample(range(n), k))]))
        j = rng.randint(1, k)
        small = Permutation(pattern_of([mid.values[i] for i in sorted(rng.sample(range(k), j))]))
        if not (contains(mid, host) and contains(small, mid) and contains(small, host)):
            return False, f"transitivity broken for {small} <= {mid} <= {host}"
    return True, f"reflexive (n <= {bound}) and transitive on {trials} sampled chains"


# -- divided permutations -----------------------------------------------------

@_check("div-contains-agrees-with-naive-oracle", fast=5, full=6)
def _chk_div_oracle(bound: int):
    pattern_pool = [
        "21", "2|1", "132", "2|13", "32|1", "2|3|1", "31|42", "2|34|1", "2341",
    ]
    pats = [parse_divided(t) for t in pattern_pool]
    keys = [_divided_key(pat) for pat in pats]
    sizes = range(max(map(len, pats)) + 1)
    for host_perm in _perms_upto(bound):
        subsets = _subsets(host_perm.values, sizes)
        for host in all_divisions(host_perm):
            occurring = _occurring(subsets, host.block_ids())
            for pat, key in zip(pats, keys):
                if div_contains(pat, host) != (key in occurring):
                    return False, f"div_contains({pat}, {host}) disagrees with oracle"
    return True, f"block-aware backtracking == naive scan for hosts n <= {bound}"


@_check("undivided-div-contains-degenerates-to-contains", fast=5, full=6)
def _chk_div_degenerate(bound: int):
    pats = [DividedPermutation(p) for p in _perms_upto(3, start=1)]
    for host_perm in _perms_upto(bound):
        host = DividedPermutation(host_perm)
        for pat in pats:
            if div_contains(pat, host) != contains(pat.base, host_perm):
                return False, f"degenerate mismatch: {pat.base} in {host_perm}"
    return True, f"single-block semantics match plain containment for n <= {bound}"


@_check("division-search-equals-naive-first-division", fast=4, full=5)
def _chk_division_search(bound: int):
    # The reference is the first division in all_divisions order that the
    # naive oracle finds free of every pattern, so it shares neither the
    # placement order nor the grouped matcher with the search.  The sets
    # are the library's three, then every nonempty set of divisions of one
    # base of length 2 or 3.
    sets = [
        DIVIDED_OBSTRUCTIONS[MachineKind.PS],
        DIVIDED_OBSTRUCTIONS[MachineKind.PQS],
        forbidden_divided_patterns(),
    ]
    for base in _perms_upto(3, start=2):
        divisions = list(all_divisions(base))
        for picks in itertools.product((False, True), repeat=len(divisions)):
            if any(picks):
                sets.append(tuple(itertools.compress(divisions, picks)))
    patterns = list(dict.fromkeys(pat for pats in sets for pat in pats))
    bit = {_divided_key(pat): 1 << t for t, pat in enumerate(patterns)}
    set_bits = [sum(bit[_divided_key(pat)] for pat in pats) for pats in sets]
    sizes = range(max(map(len, patterns)) + 1)
    for p in _perms_upto(bound):
        subsets = _subsets(p.values, sizes)
        divisions = list(all_divisions(p))
        # hits[d]: the patterns that occur in division d, one bit each
        hits = [
            sum(bit.get(key, 0) for key in _occurring(subsets, d.block_ids()))
            for d in divisions
        ]
        for pats, bits in zip(sets, set_bits):
            expected = next((d for d, h in zip(divisions, hits) if not h & bits), None)
            if exists_division_avoiding(p, pats) != expected:
                return False, (
                    f"first division of {p} avoiding {[str(q) for q in pats]} "
                    f"is not {expected}"
                )
    return True, (
        f"search == first naive-avoiding division for {len(sets)} pattern sets "
        f"({len(patterns)} patterns), hosts n <= {bound}"
    )


# -- machines ------------------------------------------------------------------

@_check("single-stack-sorts-iff-avoids-231", fast=6, full=8)
def _chk_single_stack(bound: int):
    pat = parse("231")
    for p in _perms_upto(bound):
        if machines.is_sortable(MachineKind.S, p) != (not contains(pat, p)):
            return False, f"single stack disagrees with 231 avoidance on {p}"
    return True, f"S == Av(231) for n <= {bound}"


@_check("ps-triple-characterization", fast=5, full=8, criterion="02")
def _chk_ps_triple(bound: int):
    avoiders = _members_upto(ClassSpec.from_basis(PS_BASIS), bound)
    for p in _perms_upto(bound):
        sim = machines.is_sortable(MachineKind.PS, p)
        if sim != (p.values in avoiders):
            return False, f"PS basis route disagrees on {p}"
        if sim != machines.is_sortable_by_division(MachineKind.PS, p):
            return False, f"PS division route disagrees on {p}"
    return True, f"simulator == basis == division for n <= {bound}"


@_check("pqs-triple-characterization", fast=6, full=8)
def _chk_pqs_triple(bound: int):
    # The 231-avoiders are the single-stack class (entry
    # `single-stack-sorts-iff-avoids-231`).  p is reachable by local
    # reversals of a 231-avoider exactly when it lies in their image.
    stack_sortable = _members_upto(ClassSpec.from_machine(MachineKind.S), bound)
    reachable = local_reversal_image(stack_sortable)
    for p in _perms_upto(bound):
        sim = machines.is_sortable(MachineKind.PQS, p)
        if sim != machines.is_sortable_by_division(MachineKind.PQS, p):
            return False, f"PQS division route disagrees on {p}"
        if sim != (p.values in reachable):
            return False, f"PQS local-reversal route disagrees on {p}"
    return True, f"simulator == division == local reversals of 231-avoiders for n <= {bound}"


# Criterion 06 compares the classes that the value-blind runs generate, so
# it shares no code with the searches; `deciders-equal-generated-classes`
# ties the searches, and the class walks (SP and SQP the PQS walk read
# through the dual), to those classes.

@_check("sp-equals-sqp", fast=5, full=7, criterion="06")
def _chk_sp_sqp(bound: int):
    for n in range(bound + 1):
        if generated_class(MachineKind.SP, n) != generated_class(MachineKind.SQP, n):
            return False, f"SP and SQP generate different classes at length {n}"
    return True, f"SP == SQP for n <= {bound}"


@_check("pqs-equals-sp-of-dual", fast=5, full=7, criterion="06")
def _chk_pqs_dual(bound: int):
    for n in range(bound + 1):
        sp_duals = {dual_values(v) for v in generated_class(MachineKind.SP, n)}
        if generated_class(MachineKind.PQS, n) != sp_duals:
            return False, f"PQS and the duals of SP differ at length {n}"
    return True, f"PQS(p) == SP(dual(p)) for n <= {bound}"


@_check("deciders-equal-generated-classes", fast=7, full=8)
def _chk_generated_classes(bound: int):
    for kind in _CHAINS:
        decide = machines.decider(kind)
        walked: dict[int, set[tuple[int, ...]]] = {n: set() for n in range(1, bound + 1)}
        for v in class_members(ClassSpec.from_machine(kind), bound):
            walked[len(v)].add(v)
        for n in range(bound + 1):
            members = generated_class(kind, n)
            if n and walked[n] != members:
                return False, f"{kind.name} class walk disagrees with the generated class at length {n}"
            for p in all_perms(n):
                member = p.values in members
                if decide(p.values) != member:
                    return False, f"{kind.name} decider disagrees with the generated class on {p}"
                if (kind in (MachineKind.SP, MachineKind.SQP)
                        and (machines.sorting_witness(kind, p) is not None) != member):
                    return False, f"{kind.name} witness presence disagrees with the generated class on {p}"
    return True, (
        f"S, PS, PQS, SP and SQP deciders and class walks, and SP and SQP witness presence, "
        f"== the classes their value-blind runs generate for n <= {bound}"
    )


@_check("di-separations", fast=None, full=None, criterion="07")
def _chk_di_separations(_bound: None):
    pqs, di = MachineKind.PQS, MachineKind.DI
    for p, sorter, other in ((parse("3142"), pqs, di), (parse("465132"), di, pqs)):
        if not machines.is_sortable(sorter, p) or machines.is_sortable(other, p):
            return False, f"{p} does not separate {sorter.name} from {other.name}"
    return True, "PQS sorts 3142 and DI does not; DI sorts 465132 and PQS does not"


@_check("ps-implies-pqs-and-di", fast=5, full=7)
def _chk_ps_subsets(bound: int):
    for p in _perms_upto(bound):
        if machines.is_sortable(MachineKind.PS, p):
            if not machines.is_sortable(MachineKind.PQS, p):
                return False, f"PS-sortable {p} not PQS-sortable"
            if not machines.is_sortable(MachineKind.DI, p):
                return False, f"PS-sortable {p} not DI-sortable"
    return True, f"PS subset of PQS and of DI for n <= {bound}"


@_check("ps-sum-closure", fast=7, full=8)
def _chk_sum_closure(total: int):
    sortable = [
        p for n in range(1, total) for p in all_perms(n)
        if machines.is_sortable(MachineKind.PS, p)
    ]
    for a in sortable:
        for b in sortable:
            if len(a) + len(b) > total:
                continue
            if not machines.is_sortable(MachineKind.PS, a.direct_sum(b)):
                return False, f"sum closure fails for {a} (+) {b}"
    return True, f"PS-sortable closed under direct sums up to total length {total}"


@_check("pruned-search-equals-unpruned", fast=4, full=6, criterion="13")
def _chk_pruning(bound: int):
    for p in _perms_upto(bound):
        for kind in MachineKind:
            if machines.is_sortable(kind, p) != machines.is_sortable_unpruned(kind, p):
                return False, f"pruned vs unpruned disagree for {kind.name} on {p}"
    return True, f"all six decisions match the raw move graph for n <= {bound}"


@_check("witnesses-replay-to-identity", fast=5, full=7, criterion="12")
def _chk_witness_replay(bound: int):
    for p in _perms_upto(bound):
        for kind in MachineKind:
            witness = machines.sorting_witness(kind, p)
            if (witness is not None) != machines.is_sortable(kind, p):
                return False, f"{kind.name} witness presence on {p} disagrees with sortability"
            if witness is not None and machines.replay(kind, p, witness) != identity(len(p)):
                return False, f"witness for {kind.name} on {p} does not replay"
    trace = machines.moves_from_text("I,I,I,F,I,I,F,O,O,O,I,F,O,O,O")
    if machines.replay(MachineKind.PS, parse("356124"), trace) != parse("123456"):
        return False, "the worked PS trace does not sort 356124"
    return True, (
        f"a witness exists iff sortable and replays to the identity for n <= {bound}; "
        "the worked PS trace sorts 356124"
    )


# -- classes -------------------------------------------------------------------

@_check("ps-machine-basis", fast=6, full=6, criterion="01")
def _chk_ps_machine_basis(bound: int):
    mined = compute_basis(ClassSpec.from_machine(MachineKind.PS), bound)
    if mined != list(PS_BASIS):
        return False, f"PS basis mining returned {[str(m) for m in mined]}"
    return True, f"PS basis mining to length {bound} returns exactly 2431, 3142, 3241"


@_check("pqs-counts", fast=7, full=9, criterion="03")
def _chk_pqs_counts(bound: int):
    counts = count_by_length(ClassSpec.from_machine(MachineKind.PQS), bound)
    if counts != list(PQS_SEQUENCE[:bound]):
        return False, f"PQS counts {counts} differ from {list(PQS_SEQUENCE[:bound])}"
    return True, f"PQS counts for n <= {bound} are {counts}"


@_check("pqs-basis-sound", fast=7, full=9, criterion="04")
def _chk_pqs_basis(bound: int):
    # Every mined element must be a minimal unsortable permutation; how
    # many there are is the paper's conjecture and is reported, not checked.
    sortable = lambda q: machines.is_sortable(MachineKind.PQS, q)
    basis = compute_basis(ClassSpec.from_machine(MachineKind.PQS), bound)
    for element in basis:
        if sortable(element) or not all(sortable(d) for d in one_entry_deletions(element)):
            return False, f"mined element {element} is not a minimal unsortable permutation"
    detail = (
        f"{len(basis)} mined elements to length {bound} are unsortable with "
        f"every one-entry deletion sortable (conjectured {PQS_BASIS_CONJECTURED_COUNT} "
        f"at {PQS_BASIS_CONJECTURE_LEN})"
    )
    if bound >= PQS_BASIS_CONJECTURE_LEN and len(basis) != PQS_BASIS_CONJECTURED_COUNT:
        detail += "; CONJECTURE-MISMATCH"
    return True, detail


def _pqs_path_moves(v: tuple[int, ...], ends: tuple[int, ...]) -> list[machines.Move]:
    """The PQS moves of the block path with these ends on v.  After each
    block the next-needed value is the least value not read."""
    path = [(i, min(set(range(1, i + 2)).difference(v[:i]))) for i in ends]
    return machines.block_path_moves(MachineKind.PQS, v, path)


@_check("pqs-walk-site-test-sound", fast=6, full=8)
def _chk_pqs_site_test(bound: int):
    # The PQS walk takes a child its parent's site test accepts with no
    # search.  On the runs the walk itself carries, each member's path must
    # sort it, and each such child must be sortable and sorted by its path.
    pqs = MachineKind.PQS
    accepted = 0
    for v, _, run in _walk(ClassSpec.from_machine(pqs), bound):
        if len(v) == bound:
            continue
        if machines.replay(pqs, Permutation(v), _pqs_path_moves(v, run.ends)) != identity(len(v)):
            return False, f"the path the walk carries for {Permutation(v)} does not sort it"
        for s in range(len(v) + 1):
            ends = machines.pqs_child_ends(run, s)
            if ends is None:
                continue
            accepted += 1
            c = Permutation(v[:s] + (len(v) + 1,) + v[s:])
            if not machines.is_sortable(pqs, c):
                return False, f"the site test accepts {c}, which PQS cannot sort"
            if machines.replay(pqs, c, _pqs_path_moves(c.values, ends)) != identity(len(c)):
                return False, f"the path the site test gives {c} does not sort it"
    return True, (
        f"{accepted} children the PQS walk's site test accepts for n <= {bound} are "
        "sortable, and their paths replay to the identity"
    )


@_check("structural-recognizer-equals-avoidance", fast=6, full=9, criterion="09")
def _chk_structural(bound: int):
    avoiders = _members_upto(ClassSpec.from_basis(PS_BASIS), bound)
    for p in _perms_upto(bound):
        if structural_member(p) != (p.values in avoiders):
            return False, f"structural recognizer disagrees on {p}"
    return True, f"shape recursion == avoidance of the three patterns for n <= {bound}"


@_check("basis-mining-recovers-antichain-bases", fast=8, full=9)
def _chk_basis_mining(bound: int):
    for texts in (("231",), ("2431", "3142", "3241")):
        target = sorted((parse(t) for t in texts), key=lambda p: (len(p), p.values))
        mined = compute_basis(ClassSpec.from_basis(target), bound)
        if mined != target:
            return False, f"mining Av({texts}) returned {[str(m) for m in mined]}"
    return True, f"mined to {bound}, Av(231) and Av(2431,3142,3241) give back their bases"


@_check("simple-permutation-census", fast=8, full=10, criterion="08")
def _chk_simples(bound: int):
    expected = [parse("1"), parse("12"), parse("21")] + [
        parallel_alternation(m) for m in range(2, bound // 2 + 1)
    ]
    got = simples_in_class([parse("2431"), parse("3142")], bound)
    if got != sorted(expected, key=lambda p: (len(p), p.values)):
        return False, f"census mismatch: {[str(g) for g in got]}"
    return True, f"simples in Av(2431,3142) up to {bound} are 1, 12, 21 and the alternations"


@_check("ps-count-equals-series-coefficients", fast=6, full=9, criterion="05")
def _chk_counts_series(bound: int):
    coeffs = series.closed_form(bound).integer_coefficients()
    counts = count_by_length(ClassSpec.from_machine(MachineKind.PS), bound)
    if counts != coeffs[1:]:
        return False, f"PS counts {counts} differ from series coefficients {coeffs[1:]}"
    return True, f"machine counts match series coefficients for n <= {bound}"


@_check("di-is-av-3142-3241", fast=7, full=9)
def _chk_di_class(bound: int):
    # The class of DI's forced loop, on the basis route, the raw move graph
    # where it is affordable, and the large Schroeder numbers: the
    # coefficient of x^(n-1) in (1 - x - sqrt(1 - 6x + x^2)) / (2x).
    di = ClassSpec.from_machine(MachineKind.DI)
    members = _members_upto(di, bound)
    if members != _members_upto(ClassSpec.from_basis([parse("3142"), parse("3241")]), bound):
        return False, f"DI members differ from Av(3142, 3241) for n <= {bound}"
    graph_bound = min(bound, 6)
    for p in _perms_upto(graph_bound):
        if machines.is_sortable_unpruned(MachineKind.DI, p) != (p.values in members):
            return False, f"the raw DI move graph disagrees with the class on {p}"
    x = series.PowerSeries.x(bound)
    root = series.PowerSeries.from_coeffs([1, -6, 1], bound).sqrt()
    schroeder = ((1 - x - root) / (2 * x)).integer_coefficients()
    counts = count_by_length(di, bound)
    if counts != schroeder:
        return False, f"DI counts {counts} differ from the large Schroeder numbers {schroeder}"
    return True, (
        f"DI == Av(3142, 3241) for n <= {bound}, == the raw move graph for n <= "
        f"{graph_bound}, counted by the large Schroeder numbers {counts}"
    )


@_check("wilf-equivalence-of-three-classes", fast=6, full=9, criterion="10")
def _chk_wilf(bound: int):
    specs = [
        ClassSpec.from_basis([parse(t) for t in texts])
        for texts in (("2431", "3142", "3241"), ("2431", "4231", "4321"), ("2143", "2413", "3142"))
    ]
    rows = [
        (n, counts)
        for n, counts in enumerate(wilf_table(specs, bound), start=1)
        if len(set(counts)) > 1
    ]
    if rows:
        return False, f"counts diverge: {rows}"
    return True, f"three classes share counts for n <= {bound}"


# -- series --------------------------------------------------------------------

def _random_series(rng: random.Random, order: int, unit_constant: bool = False):
    coeffs = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)
    ]
    if unit_constant:
        coeffs[0] = Fraction(1)
    elif coeffs[0] == 0:
        coeffs[0] = Fraction(1, 2)
    return series.PowerSeries(tuple(coeffs))


@_check("series-division-multiplication-roundtrip", fast=16, full=32)
def _chk_series_div(order: int):
    rng = random.Random(7)
    for _ in range(25):
        a = _random_series(rng, order)
        b = _random_series(rng, order)
        if (a / b) * b != a:
            return False, f"(a/b)*b != a for a={a}, b={b}"
    return True, f"25 random divisions invert exactly at order {order}"


@_check("series-sqrt-squares-back", fast=16, full=32)
def _chk_series_sqrt(order: int):
    rng = random.Random(8)
    for _ in range(25):
        a = _random_series(rng, order, unit_constant=True)
        s = a.sqrt()
        if s * s != a:
            return False, f"sqrt(a)^2 != a for a={a}"
    return True, f"25 random square roots square back exactly at order {order}"


@_check("closed-form-equals-fixed-point", fast=40, full=200, criterion="05")
def _chk_series_agreement(order: int):
    if series.closed_form(order) != series.fixed_point(order):
        return False, f"closed form and fixed point diverge within order {order}"
    return True, f"closed form == fixed point to order {order}"


@_check("alternation-part-geometric-identity", fast=12, full=20)
def _chk_series_geometric(order: int):
    f = series.closed_form(order)
    x = series.PowerSeries.x(order)
    term = (x * f) / (1 - x)
    acc = series.PowerSeries.constant(0, order)
    power = term * term
    for _ in range(2, order + 1):
        acc = acc + power
        power = power * term
    if series.components(order).alternation_part != acc:
        return False, "geometric identity fails"
    return True, f"closed alternation part equals the partial geometric sum to order {order}"


# -- antichain -----------------------------------------------------------------

@_check("antichain-elements-are-basis-elements", fast=2, full=4, criterion="11")
def _chk_antichain_basis(top: int):
    for k in range(1, top + 1):
        report = check_basis_element(k)
        if not report.passed:
            return False, "; ".join(report.failures())
    return True, f"u_k outside the class, all deletions inside, for k <= {top}"


@_check("antichain-pairwise-incomparable", fast=5, full=5, criterion="11")
def _chk_antichain_pairs(max_k: int):
    report = check_antichain(max_k)
    if not report.passed:
        return False, f"comparable pairs {report.comparable_pairs}, counts {report.occurrence_counts}"
    return True, f"u_1..u_{max_k} pairwise incomparable, each with exactly two copies of 2341"


@_check("divided-class-downward-closed", fast=6, full=8)
def _chk_divided_closure(bound: int):
    member = cache(in_avoidance_class)
    for p in _perms_upto(bound, start=2):
        if member(p) and not all(member(d) for d in one_entry_deletions(p)):
            return False, f"deleting from member {p} leaves the class"
    return True, f"membership survives one-entry deletions for n <= {bound}"


def run_suite(suite: str, out) -> bool:
    """Run every registry entry at the suite's bound; print one line each.

    An entry that raises fails, and the remaining entries still run.
    """
    if suite not in ("fast", "all"):
        raise ValueError(f"unknown suite {suite!r} (expected fast or all)")
    all_ok = True
    for check in _CHECKS:
        t0 = time.monotonic()
        try:
            ok, detail = check.run(check.fast if suite == "fast" else check.full)
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        dt = time.monotonic() - t0
        tag = "PASS" if ok else "FAIL"
        out.write(f"{tag} {check.name} ({dt:.1f}s): {detail}\n")
        all_ok &= ok
    out.write(("all invariants hold\n") if all_ok else ("INVARIANT FAILURES PRESENT\n"))
    return all_ok
