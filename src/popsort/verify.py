"""The cross-module invariant suite behind `popsort verify`.

Each check pits at least two independent routes against each other
(simulator vs basis vs division, closed form vs fixed point vs brute
force, pruned vs unpruned search, backtracking vs naive enumeration) over
exhaustive desk-scale ranges.  The `fast` suite shrinks every bound to
n <= 6 territory; `all` runs the full documented ranges and takes several
minutes.
"""
from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from typing import Callable, Iterable

from . import machines, series
from .antichain import (
    antichain_element,
    check_antichain,
    check_basis_element,
    forbidden_divided_patterns,
    in_avoidance_class,
)
from .classes import ClassSpec, compute_basis, count_members, simples_in_class, structural_member, wilf_table
from .divided import (
    DividedPermutation,
    all_divisions,
    div_contains,
    exists_division_avoiding,
    parse_divided,
    reachable_by_local_reversals,
)
from .machines import DIVIDED_OBSTRUCTIONS, MachineKind, PS_BASIS
from .perms import (
    Permutation,
    all_perms,
    avoids,
    contains,
    delete_entry,
    inflate,
    is_simple,
    one_entry_deletions,
    parallel_alternation,
    parse,
    pattern_of,
    substitution_decompose,
)

Check = Callable[[bool], tuple[bool, str]]
_CHECKS: list[tuple[str, Check]] = []


def _check(name: str):
    def register(fn: Check) -> Check:
        _CHECKS.append((name, fn))
        return fn

    return register


def _perms_upto(max_n: int, start: int = 0) -> Iterable[Permutation]:
    for n in range(start, max_n + 1):
        yield from all_perms(n)


# -- independent naive oracles ----------------------------------------------

def naive_contains(pattern: Permutation, host: Permutation) -> bool:
    """Containment by checking every index subset of the host."""
    pv, hv = pattern.values, host.values
    if not pv:
        return True
    return any(
        pattern_of([hv[i] for i in idx]) == pv
        for idx in itertools.combinations(range(len(hv)), len(pv))
    )


def naive_div_contains(pattern: DividedPermutation, host: DividedPermutation) -> bool:
    """Divided containment by enumerating subsequences and block maps."""
    pv, hv = pattern.base.values, host.base.values
    if not pv:
        return True
    pb, hb = pattern.block_ids(), host.block_ids()
    for idx in itertools.combinations(range(len(hv)), len(pv)):
        if pattern_of([hv[i] for i in idx]) != pv:
            continue
        assignment: dict[int, int] = {}
        ok = True
        for j, i in enumerate(idx):
            got = assignment.setdefault(pb[j], hb[i])
            if got != hb[i]:
                ok = False
                break
        if ok and len(set(assignment.values())) == len(assignment):
            return True
    return False


# -- permutation core ---------------------------------------------------------

@_check("symmetries-are-involutions")
def _chk_involutions(fast: bool):
    bound = 5 if fast else 8
    for p in _perms_upto(bound):
        for op in ("reverse", "complement", "inverse", "dual"):
            if getattr(getattr(p, op)(), op)() != p:
                return False, f"{op} not an involution on {p}"
    return True, f"reverse/complement/inverse/dual involutive for n <= {bound}"


@_check("dual-matches-reverse-inverse-reverse")
def _chk_dual_formula(fast: bool):
    bound = 5 if fast else 8
    for p in _perms_upto(bound):
        if p.dual() != p.reverse().inverse().reverse():
            return False, f"dual mismatch on {p}"
    return True, f"both dual implementations agree for n <= {bound}"


@_check("substitution-decomposition-roundtrip")
def _chk_decompose(fast: bool):
    bound = 5 if fast else 8
    for p in _perms_upto(bound, start=1):
        quotient, parts = substitution_decompose(p)
        if not is_simple(quotient):
            return False, f"non-simple quotient for {p}"
        if inflate(quotient, parts) != p:
            return False, f"roundtrip failed for {p}"
    return True, f"inflate(decompose(p)) == p with simple quotient for n <= {bound}"


@_check("contains-agrees-with-naive-oracle")
def _chk_contains_oracle(fast: bool):
    pat_bound, host_bound = (3, 5) if fast else (4, 7)
    pats = list(_perms_upto(pat_bound, start=1))
    for host in _perms_upto(host_bound):
        for pat in pats:
            if contains(pat, host) != naive_contains(pat, host):
                return False, f"contains({pat}, {host}) disagrees with naive oracle"
    return True, f"backtracking == subset scan for |pat| <= {pat_bound}, |host| <= {host_bound}"


@_check("containment-reflexive-transitive")
def _chk_contains_order(fast: bool):
    bound = 5 if fast else 7
    for p in _perms_upto(bound):
        if not contains(p, p):
            return False, f"containment not reflexive on {p}"
    rng = random.Random(20240 if fast else 20241)
    trials = 200 if fast else 600
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

@_check("div-contains-agrees-with-naive-oracle")
def _chk_div_oracle(fast: bool):
    host_bound = 5 if fast else 6
    pattern_pool = [
        "21", "2|1", "132", "2|13", "32|1", "2|3|1", "31|42", "2|34|1", "2341",
    ]
    pats = [parse_divided(t) for t in pattern_pool]
    for n in range(0, host_bound + 1):
        for host_perm in all_perms(n):
            for host in all_divisions(host_perm):
                for pat in pats:
                    if div_contains(pat, host) != naive_div_contains(pat, host):
                        return False, f"div_contains({pat}, {host}) disagrees with oracle"
    return True, f"block-aware backtracking == naive scan for hosts n <= {host_bound}"


@_check("undivided-div-contains-degenerates-to-contains")
def _chk_div_degenerate(fast: bool):
    bound = 4 if fast else 6
    pats = [DividedPermutation(p) for p in _perms_upto(3, start=1)]
    for host_perm in _perms_upto(bound):
        host = DividedPermutation(host_perm)
        for pat in pats:
            if div_contains(pat, host) != contains(pat.base, host_perm):
                return False, f"degenerate mismatch: {pat.base} in {host_perm}"
    return True, f"single-block semantics match plain containment for n <= {bound}"


@_check("ps-division-characterization")
def _chk_ps_division(fast: bool):
    bound = 5 if fast else 8
    pats = DIVIDED_OBSTRUCTIONS[MachineKind.PS]
    for p in _perms_upto(bound):
        division = exists_division_avoiding(p, pats)
        if (division is not None) != machines.is_sortable(MachineKind.PS, p):
            return False, f"division route disagrees with PS simulator on {p}"
    return True, f"division existence == PS simulator for n <= {bound}"


@_check("pqs-division-characterization")
def _chk_pqs_division(fast: bool):
    bound = 5 if fast else 8
    pats = DIVIDED_OBSTRUCTIONS[MachineKind.PQS]
    for p in _perms_upto(bound):
        division = exists_division_avoiding(p, pats)
        if (division is not None) != machines.is_sortable(MachineKind.PQS, p):
            return False, f"division route disagrees with PQS simulator on {p}"
    return True, f"division existence == PQS simulator for n <= {bound}"


@_check("pqs-division-equals-local-reversals")
def _chk_local_reversals(fast: bool):
    bound = 5 if fast else 8
    pats = DIVIDED_OBSTRUCTIONS[MachineKind.PQS]
    stack_sortable = lambda q: not contains(parse("231"), q)
    for p in _perms_upto(bound):
        via_division = exists_division_avoiding(p, pats) is not None
        via_reversal = reachable_by_local_reversals(p, stack_sortable)
        if via_division != via_reversal:
            return False, f"local-reversal route disagrees on {p}"
    return True, f"divisions == local reversals from 231-avoiders for n <= {bound}"


# -- machines ------------------------------------------------------------------

@_check("single-stack-sorts-iff-avoids-231")
def _chk_single_stack(fast: bool):
    bound = 5 if fast else 8
    pat = parse("231")
    for p in _perms_upto(bound):
        if machines.is_sortable(MachineKind.S, p) != (not contains(pat, p)):
            return False, f"single stack disagrees with 231 avoidance on {p}"
    return True, f"S == Av(231) for n <= {bound}"


@_check("ps-triple-characterization")
def _chk_ps_triple(fast: bool):
    bound = 5 if fast else 8
    for p in _perms_upto(bound):
        sim = machines.is_sortable(MachineKind.PS, p)
        if sim != machines.is_sortable_ps_by_basis(p):
            return False, f"PS basis route disagrees on {p}"
        if sim != machines.is_sortable_by_division(MachineKind.PS, p):
            return False, f"PS division route disagrees on {p}"
    return True, f"simulator == basis == division for n <= {bound}"


@_check("sp-equals-sqp")
def _chk_sp_sqp(fast: bool):
    bound = 5 if fast else 7
    for p in _perms_upto(bound):
        if machines.is_sortable(MachineKind.SP, p) != machines.is_sortable(MachineKind.SQP, p):
            return False, f"SP and SQP disagree on {p}"
    return True, f"SP == SQP for n <= {bound}"


@_check("pqs-equals-sp-of-dual")
def _chk_pqs_dual(fast: bool):
    bound = 5 if fast else 7
    for p in _perms_upto(bound):
        if machines.is_sortable(MachineKind.PQS, p) != machines.is_sortable(MachineKind.SP, p.dual()):
            return False, f"PQS vs SP-of-dual disagree on {p}"
    return True, f"PQS(p) == SP(dual(p)) for n <= {bound}"


@_check("ps-implies-pqs-and-di")
def _chk_ps_subsets(fast: bool):
    bound = 5 if fast else 7
    for p in _perms_upto(bound):
        if machines.is_sortable(MachineKind.PS, p):
            if not machines.is_sortable(MachineKind.PQS, p):
                return False, f"PS-sortable {p} not PQS-sortable"
            if not machines.is_sortable(MachineKind.DI, p):
                return False, f"PS-sortable {p} not DI-sortable"
    return True, f"PS subset of PQS and of DI for n <= {bound}"


@_check("ps-sum-closure")
def _chk_sum_closure(fast: bool):
    total = 6 if fast else 8
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


@_check("pruned-search-equals-unpruned")
def _chk_pruning(fast: bool):
    bound = 4 if fast else 6
    for p in _perms_upto(bound):
        for kind in MachineKind:
            if machines.is_sortable(kind, p) != machines.is_sortable_unpruned(kind, p):
                return False, f"pruned vs unpruned disagree for {kind.name} on {p}"
    return True, f"all six pruned searches match the raw move graph for n <= {bound}"


@_check("witnesses-replay-to-identity")
def _chk_witness_replay(fast: bool):
    bound = 5 if fast else 7
    from .perms import identity

    for p in _perms_upto(bound):
        for kind in MachineKind:
            witness = machines.sorting_witness(kind, p)
            if witness is None:
                continue
            if machines.replay(kind, p, witness) != identity(len(p)):
                return False, f"witness for {kind.name} on {p} does not replay"
    return True, f"every witness replays to the identity for n <= {bound}"


# -- classes -------------------------------------------------------------------

@_check("structural-recognizer-equals-avoidance")
def _chk_structural(fast: bool):
    bound = 6 if fast else 9
    for p in _perms_upto(bound):
        if structural_member(p) != avoids(p, PS_BASIS):
            return False, f"structural recognizer disagrees on {p}"
    return True, f"shape recursion == avoidance of the three patterns for n <= {bound}"


@_check("basis-mining-recovers-antichain-bases")
def _chk_basis_mining(fast: bool):
    for texts, max_len in ((("231",), 5), (("2431", "3142", "3241"), 6)):
        target = sorted((parse(t) for t in texts), key=lambda p: (len(p), p.values))
        spec = ClassSpec.from_basis(target)
        mined = compute_basis(spec, max_len)
        if mined != target:
            return False, f"mining Av({texts}) returned {[str(m) for m in mined]}"
    return True, "mined bases equal the defining antichains for Av(231) and Av(2431,3142,3241)"


@_check("simple-permutation-census")
def _chk_simples(fast: bool):
    bound = 8 if fast else 10
    expected = [parse("1"), parse("12"), parse("21")] + [
        parallel_alternation(m) for m in range(2, bound // 2 + 1)
    ]
    got = simples_in_class([parse("2431"), parse("3142")], bound)
    if got != sorted(expected, key=lambda p: (len(p), p.values)):
        return False, f"census mismatch: {[str(g) for g in got]}"
    return True, f"simples in Av(2431,3142) up to {bound} are 1, 12, 21 and the alternations"


@_check("ps-count-equals-series-coefficients")
def _chk_counts_series(fast: bool):
    bound = 6 if fast else 9
    coeffs = series.closed_form(bound).integer_coefficients()
    spec = ClassSpec.from_machine(MachineKind.PS)
    for n in range(1, bound + 1):
        if count_members(spec, n) != coeffs[n]:
            return False, f"PS count at n={n} differs from series coefficient"
    return True, f"machine counts match series coefficients for n <= {bound}"


@_check("wilf-equivalence-of-three-classes")
def _chk_wilf(fast: bool):
    bound = 6 if fast else 9
    specs = [
        ClassSpec.from_basis([parse(t) for t in texts])
        for texts in (("2431", "3142", "3241"), ("2431", "4231", "4321"), ("2143", "2413", "3142"))
    ]
    table = wilf_table(specs, bound)
    if not table.all_equal:
        rows = [(r.n, r.counts) for r in table.rows if not r.all_equal]
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


@_check("series-division-multiplication-roundtrip")
def _chk_series_div(fast: bool):
    order = 16 if fast else 32
    rng = random.Random(7)
    for _ in range(25):
        a = _random_series(rng, order)
        b = _random_series(rng, order)
        if (a / b) * b != a:
            return False, f"(a/b)*b != a for a={a}, b={b}"
    return True, f"25 random divisions invert exactly at order {order}"


@_check("series-sqrt-squares-back")
def _chk_series_sqrt(fast: bool):
    order = 16 if fast else 32
    rng = random.Random(8)
    for _ in range(25):
        a = _random_series(rng, order, unit_constant=True)
        s = a.sqrt()
        if s * s != a:
            return False, f"sqrt(a)^2 != a for a={a}"
    return True, f"25 random square roots square back exactly at order {order}"


@_check("closed-form-equals-fixed-point")
def _chk_series_agreement(fast: bool):
    order = 40 if fast else 200
    if series.closed_form(order) != series.fixed_point(order):
        return False, f"closed form and fixed point diverge within order {order}"
    return True, f"closed form == fixed point to order {order}"


@_check("closed-form-coefficients-nonnegative-integers")
def _chk_series_integrality(fast: bool):
    order = 40
    coeffs = series.closed_form(order).integer_coefficients()  # raises if non-integer
    if any(c < 0 for c in coeffs):
        return False, "negative coefficient"
    return True, f"all coefficients integral and nonnegative to order {order}"


@_check("alternation-part-geometric-identity")
def _chk_series_geometric(fast: bool):
    order = 12 if fast else 20
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

@_check("antichain-elements-are-basis-elements")
def _chk_antichain_basis(fast: bool):
    top = 2 if fast else 4
    for k in range(1, top + 1):
        report = check_basis_element(k)
        if not report.passed:
            return False, "; ".join(report.failures())
    return True, f"u_k outside the class, all deletions inside, for k <= {top}"


@_check("antichain-pairwise-incomparable")
def _chk_antichain_pairs(fast: bool):
    report = check_antichain(5)
    if not report.passed:
        return False, f"comparable pairs {report.comparable_pairs}, counts {report.occurrence_counts}"
    return True, "u_1..u_5 pairwise incomparable, each with exactly two copies of 2341"


@_check("divided-class-downward-closed")
def _chk_divided_closure(fast: bool):
    bound = 6 if fast else 8
    memo: dict[tuple[int, ...], bool] = {}

    def member(p: Permutation) -> bool:
        got = memo.get(p.values)
        if got is None:
            got = in_avoidance_class(p)
            memo[p.values] = got
        return got

    for p in _perms_upto(bound, start=2):
        if member(p) and not all(member(d) for d in one_entry_deletions(p)):
            return False, f"deleting from member {p} leaves the class"
    return True, f"membership survives one-entry deletions for n <= {bound}"


def run_suite(suite: str, out) -> bool:
    """Run every registered invariant; print one line per check."""
    if suite not in ("fast", "all"):
        raise ValueError(f"unknown suite {suite!r} (expected fast or all)")
    fast = suite == "fast"
    all_ok = True
    for name, fn in _CHECKS:
        t0 = time.monotonic()
        ok, detail = fn(fast)
        dt = time.monotonic() - t0
        tag = "PASS" if ok else "FAIL"
        out.write(f"{tag} {name} ({dt:.1f}s): {detail}\n")
        all_ok &= ok
    out.write(("all invariants hold\n") if all_ok else ("INVARIANT FAILURES PRESENT\n"))
    return all_ok
