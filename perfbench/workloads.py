"""The four workloads: their inputs, their operations and the answer checks.

A workload is built from a seed into a `Plan`: a list of operations, each
one call into a public function of the library, and a check for each
answer.  Every operation looks its function up through the module at call
time (``machines.sorting_witness(...)``, never an imported name), so the
traced pass, which replaces those module attributes, sees every call.

Checks run after the timed region and use a route independent of the one
being timed: Catalan numbers, the closed-form series, the division route,
the unpruned search, replay of witnesses, naive divided containment.
"""
from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

from popsort import antichain, classes, divided, machines, series
from popsort.classes import ClassSpec
from popsort.machines import DIVIDED_OBSTRUCTIONS, MachineKind, PS_BASIS
from popsort.perms import (
    Permutation,
    all_perms,
    avoids,
    contains,
    identity,
    one_entry_deletions,
    parse,
)
from popsort.verify import naive_div_contains

Answers = dict[str, Any]


@dataclass(frozen=True)
class Op:
    """One timed call; `check(answer, answers)` judges it afterwards.

    `answers` maps every operation's label to its answer, for checks that
    compare two operations (the PQS and SP counts must agree).
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any, Answers], bool]


@dataclass(frozen=True)
class Plan:
    ops: list[Op]
    inputs: dict          # counts and lengths, recorded in the output
    digest: str           # fingerprint of the generated inputs
    kernel: str = "tuples"    # speed.KERNELS entry that prices the pass


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Members by construction.  The moves of S, PS, PQS, SP and SQP never look at
# values: fed 1..n, a legal run outputs some sequence tau, and fed the
# inverse of tau the same run outputs 1..n.  Each machine is a chain of
# devices; a pop stack (P) releases its whole content top first, a queue (Q)
# its front, a stack (S) its top, into the next device or the output.
# ---------------------------------------------------------------------------

_CHAINS = {"s": "S", "ps": "PS", "pqs": "PQS", "sp": "SP", "sqp": "SQP"}


def member_by_construction(kind: str, n: int, rng: random.Random) -> Permutation:
    """A sortable permutation: the inverse of a random run's output on 1..n."""
    chain = _CHAINS[kind]
    devices: list[list[int]] = [[] for _ in chain]
    out: list[int] = []
    fed = 0
    while len(out) < n:
        moves = [d for d, dev in enumerate(devices) if dev]
        if fed < n:
            moves.append(-1)
        d = rng.choice(moves)
        if d < 0:
            fed += 1
            devices[0].append(fed)
            continue
        dev = devices[d]
        if chain[d] == "P":
            chunk = dev[::-1]
            dev.clear()
        else:
            chunk = [dev.pop(0) if chain[d] == "Q" else dev.pop()]
        (out if d + 1 == len(chain) else devices[d + 1]).extend(chunk)
    inverse = [0] * n
    for position, value in enumerate(out, start=1):
        inverse[value - 1] = position
    return Permutation(tuple(inverse))


def uniform(n: int, rng: random.Random) -> Permutation:
    return Permutation(tuple(rng.sample(range(1, n + 1), n)))


# ---------------------------------------------------------------------------
# scan: exhaustive class walks at n <= 7 (seed ignored).
# ---------------------------------------------------------------------------

_SCAN_MACHINES = ("s", "ps", "pqs", "sp", "di")
# A pass to length 8 takes about 10 s, so a run holds one or two of them and
# its medians are those of one or two samples; to length 7 a pass takes about
# 1.5 s, and a run's medians are over a dozen passes.
SCAN_MAX_N = 7


@lru_cache(maxsize=None)
def _closed_form_counts(max_n: int) -> tuple[int, ...]:
    return tuple(series.closed_form(max_n).integer_coefficients())


# The unpruned DI search takes about a second over the 5,040 permutations
# of length 7 and several over the 40,320 of length 8; its counts there are
# recorded once instead of rerun each pass.
_DI_UNPRUNED_COUNTS = {7: 1806, 8: 8558}


@lru_cache(maxsize=None)
def _di_unpruned_count(n: int) -> int:
    if n in _DI_UNPRUNED_COUNTS:
        return _DI_UNPRUNED_COUNTS[n]
    return sum(1 for p in all_perms(n) if machines.is_sortable_unpruned(MachineKind.DI, p))


def _catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def _pqs_basis_sound(basis: list[Permutation]) -> bool:
    return all(
        not machines.is_sortable_by_division(MachineKind.PQS, e)
        and all(
            machines.is_sortable_by_division(MachineKind.PQS, d)
            for d in one_entry_deletions(e)
        )
        for e in basis
    )


def scan(seed: int, smoke: bool) -> Plan:
    del seed  # exhaustive: the inputs are all permutations up to max_n
    max_n = 5 if smoke else SCAN_MAX_N
    specs = {k: ClassSpec.from_machine(MachineKind(k)) for k in _SCAN_MACHINES}
    specs["basis"] = ClassSpec.from_basis(PS_BASIS)
    specs["structural"] = ClassSpec.from_predicate(
        "structural", lambda p: classes.structural_member(p)
    )
    # One operation enumerates a spec for n = 1..max_n, as `popsort enumerate`
    # does; single small-n counts take microseconds and would only add jitter.
    lengths = range(1, max_n + 1)
    expected: dict[str, Callable[[Answers], list[int]]] = {
        "s": lambda _: [_catalan(n) for n in lengths],
        "ps": lambda _: list(_closed_form_counts(max_n)[1:]),
        "basis": lambda _: list(_closed_form_counts(max_n)[1:]),
        "structural": lambda _: list(_closed_form_counts(max_n)[1:]),
        "pqs": lambda answers: answers[f"count sp n<={max_n}"],
        "sp": lambda answers: answers[f"count pqs n<={max_n}"],
        "di": lambda _: [_di_unpruned_count(n) for n in lengths],
    }
    ops = [
        Op(
            f"count {name} n<={max_n}",
            lambda spec=spec: [classes.count_members(spec, n) for n in lengths],
            lambda got, answers, name=name: got == expected[name](answers),
        )
        for name, spec in specs.items()
    ]
    ops.append(Op(
        f"basis ps to {max_n}",
        lambda: classes.compute_basis(specs["ps"], max_n),
        lambda got, _: got == list(PS_BASIS),
    ))
    ops.append(Op(
        f"basis pqs to {max_n}",
        lambda: classes.compute_basis(specs["pqs"], max_n),
        lambda got, _: _pqs_basis_sound(got),
    ))
    inputs = {
        "specs": list(specs),
        "lengths": [1, max_n],
        "permutations_per_spec": sum(math.factorial(n) for n in range(1, max_n + 1)),
        "basis_mining": ["ps", "pqs"],
        "operations": len(ops),
    }
    return Plan(ops, inputs, _digest((sorted(specs), max_n)))


# ---------------------------------------------------------------------------
# queries: seeded single-permutation witness searches, all six kinds.
# ---------------------------------------------------------------------------

# kind: (member length, members, uniform length, uniform draws).  Uniform
# lengths stay where the independent route is affordable: the division
# route scans 2^(n-1) divisions and the unpruned DI search the raw graph.
# The counts put the median operation inside the PQS member group, whose
# latencies are dense, and the 95th percentile inside the SP/SQP tail;
# a median that fell in a gap between two groups would jump between them.
# The 564 operations of a pass put enough SP/SQP samples in the tail that
# the 95th percentile moves little with the seed, and still let a 30 s run
# hold two or three passes.
QUERY_SIZES = {
    "s": (200, 26, 200, 26),
    "ps": (80, 26, 11, 26),
    "pqs": (80, 140, 11, 26),
    "sp": (50, 84, 11, 26),
    "sqp": (9, 66, 8, 56),
    "di": (0, 0, 8, 56),
}
SMOKE_QUERY_SIZES = {k: (min(m, 7), min(c, 3), min(u, 7), 3) for k, (m, c, u, _) in QUERY_SIZES.items()}
PROBE_LENGTH = 600  # the identity; deep enough to hit recursion limits


def _replays(kind: MachineKind, p: Permutation, witness) -> bool:
    return machines.replay(kind, p, witness) == identity(len(p))


def _reference_sortable(kind: MachineKind, p: Permutation) -> bool:
    """Sortability by a route that does not run the kind's own search."""
    if kind is MachineKind.S:
        return avoids(p, (parse("231"),))
    if kind in (MachineKind.PS, MachineKind.PQS):
        return machines.is_sortable_by_division(kind, p)
    if kind is MachineKind.SP:  # SP sorts p iff PQS sorts its dual
        return machines.is_sortable_by_division(MachineKind.PQS, p.dual())
    if kind is MachineKind.SQP:  # the two classes are equal
        return machines.is_sortable(MachineKind.SP, p)
    return machines.is_sortable_unpruned(kind, p)


def _witness_op(label: str, kind: MachineKind, p: Permutation, must_sort: bool) -> Op:
    def check(witness, _answers) -> bool:
        if witness is None:
            return not must_sort and not _reference_sortable(kind, p)
        return _replays(kind, p, witness) and (must_sort or _reference_sortable(kind, p))

    return Op(label, lambda: machines.sorting_witness(kind, p), check)


def queries(seed: int, smoke: bool) -> Plan:
    rng = random.Random(f"queries:{seed}")
    sizes = SMOKE_QUERY_SIZES if smoke else QUERY_SIZES
    ops: list[Op] = []
    perms: list[tuple[int, ...]] = []
    for name, (m_len, m_count, u_len, u_count) in sizes.items():
        kind = MachineKind(name)
        for i in range(m_count):
            p = member_by_construction(name, m_len, rng)
            ops.append(_witness_op(f"{name} member n={m_len} #{i}", kind, p, True))
            perms.append(p.values)
        for i in range(u_count):
            p = uniform(u_len, rng)
            ops.append(_witness_op(f"{name} uniform n={u_len} #{i}", kind, p, False))
            perms.append(p.values)
    for name in sizes:
        ops.append(_witness_op(
            f"{name} identity n={PROBE_LENGTH}", MachineKind(name), identity(PROBE_LENGTH), True
        ))
    rng.shuffle(ops)  # spread each group over the pass, and over host-speed drift
    inputs = {
        kind: {"member_length": m, "members": c, "uniform_length": u, "uniform": d}
        for kind, (m, c, u, d) in sizes.items()
    }
    inputs["probe"] = {"kinds": list(sizes), "length": PROBE_LENGTH, "input": "identity"}
    inputs["operations"] = len(ops)
    return Plan(ops, inputs, _digest(perms))


# ---------------------------------------------------------------------------
# divisions: seeded division searches for the PS, PQS and antichain sets,
# then the antichain checks.
# ---------------------------------------------------------------------------

DIVISION_LENGTHS = (9, 10, 11)
DIVISION_INPUTS = 900       # each searched under all three pattern sets
SMOKE_DIVISION_INPUTS = 9
_SOURCES = ("uniform", "ps", "pqs")   # uniform, or a member by construction
_PATTERN_2341 = parse("2341")


def _division_op(set_name: str, patterns: tuple, p: Permutation, label: str) -> Op:
    def check(found, _answers) -> bool:
        if found is None:
            if set_name == "antichain":
                # the undivided host already avoids the divided patterns
                # with two or more blocks, so it must contain 2341
                return contains(_PATTERN_2341, p)
            return not machines.is_sortable(MachineKind(set_name), p)
        if found.base != p or any(naive_div_contains(pat, found) for pat in patterns):
            return False
        return set_name == "antichain" or machines.is_sortable(MachineKind(set_name), p)

    return Op(
        f"{set_name} {label}",
        lambda: divided.exists_division_avoiding(p, patterns),
        check,
    )


def divisions(seed: int, smoke: bool) -> Plan:
    rng = random.Random(f"divisions:{seed}")
    count = SMOKE_DIVISION_INPUTS if smoke else DIVISION_INPUTS
    sets = {
        "ps": DIVIDED_OBSTRUCTIONS[MachineKind.PS],
        "pqs": DIVIDED_OBSTRUCTIONS[MachineKind.PQS],
        "antichain": antichain.forbidden_divided_patterns(),
    }
    hosts = []
    for i in range(count):
        n = DIVISION_LENGTHS[i % len(DIVISION_LENGTHS)]
        source = _SOURCES[(i // len(DIVISION_LENGTHS)) % len(_SOURCES)]
        p = uniform(n, rng) if source == "uniform" else member_by_construction(source, n, rng)
        hosts.append((f"{source} n={n} #{i}", p))
    ops = [
        _division_op(set_name, patterns, p, label)
        for label, p in hosts
        for set_name, patterns in sets.items()
    ]
    rng.shuffle(ops)  # spread each group over the pass, and over host-speed drift
    max_k = 2 if smoke else antichain.MAX_BASIS_ELEMENT_K
    for k in range(1, max_k + 1):
        ops.append(Op(
            f"antichain basis element k={k}",
            lambda k=k: antichain.check_basis_element(k),
            lambda report, _: report.passed,
        ))
    pairs_k = 3 if smoke else antichain.MAX_ANTICHAIN_K
    ops.append(Op(
        f"antichain pairs k<={pairs_k}",
        lambda: antichain.check_antichain(pairs_k),
        lambda report, _: report.passed and report.pairs_checked == pairs_k * (pairs_k - 1) // 2,
    ))
    inputs = {
        "hosts": count,
        "lengths": list(DIVISION_LENGTHS),
        "sources": list(_SOURCES),
        "pattern_sets": list(sets),
        "basis_elements": max_k,
        "antichain_pairs_k": pairs_k,
        "operations": len(ops),
    }
    return Plan(ops, inputs, _digest([p.values for _, p in hosts]))


# ---------------------------------------------------------------------------
# series: both expansions of the PS counting series (seed ignored).
# ---------------------------------------------------------------------------

CLOSED_FORM_TERMS = 200     # the CLI bound
# fixed_point's cost climbs steeply with the term count (about 1 s at 40
# terms, 3 s at 60 and 10 s at 80 on the reference host); at 40 a pass takes
# about 3 s, so a run's medians are over five or more passes.
FIXED_POINT_TERMS = 40
# Five closed forms and two fixed points a pass, interleaved.  The median
# call is then a closed form and the 95th percentile a fixed point, so
# neither falls in the gap between the two, and the host speed is sampled
# between the long fixed-point calls.  Neither expansion caches anything,
# so a repeated call does the work of the first.
SERIES_ORDER = ("closed_form", "closed_form", "fixed_point", "closed_form",
                "fixed_point", "closed_form", "closed_form")


def series_plan(seed: int, smoke: bool) -> Plan:
    del seed  # deterministic: the inputs are the two term counts
    terms = {"closed_form": 20, "fixed_point": 10} if smoke else {
        "closed_form": CLOSED_FORM_TERMS, "fixed_point": FIXED_POINT_TERMS}

    def agree(_got, answers: Answers) -> bool:
        closed = [a for label, a in answers.items() if label.startswith("closed_form")]
        fixed = [a for label, a in answers.items() if label.startswith("fixed_point")]
        return all(
            c is not None and f is not None
            and c.order == terms["closed_form"] and f.order == terms["fixed_point"]
            and c.coeffs[: f.order + 1] == f.coeffs
            for c in closed for f in fixed
        )

    ops = [
        Op(f"{fn} {terms[fn]} #{i}", lambda fn=fn: getattr(series, fn)(terms[fn]), agree)
        for i, fn in enumerate(SERIES_ORDER)
    ]
    inputs = {**{f"{fn}_terms": t for fn, t in terms.items()}, "operations": len(ops)}
    return Plan(ops, inputs, _digest(sorted(terms.items())), kernel="fractions")


WORKLOADS: dict[str, Callable[[int, bool], Plan]] = {
    "scan": scan,
    "queries": queries,
    "divisions": divisions,
    "series": series_plan,
}
