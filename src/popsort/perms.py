"""Exact arithmetic on permutations in one-line notation.

A permutation of length n is a bijection on {1..n}, stored as the tuple
(pi(1), ..., pi(n)).  This module provides parsing, the containment order,
the dihedral symmetries plus the two-stack dual, direct/skew sums,
inflations and the substitution decomposition into a simple quotient.

Everything here is a pure function over immutable values; lengths are
desk-scale (n <= ~15), so the quadratic/cubic scans below are deliberate.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence


class ParseError(ValueError):
    """Raised when a permutation (or divided permutation) text is malformed."""


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in one-line notation.

    >>> Permutation((2, 4, 5, 1, 3)).reverse()
    Permutation((3, 1, 5, 4, 2))
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.values)
        seen = [False] * n
        for v in self.values:
            if not isinstance(v, int) or not 1 <= v <= n or seen[v - 1]:
                raise ValueError(f"not a bijection on 1..{n}: {self.values!r}")
            seen[v - 1] = True

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.values)

    def __repr__(self) -> str:
        return f"Permutation({self.values!r})"

    def apply(self, i: int) -> int:
        """Image of position i (1-based): pi(i)."""
        return self.values[i - 1]

    def reverse(self) -> "Permutation":
        """pi^r(i) = pi(n+1-i)."""
        return Permutation(self.values[::-1])

    def complement(self) -> "Permutation":
        """pi^c(i) = n+1-pi(i)."""
        n = len(self.values)
        return Permutation(tuple(n + 1 - v for v in self.values))

    def inverse(self) -> "Permutation":
        """pi^-1(pi(i)) = i."""
        inv = [0] * len(self.values)
        for i, v in enumerate(self.values):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))

    def dual(self) -> "Permutation":
        """The two-stack dual, pi^d(i) = n+1 - pi^-1(n+1-i).

        Computed straight from that formula; it coincides with
        reverse(inverse(reverse(pi))), which the tests check independently.
        """
        n = len(self.values)
        inv = [0] * n
        for i, v in enumerate(self.values):
            inv[v - 1] = i + 1
        return Permutation(tuple(n + 1 - inv[n - i] for i in range(1, n + 1)))

    def direct_sum(self, other: "Permutation") -> "Permutation":
        """alpha (+) beta: beta shifted above and after alpha."""
        k = len(self.values)
        return Permutation(self.values + tuple(v + k for v in other.values))

    def skew_sum(self, other: "Permutation") -> "Permutation":
        """alpha (-) beta: alpha shifted above and before beta."""
        m = len(other.values)
        return Permutation(tuple(v + m for v in self.values) + other.values)


EMPTY = Permutation(())


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def parse(text: str) -> Permutation:
    """Parse comma-separated one-line notation; bare digit strings are
    accepted for n <= 9 ("24513" == "2,4,5,1,3").
    """
    text = text.strip()
    if not text:
        return EMPTY
    if "," in text:
        tokens = [t.strip() for t in text.split(",")]
    else:
        if not text.isdigit():
            raise ParseError(f"malformed permutation text: {text!r}")
        if len(text) >= 10:
            raise ParseError(
                f"digit form is ambiguous for length >= 10, use commas: {text!r}"
            )
        tokens = list(text)
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise ParseError(f"bad permutation entry {tok!r} in {text!r}") from None
    n = len(values)
    seen = set()
    for tok, v in zip(tokens, values):
        if not 1 <= v <= n:
            raise ParseError(f"entry {tok!r} outside 1..{n} in {text!r}")
        if v in seen:
            raise ParseError(f"repeated entry {tok!r} in {text!r}")
        seen.add(v)
    return Permutation(tuple(values))


def all_perms(n: int) -> Iterator[Permutation]:
    """All permutations of length n in lexicographic order."""
    for vals in itertools.permutations(range(1, n + 1)):
        yield Permutation(vals)


def pattern_of(vals: Sequence[int]) -> tuple[int, ...]:
    """Rank-normalize a sequence of distinct integers to a permutation tuple."""
    rank = {v: r + 1 for r, v in enumerate(sorted(vals))}
    return tuple(rank[v] for v in vals)


@lru_cache(maxsize=4096)
def _neighbor_bounds(pv: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # For each pattern index j, the earlier index holding the tightest value
    # below/above pv[j] (-1 when none).  Reduces the order-isomorphism test
    # during backtracking to two comparisons.
    lo, hi = [], []
    for j, x in enumerate(pv):
        bl = bh = -1
        for t in range(j):
            if pv[t] < x and (bl < 0 or pv[t] > pv[bl]):
                bl = t
            if pv[t] > x and (bh < 0 or pv[t] < pv[bh]):
                bh = t
        lo.append(bl)
        hi.append(bh)
    return tuple(lo), tuple(hi)


def contains(pattern: Permutation, host: Permutation) -> bool:
    """True iff host has a subsequence order-isomorphic to pattern."""
    return contains_values(pattern.values, host.values)


def contains_values(pv: tuple[int, ...], hv: tuple[int, ...]) -> bool:
    """Containment test on raw value tuples (backtracking over positions)."""
    k, n = len(pv), len(hv)
    if k == 0:
        return True
    if k > n:
        return False
    lo, hi = _neighbor_bounds(pv)
    chosen = [0] * k

    def extend(j: int, start: int) -> bool:
        bl, bh = lo[j], hi[j]
        vlo = chosen[bl] if bl >= 0 else 0
        vhi = chosen[bh] if bh >= 0 else n + 1
        last = j + 1 == k
        for i in range(start, n - (k - j) + 1):
            v = hv[i]
            if vlo < v < vhi:
                if last:
                    return True
                chosen[j] = v
                if extend(j + 1, i + 1):
                    return True
        return False

    return extend(0, 0)


def avoids(host: Permutation, patterns: Iterable[Permutation]) -> bool:
    """True iff host contains none of the given patterns."""
    return avoids_values(host.values, (p.values for p in patterns))


def avoids_values(hv: tuple[int, ...], pattern_values: Iterable[tuple[int, ...]]) -> bool:
    """`avoids` on raw value tuples."""
    return not any(contains_values(pv, hv) for pv in pattern_values)


def count_occurrences(pattern: Permutation, host: Permutation) -> int:
    """Number of index subsets of host order-isomorphic to pattern."""
    pv, hv = pattern.values, host.values
    k = len(pv)
    if k == 0:
        return 1
    return sum(
        1
        for idx in itertools.combinations(range(len(hv)), k)
        if pattern_of([hv[i] for i in idx]) == pv
    )


def inflate(quotient: Permutation, parts: Sequence[Permutation]) -> Permutation:
    """Replace entry i of quotient by an interval order-isomorphic to parts[i].

    >>> inflate(parse("2413"), [parse("1"), parse("132"), parse("321"), parse("12")])
    Permutation((4, 7, 9, 8, 3, 2, 1, 5, 6))
    """
    qv = quotient.values
    if len(parts) != len(qv):
        raise ValueError(f"need {len(qv)} parts, got {len(parts)}")
    if any(len(p) == 0 for p in parts):
        raise ValueError("inflation parts must be nonempty")
    # offset[i] = total size of parts whose quotient value is below qv[i]
    sizes = [len(p) for p in parts]
    by_value = sorted(range(len(qv)), key=lambda i: qv[i])
    offset = [0] * len(qv)
    acc = 0
    for i in by_value:
        offset[i] = acc
        acc += sizes[i]
    out: list[int] = []
    for i, part in enumerate(parts):
        out.extend(v + offset[i] for v in part.values)
    return Permutation(tuple(out))


def is_simple(p: Permutation) -> bool:
    """True iff no proper interval of length >= 2 maps onto a value interval."""
    return is_simple_values(p.values)


def is_simple_values(v: tuple[int, ...]) -> bool:
    n = len(v)
    if n <= 2:
        return True
    for i in range(n - 1):
        mn = mx = v[i]
        for j in range(i + 1, n):
            w = v[j]
            if w < mn:
                mn = w
            elif w > mx:
                mx = w
            if j - i + 1 == n:
                break
            if mx - mn == j - i:
                return False
    return True


def substitution_decompose_values(
    v: tuple[int, ...],
) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """Raw-tuple core of substitution_decompose.

    Returns the quotient values and the block spans [a, b), one per
    quotient entry; block i is v[a:b] and holds an interval of values.
    Builds no Permutation and runs no self-check.
    """
    n = len(v)
    if n == 0:
        raise ValueError("cannot decompose the empty permutation")
    if n == 1:
        return (1,), [(0, 1)]
    # The shortest proper prefix holding {1..k} makes the quotient 12, the
    # shortest holding {n-k+1..n} makes it 21; at most one of them exists.
    mx, mn = 0, n + 1
    for k in range(1, n):
        w = v[k - 1]
        if w > mx:
            mx = w
        if w < mn:
            mn = w
        if mx == k:
            return (1, 2), [(0, k), (k, n)]
        if mn == n - k + 1:
            return (2, 1), [(0, k), (k, n)]
    # Neither sum nor skew decomposable: the quotient is simple of length
    # >= 4, every proper interval lies inside one block, and the blocks are
    # exactly the maximal proper intervals, found by a left-to-right scan.
    spans: list[tuple[int, int]] = []
    i = 0
    while i < n:
        best = i
        mn = mx = v[i]
        for j in range(i + 1, n - 1 if i == 0 else n):
            w = v[j]
            if w < mn:
                mn = w
            elif w > mx:
                mx = w
            if mx - mn == j - i:
                best = j
        spans.append((i, best + 1))
        i = best + 1
    # The blocks are disjoint value intervals, so any entry ranks its block.
    return pattern_of([v[a] for a, _ in spans]), spans


def substitution_decompose(p: Permutation) -> tuple[Permutation, list[Permutation]]:
    """Split pi into its unique simple quotient and inflation parts.

    When the quotient is 12 (resp. 21) the first part is the shortest
    sum-indecomposable (resp. skew-indecomposable) prefix, which pins the
    decomposition down uniquely.  The scans live in the tuple core
    substitution_decompose_values, which the structural recognizer in
    `classes` shares; this wrapper builds the Permutations and checks that
    the quotient is simple and inflates back to pi.
    """
    v = p.values
    qv, spans = substitution_decompose_values(v)
    quotient = Permutation(qv)
    parts = [Permutation(pattern_of(v[a:b])) for a, b in spans]
    if not is_simple(quotient) or inflate(quotient, parts).values != v:
        raise AssertionError(f"substitution decomposition failed for {p}")
    return quotient, parts


def parallel_alternation(m: int) -> Permutation:
    """The length-2m permutation 2,4,...,2m,1,3,...,2m-1 (m >= 2)."""
    if m < 2:
        raise ValueError(f"parallel alternation needs m >= 2, got {m}")
    return Permutation(tuple(range(2, 2 * m + 1, 2)) + tuple(range(1, 2 * m, 2)))


def delete_entry(p: Permutation, position: int) -> Permutation:
    """Remove the entry at the given 1-based position and rank-normalize."""
    n = len(p.values)
    if not 1 <= position <= n:
        raise ValueError(f"position {position} out of range 1..{n}")
    v = p.values
    return Permutation(pattern_of(v[: position - 1] + v[position:]))


def one_entry_deletions(p: Permutation) -> Iterator[Permutation]:
    for pos in range(1, len(p.values) + 1):
        yield delete_entry(p, pos)
