"""An infinite antichain inside a class cut out by eight divided patterns.

The family u_1, u_2, ... starts 2,3,5,1 and ends 2k+4, 2k+5, 2k+2, with
interlocking pairs 7,4  9,6  11,8 ... in between; u_k has length 2k+5 and
exactly two occurrences of 2341.  No member of the family admits a
division avoiding the eight forbidden divided patterns, yet deleting any
single entry lands back inside the class, so every u_k is a basis element
of that class even though the family is infinite.  The checkers below
verify those facts exhaustively for small k.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .divided import (
    DividedPattern,
    DividedPermutation,
    exists_division_avoiding,
    parse_divided,
)
from .perms import Permutation, contains, count_occurrences, delete_entry

# k = 8 (length 21) already checks in about half a second; the bound stays 4
# because perfbench's `divisions` plan and the CLI's `--max-k` clamp read it.
MAX_BASIS_ELEMENT_K = 4
MAX_ANTICHAIN_K = 5


def antichain_element(k: int) -> Permutation:
    """u_k = 2,3,5,1, 7,4, 9,6, ..., 2k+3,2k, 2k+4, 2k+5, 2k+2 (length 2k+5)."""
    if k < 1:
        raise ValueError(f"antichain elements are indexed from 1, got {k}")
    vals = [2, 3, 5, 1]
    for j in range(2, k + 1):
        vals.extend((2 * j + 3, 2 * j))
    vals.extend((2 * k + 4, 2 * k + 5, 2 * k + 2))
    return Permutation(tuple(vals))


_FORBIDDEN_TEXTS = (
    "2341",
    "234|1",
    "23|4|1",
    "2|34|1",
    "2|3|4|1",
    "314|2",
    "31|42",
    "31|4|2",
)


_FORBIDDEN = tuple(parse_divided(t) for t in _FORBIDDEN_TEXTS)


def forbidden_divided_patterns() -> tuple[DividedPattern, ...]:
    """The eight divided patterns whose avoidance class the family obstructs."""
    return _FORBIDDEN


def witness_division(p: Permutation) -> Optional[DividedPermutation]:
    """A division of p avoiding all eight patterns, or None."""
    return exists_division_avoiding(p, forbidden_divided_patterns())


def in_avoidance_class(p: Permutation) -> bool:
    """True iff some division of p avoids the eight forbidden patterns."""
    return witness_division(p) is not None


def _unnormalized_display(u: Permutation, position: int, witness: DividedPermutation) -> str:
    """The witness blocks shown on the original entries of u (one removed)."""
    vals = u.values[: position - 1] + u.values[position:]
    cuts = (0,) + witness.dividers + (len(vals),)
    return "|".join(
        ",".join(str(v) for v in vals[a:b]) for a, b in zip(cuts, cuts[1:])
    )


@dataclass(frozen=True)
class DeletionCheck:
    position: int
    witness: Optional[DividedPermutation]
    unnormalized: Optional[str]

    @property
    def in_class(self) -> bool:
        return self.witness is not None


@dataclass(frozen=True)
class BasisElementReport:
    k: int
    element: Permutation
    element_in_class: bool          # must be False for a basis element
    deletions: tuple[DeletionCheck, ...]

    @property
    def passed(self) -> bool:
        return not self.element_in_class and all(d.in_class for d in self.deletions)

    def failures(self) -> list[str]:
        out = []
        if self.element_in_class:
            out.append(f"u_{self.k} = {self.element} unexpectedly admits a division")
        for d in self.deletions:
            if not d.in_class:
                out.append(
                    f"u_{self.k} with position {d.position} deleted has no avoiding division"
                )
        return out


def check_basis_element(k: int) -> BasisElementReport:
    """Verify u_k is outside the class while every one-entry deletion is inside."""
    if not 1 <= k <= MAX_BASIS_ELEMENT_K:
        raise ValueError(
            f"basis-element checks are bounded to k <= {MAX_BASIS_ELEMENT_K}, got {k}"
        )
    u = antichain_element(k)
    deletions = []
    for position in range(1, len(u) + 1):
        w = witness_division(delete_entry(u, position))
        deletions.append(
            DeletionCheck(
                position=position,
                witness=w,
                unnormalized=None if w is None else _unnormalized_display(u, position, w),
            )
        )
    return BasisElementReport(
        k=k,
        element=u,
        element_in_class=in_avoidance_class(u),
        deletions=tuple(deletions),
    )


@dataclass(frozen=True)
class AntichainReport:
    max_k: int
    pairs_checked: int
    comparable_pairs: tuple[tuple[int, int], ...]   # (j, k) with u_j inside u_k
    occurrence_counts: tuple[tuple[int, int], ...]  # (k, copies of 2341 in u_k)

    @property
    def passed(self) -> bool:
        return not self.comparable_pairs and all(
            c == 2 for _, c in self.occurrence_counts
        )


def check_antichain(max_k: int) -> AntichainReport:
    """Pairwise incomparability of u_1..u_max_k, plus the 2341 count."""
    if not 1 <= max_k <= MAX_ANTICHAIN_K:
        raise ValueError(
            f"antichain checks are bounded to max_k <= {MAX_ANTICHAIN_K}, got {max_k}"
        )
    elements = {k: antichain_element(k) for k in range(1, max_k + 1)}
    bad = []
    pairs = 0
    for j in range(1, max_k + 1):
        for k in range(j + 1, max_k + 1):
            pairs += 1
            if contains(elements[j], elements[k]):
                bad.append((j, k))
    pattern = Permutation((2, 3, 4, 1))
    counts = tuple((k, count_occurrences(pattern, elements[k])) for k in elements)
    return AntichainReport(
        max_k=max_k,
        pairs_checked=pairs,
        comparable_pairs=tuple(bad),
        occurrence_counts=counts,
    )
