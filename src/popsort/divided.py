"""Divided permutations and block-respecting pattern containment.

A divided permutation is a permutation split by dividers into consecutive
blocks, written 5,1,3|4|2.  A divided pattern sigma_1|...|sigma_s occurs in
a divided host when the base contains an order-isomorphic subsequence in
which each sigma_i sits inside a single host block, no two sigma_i share a
host block, and no stray entries of the subsequence invade those blocks.
An undivided pattern therefore has to land inside one block.

Divisions are ordered by their divider bitmask (bit i-1 set = divider
after position i), and exists_division_avoiding returns the first division
in that order that avoids every pattern.  It does not scan the 2^(n-1)
masks: it places entries from right to left, and at each position first
lets the entry join the block on its right (no divider), then opens a new
block.  Depth-first, that is increasing-mask order, since the highest bit
is the divider nearest the right end.  Containment survives prepending
entries and extending the leftmost block, so an occurrence found in a
placed suffix prunes every completion of it, and placing position i needs
to test only the occurrences whose first entry is i: those starting
further right were tested when their first entry was placed.  Pruning
drops only subtrees without an avoiding division, so the first division
found is the first in mask order.

Patterns are tested by base, not one by one.  A divided pattern is its
base plus its divider mask (bit j-1 set = divider after entry j), and an
occurrence of the base in a divided host induces a mask the same way: bit
j-1 is set when its entries j-1 and j lie in different host blocks.  Host
block ids do not decrease along the host, so the occurrence is an
occurrence of the divided pattern exactly when the two masks are equal.
The search therefore groups its patterns by base, once per pattern set
(the grouping is cached), and runs one backtracking scan per group that
follows the group's masks through a table over mask prefixes: the
antichain's eight patterns make two groups, the PQS set four and the PS
set three.  div_contains is the one-mask group; div_avoids stays pattern
by pattern, as a reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .perms import ParseError, Permutation, _neighbor_bounds, parse


@dataclass(frozen=True)
class DividedPermutation:
    """A permutation plus divider positions; divider i splits after entry i."""

    base: Permutation
    dividers: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.base)
        divs = tuple(sorted(set(self.dividers)))
        object.__setattr__(self, "dividers", divs)
        if divs and not (1 <= divs[0] and divs[-1] <= n - 1):
            raise ValueError(f"dividers {divs} out of range 1..{n - 1}")

    def __str__(self) -> str:
        return "|".join(",".join(str(v) for v in blk) for blk in self.blocks())

    def __len__(self) -> int:
        return len(self.base)

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        v = self.base.values
        cuts = (0,) + self.dividers + (len(v),)
        return tuple(v[a:b] for a, b in zip(cuts, cuts[1:]))

    def block_ids(self) -> tuple[int, ...]:
        """block_ids()[i] = index of the block holding position i+1."""
        ids = []
        b = 0
        divs = set(self.dividers)
        for pos in range(1, len(self.base) + 1):
            ids.append(b)
            if pos in divs:
                b += 1
        return tuple(ids)


DividedPattern = DividedPermutation


def parse_divided(text: str) -> DividedPermutation:
    """Parse "3,1|4,2" (canonical) or "31|42" (digit form, n <= 9)."""
    parts = text.strip().split("|")
    if any(not part.strip() for part in parts):
        raise ParseError(f"empty block in divided permutation {text!r}")
    if "," in text:
        block_vals = [[tok for tok in part.split(",")] for part in parts]
    else:
        block_vals = [list(part.strip()) for part in parts]
    flat = ",".join(tok for blk in block_vals for tok in blk)
    base = parse(flat)
    dividers = []
    pos = 0
    for blk in block_vals[:-1]:
        pos += len(blk)
        dividers.append(pos)
    return DividedPermutation(base, tuple(dividers))


def _divider_mask(d: DividedPermutation) -> int:
    """Bit j-1 set iff the entries at 0-based positions j-1 and j lie in
    different blocks."""
    return sum(1 << (t - 1) for t in d.dividers)


@lru_cache(maxsize=1024)
def _prepare(base: tuple[int, ...], masks: frozenset[int]):
    """The group of the divided patterns with this base and these masks.

    Returns (base, lo, hi, step).  Node 0 is the empty mask prefix; node u
    of depth t stands for bits 0..t-1, and step[u] = (node if bit t is
    clear, node if bit t is set), -1 where no mask of the group has that
    prefix.  A node of depth len(base)-1 is a whole mask of the group.
    """
    lo, hi = _neighbor_bounds(base)
    node: dict[tuple[int, int], int] = {(0, 0): 0}
    for mask in sorted(masks):
        for t in range(1, len(base)):
            node.setdefault((t, mask & ((1 << t) - 1)), len(node))
    step = [(-1, -1)] * len(node)
    for (t, prefix), u in node.items():
        step[u] = (node.get((t + 1, prefix), -1), node.get((t + 1, prefix | 1 << t), -1))
    return base, lo, hi, tuple(step)


@lru_cache(maxsize=256)
def _groups(patterns: tuple[DividedPattern, ...]) -> tuple:
    """The patterns grouped by base, in order of first appearance."""
    masks: dict[tuple[int, ...], set[int]] = {}
    for pat in patterns:
        masks.setdefault(pat.base.values, set()).add(_divider_mask(pat))
    return tuple(_prepare(base, frozenset(m)) for base, m in masks.items())


def _matcher(group, hv: Sequence[int], hb: Sequence[int]) -> Callable[[Optional[int]], bool]:
    """Containment test of one pattern group on raw values hv and
    non-decreasing block ids hb: does some pattern of the group occur?

    An occurrence of the base matches the pattern whose mask is the one it
    induces: bit j-1 set iff its entries j-1 and j lie in different host
    blocks.  Block ids are compared only with each other, so any
    non-negative non-decreasing ids work.  The test reads hb when called,
    so a search may change the block ids between calls.  Called with
    first, only occurrences whose first entry is at position first count,
    and positions before it are not read.
    """
    pv, lo, hi, step = group
    k, n = len(pv), len(hv)
    chosen = [0] * k
    cblock = [0] * k

    def extend(j: int, start: int, node: int) -> bool:
        # Place entry j >= 1; node is the mask prefix of entries 0..j-1.
        same, new = step[node]
        bl, bh = lo[j], hi[j]
        vlo = chosen[bl] if bl >= 0 else 0
        vhi = chosen[bh] if bh >= 0 else n + 1
        prev = cblock[j - 1]
        last = j + 1 == k
        for i in range(start, n - (k - j) + 1):
            b = hb[i]
            if b == prev:
                nxt = same
                if nxt < 0:
                    continue
            else:
                nxt = new
                if nxt < 0:
                    break  # host blocks only grow with position
            v = hv[i]
            if vlo < v < vhi:
                if last:
                    return True
                chosen[j] = v
                cblock[j] = b
                if extend(j + 1, i + 1, nxt):
                    return True
        return False

    def occurs(first: Optional[int] = None) -> bool:
        if k == 0:
            return True
        if first is None:
            return any(occurs(i) for i in range(n - k + 1))
        if k > n - first:
            return False
        # The first pattern entry has no value bounds and opens a block.
        chosen[0] = hv[first]
        cblock[0] = hb[first]
        return k == 1 or extend(1, first + 1, 0)

    return occurs


def div_contains(pattern: DividedPattern, host: DividedPermutation) -> bool:
    """True iff the divided pattern occurs in the divided host."""
    group = _prepare(pattern.base.values, frozenset((_divider_mask(pattern),)))
    return _matcher(group, host.base.values, host.block_ids())()


def div_avoids(host: DividedPermutation, patterns: Iterable[DividedPattern]) -> bool:
    """True iff the host avoids every pattern, tested one pattern at a time."""
    return not any(div_contains(p, host) for p in patterns)


def _dividers_of_mask(mask: int, n: int) -> tuple[int, ...]:
    return tuple(t + 1 for t in range(n - 1) if mask >> t & 1)


def all_divisions(p: Permutation) -> Iterator[DividedPermutation]:
    """All 2^(n-1) divisions of p, in increasing divider-bitmask order."""
    n = len(p)
    if n == 0:
        yield DividedPermutation(p, ())
        return
    for mask in range(1 << (n - 1)):
        yield DividedPermutation(p, _dividers_of_mask(mask, n))


def exists_division_avoiding(
    p: Permutation, patterns: Iterable[DividedPattern]
) -> Optional[DividedPermutation]:
    """First division of p (in all_divisions order) avoiding every pattern."""
    hv = p.values
    n = len(hv)
    hb = [0] * n
    matchers = [_matcher(group, hv, hb) for group in _groups(tuple(patterns))]
    if n == 0:
        return None if any(occurs() for occurs in matchers) else DividedPermutation(p, ())
    # Place positions n-1 down to 0.  opened[i]: position i went into a new
    # block instead of joining the block of position i+1, i.e. divider i+1
    # is set.  Block ids fall by one per new block, from n-1 at the right
    # end, so they stay non-negative.
    opened = [False] * n
    i = n - 1
    hb[i] = n - 1
    while True:
        for occurs in matchers:
            if occurs(i):
                break
        else:
            if i == 0:
                return DividedPermutation(
                    p, tuple(t + 1 for t in range(n - 1) if opened[t])
                )
            i -= 1
            opened[i] = False
            hb[i] = hb[i + 1]
            continue
        # Every completion contains an occurrence: back up to the nearest
        # position still joined to its right-hand block and open it instead.
        while i < n - 1 and opened[i]:
            i += 1
        if i == n - 1:
            return None
        opened[i] = True
        hb[i] = hb[i + 1] - 1


def blockwise_reverse(d: DividedPermutation) -> Permutation:
    """Reverse each block in place and concatenate."""
    out: list[int] = []
    for blk in d.blocks():
        out.extend(reversed(blk))
    return Permutation(tuple(out))


def reachable_by_local_reversals(
    p: Permutation, membership: Callable[[tuple[int, ...]], bool]
) -> bool:
    """True iff some division of p blockwise-reverses into the given set.

    Tries the divisions in all_divisions order, reversing the blocks of
    each divider mask straight from p's values.  `membership` receives each
    reversal as a value tuple, the values of `blockwise_reverse` of that
    division; it is a bijection because p is, and is not validated again.
    """
    v = p.values
    n = len(v)
    if n == 0:
        return membership(v)
    for mask in range(1 << (n - 1)):
        out: list[int] = []
        start = 0
        for t in range(1, n):
            if mask >> (t - 1) & 1:
                out += v[start:t][::-1]
                start = t
        out += v[start:][::-1]
        if membership(tuple(out)):
            return True
    return False
