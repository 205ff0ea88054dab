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
"""
from __future__ import annotations

from dataclasses import dataclass
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


def _prep_pattern(pat: DividedPermutation):
    pv = pat.base.values
    pb = pat.block_ids()
    lo, hi = _neighbor_bounds(pv)
    starts_block = tuple(j == 0 or pb[j] != pb[j - 1] for j in range(len(pv)))
    return pv, lo, hi, starts_block


def _matcher(prep, hv: Sequence[int], hb: Sequence[int]) -> Callable[[Optional[int]], bool]:
    """Containment test of one prepared pattern on raw values hv and
    non-decreasing block ids hb.

    Block ids are compared only with each other, so any non-negative
    non-decreasing ids work.  The test reads hb when called, so a search
    may change the block ids between calls.  Called with first, only
    occurrences whose first entry is at position first count, and
    positions before it are not read.
    """
    pv, lo, hi, starts_block = prep
    k, n = len(pv), len(hv)
    chosen = [0] * k
    cblock = [0] * k

    def extend(j: int, start: int) -> bool:
        bl, bh = lo[j], hi[j]
        vlo = chosen[bl] if bl >= 0 else 0
        vhi = chosen[bh] if bh >= 0 else n + 1
        new_block = starts_block[j]
        minb = cblock[j - 1] + 1 if (new_block and j) else 0
        reqb = cblock[j - 1] if not new_block else -1
        last = j + 1 == k
        for i in range(start, n - (k - j) + 1):
            b = hb[i]
            if new_block:
                if b < minb:
                    continue
            elif b != reqb:
                if b > reqb:
                    break  # host blocks only grow with position
                continue
            v = hv[i]
            if vlo < v < vhi:
                if last:
                    return True
                chosen[j] = v
                cblock[j] = b
                if extend(j + 1, i + 1):
                    return True
        return False

    def occurs(first: Optional[int] = None) -> bool:
        if k == 0:
            return True
        if first is None:
            return k <= n and extend(0, 0)
        if k > n - first:
            return False
        # The first pattern entry has no value bounds and opens a block.
        if k == 1:
            return True
        chosen[0] = hv[first]
        cblock[0] = hb[first]
        return extend(1, first + 1)

    return occurs


def div_contains(pattern: DividedPattern, host: DividedPermutation) -> bool:
    """True iff the divided pattern occurs in the divided host."""
    return _matcher(_prep_pattern(pattern), host.base.values, host.block_ids())()


def div_avoids(host: DividedPermutation, patterns: Iterable[DividedPattern]) -> bool:
    hv, hb = host.base.values, host.block_ids()
    return not any(_matcher(_prep_pattern(p), hv, hb)() for p in patterns)


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
    if n == 0:
        return DividedPermutation(p, ())
    # Place positions n-1 down to 0.  opened[i]: position i went into a new
    # block instead of joining the block of position i+1, i.e. divider i+1
    # is set.  Block ids fall by one per new block, from n-1 at the right
    # end, so they stay non-negative.
    hb = [0] * n
    matchers = [_matcher(_prep_pattern(pat), hv, hb) for pat in patterns]
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
