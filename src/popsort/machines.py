"""Operational semantics and sortability deciders for six serial machines.

Kinds (first device listed first):

  S    a single stack
  PS   pop stack, then stack, linked directly: a pop-stack flush lands on
       the stack with no buffering
  PQS  pop stack, queue, stack
  SP   stack, then pop stack, linked directly: popping the pop stack emits
       its whole content to the output
  SQP  stack, queue, pop stack
  DI   a strictly decreasing stack (read top to bottom) feeding a strictly
       increasing one

A machine sorts pi when some move sequence emits 1,...,n.  Output-type
moves are restricted to emitting the smallest outstanding value, which
turns the output into a counter.  `Machine.successors` is the one
statement of the raw move semantics: each legal move with the state it
leads to.  `apply_move` checks one step against it, `replay` runs a move
sequence through it, and `is_sortable_unpruned` is the slow reference
search over the graph it spans, used to validate the pruning.
`is_sortable`/`sorting_witness` run a pruned depth-first search over
configurations; `decider` hands out the same search as a decision on value
tuples, for callers that build candidates by construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional

from .divided import DividedPattern, exists_division_avoiding, parse_divided
from .perms import Permutation, avoids, parse


class MachineKind(Enum):
    S = "s"
    PS = "ps"
    PQS = "pqs"
    SP = "sp"
    SQP = "sqp"
    DI = "di"

    @classmethod
    def from_name(cls, name: str) -> "MachineKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown machine kind {name!r}") from None


class Move(Enum):
    INPUT = "I"
    FLUSH_POP = "F"       # entire pop stack onto its successor, top first
    PUSH_ONE = "P"        # one entry from the first device to its successor
    DEQUEUE = "D"         # queue front to the next device
    OUTPUT = "O"
    FLUSH_OUTPUT = "F2"   # entire pop stack to the output, top first


_MOVE_TOKENS = {
    Move.INPUT: "I",
    Move.FLUSH_POP: "F",
    Move.PUSH_ONE: "P",
    Move.DEQUEUE: "D",
    Move.OUTPUT: "O",
    Move.FLUSH_OUTPUT: "F",
}


def moves_to_text(moves: Iterable[Move]) -> str:
    return ",".join(_MOVE_TOKENS[m] for m in moves)


def moves_from_text(kind: MachineKind, text: str) -> list[Move]:
    """Parse a comma-separated move string; the kind disambiguates F."""
    flush = Move.FLUSH_OUTPUT if kind in (MachineKind.SP, MachineKind.SQP) else Move.FLUSH_POP
    table = {"I": Move.INPUT, "F": flush, "P": Move.PUSH_ONE, "D": Move.DEQUEUE, "O": Move.OUTPUT}
    moves = []
    text = text.strip()
    if not text:
        return moves
    for tok in text.split(","):
        tok = tok.strip().upper()
        if tok not in table:
            raise ValueError(f"unknown move token {tok!r}")
        moves.append(table[tok])
    return moves


class IllegalMoveError(RuntimeError):
    def __init__(self, move: Move, state: "MachineState", step: int | None = None):
        self.move = move
        self.state = state
        self.step = step
        at = f" at step {step}" if step is not None else ""
        super().__init__(f"illegal move {move.name}{at} in state {state}")


@dataclass(frozen=True)
class MachineState:
    """A machine configuration.

    `pop`, `queue` and `stack` are tuples; the last element of a stack
    tuple is its top, the first element of the queue is its front.  For DI
    the `pop` field holds the first (decreasing) stack.  `next_needed` is
    the smallest value not yet output.
    """

    input_pos: int = 0
    pop: tuple[int, ...] = ()
    queue: tuple[int, ...] = ()
    stack: tuple[int, ...] = ()
    next_needed: int = 1

    def __str__(self) -> str:
        return (
            f"(in={self.input_pos} pop={list(self.pop)} queue={list(self.queue)}"
            f" stack={list(self.stack)} next={self.next_needed})"
        )


class Machine:
    """The move semantics of one machine kind bound to one input permutation."""

    def __init__(self, kind: MachineKind, perm: Permutation):
        self.kind = kind
        self.perm = perm

    def initial_state(self) -> MachineState:
        return MachineState()

    def successors(self, state: MachineState) -> Iterator[tuple[Move, MachineState]]:
        """Each move legal in `state` with the state it leads to, generated
        one at a time so that `apply_move` stops at the one it looks for.

        The order is fixed: the output-type move, INPUT, FLUSH_POP or
        PUSH_ONE, then DEQUEUE.  Flushing an empty pop stack is never
        offered (it would be a no-op), and output moves are only offered
        when they emit the next needed value (or, for SP/SQP, the run
        starting at it).
        """
        kind = self.kind
        p = self.perm.values
        i, pop, queue, stack, nn = (
            state.input_pos, state.pop, state.queue, state.stack, state.next_needed,
        )
        pop_last = kind in (MachineKind.SP, MachineKind.SQP)
        if pop_last:
            # Popping emits top to bottom; that must read nn, nn+1, ...
            if pop and all(pop[-1 - t] == nn + t for t in range(len(pop))):
                yield Move.FLUSH_OUTPUT, MachineState(i, (), queue, stack, nn + len(pop))
        elif stack and stack[-1] == nn:
            yield Move.OUTPUT, MachineState(i, pop, queue, stack[:-1], nn + 1)
        if i < len(p):
            # S, SP and SQP read onto their stack, the others onto `pop`.
            x = p[i]
            if pop_last or kind is MachineKind.S:
                yield Move.INPUT, MachineState(i + 1, pop, queue, stack + (x,), nn)
            elif kind is not MachineKind.DI or not pop or x > pop[-1]:
                yield Move.INPUT, MachineState(i + 1, pop + (x,), queue, stack, nn)
        if kind is MachineKind.PS and pop:
            yield Move.FLUSH_POP, MachineState(i, (), queue, stack + pop[::-1], nn)
        elif kind is MachineKind.PQS and pop:
            yield Move.FLUSH_POP, MachineState(i, (), queue + pop[::-1], stack, nn)
        elif kind is MachineKind.SP and stack:
            yield Move.PUSH_ONE, MachineState(i, pop + stack[-1:], queue, stack[:-1], nn)
        elif kind is MachineKind.SQP and stack:
            yield Move.PUSH_ONE, MachineState(i, pop, queue + stack[-1:], stack[:-1], nn)
        elif kind is MachineKind.DI and pop and (not stack or pop[-1] < stack[-1]):
            yield Move.PUSH_ONE, MachineState(i, pop[:-1], queue, stack + pop[-1:], nn)
        if kind is MachineKind.PQS and queue:
            yield Move.DEQUEUE, MachineState(i, pop, queue[1:], stack + queue[:1], nn)
        elif kind is MachineKind.SQP and queue:
            yield Move.DEQUEUE, MachineState(i, pop + queue[:1], queue[1:], stack, nn)

    def apply_move(self, state: MachineState, move: Move) -> MachineState:
        """The state `move` leads to; IllegalMoveError if it is not legal."""
        for offered, nxt in self.successors(state):
            if offered is move:
                return nxt
        raise IllegalMoveError(move, state)


# ---------------------------------------------------------------------------
# Pruned depth-first searches, one per kind.
#
# All searches force output-type moves the moment they are legal and skip
# moves that provably lead nowhere: the final stack must stay strictly
# increasing read top to bottom (else its entries can never leave in
# order), a PS pop stack must stay strictly decreasing read top to bottom
# (a flush would wedge the stack otherwise), and an SP/SQP pop stack must
# always hold a descending consecutive run (nothing else can ever be
# flushed out).  In SQP the queue cannot reorder, so the values entering
# it (`flow`) reach the pop stack in that order and must form a prefix of
# a layered permutation: runs of consecutive values, each run decreasing,
# the runs increasing (e.g. 2,1,3,6,5,4).  SQP pushes into the queue are
# pruned to keep that invariant.
#
# In SP and SQP every value leaves the stack for the pop stack in the
# same order, and a pop stack sorts exactly the layered permutations
# (Avis & Newborn 1981), so the stream leaving the stack must be layered.
# Both searches refuse an INPUT by two rules (`_input_ceiling`):
#   1. No stack z, y, x (bottom to top) with y < z < x: x leaves before
#      the smaller y, so the two share a run and z, between them in value,
#      must leave between them, but z leaves after y.  `ceil[k]` is the
#      smallest value of stack[:k] with a smaller value above it (n + 1 if
#      none); an entry above ceil[-1] is refused.  It is a function of the
#      stack, so the memo key omits it.
#   2. No INPUT while b - 1 is on top of the stack, where b ends the open
#      run (SP: the pop stack's top; SQP: `last`): only b - 1 may leave
#      the stack next, and a value put on it could never move.
#
# In PQS an INPUT x joins the open block, and the flush that ends the
# block drains it onto the stack last entry first: x is fed before the
# block's least entry lo, and no value above lo can be output before lo.
# `_pqs_block` refuses x by two rules, the obstructions 132 and 2|13 of
# `DIVIDED_OBSTRUCTIONS[PQS]`:
#   A. lo < x < hi, hi the largest entry after lo in the block: hi is fed
#      after x and before lo, so it lands on x, which still waits for lo.
#   B. x > lo and x > cap, cap the least stack value above lo: x lands
#      above cap, which still waits for lo.
# `is_sortable_unpruned` explores the raw move graph, edge by edge from
# `Machine.successors`, and is compared against these searches by the
# test suite.
#
# Witnesses are recorded on the way back up.  A search appends to `rec`
# only once the child a move leads to has returned True: that move, then
# the forced moves that led into the current state.  `rec` therefore holds
# the witness back to front and `sorting_witness` reverses it once; a
# failed branch leaves nothing to roll back.  PS and DI record the outputs
# a state forced on entry; in SP and SQP the push or dequeue that completed
# the run records the child's flush (it flushes iff the moved value is the
# next needed one); PQS records its whole drain reversed.  With `rec` None,
# its default (a decision), no list is touched.
#
# Each recursive `dfs` refers to itself, a reference cycle that would keep
# its `failed` memo alive until the cyclic garbage collector runs; the
# searches delete the name on return so that the memo is freed at once.
# ---------------------------------------------------------------------------


def _solve_s(p: tuple[int, ...], rec: Optional[list[Move]] = None) -> bool:
    n = len(p)
    stack: list[int] = []
    nn = 1
    i = 0
    while nn <= n:
        if stack and stack[-1] == nn:
            stack.pop()
            nn += 1
            if rec is not None:
                rec.append(Move.OUTPUT)
        elif i < n and (not stack or p[i] < stack[-1]):
            stack.append(p[i])
            i += 1
            if rec is not None:
                rec.append(Move.INPUT)
        else:
            return False
    if rec is not None:
        rec.reverse()  # the single forced path was recorded front to back
    return True


def _solve_ps(p: tuple[int, ...], rec: Optional[list[Move]] = None) -> bool:
    n = len(p)
    failed: set[tuple] = set()

    def dfs(i: int, j: int, stack: tuple[int, ...], nn: int) -> bool:
        # pop stack = p[j:i], oldest first
        outs = 0
        while stack and stack[-1] == nn:
            stack = stack[:-1]
            nn += 1
            outs += 1
        if nn > n:
            if rec is not None:
                rec.extend((Move.OUTPUT,) * outs)
            return True
        key = (i, j, stack, nn)
        if key in failed:
            return False
        if i < n and (j == i or p[i] > p[i - 1]) and dfs(i + 1, j, stack, nn):
            if rec is not None:
                rec.extend((Move.INPUT,) + (Move.OUTPUT,) * outs)
            return True
        if (j < i and (not stack or p[i - 1] < stack[-1])
                and dfs(i, i, stack + p[j:i][::-1], nn)):
            if rec is not None:
                rec.extend((Move.FLUSH_POP,) + (Move.OUTPUT,) * outs)
            return True
        failed.add(key)
        return False

    try:
        return dfs(0, 0, (), 1)
    finally:
        del dfs


def _solve_pqs(p: tuple[int, ...], rec: Optional[list[Move]] = None) -> bool:
    # The stack only receives entries from the queue front, so while the
    # queue is nonempty nothing else can touch the stack: a legal dequeue
    # commutes with any input/flush and may be taken at once, and a blocked
    # one (front above the stack top) can never unblock.  Each flush is
    # therefore followed by draining the whole queue through the stack,
    # interleaved with the forced outputs, and the queue is empty at every
    # branch point.
    n = len(p)
    failed: set[tuple] = set()

    def dfs(i: int, j: int, stack: tuple[int, ...], nn: int,
            block: tuple[int, int, int]) -> bool:
        # pop stack = p[j:i], oldest first; queue empty.  block = (lo, hi,
        # cap) of p[j:i] when j < i (see `_pqs_block`); it is a function of
        # i, j and stack, so the key omits it.
        if nn > n:
            return True
        key = (i, j, stack, nn)
        if key in failed:
            return False
        if i < n:
            grown = _pqs_block(p, i, j, stack, block)
            if grown and dfs(i + 1, j, stack, nn, grown):
                if rec is not None:
                    rec.append(Move.INPUT)
                return True
        if j < i:
            st = stack
            nn2 = nn
            alive = True
            drain: list[Move] | None = [Move.FLUSH_POP] if rec is not None else None
            for t in range(i - 1, j - 1, -1):
                x = p[t]
                if st and x > st[-1]:
                    alive = False
                    break
                st = st + (x,)
                if drain is not None:
                    drain.append(Move.DEQUEUE)
                while st and st[-1] == nn2:
                    st = st[:-1]
                    nn2 += 1
                    if drain is not None:
                        drain.append(Move.OUTPUT)
            if alive and dfs(i, i, st, nn2, (0, 0, 0)):
                if drain is not None:
                    rec.extend(reversed(drain))
                return True
        failed.add(key)
        return False

    try:
        return dfs(0, 0, (), 1, (0, 0, 0))
    finally:
        del dfs


def _pqs_block(p: tuple[int, ...], i: int, j: int, stack: tuple[int, ...],
               block: tuple[int, int, int]) -> Optional[tuple[int, int, int]]:
    """The open block's (lo, hi, cap) once x = p[i] joins it, or None if
    rule A or B refuses that INPUT.

    The open block is p[j:i], and `block` its (lo, hi, cap) unless it is
    empty: lo is its least entry, hi the largest entry after lo (0: none)
    and cap the least stack value above lo (len(p) + 1: none).  Only a new
    least entry scans the stack.
    """
    x = p[i]
    lo, hi, cap = block
    if j < i and x > lo:
        if x < hi or x > cap:
            return None
        return lo, x, cap
    for v in reversed(stack):  # the stack decreases towards its top
        if v > x:
            return x, 0, v
    return x, 0, len(p) + 1


def _input_ceiling(stack: tuple[int, ...], ceiling: int, x: int, b: int) -> int:
    """The stack's ceiling once x is put on it, or 0 if that INPUT is dead.

    `ceiling` is the current stack's; b ends the open run (0: none open).
    """
    if x > ceiling or (stack and stack[-1] == b - 1):
        return 0
    for v in stack:
        if x < v < ceiling:
            ceiling = v
    return ceiling


def _solve_sp(p: tuple[int, ...], rec: Optional[list[Move]] = None) -> bool:
    n = len(p)
    failed: set[tuple] = set()

    def dfs(i: int, stack: tuple[int, ...], ceil: tuple[int, ...],
            pop: tuple[int, ...], nn: int) -> bool:
        # pop is kept a descending consecutive run, oldest (largest) first;
        # ceil[k] is the ceiling of stack[:k]
        if pop and pop[-1] == nn:
            nn += len(pop)
            pop = ()
        if nn > n:
            return True
        key = (i, stack, pop, nn)
        if key in failed:
            return False
        if i < n:
            c = _input_ceiling(stack, ceil[-1], p[i], pop[-1] if pop else 0)
            if c and dfs(i + 1, stack + (p[i],), ceil + (c,), pop, nn):
                if rec is not None:
                    rec.append(Move.INPUT)
                return True
        if (stack and (not pop or stack[-1] == pop[-1] - 1)
                and dfs(i, stack[:-1], ceil[:-1], pop + (stack[-1],), nn)):
            if rec is not None:
                if stack[-1] == nn:
                    rec.append(Move.FLUSH_OUTPUT)
                rec.append(Move.PUSH_ONE)
            return True
        failed.add(key)
        return False

    try:
        return dfs(0, (), (n + 1,), (), 1)
    finally:
        del dfs


def _solve_sqp(p: tuple[int, ...], rec: Optional[list[Move]] = None) -> bool:
    n = len(p)
    failed: set[tuple] = set()

    def dfs(i: int, stack: tuple[int, ...], ceil: tuple[int, ...], flow: tuple[int, ...],
            d: int, pop: tuple[int, ...], nn: int, lo: int, top: int, last: int) -> bool:
        # queue = flow[d:]; flow is a layered prefix whose closed runs hold
        # 1..lo-1 and whose open run is top..last (last == 0: none open).
        # ceil[k] is the ceiling of stack[:k].  ceil, lo, top and last are
        # functions of stack and flow, so the key omits them.
        if pop and pop[-1] == nn:
            nn += len(pop)
            pop = ()
        if nn > n:
            return True
        key = (i, stack, flow, d, pop, nn)
        if key in failed:
            return False
        if i < n:
            c = _input_ceiling(stack, ceil[-1], p[i], last)
            if c and dfs(i + 1, stack + (p[i],), ceil + (c,), flow, d, pop, nn, lo, top, last):
                if rec is not None:
                    rec.append(Move.INPUT)
                return True
        if stack and (stack[-1] == last - 1 if last else stack[-1] >= lo):
            x = stack[-1]
            run_top = top if last else x
            # pushing lo closes the run
            runs = (run_top + 1, 0, 0) if x == lo else (lo, run_top, x)
            if dfs(i, stack[:-1], ceil[:-1], flow + (x,), d, pop, nn, *runs):
                if rec is not None:
                    rec.append(Move.PUSH_ONE)
                return True
        if (d < len(flow) and (not pop or flow[d] == pop[-1] - 1)
                and dfs(i, stack, ceil, flow, d + 1, pop + (flow[d],), nn, lo, top, last)):
            if rec is not None:
                if flow[d] == nn:
                    rec.append(Move.FLUSH_OUTPUT)
                rec.append(Move.DEQUEUE)
            return True
        failed.add(key)
        return False

    try:
        return dfs(0, (), (n + 1,), (), 0, (), 1, 1, 0, 0)
    finally:
        del dfs


def _solve_di(p: tuple[int, ...], rec: Optional[list[Move]] = None) -> bool:
    n = len(p)
    failed: set[tuple] = set()

    def dfs(i: int, first: tuple[int, ...], second: tuple[int, ...], nn: int) -> bool:
        outs = 0
        while second and second[-1] == nn:
            second = second[:-1]
            nn += 1
            outs += 1
        if nn > n:
            if rec is not None:
                rec.extend((Move.OUTPUT,) * outs)
            return True
        key = (i, first, second, nn)
        if key in failed:
            return False
        if i < n and (not first or p[i] > first[-1]) and dfs(i + 1, first + (p[i],), second, nn):
            if rec is not None:
                rec.extend((Move.INPUT,) + (Move.OUTPUT,) * outs)
            return True
        if (first and (not second or first[-1] < second[-1])
                and dfs(i, first[:-1], second + (first[-1],), nn)):
            if rec is not None:
                rec.extend((Move.PUSH_ONE,) + (Move.OUTPUT,) * outs)
            return True
        failed.add(key)
        return False

    try:
        return dfs(0, (), (), 1)
    finally:
        del dfs


_SOLVERS = {
    MachineKind.S: _solve_s,
    MachineKind.PS: _solve_ps,
    MachineKind.PQS: _solve_pqs,
    MachineKind.SP: _solve_sp,
    MachineKind.SQP: _solve_sqp,
    MachineKind.DI: _solve_di,
}


def decider(kind: MachineKind) -> Callable[[tuple[int, ...]], bool]:
    """The kind's search as a decision on value tuples: `decider(kind)(v)`
    is `is_sortable(kind, Permutation(v))`, with no Permutation built.  The
    caller vouches that v is a bijection on 1..len(v)."""
    return _SOLVERS[kind]


def is_sortable(kind: MachineKind, p: Permutation) -> bool:
    """True iff some move sequence of the machine outputs 1, ..., n."""
    return _SOLVERS[kind](p.values)


def sorting_witness(kind: MachineKind, p: Permutation) -> Optional[list[Move]]:
    """A move sequence sorting p, or None; present iff `is_sortable`."""
    rec: list[Move] = []
    if not _SOLVERS[kind](p.values, rec):
        return None
    rec.reverse()
    return rec


def replay(kind: MachineKind, p: Permutation, moves: Iterable[Move]) -> Permutation:
    """Run a move sequence and return what was output, as a permutation.

    Raises IllegalMoveError (with the 1-based step) on the first move that
    is not legal in the state it is applied to.
    """
    machine = Machine(kind, p)
    state = machine.initial_state()
    emitted: list[int] = []
    for step, move in enumerate(moves, start=1):
        before = state
        try:
            state = machine.apply_move(state, move)
        except IllegalMoveError:
            raise IllegalMoveError(move, before, step) from None
        if move is Move.OUTPUT:
            emitted.append(before.stack[-1])
        elif move is Move.FLUSH_OUTPUT:
            emitted.extend(before.pop[::-1])
    return Permutation(tuple(emitted))


def is_sortable_unpruned(kind: MachineKind, p: Permutation) -> bool:
    """Exhaustive search over the raw move graph of `Machine.successors` (the reference)."""
    machine = Machine(kind, p)
    start = machine.initial_state()
    done = len(p) + 1
    seen = {start}
    todo = [start]
    while todo:
        state = todo.pop()
        if state.next_needed == done:
            return True
        for _, nxt in machine.successors(state):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return False


# ---------------------------------------------------------------------------
# The two non-simulation routes to PS/PQS sortability.
# ---------------------------------------------------------------------------

PS_BASIS: tuple[Permutation, ...] = (parse("2431"), parse("3142"), parse("3241"))

# The PQS-sortable counts for n = 1..9, and the number of minimal
# PQS-unsortable permutations the paper conjectures make up the whole basis.
PQS_SEQUENCE = (1, 2, 6, 24, 120, 685, 4148, 25661, 159829)
PQS_BASIS_CONJECTURED_COUNT = 108

DIVIDED_OBSTRUCTIONS: dict[MachineKind, tuple[DividedPattern, ...]] = {
    MachineKind.PS: tuple(parse_divided(t) for t in ("21", "2|13", "2|3|1")),
    MachineKind.PQS: tuple(parse_divided(t) for t in ("132", "2|13", "32|1", "2|3|1")),
}


def is_sortable_ps_by_basis(p: Permutation) -> bool:
    """PS sortability via avoidance of the three minimal unsortable patterns."""
    return avoids(p, PS_BASIS)


def is_sortable_by_division(kind: MachineKind, p: Permutation) -> bool:
    """PS/PQS sortability via the divided-pattern characterization."""
    if kind not in DIVIDED_OBSTRUCTIONS:
        raise ValueError(f"no divided-pattern characterization for {kind.name}")
    return exists_division_avoiding(p, DIVIDED_OBSTRUCTIONS[kind]) is not None
