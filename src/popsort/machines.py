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
turns the output into a counter.  `successors` is the one statement of
the raw move semantics: each legal move with the state it leads to.
`replay` runs a move sequence through it, and `is_sortable_unpruned` is
the slow reference search over the graph it spans, used to validate the
pruning.
`sorting_witness` runs the kind's solver: a forced loop for S and DI, a
pruned block-by-block search for PS and PQS, and for SP and SQP the PQS
search on the dual, its witness read backwards.  `is_sortable` and
`decider` (the same decision on value tuples, for callers that build
candidates by construction) run the same solver without a witness.
"""
from __future__ import annotations

from enum import Enum
from functools import partial
from itertools import groupby
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .divided import DividedPattern, exists_division_avoiding, parse_divided
from .perms import Permutation, dual_values, identity, parse


class MachineKind(Enum):
    S = "s"
    PS = "ps"
    PQS = "pqs"
    SP = "sp"
    SQP = "sqp"
    DI = "di"


class Move(Enum):
    """A machine move; its value is its token in move text.  FLUSH_POP
    empties the pop stack, top first, into whatever follows it: the stack
    (PS), the queue (PQS) or the output (SP, SQP)."""

    INPUT = "I"
    FLUSH_POP = "F"
    PUSH_ONE = "P"        # one entry from the first device to its successor
    DEQUEUE = "D"         # queue front to the next device
    OUTPUT = "O"


def moves_to_text(moves: Iterable[Move]) -> str:
    return ",".join(m.value for m in moves)


def moves_from_text(text: str) -> list[Move]:
    """Parse a comma-separated move string."""
    moves = []
    for tok in text.split(",") if text.strip() else ():
        tok = tok.strip().upper()
        try:
            moves.append(Move(tok))
        except ValueError:
            raise ValueError(f"unknown move token {tok!r}") from None
    return moves


class IllegalMoveError(RuntimeError):
    def __init__(self, move: Move, state: "MachineState", step: int):
        self.move = move
        self.state = state
        self.step = step
        super().__init__(f"illegal move {move.name} at step {step} in state {state}")


class MachineState(NamedTuple):
    """A machine configuration.

    `pop`, `queue` and `stack` are tuples; the last element of a stack
    tuple is its top, the first element of the queue is its front.  For DI
    the `pop` field holds the first (decreasing) stack.  `next_needed` is
    the smallest value not yet output.  A plain tuple, so the raw move
    graph builds and hashes states at tuple cost.
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


def successors(kind: MachineKind, p: tuple[int, ...],
               state: MachineState) -> Iterator[tuple[Move, MachineState]]:
    """Each move legal in `state` on input p with the state it leads to,
    generated one at a time so that `replay` stops at the one it looks for.

    The order is fixed: the output-type move (OUTPUT, or in SP and SQP
    FLUSH_POP), INPUT, FLUSH_POP (PS, PQS) or PUSH_ONE, then DEQUEUE.
    This is the one place that says where a flush lands.  Flushing an
    empty pop stack is never offered (it would be a no-op), and output
    moves are only offered when they emit the next needed value (or, for
    SP/SQP, the run starting at it).
    """
    i, pop, queue, stack, nn = state
    pop_last = kind in (MachineKind.SP, MachineKind.SQP)
    if pop_last:
        # Popping emits top to bottom; that must read nn, nn+1, ...
        if pop and all(pop[-1 - t] == nn + t for t in range(len(pop))):
            yield Move.FLUSH_POP, MachineState(i, (), queue, stack, nn + len(pop))
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


# ---------------------------------------------------------------------------
# Solvers, one per kind: two block searches, two forced loops, and SP and
# SQP read off the PQS search on the dual.
#
# The searches take output-type moves the moment they are legal.  Only the
# move that feeds the device the output leaves from can make one legal, and
# the branch making it applies it, with every output it chains, before it
# recurses (PS: the flush, PQS: the drain after a flush).  No `dfs` is
# entered with an output-type move legal.
#
# The searches skip moves that provably lead nowhere: the final stack must
# stay strictly increasing read top to bottom (else its entries can never
# leave in order), and a PS pop stack must stay strictly decreasing read
# top to bottom (a flush would wedge the stack otherwise).
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
#
# SP and SQP are PQS run backwards.  A run never compares values, and run
# backwards in time, with its devices in reverse order, a stack stays a
# stack and a queue a queue, while the sorted permutation becomes its
# dual (`dual_values`): a PQS run sorting the dual of p, read backwards,
# feeds p through a stack, a queue and a last device and sorts it.  A
# PQS block enters the pop stack one entry at a time and leaves it in one
# flush; backwards, it enters the last device at once and leaves one
# entry at a time, last first.  `_solve_pqs` reads each block in
# consecutive INPUTs just before its flush, and drains the queue before
# the next block, so backwards each block leaves the last device with no
# move in between, which is one pop-stack flush to the output, and the
# queue holds one block at a time, which SP's direct link does as well.
# The PQS `rec` is the run back to front already, so `_solve_backwards`
# maps it in order: OUTPUT -> INPUT, DEQUEUE -> PUSH_ONE, FLUSH_POP is
# dropped, and a run of k INPUTs -> FLUSH_POP (SQP: k DEQUEUEs, then
# FLUSH_POP).  With `rec` None it is the PQS decision on the dual, so SP
# and SQP sort one class.
#
# PS and PQS search block by block.  A run of either cuts the input into
# blocks, one per flush, and their `dfs(j, stack, nn)` runs only at a
# block boundary j: pop stack and queue empty, every forced output taken.
# There (stack, nn) is a function of j.  The outputs 1..nn-1 were all
# read, and the stack holds the other values of p[:j], strictly
# decreasing towards its top; a read nn would be its top and be output,
# so nn = mex(p[:j]) and the stack holds the values of p[:j] above nn,
# largest at the bottom.  So `failed` is a set of boundaries, and a block
# grows in a loop: from j to its longest admissible end m (PS: while the
# input increases; PQS: while `_pqs_block` admits the next entry).  The
# blocks p[j:i] are then tried for i = m down to j + 1, longest first,
# which prefers INPUT to a flush as `successors` orders them.
#
# With no output legal, DI reads x = p[i] when f < x < s for the tops f
# and s of its stacks (an empty stack bounds nothing), else it pushes f.
# Refusing x > s never loses: s is not next needed, so it waits on a
# smaller value, under x on the first stack or unread, which cannot get
# past x while x cannot go onto s.  Reading x never loses either: a run
# that instead pushes the first stack's top entries f = f1 > ... > fk and
# then reads x must output each fj < x before x moves, meanwhile output
# nothing else, and push only values read above x, onto s or each other.
# Reading x first, the same reads and pushes, then pushing x, f1, ..., fk
# and outputting them reaches the run's state once it has pushed x.
#
# Witnesses are recorded on the way back up.  A branch appends to `rec`
# only once the child it leads to has returned True: the forced moves it
# applied, last first, then its own move (PS and PQS: the flush, then the
# block's INPUTs).  `rec` therefore holds the witness back to front and
# `sorting_witness` reverses it once; a failed branch leaves nothing to
# roll back.  With `rec` None, a decision, no list is touched.
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
            move = Move.OUTPUT
        elif i < n and (not stack or p[i] < stack[-1]):
            stack.append(p[i])
            i += 1
            move = Move.INPUT
        else:
            return False
        if rec is not None:
            rec.append(move)
    if rec is not None:
        rec.reverse()  # the single forced path was recorded front to back
    return True


def _solve_ps(p: tuple[int, ...], rec: Optional[list[Move]] = None) -> bool:
    n = len(p)
    failed: set[int] = set()

    def dfs(j: int, stack: tuple[int, ...], nn: int) -> bool:
        # a block boundary: (stack, nn) is a function of j
        if nn > n:
            return True
        if j in failed:
            return False
        m = j + 1  # the block p[j:i] must increase, so i <= m
        while m < n and p[m] > p[m - 1]:
            m += 1
        for i in range(m, j, -1):
            if stack and p[i - 1] > stack[-1]:
                continue
            st = stack + p[j:i][::-1]
            out = nn
            while st and st[-1] == out:
                st = st[:-1]
                out += 1
            if dfs(i, st, out):
                if rec is not None:
                    rec.extend((Move.OUTPUT,) * (out - nn))
                    rec.append(Move.FLUSH_POP)
                    rec.extend((Move.INPUT,) * (i - j))
                return True
        failed.add(j)
        return False

    try:
        return dfs(0, (), 1)
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
    failed: set[int] = set()

    def dfs(j: int, stack: tuple[int, ...], nn: int) -> bool:
        # a block boundary: (stack, nn) is a function of j
        if nn > n:
            return True
        if j in failed:
            return False
        m = j  # the blocks p[j:i] that rules A and B admit have i <= m
        block = (0, 0, 0)
        while m < n:
            grown = _pqs_block(p, m, j, stack, block)
            if grown is None:
                break
            block = grown
            m += 1
        for i in range(m, j, -1):
            st = stack
            out = nn
            drain: list[Move] | None = [] if rec is not None else None
            for t in range(i - 1, j - 1, -1):
                x = p[t]
                if st and x > st[-1]:
                    break
                st = st + (x,)
                if drain is not None:
                    drain.append(Move.DEQUEUE)
                while st and st[-1] == out:
                    st = st[:-1]
                    out += 1
                    if drain is not None:
                        drain.append(Move.OUTPUT)
            else:
                if dfs(i, st, out):
                    if drain is not None:
                        rec.extend(reversed(drain))
                        rec.append(Move.FLUSH_POP)
                        rec.extend((Move.INPUT,) * (i - j))
                    return True
        failed.add(j)
        return False

    try:
        return dfs(0, (), 1)
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


def _solve_di(p: tuple[int, ...], rec: Optional[list[Move]] = None) -> bool:
    n = len(p)
    first: list[int] = []
    second: list[int] = []
    nn = 1
    i = 0
    while nn <= n:
        if second and second[-1] == nn:
            second.pop()
            nn += 1
            move = Move.OUTPUT
        elif i < n and (not first or p[i] > first[-1]) and (not second or p[i] < second[-1]):
            first.append(p[i])
            i += 1
            move = Move.INPUT
        elif first and (not second or first[-1] < second[-1]):
            second.append(first.pop())
            move = Move.PUSH_ONE
        else:
            return False
        if rec is not None:
            rec.append(move)
    if rec is not None:
        rec.reverse()  # the single forced path was recorded front to back
    return True


_BACKWARDS = {Move.OUTPUT: Move.INPUT, Move.DEQUEUE: Move.PUSH_ONE}


def _solve_backwards(kind: MachineKind, p: tuple[int, ...],
                     rec: Optional[list[Move]] = None) -> bool:
    pqs = None if rec is None else []
    if not _solve_pqs(dual_values(p), pqs):
        return False
    if rec is not None:
        # pqs is the PQS run back to front: read forwards, the run on p
        for move, run in groupby(pqs):
            if move is Move.INPUT:
                if kind is MachineKind.SQP:
                    rec.extend(Move.DEQUEUE for _ in run)
                rec.append(Move.FLUSH_POP)
            elif move is not Move.FLUSH_POP:
                rec.extend(_BACKWARDS[move] for _ in run)
        rec.reverse()  # recorded front to back, like S and DI
    return True


_SOLVERS = {
    MachineKind.S: _solve_s,
    MachineKind.PS: _solve_ps,
    MachineKind.PQS: _solve_pqs,
    MachineKind.SP: partial(_solve_backwards, MachineKind.SP),
    MachineKind.SQP: partial(_solve_backwards, MachineKind.SQP),
    MachineKind.DI: _solve_di,
}


def decider(kind: MachineKind) -> Callable[[tuple[int, ...]], bool]:
    """`is_sortable(kind, Permutation(v))` on value tuples, with no
    Permutation built: the kind's solver, which for SP and SQP is the PQS
    search on the dual.  The caller vouches that v is a bijection on
    1..len(v)."""
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

    Output moves only ever emit the next needed value, so the output is
    1, ..., next_needed - 1.  Raises IllegalMoveError (with the 1-based
    step) on the first move that is not legal in the state it is applied to.
    """
    state = MachineState()
    for step, move in enumerate(moves, start=1):
        for offered, nxt in successors(kind, p.values, state):
            if offered is move:
                state = nxt
                break
        else:
            raise IllegalMoveError(move, state, step)
    return identity(state.next_needed - 1)


def is_sortable_unpruned(kind: MachineKind, p: Permutation) -> bool:
    """Exhaustive search over the raw move graph of `successors` (the reference)."""
    start = MachineState()
    done = len(p) + 1
    seen = {start}
    todo = [start]
    while todo:
        state = todo.pop()
        if state.next_needed == done:
            return True
        for _, nxt in successors(kind, p.values, state):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return False


# ---------------------------------------------------------------------------
# PS/PQS reference data and the division route to their sortability.
# ---------------------------------------------------------------------------

PS_BASIS: tuple[Permutation, ...] = (parse("2431"), parse("3142"), parse("3241"))

# The PQS-sortable counts for n = 1..9, the number of minimal
# PQS-unsortable permutations the paper conjectures make up the whole basis,
# and the length to which mining must reach for that count to apply.
PQS_SEQUENCE = (1, 2, 6, 24, 120, 685, 4148, 25661, 159829)
PQS_BASIS_CONJECTURED_COUNT = 108
PQS_BASIS_CONJECTURE_LEN = 9

DIVIDED_OBSTRUCTIONS: dict[MachineKind, tuple[DividedPattern, ...]] = {
    MachineKind.PS: tuple(parse_divided(t) for t in ("21", "2|13", "2|3|1")),
    MachineKind.PQS: tuple(parse_divided(t) for t in ("132", "2|13", "32|1", "2|3|1")),
}


def is_sortable_by_division(kind: MachineKind, p: Permutation) -> bool:
    """PS/PQS sortability via the divided-pattern characterization."""
    if kind not in DIVIDED_OBSTRUCTIONS:
        raise ValueError(f"no divided-pattern characterization for {kind.name}")
    return exists_division_avoiding(p, DIVIDED_OBSTRUCTIONS[kind]) is not None
