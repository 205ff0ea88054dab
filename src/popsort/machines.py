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
`sorting_witness` runs the kind's solver, a forced loop for S and DI and a
pruned depth-first search over configurations for the others.  `is_sortable`
and `decider` (the same decision on value tuples, for callers that build
candidates by construction) run it too, except for SP and SQP: the two sort
one class, the duals of the PQS-sortable permutations, and decide by PQS on the dual.
"""
from __future__ import annotations

from enum import Enum
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
# Solvers, one per kind: pruned depth-first searches and two forced loops.
#
# All searches take output-type moves the moment they are legal.  Only the
# move that feeds the device the output leaves from can make one legal, and
# the branch making it applies it, with every output it chains, before it
# recurses (PS: flush, SP: push, SQP: dequeue, PQS: the drain after a
# flush; S and DI are forced loops).  No `dfs` is entered with an
# output-type move legal.
#
# The searches skip moves that provably lead nowhere: the final stack must
# stay strictly increasing read top to bottom (else its entries can never
# leave in order), a PS pop stack must stay strictly decreasing read top to
# bottom (a flush would wedge the stack otherwise), and an SP/SQP pop stack
# must always hold a descending consecutive run (nothing else can ever be
# flushed out).  In SQP the queue cannot reorder, so the values entering
# it reach the pop stack in that order and must form a prefix of a layered
# permutation: runs of consecutive values, each run decreasing, the runs
# increasing (e.g. 2,1,3,6,5,4).  SQP pushes into the queue are pruned to
# keep that invariant, so a DEQUEUE needs no check: a run leaves the queue
# falling by one, and its last value, the least not yet in the stream, is
# next needed, so it flushes and the next run meets an empty pop stack.
#
# In SP and SQP every value leaves the stack for the pop stack in the
# same order, and a pop stack sorts exactly the layered permutations
# (Avis & Newborn 1981), so the stream leaving the stack must be layered.
# Both searches refuse an INPUT by two rules (`_input_dead`):
#   1. No stack z, y, x (bottom to top) with y < z < x: x leaves before
#      the smaller y, so the two share a run and z, between them in value,
#      must leave between them, but z leaves after y.
#   2. Let b end the open run (SP: the pop stack's top; SQP: `last`).
#      The values below b must all leave the stack before anything else,
#      in descending order, so those on the stack must be its top entries,
#      largest on top.  While the top is below b, only a value between it
#      and b may be read onto it.
# Rule 2 holds its invariant in O(1) per INPUT because the push that opens
# a run (SP: onto an empty pop stack; SQP: with no run open) checks it
# once: `_run_buried` refuses that push if a value below the new b is not
# among the stack's top entries in that order.
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
# SP and SQP sort the same class, and SP sorts p iff PQS sorts its dual,
# so their decisions run the cheaper PQS search on the dual
# (`_solve_pqs_of_dual`).  Their own searches run only for witnesses and
# key their memo on the machine configuration; SQP's (lo, top, last) is a
# function of it, so its key omits it.
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
# roll back.  With `rec` None, a decision, no list is touched; SP and SQP
# always record.
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


def _input_dead(stack: tuple[int, ...], x: int, b: int) -> bool:
    """True if putting x on the stack is a dead INPUT (rule 1 or 2).

    b ends the open run (0: none open).  Rule 2: a top below b must leave
    before everything but the values between it and b, so x must be one
    of them.  The caller keeps the stack values below b on top, largest
    on top (`_run_buried`), so the top alone decides.  Rule 1 scans from
    the top, keeping the least value seen so far: a value v with
    least < v < x is the z of a z, y, x.
    """
    if stack and stack[-1] < b and not stack[-1] < x < b:
        return True
    least = x
    for v in reversed(stack):
        if v < least:
            least = v
        elif v < x:
            return True
    return False


def _run_buried(stack: tuple[int, ...], b: int) -> bool:
    """True if a push that opens a run ending at b leaves that run buried.

    The stack values below b must be its top entries, largest on top: the
    walk from the top passes them while each is below the one before.  A
    value below b left past the walk lies under a value that must leave
    after it, one not below b or a smaller one.
    """
    k = len(stack)
    bound = b
    while k and stack[k - 1] < bound:
        k -= 1
        bound = stack[k]
    return any(v < b for v in stack[:k])


def _solve_sp(p: tuple[int, ...], rec: list[Move]) -> bool:
    n = len(p)
    failed: set[tuple] = set()

    def dfs(i: int, stack: tuple[int, ...], pop: tuple[int, ...], nn: int) -> bool:
        # pop is kept a descending consecutive run, oldest (largest) first
        if nn > n:
            return True
        key = (i, stack, pop, nn)
        if key in failed:
            return False
        if (i < n and not _input_dead(stack, p[i], pop[-1] if pop else 0)
                and dfs(i + 1, stack + (p[i],), pop, nn)):
            rec.append(Move.INPUT)
            return True
        if stack and (stack[-1] == pop[-1] - 1 if pop
                      else stack[-1] == nn or not _run_buried(stack[:-1], stack[-1])):
            x = stack[-1]
            run, out = ((), nn + len(pop) + 1) if x == nn else (pop + (x,), nn)
            if dfs(i, stack[:-1], run, out):
                if out > nn:
                    rec.append(Move.FLUSH_POP)
                rec.append(Move.PUSH_ONE)
                return True
        failed.add(key)
        return False

    try:
        return dfs(0, (), (), 1)
    finally:
        del dfs


def _solve_sqp(p: tuple[int, ...], rec: list[Move]) -> bool:
    n = len(p)
    failed: set[tuple] = set()

    def dfs(i: int, stack: tuple[int, ...], queue: tuple[int, ...],
            pop: tuple[int, ...], nn: int, lo: int, top: int, last: int) -> bool:
        # The values pushed into the queue so far form a layered prefix
        # whose closed runs hold 1..lo-1 and whose open run is top..last
        # (last == 0: none open).
        if nn > n:
            return True
        key = (i, stack, queue, pop, nn)
        if key in failed:
            return False
        if (i < n and not _input_dead(stack, p[i], last)
                and dfs(i + 1, stack + (p[i],), queue, pop, nn, lo, top, last)):
            rec.append(Move.INPUT)
            return True
        if stack and (
                stack[-1] == last - 1 if last
                else stack[-1] == lo or not _run_buried(stack[:-1], stack[-1])):
            x = stack[-1]
            run_top = top if last else x
            # pushing lo closes the run
            runs = (run_top + 1, 0, 0) if x == lo else (lo, run_top, x)
            if dfs(i, stack[:-1], queue + (x,), pop, nn, *runs):
                rec.append(Move.PUSH_ONE)
                return True
        if queue:
            x = queue[0]
            run, out = ((), nn + len(pop) + 1) if x == nn else (pop + (x,), nn)
            if dfs(i, stack, queue[1:], run, out, lo, top, last):
                if out > nn:
                    rec.append(Move.FLUSH_POP)
                rec.append(Move.DEQUEUE)
                return True
        failed.add(key)
        return False

    try:
        return dfs(0, (), (), (), 1, 1, 0, 0)
    finally:
        del dfs


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


def _solve_pqs_of_dual(p: tuple[int, ...]) -> bool:
    """The SP and SQP decision: PQS sorts the dual of p iff SP does p."""
    return _solve_pqs(dual_values(p))


_SOLVERS = {
    MachineKind.S: _solve_s,
    MachineKind.PS: _solve_ps,
    MachineKind.PQS: _solve_pqs,
    MachineKind.SP: _solve_sp,
    MachineKind.SQP: _solve_sqp,
    MachineKind.DI: _solve_di,
}

_DECIDERS = {
    **_SOLVERS,
    MachineKind.SP: _solve_pqs_of_dual,
    MachineKind.SQP: _solve_pqs_of_dual,
}


def decider(kind: MachineKind) -> Callable[[tuple[int, ...]], bool]:
    """`is_sortable(kind, Permutation(v))` on value tuples, with no
    Permutation built: the kind's own search, except that SP and SQP,
    which sort the same class, both run the PQS search on the dual.  The
    caller vouches that v is a bijection on 1..len(v)."""
    return _DECIDERS[kind]


def is_sortable(kind: MachineKind, p: Permutation) -> bool:
    """True iff some move sequence of the machine outputs 1, ..., n."""
    return _DECIDERS[kind](p.values)


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
