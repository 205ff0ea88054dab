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
`sorting_witness` runs the kind's solver: a forced loop for S and DI; for
PS and PQS a pruned block-by-block search that hands back its block
path, which `block_path_moves` writes out as moves; and for SP and SQP
the PQS search on the dual, its witness read backwards.  No solver
recurses.  `is_sortable` and
`decider` (the same decision on value tuples, for callers that build
candidates by construction) run the same solver without a witness.
`pqs_child_run` is the PQS class walk's oracle: it accepts a child its
parent's sorting block path still sorts with no search (`PqsRun`), and
runs the PQS search on the rest.
"""
from __future__ import annotations

from bisect import bisect_right
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
# moves on to the next boundary (PS: the flush, PQS: the drain after a
# flush).  No boundary is reached with an output-type move legal.
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
# `_solve_backwards` maps the PQS witness back to front: OUTPUT -> INPUT,
# DEQUEUE -> PUSH_ONE, FLUSH_POP is dropped, and a run of k INPUTs ->
# FLUSH_POP (SQP: k DEQUEUEs, then FLUSH_POP).  With `rec` None it is the
# PQS decision on the dual, so SP and SQP sort one class.
#
# PS and PQS search block by block.  A run of either cuts the input into
# blocks, one per flush, and the search branches only at a block boundary
# j: pop stack and queue empty, every forced output taken.  There
# (stack, nn) is a function of j.  The outputs 1..nn-1 were all read, and
# the stack holds the other values of p[:j], strictly decreasing towards
# its top; a read nn would be its top and be output, so nn = mex(p[:j])
# and the stack holds the values of p[:j] above nn, largest at the bottom.
# So `failed` is a set of boundaries, and a block grows in a loop: from j
# to its longest admissible end m (PS: while the input increases; PQS:
# while `_pqs_block` admits the next entry).  The blocks p[j:i] are then
# tried for i = m down to j + 1, longest first, which prefers INPUT to a
# flush as `successors` orders them; a block ending at a failed boundary
# is skipped.  The search is a loop over a list of frames (j, stack, nn,
# i), one per block taken, i the block's end: it pushes a frame to take a
# block, and pops one to try the next shorter block when a boundary
# fails.  When it succeeds the frames are the block path: each end i with
# the next-needed value after it, the nn of the next frame.  A witness is
# that path written out (`block_path_moves`); a decision records nothing.
#
# The PQS class walk (`classes._walk`) reuses a member's path.  Let v, of
# length k, be sorted by the block path with ends `ends`, and c be v with
# k + 1 inserted at site s.  A value is only dequeued onto a larger top,
# so k + 1 can only land on an empty stack, and there it stays at the
# bottom: it refuses no later dequeue, since every other value is
# smaller, and it takes no output until 1..k have left.  So v's path,
# with k + 1 put in a block that holds site s, sorts c when the stack is
# empty at the moment k + 1 is dequeued.  A block drains last entry
# first, so one replay of v's path answers every site, from the stack
# after each entry's dequeue and forced outputs and the stack at each
# boundary:
#   - k + 1 joins the block holding v[s] (inside it, or starting it at a
#     boundary s) and is dequeued just after v[s]: empty after v[s];
#   - a block of its own at boundary s: empty at s;
#   - the end of the block [a, s) before boundary s, dequeued first in
#     it: empty at a.
# s = 0 and s = k always pass: the stack is empty at both ends of the
# run, so k + 1 can be a block of its own there.  The cases are tried in
# that order.  A site that passes is a member with a known path, so its
# child needs no search; a site that fails goes to `_solve_pqs`, since
# another path may still sort c, so the test never rejects.
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
    return True


def _solve_ps(p: tuple[int, ...], path: Optional[list[tuple[int, int]]] = None) -> bool:
    n = len(p)
    failed: set[int] = set()
    frames: list[tuple[int, tuple[int, ...], int, int]] = []
    j, stack, nn, i = 0, (), 1, None
    while nn <= n:
        if i is None:  # a new boundary: the block p[j:i] must increase
            i = j + 1
            while i < n and p[i] > p[i - 1]:
                i += 1
        for i in range(i, j, -1):
            if i in failed or stack and p[i - 1] > stack[-1]:
                continue
            st = stack + p[j:i][::-1]
            out = nn
            while st and st[-1] == out:
                st = st[:-1]
                out += 1
            frames.append((j, stack, nn, i))
            j, stack, nn, i = i, st, out, None
            break
        else:
            failed.add(j)
            if not frames:
                return False
            j, stack, nn, i = frames.pop()
            i -= 1
    if path is not None:
        path.extend(zip([f[3] for f in frames], [f[2] for f in frames[1:]] + [nn]))
    return True


def _solve_pqs(p: tuple[int, ...], path: Optional[list[tuple[int, int]]] = None) -> bool:
    # The stack only receives entries from the queue front, so while the
    # queue is nonempty nothing else can touch the stack: a legal dequeue
    # commutes with any input/flush and may be taken at once, and a blocked
    # one (front above the stack top) can never unblock.  Each flush is
    # therefore followed by draining the whole queue through the stack,
    # interleaved with the forced outputs, and the queue is empty at every
    # branch point.
    n = len(p)
    failed: set[int] = set()
    frames: list[tuple[int, tuple[int, ...], int, int]] = []
    j, stack, nn, i = 0, (), 1, None
    while nn <= n:
        if i is None:  # a new boundary: rules A and B admit blocks p[j:i'], i' <= i
            i = j
            block = (0, 0, 0)
            while i < n:
                grown = _pqs_block(p, i, j, stack, block)
                if grown is None:
                    break
                block = grown
                i += 1
        for i in range(i, j, -1):
            if i in failed:
                continue
            st = stack
            out = nn
            for t in range(i - 1, j - 1, -1):
                x = p[t]
                if st and x > st[-1]:
                    break
                st = st + (x,)
                while st and st[-1] == out:
                    st = st[:-1]
                    out += 1
            else:
                frames.append((j, stack, nn, i))
                j, stack, nn, i = i, st, out, None
                break
        else:
            failed.add(j)
            if not frames:
                return False
            j, stack, nn, i = frames.pop()
            i -= 1
    if path is not None:
        path.extend(zip([f[3] for f in frames], [f[2] for f in frames[1:]] + [nn]))
    return True


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
    return True


def block_path_moves(kind: MachineKind, v: tuple[int, ...],
                     path: Iterable[tuple[int, int]]) -> list[Move]:
    """The PS or PQS moves of a block path on v: each block read and
    flushed, then (PQS) drained through the stack, every forced output
    taken.  The path holds each block end with the next-needed value
    after it, so a PS block's outputs are counted, not simulated."""
    INPUT, FLUSH_POP, DEQUEUE, OUTPUT = Move.INPUT, Move.FLUSH_POP, Move.DEQUEUE, Move.OUTPUT
    moves: list[Move] = []
    stack: list[int] = []
    nn = 1
    j = 0
    for i, after in path:
        moves += [INPUT] * (i - j)
        moves.append(FLUSH_POP)
        if kind is MachineKind.PS:
            moves += [OUTPUT] * (after - nn)
            nn = after
        else:
            for t in range(i - 1, j - 1, -1):
                stack.append(v[t])
                moves.append(DEQUEUE)
                while stack and stack[-1] == nn:
                    stack.pop()
                    nn += 1
                    moves.append(OUTPUT)
        j = i
    return moves


_BACKWARDS = {Move.OUTPUT: Move.INPUT, Move.DEQUEUE: Move.PUSH_ONE}


def _solve_backwards(kind: MachineKind, p: tuple[int, ...],
                     rec: Optional[list[Move]] = None) -> bool:
    d = dual_values(p)
    path = None if rec is None else []
    if not _solve_pqs(d, path):
        return False
    if rec is not None:
        # the PQS run on the dual, read backwards: the run on p
        for move, run in groupby(reversed(block_path_moves(MachineKind.PQS, d, path))):
            if move is Move.INPUT:
                if kind is MachineKind.SQP:
                    rec.extend(Move.DEQUEUE for _ in run)
                rec.append(Move.FLUSH_POP)
            elif move is not Move.FLUSH_POP:
                rec.extend(_BACKWARDS[move] for _ in run)
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
    """A move sequence sorting p, or None; present iff `is_sortable`.
    PS and PQS hand back a block path, written out as moves."""
    if kind is MachineKind.PS or kind is MachineKind.PQS:
        path: list[tuple[int, int]] = []
        return block_path_moves(kind, p.values, path) if _SOLVERS[kind](p.values, path) else None
    rec: list[Move] = []
    return rec if _SOLVERS[kind](p.values, rec) else None


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
# PQS runs for the class walk: a member's block path and its site test.
# ---------------------------------------------------------------------------

# How a site's child takes the parent's path, per the site test in the
# "Solvers" comment; _NO: the test does not accept the site.
_NO, _JOIN, _OWN, _END = range(4)


class PqsRun(NamedTuple):
    """A PQS member's sorting block path and its site test.

    `ends` are the block ends, ascending, the last one len(v).  `cases[s]`
    says how k + 1 inserted at site s joins the path: _JOIN the block
    holding v[s], _OWN a block of its own at boundary s, _END the block
    ending at boundary s, or _NO when the test does not accept site s.
    """

    ends: tuple[int, ...]
    cases: tuple[int, ...]


def pqs_run(v: tuple[int, ...], ends: tuple[int, ...]) -> PqsRun:
    """The site test of v's block path: one replay of it."""
    k = len(v)
    cases = [_NO] * (k + 1)
    stack: list[int] = []
    nn = 1
    j = 0
    was_empty = True  # the stack at the boundary before j
    for i in ends:
        empty = not stack  # the stack at boundary j
        for t in range(i - 1, j - 1, -1):
            stack.append(v[t])
            while stack and stack[-1] == nn:
                stack.pop()
                nn += 1
            if not stack:
                cases[t] = _JOIN
        if cases[j] == _NO:
            cases[j] = _OWN if empty else _END if was_empty else _NO
        was_empty = empty
        j = i
    cases[k] = _OWN
    return PqsRun(ends, tuple(cases))


def pqs_child_ends(run: PqsRun, s: int) -> Optional[tuple[int, ...]]:
    """The block ends of the path that sorts the child made at site s, or
    None when the site test does not accept s."""
    case = run.cases[s]
    if case == _NO:
        return None
    if case == _END:  # the block ending at s grows by one
        return tuple(b + (b >= s) for b in run.ends)
    ends = tuple(b + (b > s) for b in run.ends)
    if case == _OWN:  # a new end s + 1 after the ends up to s
        cut = bisect_right(run.ends, s)
        ends = ends[:cut] + (s + 1,) + ends[cut:]
    return ends


def pqs_child_run(c: tuple[int, ...], s: int, parent: Optional[PqsRun],
                  expand: bool) -> PqsRun | bool:
    """The walk's PQS oracle: is c, a member with len(c) inserted at site
    s, PQS-sortable?  `parent` is that member's run (None: no path known).

    A site the parent's test accepts needs no search; any other site gets
    `_solve_pqs`.  A member's answer is its run when `expand` (the walk
    will ask about its children), else True; a non-member's is False.
    A searched member's run is built on the block path the search hands
    back.
    """
    if parent is not None and parent.cases[s] != _NO:
        return pqs_run(c, pqs_child_ends(parent, s)) if expand else True
    if not expand:
        return _solve_pqs(c)
    path: list[tuple[int, int]] = []
    if not _solve_pqs(c, path):
        return False
    return pqs_run(c, tuple(i for i, _ in path))


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
