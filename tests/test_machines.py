import gc
import hashlib
import random

import pytest
from hypothesis import given, settings

from conftest import perm_strategy
from popsort import machines
from popsort.machines import (
    IllegalMoveError,
    Machine,
    MachineKind,
    MachineState,
    Move,
    is_sortable,
    is_sortable_by_division,
    is_sortable_ps_by_basis,
    is_sortable_unpruned,
    moves_from_text,
    moves_to_text,
    replay,
    sorting_witness,
)
from popsort.perms import EMPTY, Permutation, all_perms, avoids, identity, parse

ALL_KINDS = list(MachineKind)


class TestMoveText:
    def test_tokens(self):
        moves = [Move.INPUT, Move.FLUSH_POP, Move.OUTPUT]
        assert moves_to_text(moves) == "I,F,O"

    def test_flush_resolution_by_kind(self):
        assert moves_from_text(MachineKind.PS, "I,F,O") == [
            Move.INPUT, Move.FLUSH_POP, Move.OUTPUT,
        ]
        assert moves_from_text(MachineKind.SP, "I,P,F") == [
            Move.INPUT, Move.PUSH_ONE, Move.FLUSH_OUTPUT,
        ]

    def test_roundtrip_on_witness(self):
        w = sorting_witness(MachineKind.PQS, parse("3142"))
        assert moves_from_text(MachineKind.PQS, moves_to_text(w)) == w

    def test_unknown_token(self):
        with pytest.raises(ValueError):
            moves_from_text(MachineKind.S, "I,Q")


def legal(machine, state):
    return [move for move, _ in machine.successors(state)]


class TestLegalMoves:
    def test_initial_state_only_input(self):
        machine = Machine(MachineKind.PS, parse("24513"))
        assert legal(machine, machine.initial_state()) == [Move.INPUT]

    def test_flush_transfers_whole_pop_stack(self):
        machine = Machine(MachineKind.PS, parse("356124"))
        state = MachineState(input_pos=3, pop=(3, 5, 6))
        assert Move.FLUSH_POP in legal(machine, state)
        after = machine.apply_move(state, Move.FLUSH_POP)
        assert after.stack == (6, 5, 3)  # 3 ends on top
        assert after.pop == ()

    def test_flush_on_empty_pop_never_offered(self):
        machine = Machine(MachineKind.PS, parse("21"))
        for state in (machine.initial_state(), MachineState(input_pos=2, stack=(2, 1))):
            assert Move.FLUSH_POP not in legal(machine, state)

    def test_di_input_must_keep_first_stack_decreasing(self):
        machine = Machine(MachineKind.DI, parse("53142"))
        state = MachineState(input_pos=1, pop=(5,))
        # next input is 3 < 5: pushing it would break the decreasing read
        assert Move.INPUT not in legal(machine, state)

    def test_di_push_must_keep_second_stack_increasing(self):
        machine = Machine(MachineKind.DI, parse("12"))
        state = MachineState(input_pos=2, pop=(2,), stack=(1,), next_needed=1)
        assert Move.PUSH_ONE not in legal(machine, state)

    def test_output_only_for_next_needed(self):
        machine = Machine(MachineKind.S, parse("12"))
        state = MachineState(input_pos=2, stack=(1, 2), next_needed=1)
        assert legal(machine, state) == []  # top is 2, need 1

    def test_sqp_flush_requires_exact_run(self):
        machine = Machine(MachineKind.SQP, parse("321"))
        good = MachineState(input_pos=3, pop=(3, 2, 1), next_needed=1)
        assert Move.FLUSH_OUTPUT in legal(machine, good)
        bad = MachineState(input_pos=3, pop=(2, 3), queue=(1,), next_needed=1)
        assert Move.FLUSH_OUTPUT not in legal(machine, bad)


class TestApplyMove:
    def test_pqs_flush_enqueues_in_pop_order(self):
        machine = Machine(MachineKind.PQS, parse("3142"))
        state = MachineState(input_pos=2, pop=(3, 1))
        after = machine.apply_move(state, Move.FLUSH_POP)
        assert after.queue == (1, 3)  # 1 was on top, enqueued first

    def test_output_advances_counter(self):
        machine = Machine(MachineKind.S, parse("1"))
        state = MachineState(input_pos=1, stack=(1,))
        after = machine.apply_move(state, Move.OUTPUT)
        assert after.next_needed == 2 and after.stack == ()

    def test_illegal_move_raises(self):
        machine = Machine(MachineKind.S, parse("12"))
        with pytest.raises(IllegalMoveError):
            machine.apply_move(machine.initial_state(), Move.OUTPUT)

    def test_flush_output_emits_run(self):
        machine = Machine(MachineKind.SP, parse("321"))
        state = MachineState(input_pos=3, pop=(3, 2, 1))
        after = machine.apply_move(state, Move.FLUSH_OUTPUT)
        assert after.next_needed == 4 and after.pop == ()


class TestMoveGraph:
    """The raw move graph, pinned edge by edge.

    Every (perm, state, move, next state) edge reachable from the start is
    hashed for all permutations of length <= 4, walked in the depth-first
    order of `is_sortable_unpruned`, so the moves' order is pinned too.
    The digests were recorded while the legal moves and their targets
    still came from two separate six-kind ladders.
    """

    @pytest.mark.parametrize("kind,expected", [
        (MachineKind.S, "0920a0da98c94ac0bb9fe36e8890a5b701461455de80901025519ecdbdbc3632"),
        (MachineKind.PS, "7af3ca6d8607e271b105c2f66414713ee7846599cd5b913c33689727d0e5ff15"),
        (MachineKind.PQS, "6e7bf7e06e5af4f657db5a3ff96e62f8ca5acf3d0d8342bfeb25e9a1e810cb92"),
        (MachineKind.SP, "c311d434a447b2673d04e8aa3424fb17b8077ec79711a990daf42b9cb891534b"),
        (MachineKind.SQP, "717ef6fd3077cb154729d2d6d6ffb1cd7427af0b10a73ecbdcef2049f4f3edde"),
        (MachineKind.DI, "b8d9d05076b6a25edadced72e4d08d9c5a6c832684b3b454b041ed7ce2091c09"),
    ], ids=["s", "ps", "pqs", "sp", "sqp", "di"])
    def test_edges_to_four(self, kind, expected):
        h = hashlib.sha256()
        for p in (p for n in range(5) for p in all_perms(n)):
            machine = Machine(kind, p)
            start = machine.initial_state()
            seen = {start}
            todo = [start]
            while todo:
                state = todo.pop()
                edges = list(machine.successors(state))
                for move, nxt in edges:
                    h.update(f"{p}|{state}|{move.name}|{nxt}\n".encode())
                    assert machine.apply_move(state, move) == nxt
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
                offered = {move for move, _ in edges}
                for move in Move:
                    if move not in offered:
                        with pytest.raises(IllegalMoveError):
                            machine.apply_move(state, move)
        assert h.hexdigest() == expected


class TestSortable:
    def test_ps_sorts_figure_permutation(self):
        assert is_sortable(MachineKind.PS, parse("24513"))

    @pytest.mark.parametrize("text", ["2431", "3142", "3241"])
    def test_ps_minimal_unsortables(self, text):
        assert not is_sortable(MachineKind.PS, parse(text))

    def test_pqs_di_separations(self):
        assert is_sortable(MachineKind.PQS, parse("3142"))
        assert not is_sortable(MachineKind.DI, parse("3142"))
        assert is_sortable(MachineKind.DI, parse("465132"))
        assert not is_sortable(MachineKind.PQS, parse("465132"))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_identity_always_sortable(self, kind):
        for n in (0, 1, 5, 8):
            assert is_sortable(kind, identity(n))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_empty_sortable(self, kind):
        assert is_sortable(kind, EMPTY)
        assert sorting_witness(kind, EMPTY) == []


class TestMemoLifetime:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_search_leaves_no_garbage_cycle(self, kind):
        # A memo kept alive by a reference cycle lingers until the cyclic
        # collector runs and inflates peak memory over many searches.
        p = parse("3142")
        gc.collect()
        gc.disable()
        try:
            is_sortable(kind, p)
            sorting_witness(kind, p)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestWitness:
    def test_figure_trace(self):
        w = sorting_witness(MachineKind.PS, parse("356124"))
        assert moves_to_text(w) == "I,I,I,F,I,I,F,O,O,O,I,F,O,O,O"

    def test_absent_for_unsortable(self):
        assert sorting_witness(MachineKind.PS, parse("2431")) is None

    def test_single_stack_singleton(self):
        assert sorting_witness(MachineKind.S, parse("1")) == [Move.INPUT, Move.OUTPUT]

    def test_ps_singleton(self):
        assert moves_to_text(sorting_witness(MachineKind.PS, parse("1"))) == "I,F,O"

    @settings(max_examples=100)
    @given(perm_strategy(max_n=7))
    def test_witness_replays_to_identity_random(self, p):
        for kind in ALL_KINDS:
            w = sorting_witness(kind, p)
            if w is not None:
                assert replay(kind, p, w) == identity(len(p))


def random_member(kind, n, rng):
    """A permutation that SP or SQP sorts, from a random run of the devices.

    The raw moves of these machines never compare values: a run that turns
    1..n into tau turns the inverse of tau into 1..n.
    """
    stack, queue, pop, out = [], [], [], []
    fed = 0
    while len(out) < n:
        moves = ["input"] if fed < n else []
        moves += [m for m, dev in (("push", stack), ("dequeue", queue), ("flush", pop)) if dev]
        move = rng.choice(moves)
        if move == "input":
            fed += 1
            stack.append(fed)
        elif move == "push":
            (queue if kind is MachineKind.SQP else pop).append(stack.pop())
        elif move == "dequeue":
            pop.append(queue.pop(0))
        else:
            out.extend(reversed(pop))
            pop.clear()
    inverse = [0] * n
    for position, value in enumerate(out, start=1):
        inverse[value - 1] = position
    return Permutation(tuple(inverse))


class TestWitnessStability:
    """Witnesses hashed over all permutations up to a length, or over
    seeded members.

    The digests were recorded before the searches were pruned (the SQP
    ones before its queue pushes were, the others before SP and SQP
    refused dead INPUTs); pruning only cuts subtrees without a success,
    so the first witness found must not change.
    """

    @staticmethod
    def digest(kind, perms):
        h = hashlib.sha256()
        for p in perms:
            w = sorting_witness(kind, p)
            h.update(f"{p}:{'-' if w is None else moves_to_text(w)}\n".encode())
        return h.hexdigest()

    @classmethod
    def sqp_digest(cls, max_n):
        return cls.digest(MachineKind.SQP, (p for n in range(max_n + 1) for p in all_perms(n)))

    def test_sqp_witnesses_to_six(self):
        assert self.sqp_digest(6) == (
            "94fd99cff0cc5971619bd62a2e51b42724f3f6dc793ce8ab4a2bd1237d0a71e9"
        )

    def test_sqp_witnesses_to_seven(self):
        assert self.sqp_digest(7) == (
            "c57f516bcd900a8218a00e314f1a9efdb9500b339f7481b74b6fdc3b36fc0f30"
        )

    def test_sp_witnesses_to_seven(self):
        perms = (p for n in range(8) for p in all_perms(n))
        assert self.digest(MachineKind.SP, perms) == (
            "ed581024b5995282705fc99597652ca44d6c316911f7dd890926585c8663de66"
        )

    # Recorded while the searches still appended each move before trying
    # it and rolled back on failure.
    @pytest.mark.parametrize("kind,expected", [
        (MachineKind.S, "a55a7f687d62db1737d59e6b9e01939c0a4b4c2828ddbbc207b4b8237926bfab"),
        (MachineKind.PS, "9a5b9e6abd9e27b927e9cea577b22bbceca6c98df4b67e4c04872c8746f71177"),
        (MachineKind.PQS, "0e531bf26bcf1c2d37680b53463c77872ed44d569c80548e74ef9c3fb111f0e0"),
        (MachineKind.DI, "7d8774879fe0099f52414e0ac0f93597d1c2aa38c46bd94cd59ab65286dc69cf"),
    ], ids=["s", "ps", "pqs", "di"])
    def test_witnesses_to_eight(self, kind, expected):
        perms = (p for n in range(9) for p in all_perms(n))
        assert self.digest(kind, perms) == expected

    def test_seeded_members(self):
        rng = random.Random("witness-stability")
        sp = [random_member(MachineKind.SP, rng.randint(40, 50), rng) for _ in range(30)]
        sqp = [random_member(MachineKind.SQP, rng.randint(10, 12), rng) for _ in range(30)]
        digests = self.digest(MachineKind.SP, sp), self.digest(MachineKind.SQP, sqp)
        assert digests == (
            "90afc60afed3ba417463676d35fde83eb19de42d82a838ad0accb3a9faa81d8c",
            "dec647d483269d36b8dc17cd341e47dfd426af95210b86f7c8574265ed9b68cf",
        )

    # Recorded before PQS refused dead INPUTs.  PQS sorts p iff SP sorts
    # p.dual(), so the duals of SP members are long PQS members.
    def test_seeded_pqs_members(self):
        rng = random.Random("pqs-witness-stability")
        members = [random_member(MachineKind.SP, rng.randint(40, 80), rng).dual()
                   for _ in range(30)]
        uniform = [Permutation(tuple(rng.sample(range(1, n + 1), n)))
                   for n in (rng.randint(9, 11) for _ in range(30))]
        assert self.digest(MachineKind.PQS, members + uniform) == (
            "7bb6afc243bb92674a7d16dd1af45e626de6830be1e578a6963196c48bf19093"
        )


class TestReplay:
    def test_figure_replay(self):
        moves = moves_from_text(MachineKind.PS, "I,I,I,F,I,I,F,O,O,O,I,F,O,O,O")
        assert replay(MachineKind.PS, parse("356124"), moves) == parse("123456")

    def test_single_stack_swap(self):
        moves = moves_from_text(MachineKind.S, "I,I,O,O")
        assert replay(MachineKind.S, parse("21"), moves) == parse("12")

    def test_illegal_output_reports_step(self):
        moves = moves_from_text(MachineKind.S, "I,I,O,O")
        with pytest.raises(IllegalMoveError) as exc:
            replay(MachineKind.S, parse("12"), moves)
        assert exc.value.step == 3

    def test_partial_replay_returns_prefix(self):
        moves = moves_from_text(MachineKind.S, "I,O")
        assert replay(MachineKind.S, parse("12"), moves) == parse("1")


class TestAlternateRoutes:
    def test_basis_route_examples(self):
        assert is_sortable_ps_by_basis(parse("24513"))
        assert not is_sortable_ps_by_basis(parse("2431"))
        assert is_sortable_ps_by_basis(identity(7))

    def test_division_route_examples(self):
        assert is_sortable_by_division(MachineKind.PS, parse("24513"))
        assert not is_sortable_by_division(MachineKind.PQS, parse("465132"))
        assert is_sortable_by_division(MachineKind.PS, parse("1"))

    def test_division_route_rejects_other_kinds(self):
        with pytest.raises(ValueError):
            is_sortable_by_division(MachineKind.S, parse("1"))


class TestMachineRelations:
    def test_single_stack_is_av231(self):
        pat = parse("231")
        for n in range(0, 7):
            for p in all_perms(n):
                assert is_sortable(MachineKind.S, p) == avoids(p, [pat])

    def test_ps_sum_closure(self):
        sortable = [
            p
            for n in range(1, 6)
            for p in all_perms(n)
            if is_sortable(MachineKind.PS, p)
        ]
        for a in sortable:
            for b in sortable:
                if len(a) + len(b) <= 7:
                    assert is_sortable(MachineKind.PS, a.direct_sum(b))


class TestDeadInputRules:
    """The two rules by which SP and SQP refuse an INPUT, and the two by
    which PQS does, each on a small permutation where the search meets it."""

    def test_ceiling(self):
        assert machines._input_ceiling((), 4, 2, 0) == 4
        assert machines._input_ceiling((2,), 4, 1, 0) == 2   # 2 now has 1 above it
        assert machines._input_ceiling((2, 1), 2, 3, 0) == 0  # rule 1
        assert machines._input_ceiling((1, 2), 5, 4, 3) == 0  # rule 2
        assert machines._input_ceiling((1, 2), 5, 4, 0) == 5

    @given(perm_strategy(max_n=9))
    def test_ceiling_is_exact(self, p):
        # Reading p onto a stack, rule 1 refuses exactly the first entry x
        # that completes z, y, x (bottom to top) with y < z < x; until then
        # the ceiling is the smallest value with a smaller value above it.
        stack, ceiling = (), len(p) + 1
        for x in p.values:
            c = machines._input_ceiling(stack, ceiling, x, 0)
            dead = any(y < z < x for a, z in enumerate(stack) for y in stack[a + 1:])
            assert (c == 0) == dead
            if dead:
                break
            stack += (x,)
            assert c == min(
                (z for a, z in enumerate(stack) if any(y < z for y in stack[a + 1:])),
                default=len(p) + 1,
            )
            ceiling = c

    @pytest.mark.parametrize("kind", [MachineKind.SP, MachineKind.SQP])
    @pytest.mark.parametrize("text, refusal", [
        # rule 1: 3 on the stack 2, 1 (ceiling 2)
        ("213", ((2, 1), 2, 3, 0)),
        # rule 2: 4 would bury 2, which the open run ending at 3 needs next
        ("1324", ((1, 2), 5, 4, 3)),
    ])
    def test_refused_input_keeps_answer(self, kind, text, refusal, monkeypatch):
        refused = []
        rule = machines._input_ceiling

        def spy(*args):
            c = rule(*args)
            if not c:
                refused.append(args)
            return c

        monkeypatch.setattr(machines, "_input_ceiling", spy)
        p = parse(text)
        assert is_sortable(kind, p) == is_sortable_unpruned(kind, p) is True
        assert refusal in refused

    @staticmethod
    def pqs_refusals(p, check=None):
        """(block, x, stack) of each INPUT the PQS search refuses on p."""
        refused = []
        rule = machines._pqs_block

        def spy(q, i, j, stack, block):
            grown = rule(q, i, j, stack, block)
            if grown is None:
                refused.append((q[j:i], q[i], stack))
            elif check is not None:
                check(q[j:i + 1], stack, grown)
            return grown

        machines._pqs_block = spy
        try:
            is_sortable(MachineKind.PQS, p)
        finally:
            machines._pqs_block = rule
        return refused

    @pytest.mark.parametrize("text, refusal", [
        # rule A: 2 in the block 1, 3; the drain would put 3 on 2
        ("132", ((1, 3), 2, ())),
        # rule B: 4 in the block 2 would land on 3, which waits for 2
        ("1324", ((2,), 4, (3,))),
    ])
    def test_pqs_refused_input_keeps_answer(self, text, refusal):
        p = parse(text)
        assert refusal in self.pqs_refusals(p)
        assert (is_sortable(MachineKind.PQS, p) == is_sortable_unpruned(MachineKind.PQS, p)
                == is_sortable_by_division(MachineKind.PQS, p) is True)

    @given(perm_strategy(max_n=9))
    def test_pqs_refusals_are_justified(self, p):
        # A refused x completes a 132 inside its block, or exceeds a stack
        # value above the block's least entry.  An accepted x leaves
        # (lo, hi, cap) a function of the block and the stack.
        def check(block, stack, grown):
            lo = min(block)
            after = block[block.index(lo) + 1:]
            cap = min((v for v in stack if v > lo), default=len(p) + 1)
            assert grown == (lo, max(after, default=0), cap)

        for block, x, stack in self.pqs_refusals(p, check):
            lo = min(block)
            assert (any(y < x < z for a, y in enumerate(block) for z in block[a + 1:])
                    or any(lo < v < x for v in stack))
