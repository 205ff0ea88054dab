import gc
import hashlib
import random
import sys

import pytest
from hypothesis import given

from conftest import perm_strategy
from popsort import machines
from popsort.machines import (
    IllegalMoveError,
    MachineKind,
    MachineState,
    Move,
    is_sortable,
    is_sortable_by_division,
    is_sortable_unpruned,
    moves_from_text,
    moves_to_text,
    replay,
    sorting_witness,
    successors,
)
from popsort.perms import EMPTY, Permutation, all_perms, identity, parse

ALL_KINDS = list(MachineKind)


class TestMoveText:
    def test_tokens(self):
        moves = [Move.INPUT, Move.FLUSH_POP, Move.OUTPUT]
        assert moves_to_text(moves) == "I,F,O"

    def test_sp_witness_text_replays(self):
        # F is one move; successors alone says the SP flush lands in the output
        p = parse("3142")
        moves = moves_from_text(moves_to_text(sorting_witness(MachineKind.SP, p)))
        assert Move.FLUSH_POP in moves
        assert replay(MachineKind.SP, p, moves) == identity(4)

    def test_roundtrip_on_witness(self):
        w = sorting_witness(MachineKind.PQS, parse("3142"))
        assert moves_from_text(moves_to_text(w)) == w

    def test_unknown_token(self):
        with pytest.raises(ValueError):
            moves_from_text("I,Q")


def legal(kind, text, state):
    return [move for move, _ in successors(kind, parse(text).values, state)]


def apply(kind, text, state, move):
    return dict(successors(kind, parse(text).values, state))[move]


class TestLegalMoves:
    def test_initial_state_only_input(self):
        assert legal(MachineKind.PS, "24513", MachineState()) == [Move.INPUT]

    def test_flush_transfers_whole_pop_stack(self):
        state = MachineState(input_pos=3, pop=(3, 5, 6))
        assert Move.FLUSH_POP in legal(MachineKind.PS, "356124", state)
        after = apply(MachineKind.PS, "356124", state, Move.FLUSH_POP)
        assert after.stack == (6, 5, 3)  # 3 ends on top
        assert after.pop == ()

    def test_flush_on_empty_pop_never_offered(self):
        for state in (MachineState(), MachineState(input_pos=2, stack=(2, 1))):
            assert Move.FLUSH_POP not in legal(MachineKind.PS, "21", state)

    def test_di_input_must_keep_first_stack_decreasing(self):
        state = MachineState(input_pos=1, pop=(5,))
        # next input is 3 < 5: pushing it would break the decreasing read
        assert Move.INPUT not in legal(MachineKind.DI, "53142", state)

    def test_di_push_must_keep_second_stack_increasing(self):
        state = MachineState(input_pos=2, pop=(2,), stack=(1,), next_needed=1)
        assert Move.PUSH_ONE not in legal(MachineKind.DI, "12", state)

    def test_output_only_for_next_needed(self):
        state = MachineState(input_pos=2, stack=(1, 2), next_needed=1)
        assert legal(MachineKind.S, "12", state) == []  # top is 2, need 1

    def test_sqp_flush_requires_exact_run(self):
        good = MachineState(input_pos=3, pop=(3, 2, 1), next_needed=1)
        assert Move.FLUSH_POP in legal(MachineKind.SQP, "321", good)
        bad = MachineState(input_pos=3, pop=(2, 3), queue=(1,), next_needed=1)
        assert Move.FLUSH_POP not in legal(MachineKind.SQP, "321", bad)


class TestApplyMove:
    def test_pqs_flush_enqueues_in_pop_order(self):
        state = MachineState(input_pos=2, pop=(3, 1))
        after = apply(MachineKind.PQS, "3142", state, Move.FLUSH_POP)
        assert after.queue == (1, 3)  # 1 was on top, enqueued first

    def test_output_advances_counter(self):
        state = MachineState(input_pos=1, stack=(1,))
        after = apply(MachineKind.S, "1", state, Move.OUTPUT)
        assert after.next_needed == 2 and after.stack == ()

    def test_illegal_move_raises(self):
        with pytest.raises(IllegalMoveError) as exc:
            replay(MachineKind.S, parse("12"), [Move.OUTPUT])
        assert exc.value.step == 1 and exc.value.state == MachineState()

    def test_flush_output_emits_run(self):
        state = MachineState(input_pos=3, pop=(3, 2, 1))
        after = apply(MachineKind.SP, "321", state, Move.FLUSH_POP)
        assert after.next_needed == 4 and after.pop == ()


class TestMoveGraph:
    """The raw move graph, pinned edge by edge.

    Every (perm, state, move, next state) edge reachable from the start is
    hashed for all permutations of length <= 4, walked in the depth-first
    order of `is_sortable_unpruned`, so the moves' order is pinned too.
    The S, PS, PQS and DI digests were recorded while the legal moves and
    their targets still came from two separate six-kind ladders.  The SP
    and SQP ones were re-recorded when their flush to the output became
    FLUSH_POP; under its former name the edges hash to the earlier pins.
    """

    @pytest.mark.parametrize("kind,expected", [
        (MachineKind.S, "0920a0da98c94ac0bb9fe36e8890a5b701461455de80901025519ecdbdbc3632"),
        (MachineKind.PS, "7af3ca6d8607e271b105c2f66414713ee7846599cd5b913c33689727d0e5ff15"),
        (MachineKind.PQS, "6e7bf7e06e5af4f657db5a3ff96e62f8ca5acf3d0d8342bfeb25e9a1e810cb92"),
        (MachineKind.SP, "3ec2813533e2b50ef4a98e3aa1b632b0e3bc792191339c69ebced70a9ed6db28"),
        (MachineKind.SQP, "9cdbd8dacdc765c4886e375ba66752af5c81dbda722e639e299b66c654f74069"),
        (MachineKind.DI, "b8d9d05076b6a25edadced72e4d08d9c5a6c832684b3b454b041ed7ce2091c09"),
    ], ids=["s", "ps", "pqs", "sp", "sqp", "di"])
    def test_edges_to_four(self, kind, expected):
        h = hashlib.sha256()
        for p in (p for n in range(5) for p in all_perms(n)):
            seen = {MachineState()}
            todo = [MachineState()]
            while todo:
                state = todo.pop()
                for move, nxt in successors(kind, p.values, state):
                    h.update(f"{p}|{state}|{move.name}|{nxt}\n".encode())
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
        assert h.hexdigest() == expected


class TestSortable:
    def test_ps_sorts_figure_permutation(self):
        assert is_sortable(MachineKind.PS, parse("24513"))

    @pytest.mark.parametrize("text", ["2431", "3142", "3241"])
    def test_ps_minimal_unsortables(self, text):
        assert not is_sortable(MachineKind.PS, parse(text))

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


class TestBlockSearch:
    """PS and PQS search from block boundaries only: the states with the
    pop stack and the queue empty and no output pending."""

    @pytest.mark.parametrize("kind", [MachineKind.PS, MachineKind.PQS])
    def test_long_decreasing_input(self, kind):
        # PS cuts n..1 into n blocks of one entry each, and one frame per
        # block keeps 600 entries under Python's default recursion limit.
        p = Permutation(tuple(range(600, 0, -1)))
        assert replay(kind, p, sorting_witness(kind, p)) == identity(600)
        assert is_sortable(kind, p)

    @pytest.mark.parametrize("kind, tail", [
        (MachineKind.PS, "2431"), (MachineKind.PQS, "243651"),  # basis elements
    ])
    def test_each_boundary_fails_once(self, kind, tail):
        # 1..16, then an unsortable tail above it: every cut of the prefix
        # reaches the same boundaries, so a search that re-expanded a failed
        # boundary would make about 2**16 frames.  With the memo there is at
        # most one frame per pair of boundaries, and one to start.
        t = parse(tail).values
        p = Permutation(tuple(range(1, 17)) + tuple(16 + v for v in t))
        frames = 0

        def count(frame, event, arg):
            nonlocal frames
            if event == "call" and frame.f_code.co_name == "dfs":
                frames += 1

        sys.setprofile(count)
        try:
            assert not is_sortable(kind, p)
        finally:
            sys.setprofile(None)
        assert frames <= 1 + len(p) * (len(p) + 1) // 2

    @pytest.mark.parametrize("kind", [MachineKind.PS, MachineKind.PQS])
    @given(p=perm_strategy(max_n=9))
    def test_boundary_state_is_a_function_of_the_boundary(self, kind, p):
        # The memo keys a boundary by its input position alone.  There the
        # outputs are 1..nn-1 with nn the least value not read, and the
        # stack holds the other values read, largest at the bottom.
        state = MachineState()
        states = [state]
        for move in sorting_witness(kind, p) or ():
            state = dict(successors(kind, p.values, state))[move]
            states.append(state)
        for i, pop, queue, stack, nn in states:
            if pop or queue or stack[-1:] == (nn,):
                continue
            read = set(p.values[:i])
            mex = min(set(range(1, len(p) + 2)) - read)
            assert nn == mex
            assert stack == tuple(sorted((v for v in read if v > mex), reverse=True))


class TestDiForcedLoop:
    """DI needs no search: it reads an entry that lies between its stacks'
    tops, and otherwise pushes."""

    @pytest.mark.parametrize("text", ["213", "231"])
    def test_rule_examples(self, text):
        # The smallest inputs that catch the two wrong rules: reading 3 onto
        # the first stack over a second-stack top 2 wedges 213, and pushing
        # 2 whenever that is legal leaves 3 no way past it in 231.
        p = parse(text)
        assert is_sortable(MachineKind.DI, p)
        assert replay(MachineKind.DI, p, sorting_witness(MachineKind.DI, p)) == identity(3)

    @pytest.mark.parametrize("kind", [MachineKind.DI, MachineKind.SP, MachineKind.SQP],
                             ids=["di", "sp", "sqp"])
    @pytest.mark.parametrize("p", [identity(1200), identity(1200).reverse()],
                             ids=["identity", "reversed"])
    def test_long_inputs(self, kind, p):
        # DI's loop holds no frame per entry, and SP and SQP run the PQS
        # search on the dual, one frame per block, which takes each of these
        # inputs (their own duals) as one block.  So inputs past Python's
        # default recursion limit return.
        assert is_sortable(kind, p)
        assert replay(kind, p, sorting_witness(kind, p)) == identity(1200)


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

    The S, PS, PQS and DI digests were recorded before their searches were
    pruned; pruning only cuts subtrees without a success, so the first
    witness found must not change.  SP and SQP witnesses are the PQS
    witness on the dual read backwards, a function of the PQS witness that
    `test_witnesses_to_eight[pqs]` pins; their digests were recorded when
    they took that form.
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

    def test_sqp_witnesses_to_seven(self):
        assert self.sqp_digest(7) == (
            "75109f967a7c0df3b1f96b3202b323b9c3b0d5d94fd309f3ff94703f34359f43"
        )

    def test_sp_witnesses_to_seven(self):
        perms = (p for n in range(8) for p in all_perms(n))
        assert self.digest(MachineKind.SP, perms) == (
            "5eb07f0e627cafb085e7ff7f49fbd6ee6970542891b94cff5692fae1948bd9ea"
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
            "cf4f0fbe7456a912462684e4431bc915db47c8c8e83120cfe75f7ca44ca21e4e",
            "332fffc595bd1c07e66b76dfb316512c8fd30efd26b08e6a09f578743f6a9a0a",
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


class TestForcedOutputs:
    """The searches take an output-type move the moment it is legal: when
    `successors` offers one first, the witness's next move is that move."""

    @staticmethod
    def check(kind, p):
        """Walk p's witness, if any; True iff there is one."""
        witness = sorting_witness(kind, p)
        state = MachineState()
        for move in witness or ():
            offered = list(successors(kind, p.values, state))
            first, after = offered[0]
            if after.next_needed > state.next_needed:  # an output-type move
                assert move is first, (p, state)
            state = dict(offered)[move]
        return witness is not None

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @given(p=perm_strategy(max_n=9))
    def test_short_inputs(self, kind, p):
        self.check(kind, p)

    def test_seeded_members(self):
        rng = random.Random("forced-outputs")
        for kind in (MachineKind.SP, MachineKind.SQP):
            for _ in range(10):
                p = random_member(kind, rng.randint(20, 40), rng)
                assert self.check(kind, p)
                if kind is MachineKind.SP:
                    assert self.check(MachineKind.PQS, p.dual())


class TestReplay:
    def test_single_stack_swap(self):
        moves = moves_from_text("I,I,O,O")
        assert replay(MachineKind.S, parse("21"), moves) == parse("12")

    def test_illegal_output_reports_step(self):
        moves = moves_from_text("I,I,O,O")
        with pytest.raises(IllegalMoveError) as exc:
            replay(MachineKind.S, parse("12"), moves)
        assert exc.value.step == 3

    def test_partial_replay_returns_prefix(self):
        moves = moves_from_text("I,O")
        assert replay(MachineKind.S, parse("12"), moves) == parse("1")


class TestAlternateRoutes:
    def test_division_route_examples(self):
        assert is_sortable_by_division(MachineKind.PS, parse("24513"))
        assert not is_sortable_by_division(MachineKind.PQS, parse("465132"))
        assert is_sortable_by_division(MachineKind.PS, parse("1"))

    def test_division_route_rejects_other_kinds(self):
        with pytest.raises(ValueError):
            is_sortable_by_division(MachineKind.S, parse("1"))


class TestSqpForcedDequeue:
    """The SQP decision, the PQS search on the dual, against the SQP raw
    move graph beyond criterion 13's bound."""

    @given(perm_strategy(max_n=7))
    def test_decision_equals_unpruned(self, p):
        assert is_sortable(MachineKind.SQP, p) == is_sortable_unpruned(MachineKind.SQP, p)


class TestDeadInputRules:
    """The two rules by which PQS refuses an INPUT, each on a small
    permutation where the search meets it, and a check that every refusal
    is justified."""

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
