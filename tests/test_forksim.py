"""Fork-suspension simulator: schedules, protocol, checker, exploration."""
import copy
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cbtopo import forksim
from cbtopo.errors import BadResilience, InvalidSchedule, ResourceBound
from cbtopo.forksim import (
    CommitProtocol,
    ExecutionTrace,
    ExhaustiveMode,
    NodeState,
    RandomMode,
    ScheduleAction,
    Simulation,
    TwoPhaseCommit,
    check_trace,
    find_violation,
    get_protocol,
    run,
)
from cbtopo.simplicial import BlockRef, Simplex, Value, Vertex

from cbtopo import CbtConfig, build_task

from helpers import (
    MeshTableProtocol,
    StarTableProtocol,
    TableProtocol,
    bfs_states,
    carrier_allows,
    chain_permutations,
    encode_state,
    orbit_key,
    orbit_states,
    reachable_states,
    renamed_encoding,
    unreduced_walk,
    violations_oracle,
)


def A(kind, chain=None, sequence=None):
    return ScheduleAction(kind=kind, chain=chain, sequence=sequence)


FAILURE_FREE = [
    A("step", 0),
    A("step", 1),
    A("step", 2),
    A("deliver", sequence=0),
    A("deliver", sequence=1),
    A("deliver", sequence=2),
    A("deliver", sequence=3),
]

SUSPEND_AFTER_VOTE = [
    A("step", 1),
    A("suspend", 1),
    A("step", 0),
    A("step", 2),
    A("deliver", sequence=0),
    A("deliver", sequence=1),
]

COORDINATOR_CRASH = [
    A("step", 1),
    A("step", 2),
    A("crash", 0),
]


class TestNodeState:
    def test_decision_is_write_once(self):
        node = NodeState(chain=BlockRef(0), local_value=Value.ONE)
        node.decide(Value.ONE)
        node.decide(Value.ONE)  # idempotent
        with pytest.raises(AssertionError, match="change its decision"):
            node.decide(Value.ZERO)

    def test_clone_is_deep_for_memory(self):
        node = NodeState(chain=BlockRef(0), local_value=Value.ONE)
        node.memory["votes"] = {0: "1"}
        twin = node.clone()
        twin.memory["votes"][1] = "0"
        assert node.memory["votes"] == {0: "1"}
        assert node.fingerprint() != twin.fingerprint()

    def test_list_in_memory_is_rejected(self):
        """Memory holds scalars and flat dicts only: ``clone`` would share a
        list between states, so the walk refuses to fingerprint one."""

        class LogProtocol(CommitProtocol):
            name = "log"

            def on_start(self, node, n):
                node.memory.setdefault("log", []).append("start")
                return [(1 - node.index, {"kind": "ping"})]

            def on_message(self, node, sender, payload, n):
                node.memory.setdefault("log", []).append(payload["kind"])
                return []

        with pytest.raises(TypeError, match="unhashable"):
            find_violation(1, 0, LogProtocol(), ExhaustiveMode(depth=4), suspensions=0)

    def test_fingerprint_ignores_nothing_visible(self):
        node = NodeState(chain=BlockRef(0), local_value=Value.ONE)
        base = node.fingerprint()
        node.phase = "done"
        assert node.fingerprint() != base

    def test_dict_and_tuple_of_its_items_differ(self):
        as_dict = NodeState(chain=BlockRef(0), local_value=Value.ONE, memory={"v": {"a": 1}})
        as_tuple = NodeState(chain=BlockRef(0), local_value=Value.ONE, memory={"v": (("a", 1),)})
        assert as_dict.fingerprint() != as_tuple.fingerprint()

    def test_walk_keeps_dict_and_tuple_memory_apart(self):
        """Chain 0 stores a dict when pinged after its start step and the
        tuple of the dict's items when pinged before it; the two orders end
        in states that differ only there, and the walk checks both."""

        class TupleOrDict(CommitProtocol):
            name = "tuple-or-dict"

            def on_start(self, node, n):
                node.memory["up"] = True
                return [(0, {"kind": "ping"})] if node.index == 1 else []

            def on_message(self, node, sender, payload, n):
                node.memory["v"] = {"a": 1} if node.memory.get("up") else (("a", 1),)
                return []

        protocol = TupleOrDict()
        states = reachable_states(Simulation(1, 0, protocol, [Value.ONE] * 2), 4, 0)

        def hunt(budget):
            return find_violation(
                1, 0, protocol, ExhaustiveMode(depth=4), suspensions=0, state_budget=budget
            )

        _assert_sweep_checks_each_once(hunt, states)


class TestMemoizedReactions:
    """A ``Simulation`` runs each protocol reaction once per record and
    event, across the whole exhaustive walk and across random trials."""

    @pytest.mark.parametrize(
        "mode",
        [ExhaustiveMode(depth=24), RandomMode(seed=3, trials=200)],
        ids=["exhaustive", "random"],
    )
    def test_each_reaction_runs_once(self, mode):
        calls = []

        class Recorded(TwoPhaseCommit):
            def on_start(self, node, n):
                calls.append((node.fingerprint(), "start"))
                return super().on_start(node, n)

            def on_message(self, node, sender, payload, n):
                calls.append((node.fingerprint(), sender, tuple(sorted(payload.items()))))
                return super().on_message(node, sender, payload, n)

        inputs = [Value.ONE, Value.ONE, Value.ZERO, Value.ONE]
        find_violation(3, 1, Recorded(), mode, inputs=inputs, suspensions=1)
        assert calls
        assert len(set(calls)) == len(calls)


class TestOneTransition:
    """The exhaustive walk and random trials advance bare states: neither
    clones nor applies per child or per event, and the state check takes
    the bare state."""

    @pytest.mark.parametrize(
        "mode,checks",
        [(ExhaustiveMode(depth=24), None), (RandomMode(seed=3, trials=50), 50)],
        ids=["exhaustive", "random"],
    )
    def test_no_clone_or_apply_per_child(self, mode, checks):
        calls = {"clone": 0, "apply": 0}
        events = []

        def counted(name):
            method = getattr(Simulation, name)

            def wrapper(self, *args):
                calls[name] += 1
                return method(self, *args)

            return wrapper

        def record(kernel, state):
            events.append(Simulation._of(kernel, state).event_count)
            return False

        with pytest.MonkeyPatch.context() as patch:
            for name in calls:
                patch.setattr(Simulation, name, counted(name))
            patch.setattr(forksim, "_violates", record)
            assert find_violation(4, 1, TwoPhaseCommit(), mode) is None
        assert calls == {"clone": 0, "apply": 0}
        # The sweep, or the trials, took hundreds of events.
        assert sum(events) > 300
        assert checks is None or len(events) == checks


class TestRunBounds:
    def test_n_must_allow_two_chains(self):
        with pytest.raises(BadResilience):
            run(0, 0, TwoPhaseCommit(), [])

    @pytest.mark.parametrize("n,t", [(2, 2), (2, -1), (1, 1)])
    def test_resilience_window(self, n, t):
        with pytest.raises(BadResilience):
            run(n, t, TwoPhaseCommit(), [])

    def test_input_arity_checked(self):
        with pytest.raises(ValueError, match="input values"):
            run(2, 1, TwoPhaseCommit(), [], inputs=[Value.ONE])


class TestProtocolRuns:
    def test_failure_free_run_commits_everywhere(self):
        trace = run(2, 1, TwoPhaseCommit(), FAILURE_FREE)
        assert trace.outcome == (Value.ONE,) * 3
        assert trace.realized == (Value.ONE,) * 3
        assert trace.quiescent
        assert check_trace(trace).ok

    def test_zero_vote_aborts_everywhere(self):
        inputs = [Value.ONE, Value.ZERO, Value.ONE]
        trace = run(2, 1, TwoPhaseCommit(), FAILURE_FREE, inputs=inputs)
        assert trace.outcome == (Value.ZERO,) * 3
        assert check_trace(trace).ok

    def test_votes_buffered_before_coordinator_start(self):
        # delivering a vote before the coordinator's start step must not lose it
        schedule = [
            A("step", 1),
            A("step", 2),
            A("deliver", sequence=0),
            A("deliver", sequence=1),
            A("step", 0),
            A("deliver", sequence=2),
            A("deliver", sequence=3),
        ]
        trace = run(2, 1, TwoPhaseCommit(), schedule)
        assert trace.outcome == (Value.ONE,) * 3
        assert check_trace(trace).ok

    def test_suspension_after_vote_breaks_atomicity(self):
        trace = run(2, 1, TwoPhaseCommit(), SUSPEND_AFTER_VOTE)
        assert trace.realized[1] is Value.BOTTOM
        assert trace.outcome[0] is Value.ONE  # coordinator already committed
        report = check_trace(trace)
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert "atomicity" in kinds
        assert any("mandate abort" in v.detail for v in report.violations)

    def test_coordinator_crash_blocks_participants(self):
        trace = run(2, 1, TwoPhaseCommit(), COORDINATOR_CRASH)
        assert trace.quiescent
        report = check_trace(trace)
        assert [v.kind for v in report.violations] == ["termination"]
        assert set(report.violations[0].chains) == {1, 2}

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            get_protocol("3pc")
        assert isinstance(get_protocol("2pc"), TwoPhaseCommit)


class TestScheduleValidation:
    def make(self):
        return Simulation(2, 1, TwoPhaseCommit(), [Value.ONE] * 3)

    def test_chain_out_of_range(self):
        sim = self.make()
        with pytest.raises(InvalidSchedule, match="outside 0..2"):
            sim.apply(A("step", 5))

    def test_double_start_rejected(self):
        sim = self.make()
        sim.apply(A("step", 0))
        with pytest.raises(InvalidSchedule, match="already took its start step"):
            sim.apply(A("step", 0))

    def test_step_after_crash_rejected(self):
        sim = self.make()
        sim.apply(A("crash", 1))
        with pytest.raises(InvalidSchedule, match="after crashing"):
            sim.apply(A("step", 1))

    def test_unknown_sequence_rejected(self):
        sim = self.make()
        with pytest.raises(InvalidSchedule, match="no in-flight message"):
            sim.apply(A("deliver", sequence=0))
        with pytest.raises(InvalidSchedule, match="no in-flight message"):
            sim.apply(A("deliver"))

    def test_crash_budget_enforced(self):
        sim = self.make()
        sim.apply(A("crash", 0))
        with pytest.raises(InvalidSchedule, match="crash budget"):
            sim.apply(A("crash", 1))

    def test_double_crash_rejected(self):
        sim = Simulation(4, 2, TwoPhaseCommit(), [Value.ONE] * 5)
        sim.apply(A("crash", 0))
        with pytest.raises(InvalidSchedule, match="already crashed"):
            sim.apply(A("crash", 0))

    def test_double_suspend_rejected(self):
        sim = self.make()
        sim.apply(A("suspend", 2))
        with pytest.raises(InvalidSchedule, match="already suspended"):
            sim.apply(A("suspend", 2))

    def test_unknown_kind_rejected(self):
        sim = self.make()
        with pytest.raises(InvalidSchedule, match="unknown action kind"):
            sim.apply(A("tick", 0))

    def test_delivery_to_crashed_node_is_swallowed(self):
        sim = self.make()
        sim.apply(A("step", 1))  # vote to coordinator: sequence 0
        sim.apply(A("crash", 0))
        sim.apply(A("deliver", sequence=0))
        assert sim.in_flight == {}
        assert sim.nodes[0].memory == {}  # crashed coordinator never processed it


class TestQuiescence:
    def test_initial_state_is_not_quiescent(self):
        sim = Simulation(2, 1, TwoPhaseCommit(), [Value.ONE] * 3)
        assert not sim.quiescent()

    def test_pending_message_blocks_quiescence(self):
        sim = Simulation(2, 1, TwoPhaseCommit(), [Value.ONE] * 3)
        for action in FAILURE_FREE[:4]:
            sim.apply(action)
        assert not sim.quiescent()

    def test_crashed_unstarted_node_does_not_block(self):
        sim = Simulation(2, 1, TwoPhaseCommit(), [Value.ONE] * 3)
        for action in COORDINATOR_CRASH:
            sim.apply(action)
        assert sim.quiescent()


class TestEnabled:
    def test_canonical_order_and_filters(self):
        sim = Simulation(2, 1, TwoPhaseCommit(), [Value.ONE] * 3)
        sim.apply(A("step", 1))
        actions = sim.enabled(max_suspensions=1)
        kinds = [a.kind for a in actions]
        assert kinds == sorted(kinds, key=["step", "deliver", "suspend", "crash"].index)
        steps = [a.chain for a in actions if a.kind == "step"]
        assert steps == [0, 2]
        delivers = [a.sequence for a in actions if a.kind == "deliver"]
        assert delivers == [0]
        suspends = [a.chain for a in actions if a.kind == "suspend"]
        assert suspends == [0, 1, 2]
        crashes = [a.chain for a in actions if a.kind == "crash"]
        assert crashes == [0, 1, 2]

    def test_suspensions_and_crashes_can_be_disabled(self):
        sim = Simulation(2, 0, TwoPhaseCommit(), [Value.ONE] * 3)
        actions = sim.enabled(max_suspensions=0)
        assert {a.kind for a in actions} == {"step"}


class TestTraceReplay:
    def test_schedule_round_trip(self):
        trace = run(2, 1, TwoPhaseCommit(), SUSPEND_AFTER_VOTE)
        replayed = run(2, 1, TwoPhaseCommit(), trace.schedule())
        assert replayed == trace

    def test_random_trace_round_trip(self):
        rng = random.Random(7)
        sim = Simulation(2, 1, TwoPhaseCommit(), [Value.ONE] * 3)
        for _ in range(12):
            actions = sim.enabled(1)
            if not actions:
                break
            sim.apply(rng.choice(actions))
        trace = sim.trace()
        assert run(2, 1, TwoPhaseCommit(), trace.schedule()) == trace


class TestMessages:
    def test_each_message_is_built_once(self):
        """``in_flight``, ``events`` and ``trace`` hand out one ``Message``
        object per delivery, however often they are read."""
        sim = Simulation(2, 1, TwoPhaseCommit(), [Value.ONE] * 3)
        for action in FAILURE_FREE[:4]:
            sim.apply(action)
        in_flight = sim.in_flight
        assert in_flight and all(
            sim.in_flight[seq] is message for seq, message in in_flight.items()
        )
        delivered = [event.message for event in sim.events if event.message is not None]
        assert delivered and all(
            a is b for a, b in zip(delivered, (e.message for e in sim.trace().events if e.message))
        )
        twin = sim.clone()
        twin.apply(A("deliver", sequence=min(in_flight)))
        assert twin.events[-1].message is in_flight[min(in_flight)]


class TestChecker:
    def synthetic(self, outcome, realized, crashed=(), quiescent=True):
        return ExecutionTrace(
            n=2,
            t=1,
            protocol="2pc",
            inputs=(Value.ONE,) * 3,
            events=(),
            outcome=outcome,
            realized=realized,
            crashed=frozenset(crashed),
            suspended=frozenset(),
            quiescent=quiescent,
        )

    def test_disagreement_between_live_nodes(self):
        trace = self.synthetic(
            (Value.ONE, Value.ZERO, Value.ONE), (Value.ONE,) * 3
        )
        report = check_trace(trace)
        assert not report
        assert "atomicity" in [v.kind for v in report.violations]

    def test_crashed_node_disagreement_is_forgiven(self):
        trace = self.synthetic(
            (Value.ZERO, Value.ONE, Value.ONE), (Value.ONE,) * 3, crashed={0}
        )
        kinds = [v.kind for v in check_trace(trace).violations]
        assert "atomicity" not in kinds
        # Δ counts the crashed chain's decision, so the run is outside it.
        assert not carrier_allows(trace.outcome, trace.realized)

    def test_crashed_chain_gap_is_reached_by_a_run(self):
        # Agreement leaves crashed chains out, but Δ counts them: chain 1
        # decides abort, crashes, and the live chains commit.
        class SplitStart(CommitProtocol):
            name = "split-start"

            def on_start(self, node, n):
                node.decide(Value.ZERO if node.index == 1 else Value.ONE)
                return []

            def on_message(self, node, sender, payload, n):
                return []

        schedule = [A("step", 0), A("step", 1), A("crash", 1), A("step", 2)]
        inputs = (Value.ONE, Value.ZERO, Value.ONE)
        trace = run(2, 1, SplitStart(), schedule, inputs=inputs)
        assert trace.outcome == (Value.ONE, Value.ZERO, Value.ONE)
        assert trace.crashed == {1}
        report = check_trace(trace)
        assert report and report.violations == ()
        assert not carrier_allows(trace.outcome, trace.realized)

    def test_commit_against_suspension(self):
        trace = self.synthetic(
            (Value.ONE, Value.ONE, Value.ONE),
            (Value.ONE, Value.BOTTOM, Value.ONE),
        )
        report = check_trace(trace)
        assert any(
            v.kind == "atomicity" and "mandate abort" in v.detail
            for v in report.violations
        )

    def test_commit_by_crashed_node_still_counts(self):
        # a node that decided commit before crashing still violates the rule
        trace = self.synthetic(
            (Value.ONE, None, Value.ZERO),
            (Value.ONE, Value.BOTTOM, Value.ONE),
            crashed={0},
        )
        report = check_trace(trace)
        assert any("mandate abort" in v.detail for v in report.violations)

    def test_abort_without_cause_is_validity_violation(self):
        trace = self.synthetic((Value.ZERO,) * 3, (Value.ONE,) * 3)
        kinds = [v.kind for v in check_trace(trace).violations]
        assert kinds == ["validity"]

    def test_blocked_live_node_is_termination_violation(self):
        trace = self.synthetic((None, Value.ONE, Value.ONE), (Value.ONE,) * 3)
        kinds = [v.kind for v in check_trace(trace).violations]
        assert kinds == ["termination"]

    def test_non_quiescent_partial_run_is_fine(self):
        trace = self.synthetic(
            (None, None, None), (Value.ONE,) * 3, quiescent=False
        )
        assert check_trace(trace).ok

    @settings(max_examples=300)
    @given(data=st.data())
    def test_report_is_the_stated_rules(self, data):
        """Kinds, details, chains and order, against ``violations_oracle``;
        a decision may be the suspended marker, and a crashed node may
        have decided."""
        n = data.draw(st.integers(1, 4), label="n")
        outcome = tuple(data.draw(st.lists(
            st.sampled_from([None, *Value]), min_size=n + 1, max_size=n + 1
        ), label="outcome"))
        realized = tuple(data.draw(st.lists(
            st.sampled_from(list(Value)), min_size=n + 1, max_size=n + 1
        ), label="realized"))
        crashed = data.draw(st.frozensets(st.integers(0, n)), label="crashed")
        quiescent = data.draw(st.booleans(), label="quiescent")
        trace = ExecutionTrace(
            n=n,
            t=0,
            protocol="2pc",
            inputs=realized,
            events=(),
            outcome=outcome,
            realized=realized,
            crashed=crashed,
            suspended=frozenset(i for i, v in enumerate(realized) if v is Value.BOTTOM),
            quiescent=quiescent,
        )
        report = [(v.kind, v.detail, v.chains) for v in check_trace(trace).violations]
        assert report == violations_oracle(outcome, realized, crashed, quiescent)


class TestFindViolation:
    def test_exhaustive_finds_suspension_atomicity(self):
        trace = find_violation(2, 1, TwoPhaseCommit(), ExhaustiveMode(depth=10))
        assert trace is not None
        report = check_trace(trace)
        assert any(v.kind == "atomicity" for v in report.violations)
        assert any("mandate abort" in v.detail for v in report.violations)

    def test_fault_free_mode_is_clean(self):
        assert (
            find_violation(
                2, 0, TwoPhaseCommit(), ExhaustiveMode(depth=16), suspensions=0
            )
            is None
        )

    def test_suspension_alone_suffices(self):
        trace = find_violation(
            2, 0, TwoPhaseCommit(), ExhaustiveMode(depth=12), suspensions=1
        )
        assert trace is not None
        assert any(
            "mandate abort" in v.detail for v in check_trace(trace).violations
        )

    def test_state_budget_enforced(self):
        with pytest.raises(ResourceBound) as excinfo:
            find_violation(
                2, 1, TwoPhaseCommit(), ExhaustiveMode(depth=10), state_budget=1
            )
        assert excinfo.value.explored > 1

    def test_state_budget_validated(self):
        with pytest.raises(ValueError):
            find_violation(
                2, 1, TwoPhaseCommit(), ExhaustiveMode(depth=4), state_budget=0
            )

    def test_exhaustive_depth_validated(self):
        with pytest.raises(ValueError):
            find_violation(2, 1, TwoPhaseCommit(), ExhaustiveMode(depth=0))

    def test_random_mode_is_seed_deterministic(self):
        first = find_violation(2, 1, TwoPhaseCommit(), RandomMode(seed=0, trials=50))
        second = find_violation(2, 1, TwoPhaseCommit(), RandomMode(seed=0, trials=50))
        assert first == second
        assert first is not None

    def test_random_trial_stops_a_protocol_that_never_quiesces(self):
        # Every delivery sends the receiver another message to itself.
        ping = ("ping", ((0, "ping"),), False, None)
        protocol = TableProtocol({("init", "start"): ping, ("ping", "ping"): ping})
        assert find_violation(1, 0, protocol, RandomMode(seed=0, trials=1)) is None

    def test_random_trials_validated(self):
        with pytest.raises(ValueError):
            find_violation(2, 1, TwoPhaseCommit(), RandomMode(seed=0, trials=0))

    @pytest.mark.parametrize("suspensions", [-1, 1.5, True, None, "1"])
    @pytest.mark.parametrize(
        "mode", [ExhaustiveMode(depth=4), RandomMode(seed=0, trials=1)],
        ids=["exhaustive", "random"],
    )
    def test_suspensions_validated(self, mode, suspensions):
        """-1 would run as 0 and 1.5 would allow two suspensions."""
        with pytest.raises(ValueError, match="suspensions must be a non-negative int"):
            find_violation(2, 1, TwoPhaseCommit(), mode, suspensions=suspensions)

    def test_unsupported_mode_rejected(self):
        with pytest.raises(TypeError):
            find_violation(2, 1, TwoPhaseCommit(), mode="exhaustive")

    def test_outputs_are_pinned(self):
        # sha256 over one line per case, the trace and its report: 2PC at
        # n = 2..5 and every legal t, all legs ONE or one ZERO or BOTTOM leg
        # at each position, 0 or 1 suspensions, exhaustive at depth 24 and
        # random seeds 0-2 with 60 trials each: 832 cases.
        lines = []
        for n in (2, 3, 4, 5):
            for t in range((n + 2) // 2):
                legs = [(Value.ONE, 0)] + [
                    (leg, p) for p in range(n + 1) for leg in (Value.ZERO, Value.BOTTOM)
                ]
                for suspensions, (leg, position) in itertools.product((0, 1), legs):
                    inputs = [Value.ONE] * (n + 1)
                    inputs[position] = leg
                    modes = [ExhaustiveMode(depth=24)]
                    modes += [RandomMode(seed=seed, trials=60) for seed in range(3)]
                    for mode in modes:
                        trace = find_violation(
                            n, t, TwoPhaseCommit(), mode, suspensions=suspensions, inputs=inputs
                        )
                        report = None if trace is None else check_trace(trace)
                        lines.append(repr((trace, report)))
        assert len(lines) == 832
        assert hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest() == (
            "30ee09048a73b6d72082f873782abde0c72242e6e3d8521bad7332e3a6f3e56d"
        )


class DetourProtocol(CommitProtocol):
    """Two chains whose handshake state S is reached on three events, or on
    four through a detour; from S a token needs ``HOPS`` more deliveries
    before the run stops undecided, a termination violation.

    Chain 1 starts by greeting chain 0.  Chain 0 starts the token once it
    has both started and heard the greeting.  Started first, it also sends
    itself a ``noop``, whose delivery is the detour's extra event.
    """

    name = "detour"
    HOPS = 2

    def on_start(self, node, n):
        node.phase = "started"
        if node.index == 1:
            return [(0, {"kind": "hello"})]
        if node.memory.get("heard"):
            return [(1, {"kind": "token", "hops": 0})]
        return [(0, {"kind": "noop"})]

    def on_message(self, node, sender, payload, n):
        if payload["kind"] == "hello":
            node.memory["heard"] = True
            if node.phase == "started":
                return [(1, {"kind": "token", "hops": 0})]
        elif payload["kind"] == "token" and payload["hops"] + 1 < self.HOPS:
            return [(1 - node.index, {"kind": "token", "hops": payload["hops"] + 1})]
        return []


class TestDepthAwareDedup:
    """Canonical order reaches S through the detour first.  A depth-blind
    seen-set then prunes the shorter path to S, and the violation at
    3 + HOPS events is never checked."""

    def test_violation_just_under_the_bound_is_found(self):
        def hunt(depth):
            mode = ExhaustiveMode(depth=depth)
            return find_violation(1, 0, DetourProtocol(), mode, suspensions=0)

        depth = 3 + DetourProtocol.HOPS
        assert hunt(depth - 1) is None
        trace = hunt(depth)
        assert trace is not None
        assert len(trace.events) == depth
        assert [v.kind for v in check_trace(trace).violations] == ["termination"]


def _replayed(trace, protocol=None):
    """A fresh simulation that ran the trace's schedule."""
    if protocol is None:
        protocol = get_protocol(trace.protocol)
    sim = Simulation(trace.n, trace.t, protocol, trace.inputs)
    for action in trace.schedule():
        sim.apply(action)
    return sim


def _oracle_grid():
    for n in (2, 3):
        for t in (0, 1):
            # n=3, t=1 has over a thousand states by depth 5; its coordinator
            # crash is a termination violation from depth 4 on.
            depth = 4 if (n, t) == (3, 1) else 24
            # All legs ONE: every participant in one orbit class.
            yield pytest.param(n, t, depth, 1, 0, Value.ONE, id=f"n{n}-t{t}-d{depth}-1@0")
            for position in range(n + 1):
                for leg in (Value.ZERO, Value.BOTTOM):
                    yield pytest.param(
                        n, t, depth, 1, position, leg,
                        id=f"n{n}-t{t}-d{depth}-{leg.value}@{position}",
                    )
    # Two suspensions, or two crashes, enabled at once.
    for leg in (Value.ZERO, Value.BOTTOM):
        for position in range(3):
            yield pytest.param(
                2, 0, 24, 2, position, leg, id=f"n2-t0-d24-{leg.value}@{position}-s2"
            )
    yield pytest.param(2, 1, 24, 2, 0, Value.ONE, id="n2-t1-d24-1@0-s2")
    yield pytest.param(3, 0, 24, 2, 1, Value.BOTTOM, id="n3-t0-d24-bot@1-s2")
    yield pytest.param(4, 2, 4, 1, 1, Value.ZERO, id="n4-t2-d4-0@1")


# 2PC's symmetry, stated here rather than read off ``TwoPhaseCommit``: the
# participants 1..n with equal inputs are interchangeable, and the
# coordinator's ``votes`` are keyed by chain.
_2PC_KEYED = ("votes",)


def _2pc_group(inputs):
    return chain_permutations(inputs, range(1, len(inputs)))


def _2pc_orbits(n, t, depth, suspensions, inputs):
    """The oracle's 2PC orbits, the orbit of a state, and a hunt."""
    group = _2pc_group(inputs)
    orbits = orbit_states(
        Simulation(n, t, TwoPhaseCommit(), inputs), depth, suspensions, group, _2PC_KEYED
    )

    def orbit_of(sim):
        return orbit_key(encode_state(sim), group, _2PC_KEYED)

    def hunt(budget=None):
        return find_violation(
            n, t, TwoPhaseCommit(), ExhaustiveMode(depth=depth),
            suspensions=suspensions, inputs=inputs, state_budget=budget,
        )

    return orbits, orbit_of, hunt


class TestExhaustiveAgainstOracle:
    """``ExhaustiveMode`` against a deep-copying BFS with its own state keys,
    quotiented by 2PC's symmetry: the walk checks one state per orbit."""

    @pytest.mark.parametrize(
        "n,t,depth,suspensions,position,leg", list(_oracle_grid())
    )
    def test_same_states_and_verdict(self, n, t, depth, suspensions, position, leg):
        inputs = [Value.ONE] * (n + 1)
        inputs[position] = leg
        orbits, orbit_of, hunt = _2pc_orbits(n, t, depth, suspensions, inputs)
        violating = {kinds for _, kinds in orbits.values() if kinds}
        trace = hunt()
        assert (trace is not None) == bool(violating)
        if trace is not None:
            events, kinds = orbits[orbit_of(_replayed(trace))]
            assert events <= len(trace.events) <= depth
            assert kinds == {v.kind for v in check_trace(trace).violations}
            assert kinds in violating
        # A budget of the oracle's orbit count passes and one state fewer
        # runs out: the sweep checks one state of each orbit.
        _assert_sweep_checks_each_once(hunt, orbits, key=orbit_of)

    def test_all_one_n2_t0_checks_72_orbits(self):
        """A walk that marks ``seen`` last child first keeps a later sibling
        with an earlier sibling of its orbit asleep: it checks 40 of these
        72 orbits and misses the atomicity violation.  At the sizes the
        oracle is too slow for, the whole space (one suspension, depth 100)
        checks the orbit counts of an independent enumeration."""
        orbits, orbit_of, hunt = _2pc_orbits(2, 0, 24, 1, [Value.ONE] * 3)
        assert hunt() is not None
        assert len(orbits) == 72
        _assert_sweep_checks_each_once(hunt, orbits, key=orbit_of)
        for n, t, count in (
            (3, 1, 537), (4, 2, 1984), (5, 2, 3133), (6, 2, 4542), (7, 3, 11353)
        ):
            checked = []

            def record(kernel, state):
                checked.append(state)
                return False

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(forksim, "_violates", record)
                assert find_violation(n, t, TwoPhaseCommit(), ExhaustiveMode(depth=100)) is None
            assert len(checked) == count


def _trace_identity_grid():
    for n in (2, 3, 4):
        depth = 14 if n == 4 else 24
        for t in range(n):
            if 2 * t >= n + 1:
                break
            legs = [(Value.ONE, 0)]
            legs += [(leg, p) for leg in (Value.ZERO, Value.BOTTOM) for p in range(n + 1)]
            for suspensions in (0, 1):
                for leg, position in legs:
                    yield pytest.param(
                        n, t, depth, suspensions, position, leg,
                        id=f"n{n}-t{t}-s{suspensions}-{leg.value}@{position}",
                    )


class TestSleepSetsAgainstOracles:
    """Sleep sets skip transitions only: every state within the bound is
    still checked once, and 2PC hunts return the unreduced walk's trace."""

    @pytest.mark.parametrize(
        "n,t,depth,suspensions,position,leg", list(_trace_identity_grid())
    )
    def test_same_trace_as_unreduced_walk(self, n, t, depth, suspensions, position, leg):
        inputs = [Value.ONE] * (n + 1)
        inputs[position] = leg
        expected = unreduced_walk(
            Simulation(n, t, TwoPhaseCommit(), inputs), depth, suspensions
        )
        trace = find_violation(
            n, t, TwoPhaseCommit(), ExhaustiveMode(depth=depth),
            suspensions=suspensions, inputs=inputs,
        )
        assert trace == expected

    @settings(max_examples=150)
    @given(data=st.data())
    def test_random_protocols_check_every_state(self, data):
        n, t, suspensions, depth, inputs, protocol = _draw_table_run(data)
        states = reachable_states(Simulation(n, t, protocol, inputs), depth, suspensions)
        violating = {kinds for _, kinds in states.values() if kinds}
        mode = ExhaustiveMode(depth=depth)

        def hunt(budget=None):
            return find_violation(
                n, t, protocol, mode, suspensions=suspensions, inputs=inputs,
                state_budget=budget,
            )

        trace = hunt()
        assert (trace is not None) == bool(violating)
        if trace is not None:
            events, kinds = states[encode_state(_replayed(trace, protocol))]
            assert events <= len(trace.events) <= depth
            assert kinds == {v.kind for v in check_trace(trace).violations}
        _assert_sweep_checks_each_once(hunt, states)

    @pytest.mark.parametrize(
        "n,t,suspensions,depth,inputs,table",
        [
            pytest.param(
                1, 0, 2, 6, [Value.BOTTOM, Value.ZERO],
                {
                    ("init", "start"): ("a", [(1, "y")], True, "own"),
                    ("init", "y"): ("init", [(1, "y"), (0, "y")], False, "1"),
                    ("b", "y"): ("a", [(0, "x"), (0, "y")], False, None),
                },
                id="n1-s2",
            ),
            pytest.param(
                2, 1, 0, 8, [Value.ONE, Value.BOTTOM, Value.BOTTOM],
                {
                    ("init", "start"): ("a", [(2, "y"), (2, "x")], True, "0"),
                    ("a", "y"): ("a", [(2, "y")], False, "1"),
                    ("b", "x"): ("init", [(2, "x"), (1, "y")], True, None),
                    ("b", "y"): ("a", [(0, "y")], True, "1"),
                },
                id="n2-t1",
            ),
        ],
    )
    def test_revisit_free_walk_on_load_bearing_tables(
        self, n, t, suspensions, depth, inputs, table
    ):
        """Protocols where a walk that revisits a cached state with a
        smaller sleep set reaches some state first through that revisit;
        the walk without it reaches each of them another way."""
        protocol = TableProtocol(table)
        states = reachable_states(Simulation(n, t, protocol, inputs), depth, suspensions)

        def hunt(budget):
            return find_violation(
                n, t, protocol, ExhaustiveMode(depth=depth),
                suspensions=suspensions, inputs=inputs, state_budget=budget,
            )

        _assert_sweep_checks_each_once(hunt, states)


def _assert_sweep_checks_each_once(hunt, states, key=encode_state):
    """With a state check that flags nothing, ``hunt(budget)`` sweeps the
    bound: it checks each of the oracle's ``states`` (by ``key``, or each
    orbit by ``orbit_key``) exactly once, so a budget of their count
    passes and one fewer runs out."""
    checked = []

    def record(kernel, state):
        checked.append(key(Simulation._of(kernel, state)))
        return False

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forksim, "_violates", record)
        assert hunt(len(states)) is None
        assert len(checked) == len(states)
        assert set(checked) == set(states)
        with pytest.raises(ResourceBound):
            hunt(len(states) - 1)


class TestStateCheckAgainstChecker:
    """The walk's state check says what ``check_trace`` says of the state's
    trace, on every state the deep-copying BFS reaches, replayed into a
    ``Simulation``."""

    @staticmethod
    def _agree(sim, depth, suspensions):
        for _, _, state in bfs_states(sim, depth, suspensions):
            trace = state.trace()
            expected = bool(check_trace(trace).violations)
            replayed = _replayed(trace, sim.protocol)
            assert forksim._violates(replayed.kernel, replayed.state) == expected, (
                encode_state(state)
            )

    @pytest.mark.parametrize(
        "n,t,depth,suspensions,position,leg", list(_oracle_grid())
    )
    def test_2pc_states(self, n, t, depth, suspensions, position, leg):
        inputs = [Value.ONE] * (n + 1)
        inputs[position] = leg
        self._agree(Simulation(n, t, TwoPhaseCommit(), inputs), depth, suspensions)

    @settings(max_examples=60)
    @given(data=st.data())
    def test_random_protocol_states(self, data):
        n, t, suspensions, depth, inputs, protocol = _draw_table_run(data)
        self._agree(Simulation(n, t, protocol, inputs), depth, suspensions)


def _draw_table_run(data, protocol=TableProtocol):
    """A small ``TableProtocol`` run: n, t, suspensions, depth, inputs and
    the protocol (of class ``protocol``), drawn one by one from ``data``."""
    n = data.draw(st.integers(1, 2), label="n")
    t = data.draw(st.integers(0, n // 2), label="t")
    suspensions = data.draw(st.integers(0, 2), label="suspensions")
    depth = data.draw(st.integers(2, 6 if n == 1 else 5), label="depth")
    inputs = data.draw(
        st.lists(st.sampled_from(list(Value)), min_size=n + 1, max_size=n + 1),
        label="inputs",
    )
    return n, t, suspensions, depth, inputs, protocol(data.draw(_tables(n), label="table"))


@st.composite
def _tables(draw, n):
    """A ``TableProtocol`` table over three phases and two message kinds."""
    phases = ("init", "a", "b")
    sends = st.lists(
        st.tuples(st.integers(0, n), st.sampled_from(("x", "y"))), max_size=2
    )
    entry = st.tuples(
        st.sampled_from(phases),
        sends,
        st.booleans(),
        st.sampled_from((None, None, "0", "1", "own")),
    )
    table = {}
    for phase in phases:
        for kind in ("start", "x", "y"):
            if draw(st.booleans()) or kind == "start" and phase == "init":
                table[(phase, kind)] = draw(entry)
    return table


def _renamed_action(sim, twin, action, perm):
    """``action`` on ``sim`` renamed by ``perm`` into an action on ``twin``,
    ``sim`` renamed: the same kind on the renamed chain, or the delivery
    of the first in-flight message with the renamed ends and payload."""
    if action.kind != "deliver":
        return A(action.kind, perm[action.chain])
    message = sim.in_flight[action.sequence]
    return A("deliver", sequence=min(
        seq for seq, m in twin.in_flight.items()
        if (m.sender, m.receiver, m.payload)
        == (perm[message.sender], perm[message.receiver], message.payload)
    ))


class TestDeclaredSymmetry:
    """A protocol's declared symmetry against renamings the test makes
    itself, and the walk's one state per orbit."""

    @settings(max_examples=60)
    @given(
        data=st.data(),
        n=st.integers(2, 4),
        t=st.integers(0, 1),
        legs=st.lists(st.sampled_from(list(Value)), min_size=3, max_size=3),
        odd=st.integers(1, 4),
    )
    def test_2pc_reactions_are_equivariant(self, data, n, t, legs, odd):
        """Renaming a reachable state by any group element and applying the
        renamed action gives the renamed child, for every enabled action.
        The participants share one input but for chain ``odd``, if any."""
        inputs = [legs[0]] + [legs[1]] * n
        if odd <= n:
            inputs[odd] = legs[2]
        sim = Simulation(n, t, TwoPhaseCommit(), inputs)
        schedule = []
        for _ in range(data.draw(st.integers(0, 14), label="events")):
            actions = sim.enabled(1)
            if not actions:
                break
            schedule.append(data.draw(st.sampled_from(actions)))
            sim.apply(schedule[-1])
        for perm in _2pc_group(inputs):
            replay = Simulation(n, t, TwoPhaseCommit(), inputs)
            twin = Simulation(n, t, TwoPhaseCommit(), inputs)
            for action in schedule:
                twin.apply(_renamed_action(replay, twin, action, perm))
                replay.apply(action)
            assert encode_state(twin) == renamed_encoding(encode_state(sim), perm, _2PC_KEYED)
            for action in sim.enabled(1):
                child, twin_child = sim.clone(), twin.clone()
                twin_child.apply(_renamed_action(sim, twin, action, perm))
                child.apply(action)
                assert encode_state(twin_child) == renamed_encoding(
                    encode_state(child), perm, _2PC_KEYED
                )

    @settings(max_examples=40)
    @given(data=st.data())
    def test_star_table_walk_checks_each_orbit_once(self, data):
        self._sweep(*_draw_table_run(data, StarTableProtocol))

    def test_star_table_signature_reads_fixed_chains_memory(self):
        """Chain 0's ``heard`` alone tells chains 1 and 2 apart in some
        state here; a signature without it checks 233 states, not 232."""
        table = {
            ("init", "start"): ("b", [(1, "x"), (0, "y")], False, None),
            ("init", "x"): ("a", [(1, "y")], True, None),
            ("init", "y"): ("init", [(0, "x"), (2, "x")], True, "1"),
            ("a", "x"): ("init", [], False, "0"),
            ("b", "x"): ("b", [(1, "y")], True, "0"),
            ("b", "y"): ("init", [], False, "own"),
        }
        inputs = [Value.ONE, Value.BOTTOM, Value.BOTTOM]
        assert self._sweep(2, 0, 0, 7, inputs, StarTableProtocol(table)) == 232

    def test_message_between_declared_chains_is_refused(self):
        """Chain 1's start sends to chain 2, and no sorted column can say
        which declared chain a message ties it to."""
        table = {("init", "start"): ("a", [(1, "x")], False, None)}
        with pytest.raises(ValueError, match="declared chain 1 messages declared chain 2"):
            find_violation(
                2, 0, MeshTableProtocol(table), ExhaustiveMode(depth=2), suspensions=0
            )

    def test_entry_for_another_declared_chain_is_refused(self):
        """Each participant notes every participant at its start: the
        reaction is equivariant and sends nothing, but a participant's
        record names the others."""

        class Roster(CommitProtocol):
            name = "roster"
            chain_keyed = ("heard",)

            def symmetric_chains(self, n):
                return range(1, n + 1)

            def on_start(self, node, n):
                node.memory["heard"] = {chain: 1 for chain in range(1, n + 1)}
                return []

            def on_message(self, node, sender, payload, n):
                return []

        with pytest.raises(ValueError, match="keeps a 'heard' entry for declared chain"):
            find_violation(2, 0, Roster(), ExhaustiveMode(depth=2), suspensions=0)

    @staticmethod
    def _sweep(n, t, suspensions, depth, inputs, protocol):
        """Check the verdict, and that the walk checks each orbit of
        ``orbit_states`` once; returns the orbit count."""
        group = chain_permutations(inputs, range(1, n + 1))
        orbits = orbit_states(
            Simulation(n, t, protocol, inputs), depth, suspensions, group, ("heard",)
        )

        def hunt(budget=None):
            return find_violation(
                n, t, protocol, ExhaustiveMode(depth=depth), suspensions=suspensions,
                inputs=inputs, state_budget=budget,
            )

        def key(sim):
            return orbit_key(encode_state(sim), group, ("heard",))

        trace = hunt()
        assert (trace is not None) == any(kinds for _, kinds in orbits.values())
        _assert_sweep_checks_each_once(hunt, orbits, key=key)
        return len(orbits)


class TestEditedKey:
    """``fingerprint``, whose view is read off the state, against the
    renaming oracle on long random 2PC runs.  Each run has a twin that
    takes the same actions renamed by a group member, so that distinct
    states of one orbit meet."""

    ONE, ZERO, BOT = Value.ONE, Value.ZERO, Value.BOTTOM

    @pytest.mark.parametrize("n,t,inputs", [
        (3, 1, (ONE, ONE, ONE, ZERO)),  # one class, {1, 2}; chain 3 is fixed
        (3, 1, (ZERO, ONE, ONE, ONE)),  # one class, {1, 2, 3}
        (4, 2, (ONE, ZERO, ONE, ZERO, ONE)),  # classes {1, 3} and {2, 4}
        (4, 1, (ONE, BOT, BOT, ONE, ONE)),  # classes {1, 2} and {3, 4}
    ])
    def test_equal_keys_exactly_for_one_orbit(self, n, t, inputs):
        rng = random.Random(f"{n}-{t}-{inputs}")
        group = _2pc_group(inputs)
        root = Simulation(n, t, TwoPhaseCommit(), inputs)
        states = []
        for _ in range(150):
            sim, twin, perm = root.clone(), root.clone(), rng.choice(group)
            for _ in range(rng.randint(1, 30)):
                # ``enabled`` leaves out what a crashed receiver would drop.
                actions = sim.enabled(1) + [
                    A("deliver", sequence=seq) for seq, message in sim.in_flight.items()
                    if sim.nodes[message.receiver].crashed
                ]
                if not actions:
                    break
                action = rng.choice(actions)
                twin.apply(_renamed_action(sim, twin, action, perm))
                sim.apply(action)
                states += [sim.clone(), twin.clone()]
                # Keying a state reads its view and leaves the state as it
                # was, so keying some states as the run goes changes nothing.
                if rng.random() < 0.5:
                    sim.fingerprint()
        pairs = {
            (state.fingerprint(), orbit_key(encode_state(state), group, _2PC_KEYED))
            for state in states
        }
        orbits = {orbit for _, orbit in pairs}
        assert len({key for key, _ in pairs}) == len(orbits) == len(pairs)
        # Distinct states do share an orbit here, and so a key.
        assert len(orbits) < len({encode_state(state) for state in states})

    def test_random_mode_never_consults_the_declared_symmetry(self):
        """Chain 1's start sends to chain 2, which only an orbit key
        refuses: random runs key no state, the exhaustive walk does."""
        table = {("init", "start"): ("a", [(1, "x")], False, None)}
        protocol = MeshTableProtocol(table)
        trace = find_violation(2, 0, protocol, RandomMode(seed=5, trials=20), suspensions=0)
        assert trace is not None and trace.events[0].kind == "step"
        with pytest.raises(ValueError, match="declared chain 1 messages declared chain 2"):
            find_violation(2, 0, protocol, ExhaustiveMode(depth=2), suspensions=0)


class TestOneView:
    """Only the exhaustive walk's states carry a view, and it is the view
    ``_Symmetry.view`` reads off the state itself; every other state carries
    None, and keying it leaves it as it was."""

    ONE, ZERO, BOT = Value.ONE, Value.ZERO, Value.BOTTOM

    @staticmethod
    def _checked(n, t, suspensions, depth, inputs, protocol):
        """Each state the walk checks, with its kernel, over a full sweep."""
        checked = []

        def record(kernel, state):
            checked.append((kernel, state))
            return False

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(forksim, "_violates", record)
            assert find_violation(
                n, t, protocol, ExhaustiveMode(depth=depth), suspensions=suspensions,
                inputs=inputs,
            ) is None
        assert checked
        for kernel, state in checked:
            assert state[7] is not None
            assert kernel.symmetry.view(state) == state[7]
        return checked

    @pytest.mark.parametrize("n,t,inputs,classes", [
        (3, 1, (ONE, ONE, ONE, ONE), 1),  # class {1, 2, 3}
        (3, 1, (ONE, ONE, ONE, ZERO), 1),  # class {1, 2}; chain 3 is fixed
        (4, 2, (ONE, ONE, ONE, ONE, ONE), 1),  # class {1, 2, 3, 4}
        (4, 2, (ONE, ZERO, ONE, ZERO, ONE), 2),  # classes {1, 3} and {2, 4}
        (2, 1, (ONE, ONE, BOT), 0),  # no class: every chain is fixed
    ])
    def test_2pc_walk_carries_the_view_of_each_state(self, n, t, inputs, classes):
        checked = self._checked(n, t, 1, 24, inputs, TwoPhaseCommit())
        assert len(checked[0][0].symmetry.spans) == classes
        assert len(checked) > 50

    @settings(max_examples=40)
    @given(data=st.data())
    def test_star_table_walk_carries_the_view_of_each_state(self, data):
        self._checked(*_draw_table_run(data, StarTableProtocol))

    @settings(max_examples=40)
    @given(data=st.data())
    def test_undeclared_table_walk_carries_the_view_of_each_state(self, data):
        checked = self._checked(*_draw_table_run(data))
        assert checked[0][0].symmetry.spans == []

    def test_states_outside_the_walk_carry_no_view(self):
        views = []
        advance = forksim._Kernel.advance

        def recorded(kernel, state, option):
            child = advance(kernel, state, option)
            views.append(child[7])
            return child

        inputs = [self.ONE, self.ONE, self.ONE, self.ZERO]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(forksim._Kernel, "advance", recorded)
            sim = Simulation(3, 1, TwoPhaseCommit(), inputs)
            assert sim.state[7] is None
            run(2, 1, TwoPhaseCommit(), SUSPEND_AFTER_VOTE)
            # With a ZERO leg and no crash, 2PC aborts in every run.
            assert find_violation(
                3, 0, TwoPhaseCommit(), RandomMode(seed=3, trials=20), inputs=inputs
            ) is None
            assert len(views) > 100 and set(views) == {None}
            find_violation(3, 1, TwoPhaseCommit(), ExhaustiveMode(depth=4), inputs=inputs)
            assert None not in views[-10:]

    def test_fingerprint_leaves_the_state_alone(self):
        rng = random.Random(11)
        sim = Simulation(4, 1, TwoPhaseCommit(), [self.ONE] * 5)
        while sim.enabled(1):
            sim.apply(rng.choice(sim.enabled(1)))
            state = sim.state
            key = sim.fingerprint()
            assert sim.state is state and state[7] is None
            assert sim.clone().fingerprint() == key


class TestTwins:
    """The walk advances one option of each set of twins (``_Symmetry.twin``):
    options alike on chains of one class with equal columns."""

    ONE, ZERO = Value.ONE, Value.ZERO

    @staticmethod
    def _twins_have_one_orbit(n, t, suspensions, depth, inputs, protocol):
        """Over a full sweep, at each expanded state: the walk advances the
        options it keys by ``twin`` (the ones not asleep) but those whose
        twin key an advanced one shares, and options that share a twin key
        have children with one key.  Returns how many sets of two or more
        options shared one."""
        expanded = []  # kernel, state, options keyed with their keys, options advanced

        def expand(kernel, state, max_suspensions):
            expanded.append((kernel, state, [], []))
            return enabled(kernel, state, max_suspensions)

        def twin(symmetry, state, option):
            key = twin_of(symmetry, state, option)
            assert state is expanded[-1][1]
            expanded[-1][2].append((key, option))
            return key

        def recorded(kernel, state, option):
            assert state is expanded[-1][1]
            expanded[-1][3].append(option)
            return advance(kernel, state, option)

        enabled, twin_of = forksim._Kernel.enabled, forksim._Symmetry.twin
        advance = forksim._Kernel.advance
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(forksim, "_violates", lambda kernel, state: False)
            patch.setattr(forksim._Kernel, "enabled", expand)
            patch.setattr(forksim._Kernel, "advance", recorded)
            patch.setattr(forksim._Symmetry, "twin", twin)
            assert find_violation(
                n, t, protocol, ExhaustiveMode(depth=depth), suspensions=suspensions,
                inputs=inputs,
            ) is None
        sets = 0
        for kernel, state, keyed, advanced in expanded:
            by_key = {}
            for key, option in keyed:
                by_key.setdefault(key, []).append(option)
            assert advanced == [
                option for key, option in keyed if key is None or by_key[key][0] is option
            ]
            for key, options in by_key.items():
                if key is not None and len(options) > 1:
                    sets += 1
                    children = [advance(kernel, state, option) for option in options]
                    assert len({kernel.symmetry.key(c[7]) for c in children}) == 1
        # With a class, the root's start steps on it are twins; with none,
        # no option has a twin key.
        spans = expanded[0][0].symmetry.spans
        assert (sets > 0) == bool(spans)
        assert spans or all(key is None for _, _, keyed, _ in expanded for key, _ in keyed)
        return sets

    @pytest.mark.parametrize(
        "n,t,depth,suspensions,position,leg", list(_trace_identity_grid())
    )
    def test_2pc_twins_have_one_orbit(self, n, t, depth, suspensions, position, leg):
        inputs = [Value.ONE] * (n + 1)
        inputs[position] = leg
        self._twins_have_one_orbit(n, t, suspensions, depth, inputs, TwoPhaseCommit())

    @settings(max_examples=40)
    @given(data=st.data())
    def test_star_table_twins_have_one_orbit(self, data):
        n, t, suspensions, depth, inputs, protocol = _draw_table_run(data, StarTableProtocol)
        self._twins_have_one_orbit(n, t, suspensions, depth, inputs, protocol)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_undeclared_table_has_no_twins(self, data):
        assert self._twins_have_one_orbit(*_draw_table_run(data)) == 0

    def test_all_one_n5_root_takes_one_participant_step(self):
        """The five participants' start steps at the root are twins, as are
        their suspensions: the root advances chain 0's and chain 1's."""
        taken = []
        advance = forksim._Kernel.advance

        def recorded(kernel, state, option):
            taken.append(option[:2])
            return advance(kernel, state, option)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(forksim._Kernel, "advance", recorded)
            assert find_violation(5, 0, TwoPhaseCommit(), ExhaustiveMode(depth=1)) is None
        assert taken == [("step", 0), ("step", 1), ("suspend", 0), ("suspend", 1)]

    @staticmethod
    def _assert_not_twins(sim, options):
        """``options`` at ``sim``'s state, with its view: their twin keys
        differ, and so do their children's keys.  Returns the state."""
        kernel, symmetry = sim.kernel, sim.kernel.symmetry
        state = (*sim.state[:7], symmetry.view(sim.state))
        assert len({symmetry.twin(state, option) for option in options}) == len(options)
        children = [kernel.advance(state, option) for option in options]
        assert len({symmetry.key(c[7]) for c in children}) == len(options)
        return state

    def test_equal_columns_in_two_classes_are_not_twins(self):
        """Chains 1 and 3, of the classes {1, 2} and {3, 4}, read alike once
        both are suspended, but a start step on one or the other reaches
        two orbits."""
        sim = Simulation(4, 0, TwoPhaseCommit(), [self.ONE] * 3 + [self.ZERO] * 2)
        sim.apply(A("suspend", 1))
        sim.apply(A("suspend", 3))
        steps = [sim.kernel.options[3 * chain] for chain in (1, 3)]
        columns = self._assert_not_twins(sim, steps)[7]
        slots = sim.kernel.symmetry.slots
        assert columns[slots[1]] == columns[slots[3]]

    def test_a_local_action_is_never_a_delivery_twin(self):
        """Each participant's start step sends it a message, the first
        message part interned: its id is 2, a crash's offset, yet crashing
        a participant and delivering its message are not twins."""
        table = {("init", "start"): ("init", [(0, "x")], False, None)}
        sim = Simulation(2, 1, StarTableProtocol(table), [self.ONE] * 3)
        sim.apply(A("step", 1))
        sim.apply(A("step", 2))
        deliver, crash = [o for o in sim.kernel.enabled(sim.state, 0) if o[1] == 1]
        assert (deliver[0], crash[0]) == ("deliver", "crash")
        state = self._assert_not_twins(sim, [deliver, crash])
        assert sim.kernel.symmetry._messages[state[2][deliver[3]]] == (1, crash[2] % 3)


def _snapshot(sim):
    return sim.fingerprint(), sim.trace(), copy.deepcopy([vars(node) for node in sim.nodes])


class TestCopyOnWrite:
    """Clones share node records; neither side may see the other's steps."""

    @settings(max_examples=60)
    @given(
        data=st.data(),
        n=st.integers(2, 3),
        t=st.integers(0, 1),
        legs=st.lists(st.sampled_from(list(Value)), min_size=4, max_size=4),
    )
    def test_apply_on_either_side_leaves_the_other_alone(self, data, n, t, legs):
        sim = Simulation(n, t, TwoPhaseCommit(), legs[: n + 1])
        for _ in range(data.draw(st.integers(1, 16))):
            actions = sim.enabled(1)
            if not actions:
                break
            before = _snapshot(sim)
            twin = sim.clone()
            twin.apply(data.draw(st.sampled_from(actions)))
            assert _snapshot(sim) == before
            after = _snapshot(twin)
            sim.apply(data.draw(st.sampled_from(actions)))
            assert _snapshot(twin) == after
            # Fingerprints name interned ids, so they compare only within
            # one root's clones; a fresh replay is compared field by field.
            for state in (sim, twin):
                assert encode_state(state) == encode_state(_replayed(state.trace()))
            sim = data.draw(st.sampled_from((sim, twin)))


class TestTaskOracleAgreement:
    """A clean trace's decisions form a simplex allowed by the carrier map."""

    def test_clean_traces_land_inside_the_carrier(self):
        task = build_task(CbtConfig(n=2))
        rng = random.Random(20260816)
        checked = 0
        for _ in range(200):
            inputs = [
                Value.ONE if rng.random() < 0.7 else Value.ZERO for _ in range(3)
            ]
            sim = Simulation(2, 1, TwoPhaseCommit(), inputs)
            for _ in range(rng.randint(4, 20)):
                actions = sim.enabled(rng.choice((0, 1)))
                if not actions:
                    break
                progress = [a for a in actions if a.kind in ("step", "deliver")]
                pool = progress if progress and rng.random() < 0.85 else actions
                sim.apply(rng.choice(pool))
            trace = sim.trace()
            if not check_trace(trace).ok:
                continue
            decided = {
                Vertex(BlockRef(i), value)
                for i, value in enumerate(trace.outcome)
                if value is not None
            }
            if not decided:
                continue
            realized_facet = Simplex(
                Vertex(BlockRef(i), value) for i, value in enumerate(trace.realized)
            )
            image = task.carrier[realized_facet]
            assert image.contains(Simplex(decided)), trace
            checked += 1
        assert checked > 20  # the sample really exercised the property


class TestCarrierRelation:
    """``check_trace`` against Δ of the task (``carrier_allows``) on the
    2PC states the BFS oracle reaches: every state outside Δ is flagged,
    and on a state inside Δ every violation but termination is the commit
    beside a suspended leg, the one rule stricter than Δ.  n=2, t=0 covers
    its whole space; the others stop just past the first commit beside a
    suspended leg, to stay fast.  The participants are alike, to 2PC, to
    the rules and to Δ, so their inputs are taken in one order only."""

    @pytest.mark.parametrize(
        "n,t,depth,suspensions,legs",
        [
            pytest.param(2, 0, 12, 2, (Value.ONE, Value.ZERO), id="n2-t0-d12-s2"),
            pytest.param(2, 1, 6, 1, (Value.ONE, Value.ZERO), id="n2-t1-d6-s1"),
            pytest.param(3, 1, 8, 1, (Value.ONE,), id="n3-t1-d8-s1-all1"),
        ],
    )
    def test_stricter_than_carrier_only_beside_a_suspended_leg(
        self, n, t, depth, suspensions, legs
    ):
        task = build_task(CbtConfig(n=n))
        allowed = {}
        stricter = 0
        for head in legs:
            for tail in itertools.combinations_with_replacement(legs, n):
                sim = Simulation(n, t, TwoPhaseCommit(), (head, *tail))
                for _, _, state in bfs_states(sim, depth, suspensions):
                    trace = state.trace()
                    key = trace.outcome, trace.realized
                    if key not in allowed:
                        # The closed form says what the library's Δ says.
                        allowed[key] = carrier_allows(*key)
                        decided = [
                            Vertex(BlockRef(i), v)
                            for i, v in enumerate(trace.outcome) if v is not None
                        ]
                        realized = Simplex(
                            Vertex(BlockRef(i), v) for i, v in enumerate(trace.realized)
                        )
                        image = task.carrier[realized]
                        assert allowed[key] == (not decided or image.contains(Simplex(decided)))
                    violations = check_trace(trace).violations
                    if not allowed[key]:
                        assert violations, trace
                        continue
                    extra = [v for v in violations if v.kind != "termination"]
                    assert all("mandate abort" in v.detail for v in extra), trace
                    stricter += bool(extra)
        assert stricter, "no state shows the stricter rule"
