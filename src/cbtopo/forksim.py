"""Schedule-driven simulator for commit protocols under fork suspension.

The model is asynchronous message passing with crash failures: an explicit
schedule decides which node starts, which in-flight message is delivered,
who crashes, and whose branch is suspended by a fork.  A suspension flips
the node's local value to the suspended marker without any notification, so
a protocol that already announced a local commit keeps acting on stale
state.  Runs are fully deterministic given the schedule, and a trace checker
flags outcomes that the task's carrier rules forbid.
"""
from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InvalidSchedule, ResourceBound, check_resilience
from .simplicial import BlockRef, Value

__all__ = [
    "NodeState",
    "Message",
    "SimEvent",
    "ScheduleAction",
    "ExecutionTrace",
    "Violation",
    "ViolationReport",
    "CommitProtocol",
    "TwoPhaseCommit",
    "PROTOCOLS",
    "get_protocol",
    "Simulation",
    "run",
    "check_trace",
    "find_violation",
    "ExhaustiveMode",
    "RandomMode",
    "DEFAULT_STATE_BUDGET",
]

DEFAULT_STATE_BUDGET = 1_000_000


@dataclass
class NodeState:
    """Mutable per-node record owned by the simulator.

    ``local_value`` is the node's view of its own leg and is rewritten to
    the suspended marker by a Suspend event; protocols must treat it as
    read-only.  ``memory`` holds protocol-private state and may contain only
    scalars and flat dicts so that states stay comparable.

    Records are shared copy-on-write between simulation states: a cloned
    ``Simulation`` holds the same records as its parent until ``apply``
    copies the one record it is about to change.  Code outside ``apply``
    must therefore treat ``sim.nodes[i]`` as read-only.
    """

    chain: BlockRef
    local_value: Value
    phase: str = "init"
    decided: Optional[Value] = None
    crashed: bool = False
    suspended: bool = False
    memory: Dict[str, Any] = field(default_factory=dict)

    @property
    def index(self) -> int:
        return self.chain.chain

    def decide(self, value: Value) -> None:
        if self.decided is not None and self.decided is not value:
            raise AssertionError(f"node {self.index} attempted to change its decision")
        self.decided = value

    def clone(self) -> "NodeState":
        memory = {
            key: dict(value) if isinstance(value, dict) else value
            for key, value in self.memory.items()
        }
        return NodeState(
            chain=self.chain,
            local_value=self.local_value,
            phase=self.phase,
            decided=self.decided,
            crashed=self.crashed,
            suspended=self.suspended,
            memory=memory,
        )

    def fingerprint(self) -> tuple:
        # One level deep, as ``clone`` copies: a list stays unhashable.
        memory = sorted(
            (key, tuple(sorted(value.items())) if isinstance(value, dict) else value)
            for key, value in self.memory.items()
        )
        return (
            self.phase, self.local_value, self.decided, self.crashed, self.suspended,
            tuple(memory),
        )


@dataclass(frozen=True)
class Message:
    """One in-flight message; payload entries are sorted key/value pairs."""

    sender: int
    receiver: int
    sequence: int
    payload: Tuple[Tuple[str, Any], ...]

    def payload_dict(self) -> Dict[str, Any]:
        return dict(self.payload)


@dataclass(frozen=True)
class SimEvent:
    """An applied event as it appears in a trace."""

    kind: str
    chain: Optional[int] = None
    message: Optional[Message] = None


@dataclass(frozen=True)
class ScheduleAction:
    """One schedule entry: step/crash/suspend name a chain, deliver a sequence."""

    kind: str
    chain: Optional[int] = None
    sequence: Optional[int] = None


@dataclass(frozen=True)
class ExecutionTrace:
    """Complete record of one run, sufficient to re-check it in isolation."""

    n: int
    t: int
    protocol: str
    inputs: Tuple[Value, ...]
    events: Tuple[SimEvent, ...]
    outcome: Tuple[Optional[Value], ...]
    realized: Tuple[Value, ...]
    crashed: frozenset
    suspended: frozenset
    quiescent: bool

    def schedule(self) -> Tuple[ScheduleAction, ...]:
        """The schedule that replays this trace through ``run``."""
        actions = []
        for event in self.events:
            if event.kind == "deliver":
                actions.append(
                    ScheduleAction(kind="deliver", sequence=event.message.sequence)
                )
            else:
                actions.append(ScheduleAction(kind=event.kind, chain=event.chain))
        return tuple(actions)


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str
    chains: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ViolationReport:
    violations: Tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


class CommitProtocol(ABC):
    """Per-node state machine driven by the simulator.

    A reaction may depend only on the node record it is handed, that
    node's index and the event (the start step, or the sender and payload
    of one message).  It must not read or change other nodes, the network
    or the schedule.  The exhaustive search relies on this: it treats
    states with equal ``fingerprint`` as one, and actions on different
    chains as commuting.
    """

    name: str = "abstract"

    @abstractmethod
    def on_start(self, node: NodeState, n: int) -> List[Tuple[int, Dict[str, Any]]]:
        """First action of a node; returns (receiver, payload) messages."""

    @abstractmethod
    def on_message(
        self, node: NodeState, sender: int, payload: Dict[str, Any], n: int
    ) -> List[Tuple[int, Dict[str, Any]]]:
        """Reaction to one delivered message; returns messages to send."""


class TwoPhaseCommit(CommitProtocol):
    """Textbook two-phase commit with chain 0 as coordinator.

    Every node votes its current local value once at start-up.  The
    coordinator broadcasts commit exactly when all n+1 votes say the leg was
    locally committed, and abort otherwise.  There are no timeouts, so a
    crashed coordinator blocks the participants, and there is no second look
    at the local value, so a fork suspension that lands after the vote goes
    unnoticed.
    """

    name = "2pc"
    COORDINATOR = 0

    def _vote(self, node: NodeState) -> Value:
        return Value.ONE if node.local_value is Value.ONE else Value.ZERO

    def on_start(self, node: NodeState, n: int) -> List[Tuple[int, Dict[str, Any]]]:
        vote = self._vote(node)
        if node.index == self.COORDINATOR:
            node.phase = "collecting"
            votes = node.memory.setdefault("votes", {})
            votes[node.index] = vote.value
            return self._maybe_decide(node, n)
        node.phase = "voted"
        return [(self.COORDINATOR, {"kind": "vote", "value": vote.value})]

    def on_message(
        self, node: NodeState, sender: int, payload: Dict[str, Any], n: int
    ) -> List[Tuple[int, Dict[str, Any]]]:
        kind = payload.get("kind")
        if kind == "vote" and node.index == self.COORDINATOR:
            # Votes may arrive before the coordinator's own start step;
            # buffer them so asynchrony alone can never lose one.
            votes = node.memory.setdefault("votes", {})
            votes[sender] = payload["value"]
            if node.phase == "collecting":
                return self._maybe_decide(node, n)
            return []
        if kind == "decision" and node.decided is None:
            node.decide(Value.from_code(payload["value"]))
            node.phase = "done"
        return []

    def _maybe_decide(self, node: NodeState, n: int) -> List[Tuple[int, Dict[str, Any]]]:
        votes = node.memory["votes"]
        if len(votes) < n + 1:
            return []
        decision = (
            Value.ONE
            if all(v == Value.ONE.value for v in votes.values())
            else Value.ZERO
        )
        node.decide(decision)
        node.phase = "done"
        return [
            (peer, {"kind": "decision", "value": decision.value})
            for peer in range(1, n + 1)
        ]


PROTOCOLS: Dict[str, type[CommitProtocol]] = {TwoPhaseCommit.name: TwoPhaseCommit}


def get_protocol(name: str) -> CommitProtocol:
    try:
        return PROTOCOLS[name]()
    except KeyError:
        raise ValueError(f"unknown protocol {name!r}") from None


class Simulation:
    """Explicit simulator state; every mutation happens through ``apply``.

    ``clone`` is cheap: the twin shares every ``NodeState`` record with its
    parent, copy-on-write, and ``apply`` copies only the record of the node
    it hands to the protocol or changes.  Code outside ``apply`` must treat
    ``sim.nodes[i]`` as read-only.  ``fingerprint`` caches each node's key
    and the in-flight key, and ``apply`` clears only the entries it touches.
    """

    def __init__(
        self,
        n: int,
        t: int,
        protocol: CommitProtocol,
        inputs: Sequence[Value],
    ) -> None:
        if len(inputs) != n + 1:
            raise ValueError(f"need {n + 1} input values, got {len(inputs)}")
        self.n = n
        self.t = t
        self.protocol = protocol
        self.inputs = tuple(inputs)
        self.nodes = [
            NodeState(chain=BlockRef(i), local_value=value)
            for i, value in enumerate(inputs)
        ]
        self.in_flight: Dict[int, Message] = {}
        self.next_sequence = 0
        self.started: set[int] = set()
        self.crash_count = 0
        self.suspend_count = 0
        self.events: List[SimEvent] = []
        # Bit i set: nodes[i] is this state's own record, free to change in place.
        self._owned = (1 << (n + 1)) - 1
        self._node_keys: List[Optional[tuple]] = [None] * (n + 1)
        self._flight_key: Optional[tuple] = None

    def clone(self) -> "Simulation":
        twin = Simulation.__new__(Simulation)
        twin.n = self.n
        twin.t = self.t
        twin.protocol = self.protocol
        twin.inputs = self.inputs
        twin.nodes = list(self.nodes)
        twin.in_flight = dict(self.in_flight)
        twin.next_sequence = self.next_sequence
        twin.started = set(self.started)
        twin.crash_count = self.crash_count
        twin.suspend_count = self.suspend_count
        twin.events = list(self.events)
        # Both sides now share every record, so neither may write one in place.
        self._owned = twin._owned = 0
        twin._node_keys = list(self._node_keys)
        twin._flight_key = self._flight_key
        return twin

    def fingerprint(self) -> tuple:
        keys = self._node_keys
        for i, key in enumerate(keys):
            if key is None:
                keys[i] = self.nodes[i].fingerprint()
        if self._flight_key is None:
            self._flight_key = tuple(
                sorted(
                    (m.sender, m.receiver, m.payload) for m in self.in_flight.values()
                )
            )
        return (tuple(keys), self._flight_key, tuple(sorted(self.started)))

    def _check_chain(self, chain: Optional[int]) -> int:
        if chain is None or not (0 <= chain <= self.n):
            raise InvalidSchedule(f"chain index {chain} outside 0..{self.n}")
        return chain

    def _writable(self, chain: int) -> NodeState:
        """The record of ``chain``, copied first if another state shares it."""
        node = self.nodes[chain]
        bit = 1 << chain
        if not self._owned & bit:
            node = self.nodes[chain] = node.clone()
            self._owned |= bit
        self._node_keys[chain] = None
        return node

    def _send_all(self, sender: int, outgoing: Iterable[Tuple[int, Dict[str, Any]]]) -> None:
        for receiver, payload in outgoing:
            receiver = self._check_chain(receiver)
            message = Message(
                sender=sender,
                receiver=receiver,
                sequence=self.next_sequence,
                payload=tuple(sorted(payload.items())),
            )
            self.in_flight[message.sequence] = message
            self.next_sequence += 1
            self._flight_key = None

    def apply(self, action: ScheduleAction) -> None:
        if action.kind == "step":
            chain = self._check_chain(action.chain)
            if self.nodes[chain].crashed:
                raise InvalidSchedule(f"chain {chain} cannot step after crashing")
            if chain in self.started:
                raise InvalidSchedule(f"chain {chain} already took its start step")
            self.started.add(chain)
            node = self._writable(chain)
            self._send_all(chain, self.protocol.on_start(node, self.n))
            self.events.append(SimEvent(kind="step", chain=chain))
        elif action.kind == "deliver":
            seq = action.sequence
            if seq is None or seq not in self.in_flight:
                raise InvalidSchedule(f"no in-flight message with sequence {seq}")
            message = self.in_flight.pop(seq)
            self._flight_key = None
            if not self.nodes[message.receiver].crashed:
                node = self._writable(message.receiver)
                self._send_all(
                    message.receiver,
                    self.protocol.on_message(
                        node, message.sender, message.payload_dict(), self.n
                    ),
                )
            self.events.append(SimEvent(kind="deliver", chain=message.receiver, message=message))
        elif action.kind == "crash":
            chain = self._check_chain(action.chain)
            if self.nodes[chain].crashed:
                raise InvalidSchedule(f"chain {chain} already crashed")
            if self.crash_count >= self.t:
                raise InvalidSchedule(f"crash budget t={self.t} exhausted")
            self._writable(chain).crashed = True
            self.crash_count += 1
            self.events.append(SimEvent(kind="crash", chain=chain))
        elif action.kind == "suspend":
            chain = self._check_chain(action.chain)
            if self.nodes[chain].suspended:
                raise InvalidSchedule(f"chain {chain} is already suspended")
            node = self._writable(chain)
            node.suspended = True
            node.local_value = Value.BOTTOM
            self.suspend_count += 1
            self.events.append(SimEvent(kind="suspend", chain=chain))
        else:
            raise InvalidSchedule(f"unknown action kind {action.kind!r}")

    def quiescent(self) -> bool:
        """No runnable start step and no message deliverable to a live node."""
        for node in self.nodes:
            if not node.crashed and node.index not in self.started:
                return False
        for message in self.in_flight.values():
            if not self.nodes[message.receiver].crashed:
                return False
        return True

    def enabled(self, max_suspensions: int) -> List[ScheduleAction]:
        """Applicable actions in canonical order: steps, delivers, suspends, crashes."""
        return [
            ScheduleAction(kind=kind, chain=chain)
            if message is None
            else ScheduleAction(kind=kind, sequence=message.sequence)
            for kind, chain, message in self._enabled(max_suspensions)
        ]

    def _enabled(
        self, max_suspensions: int
    ) -> List[Tuple[str, int, Optional[Message]]]:
        """``enabled`` as ``(kind, chain, message)`` triples, without building
        actions: a delivery names its receiver and message, the others
        their chain and None."""
        nodes = self.nodes
        started = self.started
        options: List[Tuple[str, int, Optional[Message]]] = [
            ("step", chain, None)
            for chain, node in enumerate(nodes)
            if not node.crashed and chain not in started
        ]
        in_flight = self.in_flight
        for seq in sorted(in_flight):
            message = in_flight[seq]
            if not nodes[message.receiver].crashed:
                options.append(("deliver", message.receiver, message))
        if self.suspend_count < max_suspensions:
            options += [
                ("suspend", chain, None)
                for chain, node in enumerate(nodes)
                if not node.suspended
            ]
        if self.crash_count < self.t:
            options += [
                ("crash", chain, None)
                for chain, node in enumerate(nodes)
                if not node.crashed
            ]
        return options

    def trace(self) -> ExecutionTrace:
        return ExecutionTrace(
            n=self.n,
            t=self.t,
            protocol=self.protocol.name,
            inputs=self.inputs,
            events=tuple(self.events),
            outcome=tuple(node.decided for node in self.nodes),
            realized=tuple(node.local_value for node in self.nodes),
            crashed=frozenset(node.index for node in self.nodes if node.crashed),
            suspended=frozenset(node.index for node in self.nodes if node.suspended),
            quiescent=self.quiescent(),
        )


def run(
    n: int,
    t: int,
    protocol: CommitProtocol,
    schedule: Sequence[ScheduleAction],
    *,
    inputs: Sequence[Value] | None = None,
) -> ExecutionTrace:
    """Execute one explicit schedule and return its trace.

    Inputs default to every leg locally committed, the configuration in
    which fork suspension is the only source of trouble.
    """
    check_resilience(n, t, allow_zero=True)
    if inputs is None:
        inputs = [Value.ONE] * (n + 1)
    sim = Simulation(n, t, protocol, inputs)
    for action in schedule:
        sim.apply(action)
    return sim.trace()


def check_trace(trace: ExecutionTrace) -> ViolationReport:
    """Evaluate a trace against the task's carrier rules.

    Flags disagreement among live decisions, any commit decision while some
    leg's realized value is suspended, any abort decision while every leg
    stayed locally committed, and live undecided nodes once the run is
    quiescent.
    """
    violations: list[Violation] = []
    live = [i for i in range(trace.n + 1) if i not in trace.crashed]
    live_decisions = {i: trace.outcome[i] for i in live if trace.outcome[i] is not None}
    distinct = sorted({v.value for v in live_decisions.values()})
    if len(distinct) > 1:
        violations.append(
            Violation(
                kind="atomicity",
                detail=f"live nodes decided differently: {distinct}",
                chains=tuple(sorted(live_decisions)),
            )
        )
    committed = tuple(
        i for i in range(trace.n + 1) if trace.outcome[i] is Value.ONE
    )
    suspended_legs = tuple(
        i for i in range(trace.n + 1) if trace.realized[i] is Value.BOTTOM
    )
    if suspended_legs and committed:
        violations.append(
            Violation(
                kind="atomicity",
                detail=(
                    f"chains {list(committed)} decided commit although the suspended "
                    f"legs {list(suspended_legs)} mandate abort"
                ),
                chains=committed + suspended_legs,
            )
        )
    aborted = tuple(i for i in range(trace.n + 1) if trace.outcome[i] is Value.ZERO)
    if all(v is Value.ONE for v in trace.realized) and aborted:
        violations.append(
            Violation(
                kind="validity",
                detail=(
                    f"chains {list(aborted)} decided abort although every leg "
                    "stayed locally committed"
                ),
                chains=aborted,
            )
        )
    if trace.quiescent:
        undecided = tuple(i for i in live if trace.outcome[i] is None)
        if undecided:
            violations.append(
                Violation(
                    kind="termination",
                    detail=f"live nodes {list(undecided)} are blocked without a decision",
                    chains=undecided,
                )
            )
    return ViolationReport(tuple(violations))


def _violates(sim: Simulation) -> bool:
    """Whether ``check_trace(sim.trace())`` would flag a violation, read off
    the node records without building the trace.

    The same four rules: live nodes that decided differently, a commit
    beside a suspended leg, an abort although every leg stayed committed,
    and, asking ``quiescent`` only then, a live node still undecided.
    """
    # Looked up once: this runs on every state the walk checks.
    one, zero, bottom = Value.ONE, Value.ZERO, Value.BOTTOM
    live_decision = None
    committed = aborted = suspended = undecided = False
    all_one = True
    for node in sim.nodes:
        value, decided = node.local_value, node.decided
        if value is not one:
            all_one = False
            suspended = suspended or value is bottom
        committed = committed or decided is one
        aborted = aborted or decided is zero
        if node.crashed:
            continue
        if decided is None:
            undecided = True
        elif live_decision is None:
            live_decision = decided
        elif decided is not live_decision:
            return True
    if committed and suspended or aborted and all_one:
        return True
    return undecided and sim.quiescent()


@dataclass(frozen=True)
class ExhaustiveMode:
    """Depth-first search that checks every state reachable within ``depth``
    events, not every schedule: each state is checked once, by a predicate
    on its node records, and sleep sets skip orders of commuting actions
    that another order already covers.  Only the violating state returned
    becomes an ``ExecutionTrace``."""

    depth: int


@dataclass(frozen=True)
class RandomMode:
    """Seeded uniform random schedules, ``trials`` runs to quiescence."""

    seed: int
    trials: int
    max_events: int = 10_000


def find_violation(
    n: int,
    t: int,
    protocol: CommitProtocol,
    mode: ExhaustiveMode | RandomMode,
    *,
    suspensions: int = 1,
    inputs: Sequence[Value] | None = None,
    state_budget: int | None = None,
) -> Optional[ExecutionTrace]:
    """Search schedules for a trace that the checker rejects.

    Exhaustive mode checks every *state* within ``depth`` events, not every
    schedule.  A state is checked by a predicate on its node records
    (decisions, local values, crashes, and quiescence only while a live
    node is undecided) that flags exactly what ``check_trace`` flags on its
    trace; only the state returned becomes an ``ExecutionTrace``.  The
    walk goes depth first in canonical action order with two reductions.
    Equal states are cached: each is checked once, on its first visit, and
    counts once against ``state_budget``.  Sleep sets
    (Godefroid, LNCS 1032, 1996) skip a transition whose target another
    order of the same commuting actions covers at the same depth.  Two
    actions commute when they act on different chains: a step, crash or
    suspend acts on its own chain, a delivery on its receiver.  Two crashes,
    or two suspensions, share a budget and never commute.  A delivery is
    identified by receiver, sender and payload, not by its sequence number.
    A cached state is expanded again, not checked again, when it is reached
    on fewer events.  Random mode samples uniformly among enabled actions
    with a fixed seed and checks the state each trial ends in.  Returns the
    first violating trace, or None when the bound is reached without one.
    """
    check_resilience(n, t, allow_zero=True)
    if inputs is None:
        inputs = [Value.ONE] * (n + 1)
    budget = state_budget if state_budget is not None else DEFAULT_STATE_BUDGET
    if budget < 1:
        raise ValueError("state budget must be positive")
    if isinstance(mode, ExhaustiveMode):
        if mode.depth < 1:
            raise ValueError("exploration depth must be positive")
        return _explore(Simulation(n, t, protocol, inputs), mode.depth, suspensions, budget)
    if isinstance(mode, RandomMode):
        if mode.trials < 1:
            raise ValueError("need at least one trial")
        rng = random.Random(mode.seed)
        for _ in range(mode.trials):
            sim = Simulation(n, t, protocol, inputs)
            while len(sim.events) < mode.max_events:
                actions = sim.enabled(suspensions)
                if not actions:
                    break
                sim.apply(rng.choice(actions))
            if _violates(sim):
                return sim.trace()
        return None
    raise TypeError(f"unsupported mode {mode!r}")


def _explore(
    root: Simulation, depth: int, suspensions: int, budget: int
) -> Optional[ExecutionTrace]:
    """``find_violation``'s exhaustive walk: state caching plus sleep sets.

    The cache maps a state to the fewest events that reached it, not to a
    sleep set, and drops a state reached again on as many events or more.
    Every state within the bound is still checked.  Let dist(s) be the
    fewest events that reach s, and call an entry for s at dist(s) events
    a dist-entry.
    1. At most one dist-entry is pushed per state, and every entry on the
       tree path of a dist-entry is a dist-entry.
    2. If an entry r pushed a state that a later entry E at the same event
       count finds cached, the subtree of r's push finished before E was
       popped: the stack is LIFO, and no entry descends from another at
       its own event count.
    3. By induction on finishing time: for a dist-entry E at x and a path
       a.w from x that stays shortest and within the bound, x.a.w gets a
       dist-entry.  If a is taken at E, recurse into x.a's dist-entry, E's
       own child or, by (2), one that finished earlier.  If a is asleep at
       E, it was taken at an ancestor y before the branch toward x, and it
       commutes with every action on the tree path p from y to x: actions
       on different chains commute as states, since the fingerprint
       ignores sequence numbers, and neither disables the other.  So
       x.a.w is y.a.p.w, and y.a's dist-entry finished before E, by
       sibling order or by (2).
    At the root, (3) covers every state within the bound, so revisiting a
    cached state reached with fewer actions asleep (Godefroid, LNCS 1032,
    1996, section 5) would only walk again states the walk reaches anyway.
    """
    # Every action identity owns one bit.  A step, suspend and crash of
    # chain c own bits 3c, 3c+1 and 3c+2; deliveries are numbered as met.
    # A step, suspend or crash keeps its one ``ScheduleAction``; a delivery's
    # action names a sequence number and is built for each child made.
    identities: Dict[tuple, Tuple[int, int, Optional[ScheduleAction]]] = {}
    acts_on = [0] * (root.n + 1)
    for chain in range(root.n + 1):
        for offset, kind in enumerate(("step", "suspend", "crash")):
            identities[(kind, chain)] = (
                1 << (3 * chain + offset), offset, ScheduleAction(kind=kind, chain=chain)
            )
        acts_on[chain] = 0b111 << (3 * chain)
    # By offset: the bits an action shares a budget with (all suspends, all
    # crashes); steps and deliveries (offset 0) share none.
    suspends = sum(1 << (3 * chain + 1) for chain in range(root.n + 1))
    shared = (0, suspends, suspends << 1)
    seen = {root.fingerprint(): 0}
    # Stack entries: state, sleep set, first visit.
    stack = [(root, 0, True)]
    explored = 0
    while stack:
        sim, sleep, first = stack.pop()
        if first:
            explored += 1
            if explored > budget:
                raise ResourceBound(
                    f"schedule exploration exceeded the state budget of {budget}",
                    explored=explored,
                )
            if _violates(sim):
                return sim.trace()
        events = len(sim.events) + 1
        if events > depth:
            continue
        # Taken actions join the sleep sets of later siblings they commute
        # with; an identity already taken here (a twin message) is skipped.
        taken = 0
        children = []
        for kind, chain, message in sim._enabled(suspensions):
            if message is None:
                key: tuple = (kind, chain)
            else:
                key = (chain, message.sender, message.payload)
            identity = identities.get(key)
            if identity is None:
                identity = identities[key] = (1 << len(identities), 0, None)
                acts_on[chain] |= identity[0]
            bit, offset, action = identity
            if bit & (sleep | taken):
                continue
            if action is None:
                action = ScheduleAction(kind="deliver", sequence=message.sequence)
            # Children on the depth bound are never expanded: no sleep set.
            child_sleep = 0
            if events < depth:
                child_sleep = (sleep | taken) & ~(acts_on[chain] | shared[offset])
            children.append((action, child_sleep))
            taken |= bit
        # Pushed last to first, so a child is expanded only after the
        # subtrees of the siblings in its sleep set.
        for action, child_sleep in reversed(children):
            child = sim.clone()
            child.apply(action)
            state = child.fingerprint()
            known = seen.get(state)
            if known is None or known > events:
                seen[state] = events
                stack.append((child, child_sleep, known is None))
    return None
