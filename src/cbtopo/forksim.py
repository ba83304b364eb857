"""Schedule-driven simulator for commit protocols under fork suspension.

The model is asynchronous message passing with crash failures: an explicit
schedule decides which node starts, which in-flight message is delivered,
who crashes, and whose branch is suspended by a fork.  A suspension flips
the node's local value to the suspended marker without any notification, so
a protocol that already announced a local commit keeps acting on stale
state.  Runs are fully deterministic given the schedule, and a trace checker
flags outcomes that the task's rules forbid (see ``_broken``).
"""
from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InvalidSchedule, ResourceBound, _require_int, check_resilience
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
# Events per random trial: stops a protocol that never quiesces.
_MAX_RANDOM_EVENTS = 10_000


@dataclass
class NodeState:
    """Per-node record handed to the protocol.

    ``local_value`` is the node's view of its own leg and is rewritten to
    the suspended marker by a Suspend event; protocols must treat it as
    read-only.  ``memory`` holds protocol-private state and may contain only
    scalars and flat dicts so that states stay comparable.

    A ``Simulation`` interns its records: ``sim.nodes[i]`` is shared by
    every state that holds it and is read-only.  A reaction runs on a
    ``clone``, and the changed record is interned in turn.
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
        # One level deep, as ``clone`` copies: a list stays unhashable.  Each
        # member is tagged, so a dict never shares a key with a tuple.
        memory = sorted(
            (key, (True, tuple(sorted(value.items()))) if isinstance(value, dict)
             else (False, value))
            for key, value in self.memory.items()
        )
        return (
            self.chain, self.phase, self.local_value, self.decided, self.crashed,
            self.suspended, tuple(memory),
        )


@dataclass(frozen=True)
class Message:
    """One in-flight message; payload entries are sorted key/value pairs."""

    sender: int
    receiver: int
    sequence: int
    payload: Tuple[Tuple[str, Any], ...]


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
    or the schedule, nor keep state of its own.  Correctness relies on
    this: a ``Simulation`` runs each reaction once per record and event
    and replays the memoized result, and the exhaustive search treats
    states with equal ``fingerprint`` as one and actions on different
    chains as commuting.  Payload values must be hashable.

    A protocol may declare a symmetry: ``symmetric_chains`` names chains
    it treats alike, and ``chain_keyed`` the memory fields holding dicts
    keyed by chain index.  The declared chains with equal ``inputs`` form
    a class; a permutation of each class renames a state: each record's
    chain and the keys of its chain-keyed dicts, and each message's sender
    and receiver.  The exhaustive search then treats a state and its
    renamings as one, which is sound only if every reaction is
    equivariant: reacting to the renamed record and event gives the
    renamed record and the renamed messages, as a multiset.  So a reaction
    may not single out one declared chain: it may compare indices with its
    own and with the undeclared ones, and payload values may not hold
    chain indices.  Nor may it tie two chains of a class of two or more:
    such a chain may not message another, nor keep a chain-keyed entry for
    one, and the search raises ``ValueError`` on a record or message that
    does.  Declaring nothing leaves the trivial group, and every state
    stands for itself.
    """

    name: str = "abstract"
    chain_keyed: Tuple[str, ...] = ()

    def symmetric_chains(self, n: int) -> Iterable[int]:
        """Chains the protocol treats alike (see the class docstring)."""
        return ()

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
    chain_keyed = ("votes",)

    def symmetric_chains(self, n: int) -> Iterable[int]:
        # The coordinator is fixed; the participants vote, and hear the
        # decision, alike.
        return range(1, n + 1)

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


def _check_chain(chain: Optional[int], n: int) -> int:
    if chain is None or not (0 <= chain <= n):
        raise InvalidSchedule(f"chain index {chain} outside 0..{n}")
    return chain


# Per chain-local action: its offset among a chain's flag bits, and the error for a repeat.
_KINDS = {"step": (0, "already took its start step"), "suspend": (1, "is already suspended"),
          "crash": (2, "already crashed")}


class _Kernel:
    """What a root ``Simulation`` shares with its clones: the parameters,
    ``records`` (read-only) and ``messages`` (``(receiver, sender, payload)``)
    by id, and memos.  ``reactions`` maps a record id and an event ("step",
    "crash", "suspend" or a message id) to the new record id and the ids of
    the messages sent.  ``enabled`` lists a state's options and ``advance``
    takes one: the one transition of ``Simulation.apply``, the exhaustive
    walk and random trials; ``quiescent`` asks it of a state.
    ``symmetry`` is the quotient by the protocol's declared symmetry, with
    no class when it declares no two chains alike with equal inputs.
    ``message`` builds each ``Message`` a read asks for once."""

    def __init__(self, n: int, t: int, protocol: CommitProtocol, inputs: tuple) -> None:
        self.n, self.t, self.protocol, self.inputs = n, t, protocol, inputs
        self.records: List[NodeState] = []
        self.fingerprints: List[tuple] = []  # each record's, by id
        self.bits: List[int] = []  # each record's ``_chain_bits``, by id
        self.messages: List[Tuple[int, int, tuple]] = []
        self._read: Dict[Tuple[int, int], Message] = {}  # by sequence and message id
        self._ids: Dict[tuple, int] = {}  # record and message keys never collide
        self.reactions: Dict[tuple, Tuple[int, Tuple[int, ...]]] = {}
        # The option of each step, suspend and crash, by identity.
        self.options = [(kind, c, 3 * c + offset, None)
                        for c in range(n + 1) for kind, (offset, _) in _KINDS.items()]
        self._local: Dict[tuple, tuple] = {}
        self.step_bits = sum(1 << (3 * chain) for chain in range(n + 1))
        self.suspend_bits, self.crash_bits = self.step_bits << 1, self.step_bits << 2
        by_input: Dict[Value, List[int]] = {}
        for chain in sorted(set(protocol.symmetric_chains(n))):
            by_input.setdefault(inputs[chain], []).append(chain)
        self.symmetry = _Symmetry(self, [chains for chains in by_input.values() if len(chains) > 1])

    def _intern(self, table: list, key: tuple, value: Any) -> int:
        ident = self._ids.get(key)
        if ident is None:
            ident = self._ids[key] = len(table)
            table.append(value)
        return ident

    def record(self, node: NodeState) -> int:
        fingerprint = node.fingerprint()
        ident = self._intern(self.records, fingerprint, node)
        if ident == len(self.fingerprints):
            self.fingerprints.append(fingerprint)
            self.bits.append(_chain_bits(node.local_value, node.decided, node.crashed))
        return ident

    def react(self, record: int, event: Any) -> Tuple[int, Tuple[int, ...]]:
        node = self.records[record].clone()
        sent: Iterable[Tuple[int, Dict[str, Any]]] = ()
        if event == "step":
            sent = self.protocol.on_start(node, self.n)
        elif event == "crash":
            node.crashed = True
        elif event == "suspend":
            node.suspended = True
            node.local_value = Value.BOTTOM
        else:
            _, sender, payload = self.messages[event]
            sent = self.protocol.on_message(node, sender, dict(payload), self.n)
        messages = []
        for receiver, payload in sent:
            key = (_check_chain(receiver, self.n), node.index, tuple(sorted(payload.items())))
            messages.append(self._intern(self.messages, key, key))
        reaction = self.reactions[record, event] = (self.record(node), tuple(messages))
        return reaction

    def enabled(self, state: tuple, max_suspensions: int) -> list:
        """The options of ``state`` in canonical order: steps, deliveries,
        suspends, crashes.  An option is ``(kind, chain acted on, identity,
        place)``: the identity is a flag bit, or for a delivery 3(n+1) plus
        its message id (not its sequence), and a delivery's place is its
        index in flight, None for the others."""
        _, _, idents, flags = state[:4]
        local = self._local.get((flags, max_suspensions))
        if local is None:
            # ``options[i]`` has flag bit i; a crash blocks a step too.
            suspend = (flags & self.suspend_bits).bit_count() < max_suspensions
            crash = (flags & self.crash_bits).bit_count() < self.t
            local = self._local[flags, max_suspensions] = (
                [o for o in self.options[0::3] if not flags >> o[2] & 0b101],
                [o for o in self.options[1::3] if suspend and not flags >> o[2] & 1]
                + [o for o in self.options[2::3] if crash and not flags >> o[2] & 1],
            )
        steps, others = local
        if not idents:
            return steps + others
        options = steps.copy()
        base, messages = 3 * self.n + 3, self.messages
        for at, ident in enumerate(idents):
            receiver = messages[ident][0]
            if not flags >> (3 * receiver + 2) & 1:
                options.append(("deliver", receiver, base + ident, at))
        return options + others

    def advance(self, state: tuple, option: tuple) -> tuple:
        """The state after ``option`` (see ``enabled``), unchecked; a
        delivery to a crashed receiver drops the message.  A state with a
        view, the exhaustive walk's, passes it to its child edited by
        ``_Symmetry.edit``; one without, None."""
        records, sequences, idents, flags, sequence, count, log, view = state
        kind, chain, identity, at = option
        removed = None
        if at is None:
            flags |= 1 << identity
            event = kind
            log = (log, kind, chain, None, None)
        else:
            removed = event = idents[at]
            log = (log, kind, chain, sequences[at], event)
            sequences = sequences[:at] + sequences[at + 1:]
            idents = idents[:at] + idents[at + 1:]
            if flags >> (3 * chain + 2) & 1:
                event = None
        old = record = records[chain]
        sent = ()
        if event is not None:
            record, sent = self.reactions.get((old, event)) or self.react(old, event)
            records = records[:chain] + (record,) + records[chain + 1:]
            if sent:
                sequences += tuple(range(sequence, sequence + len(sent)))
                idents += sent
                sequence += len(sent)
        if view is not None:
            view = self.symmetry.edit(view, chain, old, record, removed, sent, flags)
        return records, sequences, idents, flags, sequence, count + 1, log, view

    def quiescent(self, state: tuple) -> bool:
        """No runnable start step in ``state`` and no message deliverable
        to a live node."""
        _, _, idents, flags = state[:4]
        steps = self.step_bits  # every chain started or crashed
        return (flags | flags >> 2) & steps == steps and all(
            flags >> (3 * self.messages[i][0] + 2) & 1 for i in idents
        )

    def message(self, sequence: int, ident: int) -> Message:
        message = self._read.get((sequence, ident))
        if message is None:
            receiver, sender, payload = self.messages[ident]
            message = self._read[sequence, ident] = Message(sender, receiver, sequence, payload)
        return message


class _Symmetry:
    """A kernel's quotient by the protocol's declared symmetry (see
    ``CommitProtocol``): ``classes`` are the declared chains grouped by
    input, each of two or more, and every other chain is fixed.

    A state's view is one column id per chain, in the order of ``slots``
    (a chain's position): the fixed chains first, then each class's chains
    at the positions of its ``spans`` entry.  A column starts with its
    head, the chain's record part shifted left by three bits and ORed
    with its flag bits, followed, sorted, by the parts the chain holds
    apart from its record: for a declared chain, what the fixed chains'
    chain-keyed dicts hold for it and the messages it sends or receives,
    each marked with the fixed other end; for a fixed chain, the messages
    it receives from fixed chains, each marked with the sender.  Parts
    and columns are interned as ints in ``_parts`` and ``_columns``, so
    two ids are equal exactly when the columns are.  ``key`` leaves the
    fixed chains' columns in place and sorts each class's: a fixed chain
    is a column that is never sorted, and with no class the key names the
    state alone.

    As no message or record ties two declared chains (``_record`` and
    ``_message`` refuse one), the columns hold the whole state, so
    renaming within a class permutes its columns and nothing else (Ip &
    Dill, FMSD 9, 1996): swapping two chains of a class with equal column
    ids fixes the view (``twin``).  An event changes the acting chain's
    column, and those its chain-keyed entries and messages name; on a
    declared chain, that is its own column alone.  ``_records`` and
    ``_messages`` hold what a view reads of each record and message id,
    ``_plans`` what an event changes, and ``_edits`` maps a change to a
    column, as (column, new head or None, parts lost, parts gained), to
    the new column."""

    def __init__(self, kernel: _Kernel, classes: List[List[int]]) -> None:
        self.kernel = kernel
        self.keyed = kernel.protocol.chain_keyed
        self.declared = frozenset(chain for chains in classes for chain in chains)
        fixed = [chain for chain in range(kernel.n + 1) if chain not in self.declared]
        self.width = width = len(fixed)
        self.spans, self._class = [], {}  # a declared chain's class: its span's start
        for chains in classes:
            self.spans.append((width, width + len(chains)))
            self._class.update(dict.fromkeys(chains, width))
            width += len(chains)
        order = fixed + [chain for chains in classes for chain in chains]
        self.slots = [order.index(chain) for chain in range(len(order))]
        self._parts: Dict[tuple, int] = {}
        self._columns: Dict[tuple, int] = {}
        self._column_of: List[tuple] = []  # by column id
        self._records: Dict[int, Tuple[int, tuple]] = {}
        self._messages: Dict[int, Tuple[int, int]] = {}
        self._plans: Dict[tuple, tuple] = {}
        self._edits: Dict[tuple, int] = {}

    def view(self, state: tuple) -> tuple:
        """The view of ``state``, read off its records, flags and in-flight
        messages; ``edit`` keeps the exhaustive walk's views equal to it."""
        records, _, idents, flags = state[:4]
        read, messages = self._records, self._messages
        parts = [read.get(record) or self._record(record) for record in records]
        columns = [[part << 3 | flags >> 3 * chain & 7] for chain, (part, _) in enumerate(parts)]
        for _, entries in parts:
            for target, entry in entries:
                columns[target].append(entry)
        for ident in idents:
            target, held = messages.get(ident) or self._message(ident)
            columns[target].append(held)
        view = list(records)
        for chain, (head, *tail) in enumerate(columns):
            view[self.slots[chain]] = self._column(head, tail)
        return tuple(view)

    def key(self, view: tuple) -> tuple:
        """``Simulation.fingerprint`` of a state with view ``view``: the
        fixed chains' column ids as they stand, then each class's, sorted,
        as a class's size is fixed."""
        key = list(view[:self.width])
        for lo, hi in self.spans:
            key += sorted(view[lo:hi])
        return tuple(key)

    def twin(self, state: tuple, option: tuple) -> Optional[tuple]:
        """The twin key of ``option`` at ``state``, a state with a view, or
        None for one on no declared chain: the chain's class, a tag for a
        step, suspend or crash, its offset or the message's part at its
        declared end, and the chain's column id.  The swap of two chains of
        a class with equal columns maps an option to its twin and fixes the
        view, so twins' children are one orbit."""
        _, chain, identity, at = option
        if at is None:
            what = identity % 3
        else:
            ident = state[2][at]
            chain, what = self._messages.get(ident) or self._message(ident)
        cls = self._class.get(chain)
        return None if cls is None else (cls, at is None, what, state[7][self.slots[chain]])

    def edit(self, view: tuple, chain: int, old: int, new: int, removed: Optional[int],
             sent: tuple, flags: int) -> tuple:
        """The view after an event on ``chain``: its record id went from
        ``old`` to ``new``, it took message ``removed`` (or None) and sent
        ``sent``, and ``flags`` is the new flag mask."""
        key = (old, new, flags >> 3 * chain & 7, removed, sent)
        plan = self._plans.get(key) or self._plan(*key)
        view = list(view)
        for at, head, gone, came in plan:
            key = (view[at], head, gone, came)
            column = self._edits.get(key)
            view[at] = self._change(*key) if column is None else column
        return tuple(view)

    def _column(self, head: int, tail: list) -> int:
        tail.sort()
        column = (head, *tail)
        ident = self._columns.get(column)
        if ident is None:
            ident = self._columns[column] = len(self._column_of)
            self._column_of.append(column)
        return ident

    def _change(self, column: int, head: Optional[int], gone: tuple, came: tuple) -> int:
        """The column with head ``head`` (None keeps its own) that takes
        parts ``gone`` out of ``column`` and puts parts ``came`` in."""
        kept, *tail = self._column_of[column]
        for held in gone:
            tail.remove(held)
        tail += came
        ident = self._edits[column, head, gone, came] = self._column(
            kept if head is None else head, tail
        )
        return ident

    def _plan(self, old: int, new: int, bits: int, removed: Optional[int], sent: tuple) -> tuple:
        """An event that takes a chain's record from ``old`` to ``new``
        and leaves it flag bits ``bits``: for the acting chain and each
        other column it changes, its position, its new head (None for
        another column) and the parts it loses and gains."""
        chain = self.kernel.records[new].index
        part, entries = self._records.get(new) or self._record(new)
        changes: Dict[int, Tuple[list, list]] = {chain: ([], [])}
        for side, held in enumerate(((self._records.get(old) or self._record(old))[1], entries)):
            for target, entry in held:
                changes.setdefault(target, ([], []))[side].append(entry)
        for side, idents in enumerate(((removed,) if removed is not None else (), sent)):
            for ident in idents:
                target, held = self._messages.get(ident) or self._message(ident)
                changes.setdefault(target, ([], []))[side].append(held)
        plan = self._plans[old, new, bits, removed, sent] = tuple(
            (self.slots[target], part << 3 | bits if target == chain else None,
             tuple(gone), tuple(came))
            for target, (gone, came) in changes.items()
            if target == chain or sorted(gone) != sorted(came)
        )
        return plan

    def _part(self, key: tuple) -> int:
        return self._parts.setdefault(key, len(self._parts))

    def _record(self, record: int) -> Tuple[int, tuple]:
        """The record's part, and what its chain-keyed dicts hold for each
        declared chain as ``(chain, part)`` pairs.  A declared chain's
        record is read without its index, its own key read as -1; it may
        hold no entry for another declared chain.  The part is the
        fingerprint the kernel interned the record by, so read without
        those entries and with its chain dropped for a declared chain."""
        *head, memory = self.kernel.fingerprints[record]
        index, declared = self.kernel.records[record].index, self.declared
        kept, entries = [], []
        for name, (is_dict, value) in memory:
            if is_dict and name in self.keyed:
                items = []
                for chain, entry in value:
                    if chain not in declared:
                        items.append((chain, entry))
                    elif index not in declared:
                        entries.append((chain, self._part(("entry", index, name, entry))))
                    elif chain == index:
                        items.append((-1, entry))
                    else:
                        raise ValueError(
                            f"declared chain {index} keeps a {name!r} entry for declared "
                            f"chain {chain}; the declared symmetry forbids ties between them"
                        )
                value = tuple(sorted(items))
            kept.append((name, (is_dict, value)))
        part = (*head[index in declared:], tuple(kept))
        self._records[record] = memo = (self._part(part), tuple(entries))
        return memo

    def _message(self, message: int) -> Tuple[int, int]:
        """The chain whose column holds the message, and its part there:
        the declared sender's, marked with the fixed receiver, or else the
        receiver's, marked with the sender unless it sends to itself."""
        receiver, sender, payload = self.kernel.messages[message]
        if sender in self.declared and sender != receiver:
            if receiver in self.declared:
                raise ValueError(
                    f"declared chain {sender} messages declared chain {receiver}; "
                    "the declared symmetry forbids ties between them"
                )
            memo = (sender, self._part(("out", receiver, payload)))
        else:
            side = ("self", payload) if sender == receiver else ("in", sender, payload)
            memo = (receiver, self._part(side))
        self._messages[message] = memo
        return memo


class Simulation:
    """Explicit simulator state; every change happens through ``apply``.

    ``state`` is one immutable tuple: each node's record id, the in-flight
    sequence numbers and message ids in send order, a flag mask (bit 3c+k:
    chain c took the action of offset k in ``_KINDS``), the next sequence
    number, the event count, the event log as ``(previous, kind, chain,
    sequence, message id)`` links, and the view: the ``_Symmetry`` view,
    one column id per chain, in the exhaustive walk's states, None in
    every other.  The ids index ``kernel``, shared by a root and its
    clones, and fingerprints compare within one root's clones.  ``apply`` checks an
    action and takes it by ``_Kernel.advance``, which the exhaustive walk
    and random trials call on bare state tuples.  ``nodes``, ``events``
    and the like are built on demand."""

    __slots__ = ("kernel", "state")

    def __init__(self, n: int, t: int, protocol: CommitProtocol, inputs: Sequence[Value]) -> None:
        if len(inputs) != n + 1:
            raise ValueError(f"need {n + 1} input values, got {len(inputs)}")
        self.kernel = kernel = _Kernel(n, t, protocol, tuple(inputs))
        nodes = (NodeState(chain=BlockRef(i), local_value=value) for i, value in enumerate(inputs))
        self.state: tuple = (tuple(map(kernel.record, nodes)), (), (), 0, 0, 0, None, None)

    n = property(lambda self: self.kernel.n)
    t = property(lambda self: self.kernel.t)
    protocol = property(lambda self: self.kernel.protocol)
    inputs = property(lambda self: self.kernel.inputs)
    event_count = property(lambda self: self.state[5])

    @property
    def nodes(self) -> Tuple[NodeState, ...]:
        return tuple(map(self.kernel.records.__getitem__, self.state[0]))

    @property
    def in_flight(self) -> Dict[int, Message]:
        _, sequences, idents = self.state[:3]
        return {seq: self.kernel.message(seq, i) for seq, i in zip(sequences, idents)}

    @property
    def events(self) -> Tuple[SimEvent, ...]:
        events, log = [], self.state[6]
        while log is not None:
            log, kind, chain, sequence, ident = log
            message = None if ident is None else self.kernel.message(sequence, ident)
            events.append(SimEvent(kind=kind, chain=chain, message=message))
        return tuple(reversed(events))

    @staticmethod
    def _of(kernel: _Kernel, state: tuple) -> "Simulation":
        """A ``Simulation`` at ``state``, which ``kernel``'s ids index."""
        sim = Simulation.__new__(Simulation)
        sim.kernel, sim.state = kernel, state
        return sim

    def clone(self) -> "Simulation":
        return self._of(self.kernel, self.state)

    def fingerprint(self) -> tuple:
        """Key of the state up to the protocol's declared symmetry: two
        keys are equal exactly when a permutation of each class renames one
        state into the other.  It holds the fixed chains' column ids in
        chain order, then for each class its chains' column ids, sorted
        (see ``_Symmetry``).  A column id stands for the chain's whole
        column: its record, read without its index on a declared chain,
        its flag bits, and the chain-keyed entries and messages that belong
        to it; equal ids mean equal columns.  With no class every column is
        fixed, so the key names the state alone.  Sequence numbers and the
        event log are left out.  The view is read off the state by
        ``_Symmetry.view``; the state is left as it was."""
        symmetry = self.kernel.symmetry
        return symmetry.key(symmetry.view(self.state))

    def apply(self, action: ScheduleAction) -> None:
        kernel = self.kernel
        _, sequences, idents, flags = self.state[:4]
        kind = action.kind
        if kind == "deliver":
            seq = action.sequence
            if seq is None or seq not in sequences:
                raise InvalidSchedule(f"no in-flight message with sequence {seq}")
            at = sequences.index(seq)
            ident = idents[at]
            option = (kind, kernel.messages[ident][0], 3 * kernel.n + 3 + ident, at)
        elif kind in _KINDS:
            chain = _check_chain(action.chain, kernel.n)
            offset, again = _KINDS[kind]
            if kind == "step" and flags >> (3 * chain + 2) & 1:
                raise InvalidSchedule(f"chain {chain} cannot step after crashing")
            if flags >> (3 * chain + offset) & 1:
                raise InvalidSchedule(f"chain {chain} {again}")
            if kind == "crash" and (flags & kernel.crash_bits).bit_count() >= kernel.t:
                raise InvalidSchedule(f"crash budget t={kernel.t} exhausted")
            option = kernel.options[3 * chain + offset]
        else:
            raise InvalidSchedule(f"unknown action kind {kind!r}")
        self.state = kernel.advance(self.state, option)

    def quiescent(self) -> bool:
        """No runnable start step and no message deliverable to a live node."""
        return self.kernel.quiescent(self.state)

    def enabled(self, max_suspensions: int) -> List[ScheduleAction]:
        """Applicable actions in canonical order: steps, delivers, suspends, crashes."""
        sequences = self.state[1]
        return [
            ScheduleAction(kind=kind, chain=chain) if at is None
            else ScheduleAction(kind=kind, sequence=sequences[at])
            for kind, chain, _, at in self.kernel.enabled(self.state, max_suspensions)
        ]

    def trace(self) -> ExecutionTrace:
        nodes = self.nodes
        return ExecutionTrace(
            n=self.n,
            t=self.t,
            protocol=self.protocol.name,
            inputs=self.inputs,
            events=self.events,
            outcome=tuple(node.decided for node in nodes),
            realized=tuple(node.local_value for node in nodes),
            crashed=frozenset(node.index for node in nodes if node.crashed),
            suspended=frozenset(node.index for node in nodes if node.suspended),
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


# A chain's part of the four rules (``_chain_bits``): bit r, a live chain
# decided the value of rank r; then any chain decided commit, any decided
# abort, a leg not committed, a leg suspended, a live chain undecided.
_LIVE = 0b111
_COMMIT, _ABORT, _UNCOMMITTED, _SUSPENDED, _UNDECIDED = (1 << bit for bit in range(3, 8))
# The rules, in the order ``check_trace`` reports them (see ``_broken``).
_AGREEMENT, _SUSPENSION, _VALIDITY, _TERMINATION = 1, 2, 4, 8


def _chain_bits(realized: Value, decided: Optional[Value], crashed: bool) -> int:
    """What one chain, its leg ``realized`` and its decision, tells the
    rules, as the bits above."""
    bits = 0 if realized is Value.ONE else _UNCOMMITTED
    if realized is Value.BOTTOM:
        bits |= _SUSPENDED
    if decided is Value.ONE:
        bits |= _COMMIT
    elif decided is Value.ZERO:
        bits |= _ABORT
    if not crashed:
        bits |= _UNDECIDED if decided is None else 1 << decided.rank
    return bits


def _broken(bits: int, quiescent: Callable[[], bool]) -> int:
    """The rules broken by the chains whose ``_chain_bits`` OR to ``bits``:
    live nodes decided differently (``_AGREEMENT``); some node decided
    commit while some leg is suspended (``_SUSPENSION``); some node decided
    abort although every leg stayed committed (``_VALIDITY``); and a live
    node is undecided once the run is quiescent (``_TERMINATION``), which
    alone asks ``quiescent``.  Crashed nodes count in the middle two.
    Against the carrier map of ``cbt.build_carrier_map``: agreement and
    validity keep the decisions on one of its facets, though the map counts
    crashed nodes too; the suspension rule is stricter than the map, which
    allows a commit by a chain whose own leg was not suspended."""
    live = bits & _LIVE
    broken = _AGREEMENT if live & live - 1 else 0
    if bits & _COMMIT and bits & _SUSPENDED:
        broken |= _SUSPENSION
    if bits & (_ABORT | _UNCOMMITTED) == _ABORT:
        broken |= _VALIDITY
    if bits & _UNDECIDED and quiescent():
        broken |= _TERMINATION
    return broken


def check_trace(trace: ExecutionTrace) -> ViolationReport:
    """Evaluate a trace against the task's rules (see ``_broken``), each
    broken one reported with the chains it names."""
    chains = range(trace.n + 1)
    bits = [_chain_bits(trace.realized[i], trace.outcome[i], i in trace.crashed) for i in chains]
    every = reduce(or_, bits)
    broken = _broken(every, lambda: trace.quiescent)
    distinct = sorted(value.value for value in Value if every >> value.rank & 1)
    deciders, committed, suspended, aborted, undecided = (
        tuple(i for i in chains if bits[i] & bit)
        for bit in (_LIVE, _COMMIT, _SUSPENDED, _ABORT, _UNDECIDED)
    )
    return ViolationReport(tuple(
        Violation(kind, detail, named)
        for rule, kind, detail, named in (
            (_AGREEMENT, "atomicity", f"live nodes decided differently: {distinct}", deciders),
            (_SUSPENSION, "atomicity",
             f"chains {list(committed)} decided commit although the suspended legs "
             f"{list(suspended)} mandate abort", committed + suspended),
            (_VALIDITY, "validity",
             f"chains {list(aborted)} decided abort although every leg stayed locally committed",
             aborted),
            (_TERMINATION, "termination",
             f"live nodes {list(undecided)} are blocked without a decision", undecided),
        )
        if broken & rule
    ))


def _violates(kernel: _Kernel, state: tuple) -> bool:
    """Whether ``check_trace`` would flag the trace of ``state``, which
    ``kernel``'s ids index: the rules on the bits the kernel keeps for
    each record, without the trace."""
    bits = reduce(or_, map(kernel.bits.__getitem__, state[0]))
    return _broken(bits, lambda: kernel.quiescent(state)) != 0


@dataclass(frozen=True)
class ExhaustiveMode:
    """Check every state within ``depth`` events (see ``find_violation``)."""

    depth: int


@dataclass(frozen=True)
class RandomMode:
    """Seeded uniform random schedules, ``trials`` runs to quiescence or
    ``_MAX_RANDOM_EVENTS`` events."""

    seed: int
    trials: int


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

    A run suspends at most ``suspensions`` chains, a non-negative int;
    ``depth``, ``trials`` and ``state_budget`` are positive ints.
    Exhaustive mode checks every *state* within ``depth`` events, not every
    schedule, depth first in canonical action order (see ``_explore``), and
    takes states that a permutation of each class of the protocol's
    declared symmetry renames into each other (see ``CommitProtocol``) as
    one: it checks one state of each orbit, the first it reaches (with no
    class, each state), and of options alike on chains of one class that
    read alike it takes the first.  A state is checked once, on its first
    visit, by ``_broken`` on the bits its records were interned with, which
    flags what ``check_trace`` flags on its trace and treats every chain
    alike, and counts once against ``state_budget``, which so counts orbit
    representatives; only the state returned becomes an ``ExecutionTrace``.
    A cached state is expanded again, not checked again, when it is reached
    on fewer events.  Sleep
    sets (Godefroid, LNCS 1032, 1996) skip a transition whose target
    another order of the same commuting actions covers at the same depth.
    Actions on different chains commute (a delivery acts on its receiver
    and is identified by receiver, sender and payload, not by its sequence
    number); two crashes, or two suspensions, share a budget and never do.
    Random mode runs ``trials`` seeded uniform schedules, each advancing a
    state tuple from the root's with no view, and checks the state each
    ends in, keying none.  Either way one kernel serves the call, so each
    protocol reaction runs once per record and event.  Returns the first
    violating trace, or None when the bound is reached without one.
    """
    check_resilience(n, t, allow_zero=True)
    if inputs is None:
        inputs = [Value.ONE] * (n + 1)
    _require_int(suspensions, 0, "suspensions")
    budget = state_budget if state_budget is not None else DEFAULT_STATE_BUDGET
    _require_int(budget, 1, "state budget")
    if isinstance(mode, ExhaustiveMode):
        _require_int(mode.depth, 1, "exploration depth")
        return _explore(Simulation(n, t, protocol, inputs), mode.depth, suspensions, budget)
    if isinstance(mode, RandomMode):
        _require_int(mode.trials, 1, "trial count")
        rng = random.Random(mode.seed)
        root = Simulation(n, t, protocol, inputs)
        kernel = root.kernel
        # ``kernel.enabled`` lists as many options as ``enabled`` lists
        # actions, in the same order, so the draws are ``enabled``'s.
        for _ in range(mode.trials):
            state = root.state
            while state[5] < _MAX_RANDOM_EVENTS:
                options = kernel.enabled(state, suspensions)
                if not options:
                    break
                state = kernel.advance(state, rng.choice(options))
            if _violates(kernel, state):
                return Simulation._of(kernel, state).trace()
        return None
    raise TypeError(f"unsupported mode {mode!r}")


def _explore(
    root: Simulation, depth: int, suspensions: int, budget: int
) -> Optional[ExecutionTrace]:
    """``find_violation``'s exhaustive walk: state caching plus sleep sets,
    quotiented by the protocol's declared symmetry.

    The root's view is read by ``_Symmetry.view``, and each child is a
    state tuple that ``_Kernel.advance`` makes from its parent's, its view
    edited from the parent's; only the violating state it returns is
    wrapped in a ``Simulation``.  The cache maps a state's key, its
    ``fingerprint``, to the fewest events that reached it, not to a sleep
    set, and drops a state reached again on as many events or more.
    Equal keys mean states that a permutation of each class renames into each other, one
    orbit; renaming commutes with actions and keeps the root, so a
    renamed run is a run of the same length, and the state check treats
    every chain alike.  So checking one state of each orbit within the
    bound misses no violation, and each is checked.  Let dist(s) be the
    fewest events that reach s's orbit, and call an entry for s at dist(s)
    events a dist-entry.
    1. At most one dist-entry is pushed per key, and every entry on the
       tree path of a dist-entry is a dist-entry.
    2. If entry E's child c at dist(c) is dropped as cached, a renaming of
       c got a dist-entry pushed by an entry at E's event count popped
       before E, whose subtree finished before E was popped (the stack is
       LIFO, and no entry descends from another at its own event count),
       or pushed by E for an earlier sibling of c, whose subtree finishes
       before those of c's later siblings start.  Siblings are marked first
       to last so that the earlier one wins: a later sibling kept for both
       would carry the earlier one's action asleep, and the orbit it
       stands for would lose the runs that start with that action.  A
       twin of an option advanced at E (``_Symmetry.twin``) is dropped so
       unadvanced: swapping its chain and the other's, of one class with
       equal columns, fixes E's view, so as reactions are equivariant the
       two children are one orbit (Ip & Dill, and Emerson & Sistla, both
       FMSD 9, 1996).
    3. By induction on finishing time: for a dist-entry E at x and a path
       a.w from x that stays shortest and within the bound, a renaming of
       x.a.w gets a dist-entry.  If a is taken at E, recurse into E's
       child x.a, or by (2) into a renaming of x.a with w renamed alike.
       If a is asleep at E, it was taken at an ancestor y before the
       branch toward x, and it commutes with every action on the tree path
       p from y to x: actions on different chains commute as states, since
       the fingerprint ignores sequence numbers, and neither disables the
       other.  So x.a.w is y.a.p.w, and y.a, or by (2) a renaming of it,
       has a dist-entry that finished before E.
    At the root, (3) covers every orbit within the bound; this is the
    combination of partial-order and symmetry reduction of Emerson, Jha &
    Peled (TACAS 1997, LNCS 1217).  Revisiting a cached state reached with
    fewer actions asleep (Godefroid, LNCS 1032, 1996, section 5) would only
    walk again orbits the walk reaches anyway.
    """
    # Option identity i (see ``_Kernel.enabled``) owns bit 1 << i, and
    # ``acts_on[c]`` holds the bits of the actions on chain c met so far.
    # ``shared[i]``: the bits a suspend or crash shares a budget with.
    kernel, state = root.kernel, root.state
    enabled, advance, key = kernel.enabled, kernel.advance, kernel.symmetry.key
    twin_of = kernel.symmetry.twin
    acts_on = [0b111 << (3 * chain) for chain in range(root.n + 1)]
    shared = [(0, kernel.suspend_bits, kernel.crash_bits)[i % 3] for i in range(len(acts_on) * 3)]
    base = len(shared)
    state = (*state[:7], kernel.symmetry.view(state))
    seen = {key(state[7]): 0}
    # Stack entries: state tuple with its view; sleep set; first visit.
    stack = [(state, 0, True)]
    explored = 0
    while stack:
        state, sleep, first = stack.pop()
        if first:
            explored += 1
            if explored > budget:
                raise ResourceBound(
                    f"schedule exploration exceeded the state budget of {budget}",
                    explored=explored,
                )
            if _violates(kernel, state):
                return Simulation._of(kernel, state).trace()
        events = state[5] + 1
        if events > depth:
            continue
        # Taken actions join the sleep sets of later siblings they commute
        # with; an identity already taken here (a duplicate message) is
        # skipped, and a twin of an advanced option is taken unadvanced.
        # Children are marked in ``seen`` first to last, so of two siblings
        # in one orbit the first is kept (step 2 of the docstring).
        kept, taken = [], set()
        for option in enabled(state, suspensions):
            _, chain, identity, _ = option
            bit = 1 << identity
            if bit & sleep:
                continue
            acts_on[chain] |= bit
            sleep |= bit
            twin = twin_of(state, option)
            if twin is not None and twin in taken:
                continue
            taken.add(twin)
            child = advance(state, option)
            child_key = key(child[7])
            known = seen.get(child_key)
            if known is None or known > events:
                seen[child_key] = events
                # Children on the depth bound are never expanded: no sleep set.
                child_sleep = 0
                if events < depth:
                    conflicts = acts_on[chain] | (shared[identity] if identity < base else 0)
                    child_sleep = sleep & ~conflicts
                kept.append((child, child_sleep, known is None))
        # Pushed last to first, so a child is expanded only after the
        # subtrees of the siblings in its sleep set.
        kept.reverse()
        stack += kept
    return None
