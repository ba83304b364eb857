"""Shared builders and independent oracles for the test suite.

Every oracle here recomputes its answer from first principles (BFS, span
enumeration, product enumeration) so that agreement with the library is a
genuine cross-check rather than a tautology.
"""
from __future__ import annotations

import copy
import dataclasses
import itertools
import math
from collections import Counter, deque
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from cbtopo.forksim import (
    CommitProtocol,
    ExecutionTrace,
    Message,
    NodeState,
    SimEvent,
    Simulation,
    check_trace,
)
from cbtopo.simplicial import (
    BlockRef,
    Complex,
    Simplex,
    SubdivisionVertex,
    Value,
    Vertex,
    barycentric_subdivide,
)
from cbtopo.tasks import CarrierMap, Task, restrict_to_skeleton


def vtx(chain: int, code: str, block: int = 0) -> Vertex:
    """Colored vertex from a chain index and a value code."""
    return Vertex(BlockRef(chain=chain, block=block), Value.from_code(code))


def free(code: str) -> Vertex:
    """Colorless vertex from a value code."""
    return Vertex(None, Value.from_code(code))


def sx(*vertices: Any) -> Simplex:
    return Simplex(vertices)


def cx(*facets: Iterable[Any]) -> Complex:
    return Complex(Simplex(f) for f in facets)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def _adjacency(complex_: Complex) -> Dict[Any, set]:
    """The neighbours of each vertex in the 1-skeleton."""
    adjacency: Dict[Any, set] = {v: set() for v in complex_.vertices}
    for edge in complex_.simplices_of_dim(1):
        u, v = edge.vertices
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency


def bfs_components(complex_: Complex) -> list[frozenset]:
    """Connected components via BFS over the 1-skeleton, no union-find."""
    adjacency = _adjacency(complex_)
    seen: set = set()
    parts: list[frozenset] = []
    for start in complex_.vertices:
        if start in seen:
            continue
        queue = deque([start])
        part = {start}
        seen.add(start)
        while queue:
            u = queue.popleft()
            for w in adjacency[u]:
                if w not in part:
                    part.add(w)
                    seen.add(w)
                    queue.append(w)
        parts.append(frozenset(part))
    return sorted(parts, key=lambda p: min(v.sort_key() for v in p))


def xor_span_rank(rows: Sequence[int]) -> int:
    """GF(2) rank by enumerating the span; exponential, for tiny matrices."""
    span = {0}
    for row in rows:
        span |= {s ^ row for s in span}
    size = len(span)
    assert size & (size - 1) == 0, "span size must be a power of two"
    return size.bit_length() - 1


def brute_force_depth0_map(task: Task, t: int) -> Optional[Dict[Any, Vertex]]:
    """Exhaustive product search for an undivided carried simplicial map.

    Mirrors the search semantics at subdivision depth 0: each input vertex of
    the t-skeleton must map into the carrier of its own singleton simplex and
    every skeleton facet must land inside a single output facet.
    """
    restricted = restrict_to_skeleton(task, t)
    vertices = restricted.input.vertices
    domains = [restricted.carrier[Simplex([v])].vertices for v in vertices]
    total = 1
    for domain in domains:
        total *= len(domain)
        assert total <= 2_000_000, "oracle given a task too large to enumerate"
    output_facet_sets = [f.vertex_set for f in task.output.facets]
    facets = restricted.input.facets
    for choice in itertools.product(*domains):
        assign = dict(zip(vertices, choice))
        if all(
            any({assign[v] for v in facet} <= fs for fs in output_facet_sets)
            for facet in facets
        ):
            return assign
    return None


def edge_distances(complex_: Complex) -> Dict[Any, Dict[Any, int]]:
    """Hop distance between every pair of connected vertices, by BFS over
    the 1-skeleton; vertices in different components are left out."""
    adjacency = _adjacency(complex_)
    distances: Dict[Any, Dict[Any, int]] = {}
    for start in complex_.vertices:
        hops = distances[start] = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adjacency[u] - hops.keys():
                hops[w] = hops[u] + 1
                queue.append(w)
    return distances


def t1_map_exists(task: Task, depth: int) -> bool:
    """Exact answer, at t = 1, to whether a carried simplicial map exists
    from the ``depth``-fold subdivision of the input's 1-skeleton.

    Subdividing an input edge uv ``depth`` times gives a path of 2**depth
    edges whose inner vertices are carried by uv, so a map exists exactly
    when every input vertex v can take an f(v) among the vertices of Δ(v)
    such that, for every edge uv, f(u) and f(v) lie within 2**depth edges
    of each other in the 1-skeleton of Δ(uv).  The distance is infinite when
    either is not a vertex of Δ(uv).  The f(v) are enumerated as a product.
    """
    restricted = restrict_to_skeleton(task, 1)
    vertices = restricted.input.vertices
    reach = {
        edge.vertices: edge_distances(restricted.carrier[edge])
        for edge in restricted.input.simplices_of_dim(1)
    }
    domains = [restricted.carrier[Simplex([v])].vertices for v in vertices]
    for choice in itertools.product(*domains):
        f = dict(zip(vertices, choice))
        if all(
            distances.get(f[u], {}).get(f[v], math.inf) <= 2**depth
            for (u, v), distances in reach.items()
        ):
            return True
    return False


def maximal_facets(facets: Iterable[Iterable[Any]]) -> set[frozenset]:
    """Inclusion-maximal members of a vertex-set family, by comparing every
    pair; duplicates collapse to one member."""
    family = {frozenset(f) for f in facets}
    return {f for f in family if not any(f < g for g in family)}


def closure_oracle(facets: Iterable[Iterable[Any]]) -> set[frozenset]:
    """Every non-empty subset of every facet, as vertex sets, enumerated with
    ``itertools.combinations`` and no ``Complex`` method."""
    return {
        frozenset(combo)
        for facet in facets
        for r in range(1, len(facet) + 1)
        for combo in itertools.combinations(list(facet), r)
    }


def betti_oracle(facets: Iterable[Iterable[Any]]) -> tuple[int, ...]:
    """Reduced mod-2 Betti numbers b~_0..b~_d of the complex the facets span,
    with no ``connectivity`` code: the simplices from ``closure_oracle``, one
    boundary row per k-simplex over its (k-1)-faces as frozensets, ranks by
    ``xor_span_rank``, and the augmentation of rank 1 in degree 0."""
    simplices = closure_oracle(facets)
    layers = [[s for s in simplices if len(s) == k + 1] for k in range(max(map(len, simplices)))]

    def rank(k: int) -> int:
        if k == 0:
            return 1
        if k == len(layers):
            return 0
        index = {face: i for i, face in enumerate(layers[k - 1])}
        return xor_span_rank([sum(1 << index[s - {v}] for v in s) for s in layers[k]])

    return tuple(len(layer) - rank(k) - rank(k + 1) for k, layer in enumerate(layers))


def subdivision_facets_oracle(
    facets: Iterable[Iterable[Any]], vertices: Iterable[SubdivisionVertex]
) -> set[frozenset]:
    """Facets of one round of barycentric subdivision, from the original
    facets and the round's own vertices: one facet per ordering of each
    original facet, holding the vertex below each prefix of the ordering."""
    by_below = {u.below.vertex_set: u for u in vertices}
    return {
        frozenset(by_below[frozenset(order[:i])] for i in range(1, len(order) + 1))
        for facet in facets
        for order in itertools.permutations(list(facet))
    }


def subdivision_oracle(facets: Iterable[Iterable[Any]], depth: int) -> set[frozenset]:
    """Facets of ``depth`` rounds of barycentric subdivision, from
    ``subdivision_facets_oracle`` applied round by round.  Each round's
    vertices are made here, one per face of ``closure_oracle``, and each is
    carried by the union of the carriers of the vertices below it, an
    original vertex carrying itself."""

    def carrier(v: Any) -> frozenset:
        return v.carrier.vertex_set if isinstance(v, SubdivisionVertex) else frozenset([v])

    facets = maximal_facets(facets)
    for level in range(1, depth + 1):
        vertices = [
            SubdivisionVertex(
                below=Simplex(face),
                carrier=Simplex(frozenset().union(*map(carrier, face))),
                level=level,
            )
            for face in closure_oracle(facets)
        ]
        facets = subdivision_facets_oracle(facets, vertices)
    return facets


def monotonic_oracle(task: Task) -> set[tuple[Simplex, Simplex]]:
    """Every pair ``(face, coface)`` of an input simplex and one of its proper
    faces whose carrier is not contained in the coface's, with containment
    decided by ``closure_oracle``; empty exactly when the map is monotonic."""
    closure = {
        s: closure_oracle(f.vertex_set for f in image.facets)
        for s, image in task.carrier.items()
    }
    return {
        (Simplex(face), s)
        for s in task.input.simplices()
        for r in range(1, len(s))
        for face in itertools.combinations(s.vertices, r)
        if not closure[Simplex(face)] <= closure[s]
    }


def rigid_oracle(task: Task) -> set[Simplex]:
    """Every input simplex whose carrier image, enumerated by
    ``closure_oracle``, has a largest simplex of another size than its own."""
    return {
        s
        for s, image in task.carrier.items()
        if max(map(len, closure_oracle(f.vertex_set for f in image.facets))) != len(s)
    }


def projection_oracle(task: Task) -> tuple[set[frozenset], Dict[Simplex, set[frozenset]]]:
    """The closures of the colorless output and of each carrier image: every
    vertex replaced by the colorless vertex of its value, facet by facet."""

    def projected(complex_: Complex) -> set[frozenset]:
        return closure_oracle(
            {Vertex(None, v.value) for v in f.vertex_set} for f in complex_.facets
        )

    return projected(task.output), {s: projected(image) for s, image in task.carrier.items()}


def assignment_is_valid(
    task: Task, t: int, depth: int, assignment: Sequence[tuple]
) -> bool:
    """Re-verify a reported carried simplicial map from scratch."""
    restricted = restrict_to_skeleton(task, t)
    subdivided = barycentric_subdivide(restricted.input, depth).complex
    mapping = dict(assignment)
    if set(mapping) != set(subdivided.vertices):
        return False
    for u, w in mapping.items():
        carrier = u.carrier if depth else Simplex([u])
        if w not in restricted.carrier[carrier].vertex_set:
            return False
    output_facet_sets = [f.vertex_set for f in task.output.facets]
    for facet in subdivided.facets:
        image = {mapping[u] for u in facet}
        if not any(image <= fs for fs in output_facet_sets):
            return False
    return True


def _frozen(value: dict) -> frozenset:
    """A dict as the set of its items, each dict value frozen alike."""
    return frozenset([
        (key, _frozen(item) if isinstance(item, dict) else item) for key, item in value.items()
    ])


def encode_state(sim: Simulation | OracleState) -> tuple:
    """Key of a simulator state built field by field, independent of
    ``Simulation.fingerprint``: in-flight messages as a multiset without
    sequence numbers, started chains (read off the ``step`` events) and
    protocol memory as sets."""
    nodes = tuple([
        (
            node.phase,
            node.local_value.value,
            None if node.decided is None else node.decided.value,
            node.crashed,
            node.suspended,
            _frozen(node.memory),
        )
        for node in sim.nodes
    ])
    flight = Counter([(m.sender, m.receiver, frozenset(m.payload)) for m in sim.in_flight.values()])
    started = frozenset([e.chain for e in sim.events if e.kind == "step"])
    return nodes, frozenset(flight.items()), started


def renamed_encoding(key: tuple, perm: Sequence[int], keyed: Iterable[str]) -> tuple:
    """``encode_state`` key of the state renamed by ``perm`` (chain i
    becomes chain ``perm[i]``), from the state's own key: node i's fields
    move to position ``perm[i]``, the keys of its memory dicts named in
    ``keyed`` are renamed, and so are message ends and started chains."""
    nodes, flight, started = key
    renamed: list = [None] * len(nodes)
    for chain, (*fields, memory) in enumerate(nodes):
        memory = frozenset(
            (name, frozenset((perm[k], v) for k, v in value) if name in keyed else value)
            for name, value in memory
        )
        renamed[perm[chain]] = (*fields, memory)
    flight = frozenset(
        ((perm[sender], perm[receiver], payload), count)
        for (sender, receiver, payload), count in flight
    )
    return tuple(renamed), flight, frozenset(perm[chain] for chain in started)


def chain_permutations(inputs: Sequence[Value], chains: Iterable[int]) -> list[tuple]:
    """Every permutation of ``chains`` that keeps ``inputs``, as a tuple
    giving each chain index its image; the other chains stay put."""
    chains = list(chains)
    perms = []
    for image in itertools.permutations(chains):
        perm = list(range(len(inputs)))
        for chain, target in zip(chains, image):
            perm[chain] = target
        if all(inputs[perm[c]] == inputs[c] for c in chains):
            perms.append(tuple(perm))
    return perms


def orbit_key(key: tuple, perms: Iterable[Sequence[int]], keyed: Iterable[str]) -> frozenset:
    """The orbit of the state with ``encode_state`` key ``key`` under the
    group ``perms``: the set of its keys renamed by every member.  Two
    states get one orbit key exactly when a member renames one into the
    other; the set stands in for the least member, which would need an
    order on keys."""
    return frozenset(renamed_encoding(key, perm, keyed) for perm in perms)


def orbit_states(
    sim: Simulation,
    depth: int,
    suspensions: int,
    perms: Iterable[Sequence[int]],
    keyed: Iterable[str],
) -> Dict[frozenset, tuple]:
    """``reachable_states`` by orbit: a map from the ``orbit_key`` of each
    orbit that has a state within ``depth`` events to the fewest events
    that reach one and the violation kinds, the same on every member."""
    perms, keyed = list(perms), tuple(keyed)
    orbits: Dict[frozenset, tuple] = {}
    for key, events, state in bfs_states(sim, depth, suspensions):
        kinds = frozenset(v.kind for v in check_trace(state.trace()).violations)
        orbit = orbit_key(key, perms, keyed)
        assert orbits.setdefault(orbit, (events, kinds))[1] == kinds, orbit
    return orbits


class OracleState:
    """A simulator state as ``bfs_states`` keeps it, apart from the
    library's kernel, records and memos: per-chain ``NodeState`` copies,
    the in-flight messages by sequence number, the events so far and the
    next sequence number.  It offers what ``encode_state`` and
    ``check_trace(state.trace())`` read of a ``Simulation``; the rules
    for which actions are enabled and what each does are stated here."""

    def __init__(self, run: tuple, nodes: tuple, in_flight: dict, events: tuple, sent: int):
        self.run = run  # (n, t, protocol, inputs)
        self.nodes, self.in_flight, self.events, self.sent = nodes, in_flight, events, sent

    def _started(self) -> set:
        return {event.chain for event in self.events if event.kind == "step"}

    def enabled(self, suspensions: int) -> list:
        """Steps of chains neither started nor crashed, deliveries to live
        chains, then suspends and crashes while their budgets last."""
        _, t, _, _ = self.run
        nodes, started = self.nodes, self._started()
        suspend = sum(node.suspended for node in nodes) < suspensions
        crash = sum(node.crashed for node in nodes) < t
        chains = range(len(nodes))
        return (
            [SimEvent("step", c) for c in chains if c not in started and not nodes[c].crashed]
            + [SimEvent("deliver", m.receiver, m) for m in self.in_flight.values()
               if not nodes[m.receiver].crashed]
            + [SimEvent("suspend", c) for c in chains if suspend and not nodes[c].suspended]
            + [SimEvent("crash", c) for c in chains if crash and not nodes[c].crashed]
        )

    def child(self, event: SimEvent) -> "OracleState":
        """The state after ``event``: one reaction on a copy of the chain's node."""
        n, _, protocol, _ = self.run
        chain, in_flight = event.chain, dict(self.in_flight)
        node = dataclasses.replace(self.nodes[chain], memory=copy.deepcopy(self.nodes[chain].memory))
        sends: list = []
        if event.kind == "step":
            sends = protocol.on_start(node, n)
        elif event.kind == "deliver":
            message = in_flight.pop(event.message.sequence)
            sends = protocol.on_message(node, message.sender, dict(message.payload), n)
        elif event.kind == "crash":
            node.crashed = True
        else:
            node.suspended, node.local_value = True, Value.BOTTOM
        sent = self.sent
        for receiver, payload in sends:
            assert 0 <= receiver <= n, receiver
            in_flight[sent] = Message(chain, receiver, sent, tuple(sorted(payload.items())))
            sent += 1
        nodes = (*self.nodes[:chain], node, *self.nodes[chain + 1:])
        return OracleState(self.run, nodes, in_flight, (*self.events, event), sent)

    def trace(self) -> ExecutionTrace:
        """The run so far; quiescent once every chain started or crashed
        and every in-flight message goes to a crashed chain."""
        n, t, protocol, inputs = self.run
        nodes, started = self.nodes, self._started()
        return ExecutionTrace(
            n=n, t=t, protocol=protocol.name, inputs=inputs, events=self.events,
            outcome=tuple(node.decided for node in nodes),
            realized=tuple(node.local_value for node in nodes),
            crashed=frozenset(c for c, node in enumerate(nodes) if node.crashed),
            suspended=frozenset(c for c, node in enumerate(nodes) if node.suspended),
            quiescent=all(c in started or node.crashed for c, node in enumerate(nodes))
            and all(nodes[m.receiver].crashed for m in self.in_flight.values()),
        )


def bfs_states(
    sim: Simulation, depth: int, suspensions: int
) -> Iterator[Tuple[tuple, int, OracleState]]:
    """Every state within ``depth`` events of the root ``sim``, once each,
    by naive BFS over ``OracleState``: each child is one reaction on a copy
    of its parent, and only ``sim``'s parameters are read, so no state
    shares records or memoized reactions with a walk under test.  Yields
    ``encode_state`` of each state, the fewest events that reach it and the
    state itself.
    """
    assert sim.event_count == 0, "bfs_states starts from a root"
    nodes = tuple(NodeState(chain=BlockRef(c), local_value=v) for c, v in enumerate(sim.inputs))
    root = OracleState((sim.n, sim.t, sim.protocol, tuple(sim.inputs)), nodes, {}, (), 0)
    key = encode_state(root)
    seen = {key}
    yield key, 0, root
    frontier = [root]
    for events in range(1, depth + 1):
        next_frontier = []
        for parent in frontier:
            for event in parent.enabled(suspensions):
                child = parent.child(event)
                key = encode_state(child)
                if key not in seen:
                    seen.add(key)
                    yield key, events, child
                    next_frontier.append(child)
        frontier = next_frontier


def reachable_states(sim: Simulation, depth: int, suspensions: int) -> Dict[tuple, tuple]:
    """``bfs_states`` as a map from ``encode_state`` of each state to the
    fewest events that reach it and the violation kinds its trace carries."""
    return {
        key: (events, frozenset(v.kind for v in check_trace(state.trace()).violations))
        for key, events, state in bfs_states(sim, depth, suspensions)
    }


def unreduced_walk(
    sim: Simulation, depth: int, suspensions: int
) -> Optional[ExecutionTrace]:
    """First violating trace of a depth-first walk without sleep sets.

    Children are generated in reverse canonical order and recorded by
    ``encode_state`` with the fewest events that reached them; a child is
    pushed when it is new or reached on fewer events, and every popped
    state is checked.  Written over the public ``Simulation`` API, it is
    the reference whose trace ``find_violation`` must return.
    """
    shallowest = {encode_state(sim): 0}
    stack = [sim]
    while stack:
        state = stack.pop()
        trace = state.trace()
        if check_trace(trace).violations:
            return trace
        events = state.event_count + 1
        if events > depth:
            continue
        for action in reversed(state.enabled(suspensions)):
            child = state.clone()
            child.apply(action)
            key = encode_state(child)
            known = shallowest.get(key)
            if known is None or known > events:
                shallowest[key] = events
                stack.append(child)
    return None


def violations_oracle(
    outcome: Sequence[Optional[Value]],
    realized: Sequence[Value],
    crashed: Iterable[int],
    quiescent: bool,
) -> list[tuple]:
    """The four rules a trace is held to, stated directly, as ``(kind,
    detail, chains)`` in the order ``check_trace`` reports them: live
    nodes that decided differently; a commit, by any node, while some leg
    is suspended; an abort, by any node, although every leg stayed
    committed; and, once the run is quiescent, a live node undecided."""
    crashed = set(crashed)
    chains = range(len(outcome))
    live = [i for i in chains if i not in crashed]
    found = []
    deciders = [i for i in live if outcome[i] is not None]
    codes = sorted({outcome[i].value for i in deciders})
    if len(codes) > 1:
        found.append(("atomicity", f"live nodes decided differently: {codes}", tuple(deciders)))
    committed = [i for i in chains if outcome[i] == Value.ONE]
    suspended = [i for i in chains if realized[i] == Value.BOTTOM]
    if committed and suspended:
        found.append((
            "atomicity",
            f"chains {committed} decided commit although the suspended legs "
            f"{suspended} mandate abort",
            tuple(committed + suspended),
        ))
    aborted = [i for i in chains if outcome[i] == Value.ZERO]
    if aborted and all(value == Value.ONE for value in realized):
        found.append((
            "validity",
            f"chains {aborted} decided abort although every leg stayed locally committed",
            tuple(aborted),
        ))
    undecided = [i for i in live if outcome[i] is None]
    if quiescent and undecided:
        found.append((
            "termination",
            f"live nodes {undecided} are blocked without a decision",
            tuple(undecided),
        ))
    return found


def carrier_allows(outcome: Sequence[Optional[Value]], realized: Sequence[Value]) -> bool:
    """Whether the decided simplex, each deciding chain's (crashed or
    not) decision, lies in Δ of the realized simplex, for the cross-chain
    commit task in closed form: when every leg stayed committed Δ holds
    the commit simplex alone; otherwise the abort simplex and the commit
    vertices of the chains whose leg was not suspended."""
    decided = [(i, value) for i, value in enumerate(outcome) if value is not None]
    if all(value == Value.ONE for value in realized):
        return all(value == Value.ONE for _, value in decided)
    return all(value == Value.ZERO for _, value in decided) or all(
        value == Value.ONE and realized[i] != Value.BOTTOM for i, value in decided
    )


class TableProtocol(CommitProtocol):
    """Deterministic protocol read off a table keyed by phase and event.

    ``table[(phase, kind)]`` is ``(next_phase, sends, remember, decision)``,
    where ``kind`` is ``"start"`` for the start step or a message kind.
    ``sends`` lists ``(offset, kind)`` pairs: a message of that kind, with
    the sender's current local value, to chain ``(index + offset) % (n + 1)``
    (``_receivers`` says where in subclasses).
    ``remember`` records the value heard from the sender in a flat dict.
    ``decision`` is None, ``"0"``, ``"1"`` or ``"own"`` (commit exactly
    when the node's own local value is committed); a node decides once.
    Missing entries ignore the event.  A reaction reads nothing but the
    node's own record, its index and the event.
    """

    name = "table"

    def __init__(self, table: Mapping[tuple, tuple]) -> None:
        self.table = dict(table)

    def _react(self, node: NodeState, kind: str, sender: int, value: Any, n: int) -> list:
        entry = self.table.get((node.phase, kind))
        if entry is None:
            return []
        phase, sends, remember, decision = entry
        node.phase = phase
        if remember:
            node.memory.setdefault("heard", {})[sender] = value
        if decision is not None and node.decided is None:
            if decision == "own":
                decision = "1" if node.local_value is Value.ONE else "0"
            node.decide(Value.from_code(decision))
        return [
            (receiver, {"kind": sent, "value": node.local_value.value})
            for offset, sent in sends
            for receiver in self._receivers(node.index, offset, n)
        ]

    def _receivers(self, index: int, offset: int, n: int) -> list:
        return [(index + offset) % (n + 1)]

    def on_start(self, node: NodeState, n: int) -> list:
        return self._react(node, "start", node.index, None, n)

    def on_message(self, node: NodeState, sender: int, payload: Dict[str, Any], n: int) -> list:
        return self._react(node, payload["kind"], sender, payload["value"], n)


class StarTableProtocol(TableProtocol):
    """``TableProtocol`` whose sends go to the sender itself (offset 0) or
    to chain 0 (any other offset), declaring chains 1..n symmetric and
    ``heard`` keyed by chain: no message or record ties two of them."""

    name = "star-table"
    chain_keyed = ("heard",)

    def symmetric_chains(self, n: int) -> range:
        return range(1, n + 1)

    def _receivers(self, index: int, offset: int, n: int) -> list:
        return [index if offset == 0 else 0]


class MeshTableProtocol(StarTableProtocol):
    """``StarTableProtocol`` whose sends at a nonzero offset go to every
    other chain, so messages tie declared chains to each other."""

    name = "mesh-table"

    def _receivers(self, index: int, offset: int, n: int) -> list:
        return [index] if offset == 0 else [c for c in range(n + 1) if c != index]


_RANK_OF_CODE = {"0": 0, "1": 1, "bot": 2}


def vertex_key_oracle(vertex: Vertex) -> tuple:
    """Canonical order of a vertex, from its fields alone: colorless
    vertices first, then colored ones by chain, block and value, with
    values ordered 0 < 1 < bot."""
    rank = _RANK_OF_CODE[vertex.value.value]
    if vertex.block is None:
        return (0, rank)
    return (1, vertex.block.chain, vertex.block.block, rank)


def task_obj_oracle(task: Task) -> dict:
    """The JSON object of a task file, by a walk of its own: vertices as
    chain/block/value objects, each simplex and facet list sorted by
    ``vertex_key_oracle``, and one carrier entry per input simplex, by
    dimension and then vertex order."""

    def ordered(simplex: Simplex) -> list:
        return sorted(simplex.vertex_set, key=vertex_key_oracle)

    def key(simplex: Simplex) -> tuple:
        return tuple(vertex_key_oracle(v) for v in ordered(simplex))

    def vertex_obj(vertex: Vertex) -> dict:
        block = vertex.block
        return {
            "chain": None if block is None else block.chain,
            "block": None if block is None else block.block,
            "value": vertex.value.value,
        }

    def simplex_obj(simplex: Simplex) -> list:
        return [vertex_obj(v) for v in ordered(simplex)]

    def facets_obj(complex_: Complex) -> list:
        return [simplex_obj(f) for f in sorted(complex_.facets, key=key)]

    domain = sorted(task.input.simplices(), key=lambda s: (len(s.vertex_set), key(s)))
    return {
        "input": {"facets": facets_obj(task.input)},
        "output": {"facets": facets_obj(task.output)},
        "carrier": [
            {"simplex": simplex_obj(s), "image_facets": facets_obj(task.carrier[s])}
            for s in domain
        ],
        "colored": task.colored,
    }


# ---------------------------------------------------------------------------
# Toy task builders
# ---------------------------------------------------------------------------


def identity_task(complex_: Complex) -> Task:
    """Colored task asking each configuration to reproduce itself."""
    entries = {s: Complex([s]) for s in complex_.simplices()}
    return Task(input=complex_, output=complex_, carrier=CarrierMap(entries), colored=True)


def split_vote_task(input_complex: Complex, side_of: Mapping[Any, str]) -> Task:
    """Colorless task whose output is two isolated verdict vertices.

    Each input simplex is carried onto the single verdict chosen by its
    canonical first vertex, so any connected input using both verdicts
    admits an obstruction witness pair.
    """
    zero, one = free("0"), free("1")
    output = cx([zero], [one])
    verdict = {"0": Complex([Simplex([zero])]), "1": Complex([Simplex([one])])}
    entries = {}
    for s in input_complex.simplices():
        lead = min(s, key=lambda v: v.sort_key())
        entries[s] = verdict[side_of[lead]]
    return Task(
        input=input_complex, output=output, carrier=CarrierMap(entries), colored=False
    )


def random_connected_complex(rng, n_vertices: int, codes: str = "01") -> Complex:
    """Connected 2-dimensional complex: a triangle, a spanning path, extras."""
    assert n_vertices >= 3
    vertices = [vtx(i, rng.choice(codes)) for i in range(n_vertices)]
    facets: list[list] = [vertices[:3]]
    for i in range(n_vertices - 1):
        facets.append([vertices[i], vertices[i + 1]])
    for _ in range(rng.randrange(0, n_vertices)):
        i, j = rng.sample(range(n_vertices), 2)
        facets.append([vertices[i], vertices[j]])
    return cx(*facets)


def random_shared_mask_task(rng) -> Task:
    """Colored task on a random connected input whose output facets hold
    several vertices each, so many output vertices share a facet mask.

    Each input vertex allows a random set of output vertices, and a simplex
    is carried onto the output induced on the union of its vertices' sets,
    so the carrier map is monotonic and both verdicts occur.
    """
    inp = random_connected_complex(rng, rng.randint(3, 6))
    pool = [vtx(10 + i, rng.choice("01")) for i in range(rng.randint(3, 6))]
    output = cx(*(rng.sample(pool, rng.randint(2, 3)) for _ in range(rng.randint(2, 4))))
    allowed = {v: rng.sample(output.vertices, rng.randint(1, 2)) for v in inp.vertices}
    entries = {
        s: output.induced_subcomplex({w for v in s for w in allowed[v]})
        for s in inp.simplices()
    }
    return Task(input=inp, output=output, carrier=CarrierMap(entries), colored=True)


def random_induced_image_task(rng) -> Task:
    """``random_shared_mask_task`` with every carrier image redrawn as the
    output induced on a random vertex subset, each simplex on its own, so
    the carrier map is in general not monotonic."""
    base = random_shared_mask_task(rng)
    entries = {
        s: base.output.induced_subcomplex(rng.sample(base.output.vertices, rng.randint(1, 2)))
        for s in base.input.simplices()
    }
    return Task(input=base.input, output=base.output, carrier=CarrierMap(entries), colored=True)


def replace_image(task: Task, simplex: Simplex, image: Complex) -> Task:
    """Copy of ``task`` with one carrier image swapped out."""
    return replace_images(task, [simplex], image)


def replace_images(
    task: Task, simplices: Sequence[Simplex], image: Complex, shared: bool = True
) -> Task:
    """Copy of ``task`` with the carrier images of ``simplices`` swapped for
    ``image``: that one object, or each an equal complex of its own."""
    entries = {s: img for s, img in task.carrier.items()}
    for simplex in simplices:
        assert simplex in entries
        entries[simplex] = image if shared else Complex(image.facets)
    return Task(
        input=task.input,
        output=task.output,
        carrier=CarrierMap(entries),
        colored=task.colored,
    )
