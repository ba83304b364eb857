"""Deciding task solvability under bounded crash resilience.

Two complementary engines: a connectivity obstruction that certifies
unsolvability outright, and an exhaustive backtracking search for a carried
simplicial map from an iterated barycentric subdivision of the restricted
input into the output complex.  When the carrier map is monotonic, absence
of such a map at depth N also rules out every smaller depth, and an exhausted
search is reported as holding up to the depth it ran at; otherwise it is
reported for depth N alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Tuple

from .connectivity import connected_components
from .errors import NotColored, ResourceBound, _require_int, check_resilience
from .simplicial import Simplex, Vertex, _bits, _support, barycentric_subdivide
from .tasks import Task, colorless_projection, restrict_to_skeleton, verify_monotonic

__all__ = [
    "Verdict",
    "SolvabilityReport",
    "connectivity_obstruction",
    "search_carried_simplicial_map",
    "decide",
    "DEFAULT_NODE_BUDGET",
]

DEFAULT_NODE_BUDGET = 10_000_000


class Verdict(Enum):
    UNSOLVABLE_BY_OBSTRUCTION = "unsolvable_by_obstruction"
    NO_MAP_UP_TO_DEPTH = "no_map_up_to_depth"
    MAP_FOUND = "map_found"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SolvabilityReport:
    """Verdict plus the evidence that backs it.

    ``witnesses`` holds a pair of input simplices whose carriers land in
    distinct output components when the obstruction fires; ``assignment``
    holds the vertex map when the search succeeds.
    """

    verdict: Verdict
    n: int
    t: int
    depth: int | None = None
    input_components: int | None = None
    output_components: int | None = None
    skeleton_betti0: int | None = None
    witnesses: Tuple[Simplex, Simplex] | None = None
    witness_components: Tuple[int, int] | None = None
    assignment: Tuple[Tuple[Any, Vertex], ...] | None = None
    nodes_explored: int = 0
    note: str = ""

    def __post_init__(self) -> None:
        if self.verdict is Verdict.UNSOLVABLE_BY_OBSTRUCTION:
            if self.witnesses is None or self.skeleton_betti0 is None:
                raise ValueError("obstruction verdicts must carry witnesses and a certificate")
        if self.verdict is Verdict.MAP_FOUND and self.assignment is None:
            raise ValueError("map verdicts must carry the vertex assignment")


def connectivity_obstruction(task: Task, t: int) -> SolvabilityReport:
    """Certify unsolvability from a connected input facing a split output.

    When the t-skeleton of the input is path-connected, the output complex
    is disconnected, and two input simplices are carried into different
    output components, no continuous (hence no simplicial) decision map can
    exist; the report then names that witness pair.  Anything short of that
    pattern yields an inconclusive report.
    """
    if task.colored:
        raise NotColored("the obstruction check expects a colorless task")
    n = task.input.dimension
    check_resilience(n, t, allow_zero=False)
    restricted = restrict_to_skeleton(task, t)
    input_parts = connected_components(restricted.input)
    output_parts = connected_components(task.output)
    base = dict(
        n=n,
        t=t,
        input_components=len(input_parts),
        output_components=len(output_parts),
        skeleton_betti0=len(input_parts) - 1,
    )
    if len(input_parts) != 1:
        return SolvabilityReport(
            verdict=Verdict.INCONCLUSIVE,
            note="input skeleton is not connected",
            **base,
        )
    if len(output_parts) < 2:
        return SolvabilityReport(
            verdict=Verdict.INCONCLUSIVE,
            note="output complex is connected",
            **base,
        )
    out_space = task.output._space
    part_masks = [out_space.mask(part) for part in output_parts]
    image = restricted.carrier._image
    found: list[tuple[int, int]] = []
    for simplex in restricted._simplices():
        support = _support(image(simplex))
        touched = [c for c, part in enumerate(part_masks) if support & part]
        if len(touched) == 1 and all(c != touched[0] for c, _ in found):
            found.append((touched[0], simplex))
            if len(found) == 2:
                break
    if len(found) < 2:
        return SolvabilityReport(
            verdict=Verdict.INCONCLUSIVE,
            note="no simplex pair is carried into distinct output components",
            **base,
        )
    (comp_a, mask_a), (comp_b, mask_b) = found
    witness_a, witness_b = map(restricted.input._space.simplex, (mask_a, mask_b))
    return SolvabilityReport(
        verdict=Verdict.UNSOLVABLE_BY_OBSTRUCTION,
        witnesses=(witness_a, witness_b),
        witness_components=(comp_a, comp_b),
        note=(
            "connected input skeleton cannot map into a disconnected output: "
            f"{witness_a} is carried into component {comp_a} while "
            f"{witness_b} is carried into component {comp_b}"
        ),
        **base,
    )


def search_carried_simplicial_map(
    task: Task, t: int, depth: int, *, node_budget: int | None = None
) -> SolvabilityReport:
    """Exhaustive search for a carried simplicial map at subdivision depth N.

    The input is restricted to its t-skeleton and subdivided N times.  The
    search assigns an output vertex to every subdivision vertex so that each
    vertex lands inside the carrier of the simplex it subdivides and every
    subdivided facet maps onto a simplex of the output.  Output vertices that
    lie in exactly the same output facets are interchangeable, so each domain
    keeps one vertex per such class, the first in the carrier's canonical
    order; verdicts do not depend on this and any map found is valid.
    Vertices are processed smallest domain first; each attempted value class
    counts as one node against the node budget.

    A map at depth k gives one at depth k + 1 only through a monotonic
    carrier map, so an exhausted search claims the smaller depths too
    ("or below" in its note) only when the restricted map is monotonic.

    The search reads only the carrier entries of simplices of dimension at
    most t.  ``cbtopo search`` therefore loads only those from its file
    (``task_from_obj`` with a dimension cap), and runs the same search on
    the task it gets.
    """
    n = task.input.dimension
    check_resilience(n, t, allow_zero=False)
    return _search(restrict_to_skeleton(task, t), n, t, depth, node_budget)


def _search(
    restricted: Task, n: int, t: int, depth: int, node_budget: int | None
) -> SolvabilityReport:
    """``search_carried_simplicial_map`` on the task restricted to the
    t-skeleton of an input of dimension n, with t already checked.

    Each subdivided facet keeps a mask of the output facets that could
    still hold its image.  Every narrowing of a mask goes onto one trail as
    (facet id, old mask), and every placed vertex onto ``placed`` as (value
    index, trail length before it).  Each step first unwinds the trail to
    the current mark, the one place where masks are restored.
    """
    _require_int(depth, 0, "subdivision depth")
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    _require_int(budget, 1, "node budget")
    subdivided = barycentric_subdivide(restricted.input, depth)
    carriers = subdivided.carriers
    image = restricted.carrier._image
    output = restricted.output
    output_facets = output._facets
    all_facets_mask = (1 << len(output_facets)) - 1
    # Vertices are numbers: u of the subdivision, w of the output.
    vertex_bit = {
        w: sum(1 << i for i, f in enumerate(output_facets) if f >> w & 1)
        for w in _bits(output._support)
    }
    sub_facets = subdivided.facets
    incidence: Dict[int, list[int]] = {}
    for fid, facet in enumerate(sub_facets):
        for u in facet:
            incidence.setdefault(u, []).append(fid)
    # Value interchangeability (Freuder, AAAI 1991): one vertex per mask.
    class_reps: Dict[int, tuple] = {}
    for carrier in {carriers[u] for u in incidence}:
        first_of_mask: Dict[int, int] = {}
        for w in _bits(_support(image(carrier))):
            first_of_mask.setdefault(vertex_bit[w], w)
        class_reps[carrier] = tuple(first_of_mask.values())
    domains = {u: class_reps[carriers[u]] for u in incidence}
    order = sorted(incidence, key=lambda u: (len(domains[u]), u))

    candidates = [all_facets_mask] * len(sub_facets)
    trail: list[tuple[int, int]] = []  # (facet id, old mask) per narrowing
    placed: list[tuple[int, int]] = []  # (value index, trail mark) per vertex
    mark = index = nodes = 0
    while True:
        while len(trail) > mark:
            fid, old = trail.pop()
            candidates[fid] = old
        if len(placed) == len(order):
            sub_vertices = subdivided.complex._space.vertices
            out_vertices = output._space.vertices
            assignment = tuple(
                (sub_vertices[u], out_vertices[domains[u][i]])
                for u, (i, _) in sorted(zip(order, placed))
            )
            return SolvabilityReport(
                verdict=Verdict.MAP_FOUND,
                n=n,
                t=t,
                depth=depth,
                assignment=assignment,
                nodes_explored=nodes,
                note=f"carried simplicial map found at subdivision depth {depth}",
            )
        u = order[len(placed)]
        if index == len(domains[u]):
            if not placed:
                note = f"no carried simplicial map exists at subdivision depth {depth}"
                if verify_monotonic(restricted).ok:
                    note += " or below"
                else:
                    note += "; the carrier map is not monotonic, so smaller depths are not covered"
                return SolvabilityReport(
                    verdict=Verdict.NO_MAP_UP_TO_DEPTH,
                    n=n,
                    t=t,
                    depth=depth,
                    nodes_explored=nodes,
                    note=note,
                )
            index, mark = placed.pop()
            index += 1
            continue
        nodes += 1
        if nodes > budget:
            raise ResourceBound(
                f"carried-map search exceeded the node budget of {budget}",
                explored=nodes,
            )
        w_mask = vertex_bit[domains[u][index]]
        for fid in incidence[u]:
            new_mask = candidates[fid] & w_mask
            if new_mask == 0:
                index += 1
                break
            if new_mask != candidates[fid]:
                trail.append((fid, candidates[fid]))
                candidates[fid] = new_mask
        else:
            placed.append((index, mark))
            mark, index = len(trail), 0


def decide(task: Task, t: int, max_depth: int) -> SolvabilityReport:
    """Combine the obstruction with searches at increasing subdivision depth.

    Colored tasks are projected to their colorless form first.  The
    obstruction verdict is final when it fires; otherwise the search runs at
    depths 0..max_depth and the first map found wins.

    For a monotonic carrier map, a map at depth k gives one at every deeper
    depth, so a single search at ``max_depth`` would settle a negative answer
    alone.  The loop stays for positive answers: a map found at a shallow
    depth costs no subdivision beyond it, where one search at ``max_depth``
    would subdivide the whole skeleton ``max_depth`` times first.
    """
    _require_int(max_depth, 0, "maximum depth")
    if task.colored:
        task = colorless_projection(task)
    report = connectivity_obstruction(task, t)
    if report.verdict is Verdict.UNSOLVABLE_BY_OBSTRUCTION:
        return report
    last = report
    for depth in range(max_depth + 1):
        last = search_carried_simplicial_map(task, t, depth)
        if last.verdict is Verdict.MAP_FOUND:
            return last
    return last
