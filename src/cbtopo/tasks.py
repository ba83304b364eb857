"""Distributed tasks as (input complex, output complex, carrier map) triples.

A carrier map assigns to every simplex of the input complex a subcomplex of
the output complex: the outputs permitted when exactly that set of
observations occurs.  The checks in this module verify the structural
properties a well-formed carrier map is expected to have and report a
concrete counterexample when one fails.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Tuple

from .errors import BadResilience, InvalidTask, NotColored
from .simplicial import Complex, Simplex, Value, Vertex, make_complex

__all__ = [
    "CarrierMap",
    "Task",
    "PropertyCheck",
    "verify_monotonic",
    "verify_rigid",
    "verify_name_preserving",
    "restrict_to_skeleton",
    "colorless_projection",
]


@dataclass(frozen=True)
class PropertyCheck:
    """Outcome of one structural check; truthy exactly when the check passed."""

    name: str
    ok: bool
    counterexample: tuple | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


class CarrierMap:
    """A total assignment of output subcomplexes to input simplices."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[Simplex, Complex]) -> None:
        self._entries: Dict[Simplex, Complex] = dict(entries)

    def __getitem__(self, simplex: Simplex) -> Complex:
        return self._entries[simplex]

    def __contains__(self, simplex: Simplex) -> bool:
        return simplex in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CarrierMap):
            return NotImplemented
        return self._entries == other._entries

    def domain(self) -> Tuple[Simplex, ...]:
        return tuple(sorted(self._entries, key=lambda s: (s.dim, s.sort_key())))

    def items(self) -> Iterator[tuple[Simplex, Complex]]:
        for s in self.domain():
            yield s, self._entries[s]

    def validate_for(self, input_complex: Complex, output_complex: Complex) -> None:
        """Raise InvalidTask unless the map is total and lands in the output."""
        domain = set(self._entries)
        expected = set(input_complex.simplices())
        missing = expected - domain
        if missing:
            example = min(missing, key=lambda s: (s.dim, s.sort_key()))
            raise InvalidTask(f"carrier map has no entry for input simplex {example}")
        extra = domain - expected
        if extra:
            example = min(extra, key=lambda s: (s.dim, s.sort_key()))
            raise InvalidTask(f"carrier map entry for foreign simplex {example}")
        for s, image in self._entries.items():
            if not output_complex.contains_complex(image):
                raise InvalidTask(f"carrier image of {s} is not a subcomplex of the output")


@dataclass(frozen=True, eq=True)
class Task:
    """An input complex, an output complex, and the carrier map between them.

    ``colored`` distinguishes the two vertex conventions: colored tasks label
    every vertex with a block identity on both sides, colorless tasks strip
    the identities from output vertices.
    """

    input: Complex
    output: Complex
    carrier: CarrierMap
    colored: bool

    def __post_init__(self) -> None:
        self.carrier.validate_for(self.input, self.output)
        for v in self.output.vertices:
            if isinstance(v, Vertex) and v.value is Value.BOTTOM:
                raise InvalidTask("output vertices must not carry the suspended value")
        if self.colored:
            for v in (*self.input.vertices, *self.output.vertices):
                if not isinstance(v, Vertex) or v.block is None:
                    raise InvalidTask("colored tasks need block-labeled vertices on both sides")
        else:
            for v in self.output.vertices:
                if not isinstance(v, Vertex) or v.block is not None:
                    raise InvalidTask("colorless tasks need unlabeled output vertices")

    def __hash__(self) -> int:
        return hash((self.input, self.output, self.colored))


def verify_monotonic(task: Task) -> PropertyCheck:
    """Check that faces are carried into the carriers of their cofaces.

    Every proper face is reached through a chain of codimension-1 faces and
    inclusion is transitive, so only those are compared; a counterexample is
    a codimension-1 pair ``(face, coface)``.
    """
    for simplex in task.input.simplices():
        image = task.carrier[simplex]
        for face in simplex.boundary():
            face_image = task.carrier[face]
            if not image.contains_complex(face_image):
                return PropertyCheck(
                    name="monotonic",
                    ok=False,
                    counterexample=(face, simplex),
                    detail=f"carrier of face {face} is not contained in carrier of {simplex}",
                )
    return PropertyCheck(name="monotonic", ok=True)


def verify_rigid(task: Task) -> PropertyCheck:
    """Check that every carrier image has the simplex's own dimension."""
    for simplex in task.input.simplices():
        image = task.carrier[simplex]
        if image.dimension != simplex.dim:
            return PropertyCheck(
                name="rigid",
                ok=False,
                counterexample=(simplex,),
                detail=(
                    f"carrier of {simplex} has dimension {image.dimension}, "
                    f"expected {simplex.dim}"
                ),
            )
    return PropertyCheck(name="rigid", ok=True)


def verify_name_preserving(task: Task) -> PropertyCheck:
    """Check that carrier images mention exactly the blocks of their simplex."""
    if not task.colored:
        raise NotColored("name preservation is defined for colored tasks only")
    for simplex in task.input.simplices():
        names = {v.block for v in simplex}
        image_names = {v.block for v in task.carrier[simplex].vertices}
        if names != image_names:
            return PropertyCheck(
                name="name_preserving",
                ok=False,
                counterexample=(simplex,),
                detail=(
                    f"carrier of {simplex} mentions blocks "
                    f"{sorted(str(b) for b in image_names)}, expected "
                    f"{sorted(str(b) for b in names)}"
                ),
            )
    return PropertyCheck(name="name_preserving", ok=True)


def restrict_to_skeleton(task: Task, t: int) -> Task:
    """The same task with the input cut down to its t-skeleton."""
    if t < 1 or t > task.input.dimension:
        raise BadResilience(
            f"skeleton restriction needs 1 <= t <= {task.input.dimension}, got {t}"
        )
    skeleton = task.input.skeleton(t)
    entries = {s: task.carrier[s] for s in skeleton.simplices()}
    return Task(
        input=skeleton,
        output=task.output,
        carrier=CarrierMap(entries),
        colored=task.colored,
    )


def _project_vertex(vertex: Vertex) -> Vertex:
    return Vertex(block=None, value=vertex.value)


def _project_complex(complex_: Complex) -> Complex:
    return make_complex(
        [{_project_vertex(v) for v in facet} for facet in complex_.facets]
    )


def colorless_projection(task: Task) -> Task:
    """Strip block identities from the output side of a colored task.

    Output vertices keep only their value, distinct simplices that collapse
    onto the same projected simplex are merged, and every carrier image is
    projected vertex-wise.  The input complex is left untouched.
    """
    if not task.colored:
        raise NotColored("task is already colorless")
    output = _project_complex(task.output)
    entries = {s: _project_complex(image) for s, image in task.carrier.items()}
    return Task(input=task.input, output=output, carrier=CarrierMap(entries), colored=False)
