"""Distributed tasks as (input complex, output complex, carrier map) triples.

A carrier map assigns to every simplex of the input complex a subcomplex of
the output complex: the outputs permitted when exactly that set of
observations occurs.  The checks in this module verify the structural
properties a well-formed carrier map is expected to have and report a
concrete counterexample when one fails.  They run on masks: a task's carrier
map is one table on the task's numberings, an image number for each input
simplex mask and each distinct image as a tuple of facet masks on the
output's numbering, and ``Simplex`` objects are built only for a
counterexample.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Tuple

from .errors import BadResilience, InvalidTask, NotColored
from .simplicial import (
    BlockRef,
    Complex,
    Simplex,
    Value,
    Vertex,
    _bit_map,
    _bits,
    _maximal,
    _Numbering,
    _rank,
    _support,
    _within,
)

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
    """A total assignment of output subcomplexes to input simplices.

    A map is one numbered table: ``_ids`` maps each input simplex mask, on
    the numbering ``_in``, to an image number, and ``_images`` lists the
    images by number as tuples of facet masks on the numbering ``_out``,
    equal images under one number.  Whatever is done per image (the checks,
    the projection, the task writer's texts) is so done once per number.
    A map built from ``Simplex`` and ``Complex`` objects numbers their
    vertices itself; ``validate_for`` returns it renumbered onto a task's
    complexes, and a ``Task`` keeps that map.  No method changes a map
    once it is built.  Lookups and ``items()`` build the objects on demand,
    and equality does not depend on the numberings.
    """

    __slots__ = ("_in", "_out", "_ids", "_images")

    def __init__(self, entries: Mapping[Simplex, Complex]) -> None:
        entries = dict(entries)
        in_space = _Numbering.of(v for s in entries for v in s)
        out_space = _Numbering.of(v for image in entries.values() for v in image.vertices)
        number: Dict[Tuple[int, ...], int] = {}
        ids = {}
        for s, image in entries.items():
            renumber = image._space.to(out_space)
            facets = image._facets if renumber is None else tuple(map(renumber, image._facets))
            ids[in_space.mask(s)] = number.setdefault(facets, len(number))
        self._in, self._out, self._ids, self._images = in_space, out_space, ids, list(number)

    @classmethod
    def _of(
        cls, in_space: _Numbering, out_space: _Numbering,
        ids: Dict[int, int], images: List[Tuple[int, ...]],
    ) -> "CarrierMap":
        carrier = object.__new__(cls)
        carrier._in, carrier._out, carrier._ids, carrier._images = in_space, out_space, ids, images
        return carrier

    def _image(self, simplex: int) -> Tuple[int, ...]:
        """The facet masks of the image of the input simplex mask ``simplex``."""
        return self._images[self._ids[simplex]]

    def _on(self, in_space: _Numbering, out_space: _Numbering) -> "CarrierMap":
        """The map on other numberings, or itself when it is on them
        already; a vertex one of them lacks becomes a bit past its end."""
        keys = self._in.to(in_space)
        facets = self._out.to(out_space)
        if keys is None and facets is None:
            return self
        ids = self._ids if keys is None else {keys(s): k for s, k in self._ids.items()}
        images = self._images
        if facets is not None:
            images = [tuple(map(facets, image)) for image in images]
        return CarrierMap._of(in_space, out_space, ids, images)

    def __getitem__(self, simplex: Simplex) -> Complex:
        return Complex._of(self._out, self._image(self._in.mask(simplex)))

    def __contains__(self, simplex: Simplex) -> bool:
        try:
            return self._in.mask(simplex) in self._ids
        except KeyError:
            return False

    def __len__(self) -> int:
        return len(self._ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CarrierMap):
            return NotImplemented
        other = other._on(self._in, self._out)
        return self._ids.keys() == other._ids.keys() and all(
            self._images[k] == other._image(s) for s, k in self._ids.items()
        )

    def items(self) -> Iterator[tuple[Simplex, Complex]]:
        for s in sorted(self._ids, key=_rank):
            yield self._in.simplex(s), Complex._of(self._out, self._image(s))

    def validate_for(self, input_complex: Complex, output_complex: Complex) -> "CarrierMap":
        """The map on the two complexes' numberings, or InvalidTask unless
        it is total on the input and lands in the output.

        The map itself is returned when it is on those numberings already,
        and it is never changed.  Each image is tested against the output
        once, and a bad one is named by the first entry, in the map's own
        order, that has it.
        """
        in_space, out_space = input_complex._space, output_complex._space
        carrier = self._on(in_space, out_space)
        ids = carrier._ids
        expected = set().union(*input_complex._masks().values())
        missing = expected.difference(ids)
        if missing:
            example = in_space.simplex(min(missing, key=_rank))
            raise InvalidTask(f"carrier map has no entry for input simplex {example}")
        if len(self._ids) != len(expected):
            keys = self._in.to(in_space) or (lambda s: s)
            extra = [s for s in self._ids if keys(s) not in expected]
            example = self._in.simplex(min(extra, key=_rank))
            raise InvalidTask(f"carrier map entry for foreign simplex {example}")
        output = output_complex._facets
        bad = {k for k, image in enumerate(carrier._images) if not _within(image, output)}
        if bad:
            for s, k in ids.items():
                if k in bad:
                    raise InvalidTask(
                        f"carrier image of {in_space.simplex(s)} is not a subcomplex of the output"
                    )
        return carrier


@dataclass(frozen=True, eq=True)
class Task:
    """An input complex, an output complex, and the carrier map between them.

    ``colored`` distinguishes the two vertex conventions: colored tasks label
    every vertex with a block identity on both sides, colorless tasks strip
    the identities from output vertices.  The task keeps the map
    ``validate_for`` returns, so ``carrier`` is on the input's and the
    output's numberings.
    """

    input: Complex
    output: Complex
    carrier: CarrierMap
    colored: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "carrier", self.carrier.validate_for(self.input, self.output))
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

    @classmethod
    def _derived(
        cls, input: Complex, output: Complex, carrier: CarrierMap, colored: bool
    ) -> "Task":
        """A task valid by construction from a valid one, not validated again."""
        task = object.__new__(cls)
        for name, value in (("input", input), ("output", output), ("carrier", carrier),
                            ("colored", colored)):
            object.__setattr__(task, name, value)
        return task

    def _simplices(self) -> Iterator[int]:
        """The input simplex masks in canonical (dimension, key) order."""
        for layer in self.input._masks().values():
            yield from layer

    def __hash__(self) -> int:
        return hash((self.input, self.output, self.colored))


def verify_monotonic(task: Task) -> PropertyCheck:
    """Check that faces are carried into the carriers of their cofaces.

    Every proper face is reached through a chain of codimension-1 faces and
    inclusion is transitive, so only those are compared, each one the
    coface's mask less one bit; a counterexample is a codimension-1 pair
    ``(face, coface)``.  Cofaces are visited in canonical order and their
    faces last vertex dropped first (the order of ``Simplex.boundary``), so
    the counterexample is the first such pair.  Images are compared by
    number, once per distinct pair: an int bitset per coface image holds
    the face images found within it.
    """
    ids, distinct = task.carrier._ids, task.carrier._images
    within = [0] * len(distinct)
    for simplex in task._simplices():
        k = ids[simplex]
        known = within[k]
        bits = _bits(simplex)
        for i in reversed(bits if len(bits) > 1 else ()):
            face = simplex ^ 1 << i
            j = ids[face]
            if known >> j & 1:
                continue
            if not _within(distinct[j], distinct[k]):
                space = task.input._space
                face_s, simplex_s = space.simplex(face), space.simplex(simplex)
                return PropertyCheck(
                    name="monotonic",
                    ok=False,
                    counterexample=(face_s, simplex_s),
                    detail=f"carrier of face {face_s} is not contained in carrier of {simplex_s}",
                )
            known = within[k] = known | 1 << j
    return PropertyCheck(name="monotonic", ok=True)


def verify_rigid(task: Task) -> PropertyCheck:
    """Check that every carrier image has the simplex's own dimension,
    taken once per distinct image."""
    ids, distinct = task.carrier._ids, task.carrier._images
    dims = [max(map(int.bit_count, image)) - 1 for image in distinct]
    for simplex in task._simplices():
        dim = simplex.bit_count() - 1
        image_dim = dims[ids[simplex]]
        if image_dim != dim:
            simplex_s = task.input._space.simplex(simplex)
            return PropertyCheck(
                name="rigid",
                ok=False,
                counterexample=(simplex_s,),
                detail=f"carrier of {simplex_s} has dimension {image_dim}, expected {dim}",
            )
    return PropertyCheck(name="rigid", ok=True)


def verify_name_preserving(task: Task) -> PropertyCheck:
    """Check that carrier images mention exactly the blocks of their simplex.

    Blocks are numbered too, and a per-bit table maps a simplex or an
    image's vertex mask to the mask of the blocks it names, once per
    distinct image.
    """
    if not task.colored:
        raise NotColored("name preservation is defined for colored tasks only")
    ids, distinct = task.carrier._ids, task.carrier._images
    block_bit: Dict[BlockRef, int] = {}

    def names(complex_: Complex) -> Callable[[int], int]:
        return _bit_map([
            block_bit.setdefault(v.block, 1 << len(block_bit)) if complex_._support >> i & 1
            else 0
            for i, v in enumerate(complex_._space.vertices)
        ])

    names_in, names_out = names(task.input), names(task.output)
    named = [names_out(_support(image)) for image in distinct]
    for simplex in task._simplices():
        if names_in(simplex) == named[ids[simplex]]:
            continue
        simplex_s = task.input._space.simplex(simplex)
        blocks = {v.block for v in simplex_s}
        image_blocks = {v.block for v in task.carrier[simplex_s].vertices}
        return PropertyCheck(
            name="name_preserving",
            ok=False,
            counterexample=(simplex_s,),
            detail=(
                f"carrier of {simplex_s} mentions blocks "
                f"{sorted(str(b) for b in image_blocks)}, expected "
                f"{sorted(str(b) for b in blocks)}"
            ),
        )
    return PropertyCheck(name="name_preserving", ok=True)


def restrict_to_skeleton(task: Task, t: int) -> Task:
    """The same task with the input cut down to its t-skeleton.

    The skeleton shares the input's numbering and the restricted map keeps
    the entries of at most t + 1 vertices and shares the image list, so the
    result is valid by construction and not validated again.
    """
    if t < 1 or t > task.input.dimension:
        raise BadResilience(
            f"skeleton restriction needs 1 <= t <= {task.input.dimension}, got {t}"
        )
    skeleton = task.input.skeleton(t)
    carrier = task.carrier
    ids = {s: k for s, k in carrier._ids.items() if s.bit_count() <= t + 1}
    restricted = CarrierMap._of(carrier._in, carrier._out, ids, carrier._images)
    return Task._derived(skeleton, task.output, restricted, task.colored)


def colorless_projection(task: Task) -> Task:
    """Strip block identities from the output side of a colored task.

    Output vertices keep only their value, distinct simplices that collapse
    onto the same projected simplex are merged, and every distinct carrier
    image is projected once, vertex-wise, through a per-bit table onto the
    numbering of the projected vertices; images that project alike share a
    number, and each distinct projected tuple is cut to its maximal facets
    once.  The input complex is left untouched.  The result is valid by
    construction and not validated again.
    """
    if not task.colored:
        raise NotColored("task is already colorless")
    ids, distinct = task.carrier._ids, task.carrier._images
    output = task.output
    support = output._support
    vertices = output._space.vertices
    projected = {i: Vertex(None, vertices[i].value) for i in _bits(support)}
    space = _Numbering.of(projected.values())
    project = _bit_map([
        space.bit[projected[i]] if i in projected else 0 for i in range(len(vertices))
    ])
    number: Dict[Tuple[int, ...], int] = {}
    # Many images project onto one vertex-wise tuple, which is cut to its
    # maximal facets once.
    by_projection: Dict[Tuple[int, ...], int] = {}
    moved = []
    for image in distinct:
        projected = tuple(map(project, image))
        k = by_projection.get(projected)
        if k is None:
            k = by_projection[projected] = number.setdefault(_maximal(projected), len(number))
        moved.append(k)
    ids = {s: moved[k] for s, k in ids.items()}
    return Task._derived(
        task.input,
        Complex._of(space, _maximal(map(project, output._facets))),
        CarrierMap._of(task.input._space, space, ids, list(number)),
        False,
    )
