"""The cross-chain transaction task family.

One transaction spans n+1 chains.  Each chain contributes a single vertex
whose value records what happened to its local leg: not committed, locally
committed, or invalidated because the containing branch was suspended by a
fork.  The output side records the global verdict: every chain must end up
with the same all-abort or all-commit decision, and a suspended leg forces
the all-abort verdict.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .simplicial import BlockRef, Complex, Value, Vertex, _bits, _Numbering
from .tasks import CarrierMap, Task, colorless_projection

__all__ = [
    "CbtConfig",
    "build_input_complex",
    "build_output_complex",
    "build_carrier_map",
    "build_task",
    "build_colorless_task",
]

_INPUT_VALUES = (Value.ZERO, Value.ONE, Value.BOTTOM)


@dataclass(frozen=True)
class CbtConfig:
    """Parameters of one task instance: n+1 chains, one block per chain."""

    n: int
    block_index: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("the task needs at least two chains (n >= 1)")
        if self.block_index < 0:
            raise ValueError("block index must be non-negative")

    def block(self, chain: int) -> BlockRef:
        return BlockRef(chain=chain, block=self.block_index)


def _numbering(config: CbtConfig) -> _Numbering:
    """The input vertices in canonical order, chain by chain with values
    0 < 1 < bot, so chain c's vertex of value rank r is bit 3c + r.  The
    output vertices are among them, so input, output and carrier images
    share this numbering."""
    return _Numbering(
        Vertex(config.block(chain), value)
        for chain in range(config.n + 1)
        for value in _INPUT_VALUES
    )


def _legs(n: int, rank: int) -> int:
    """The mask of every chain's vertex of value rank ``rank``."""
    return sum(1 << (3 * chain + rank) for chain in range(n + 1))


def _per_chain(n: int, ranks: Iterable[int | None]) -> list[int]:
    """Every mask with, on each chain, the vertex of one rank in ``ranks``
    (none for None), with the rank tuples in lexicographic order."""
    masks = [0]
    for chain in range(n + 1):
        masks = [
            m | (0 if rank is None else 1 << (3 * chain + rank)) for m in masks for rank in ranks
        ]
    return masks


def build_input_complex(config: CbtConfig) -> Complex:
    """All assignments of a value to each chain; facets pick one per chain.

    The complex has 3(n+1) vertices and 3^(n+1) facets of dimension n; a
    vertex set spans a simplex exactly when its chains are pairwise distinct.
    """
    return Complex._of(_numbering(config), tuple(_per_chain(config.n, (0, 1, 2))))


def build_output_complex(config: CbtConfig) -> Complex:
    """Two facets: the all-abort simplex and the all-commit simplex."""
    n = config.n
    return Complex._of(_numbering(config), (_legs(n, 0), _legs(n, 1)))


def build_carrier_map(config: CbtConfig) -> CarrierMap:
    """The image of each input simplex: the output induced on the vertices
    the simplex allows.

    Three base rules drive the image: all legs locally committed allows only
    the commit verdict; a suspended leg forces the abort verdict; a mix of
    committed and uncommitted legs leaves both verdicts open.  Every face of
    the simplex is a possible partial view of the same transaction, so the
    image must also keep whatever the base rules allow on each face —
    otherwise narrowing attention to a sub-view could *widen* the verdict
    set, and the map would not be monotonic.  Accumulating the base rules
    over all faces collapses to a closed form:

    - every leg committed: commit vertices only, one per chain;
    - otherwise: an abort vertex for every chain, plus a commit vertex for
      every chain whose leg was not suspended (its singleton face still
      allows commit).

    On masks the commit vertices of a committed simplex are the simplex
    itself, and a leg's abort and commit vertices are its bit shifted down
    to rank 0 and then up to rank 1.  The output induced on the allowed
    vertices has as facets the allowed abort vertices and the allowed
    commit vertices, whichever are not empty: two disjoint masks, neither
    inside the other.  Each distinct image is built once.
    """
    n = config.n
    space = _numbering(config)
    zero, one, bottom = _legs(n, 0), _legs(n, 1), _legs(n, 2)
    images = {}
    by_allowed = {}
    # Every input simplex: each chain absent or at one value, not all absent.
    for simplex in _per_chain(n, (None, 0, 1, 2))[1:]:
        if simplex & one == simplex:
            allowed = simplex
        else:
            live = simplex & zero | (simplex & one) >> 1
            allowed = live | (simplex & bottom) >> 2 | live << 1
        image = by_allowed.get(allowed)
        if image is None:
            facets = (m for m in (allowed & zero, allowed & one) if m)
            image = by_allowed[allowed] = tuple(sorted(facets, key=_bits))
        images[simplex] = image
    return CarrierMap._of(space, space, images)


def build_task(config: CbtConfig) -> Task:
    return Task(
        input=build_input_complex(config),
        output=build_output_complex(config),
        carrier=build_carrier_map(config),
        colored=True,
    )


def build_colorless_task(config: CbtConfig) -> Task:
    """The task with output block identities stripped, for solvability checks."""
    return colorless_projection(build_task(config))
