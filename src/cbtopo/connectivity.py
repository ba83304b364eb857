"""Connected components and reduced mod-2 Betti numbers of finite complexes.

Both read a complex's simplices as masks on its vertex numbering.  The
Betti numbers come from boundary ranks: each boundary row is a big-integer
bitmask, so the rank is exact Gaussian elimination over GF(2) with
machine-word XOR underneath.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .errors import DimensionOutOfRange
from .simplicial import Complex, _bits

__all__ = [
    "connected_components",
    "BettiReport",
    "reduced_betti",
]


def _rank(rows: list[int]) -> int:
    """Rank over GF(2) of bit rows, by reduction against a pivot basis."""
    basis: Dict[int, int] = {}
    for row in rows:
        while row:
            pivot = row.bit_length() - 1
            if pivot not in basis:
                basis[pivot] = row
                break
            row ^= basis[pivot]
    return len(basis)


def _boundary_rows(complex_: Complex, k: int) -> list[int]:
    """Rows of the mod-2 boundary operator from k-simplices to
    (k-1)-simplices, both in canonical order: a k-simplex's faces are its
    mask less one bit."""
    layers = complex_._masks()
    row_index = {s: i for i, s in enumerate(layers[k - 1])}
    rows = [0] * len(row_index)
    for j, s in enumerate(layers[k]):
        for i in _bits(s):
            rows[row_index[s ^ (1 << i)]] |= 1 << j
    return rows


def connected_components(complex_: Complex) -> Tuple[frozenset, ...]:
    """Partition of the vertex set by 1-skeleton reachability.

    Two vertices of one facet are joined by its edges, so each component is
    a union of facet masks: every facet merges the parts it meets.  Parts
    are ordered by their first vertex, the lowest bit of the numbering.
    """
    parts: list[int] = []
    for f in complex_._facets:
        merged = f
        apart = []
        for part in parts:
            if part & f:
                merged |= part
            else:
                apart.append(part)
        apart.append(merged)
        parts = apart
    vertices = complex_._space.vertices
    return tuple(
        frozenset(vertices[i] for i in _bits(part))
        for part in sorted(parts, key=lambda part: part & -part)
    )


@dataclass(frozen=True)
class BettiReport:
    """Reduced mod-2 Betti numbers b~_0..b~_k plus the component count."""

    reduced_betti: Tuple[int, ...]
    components: int

    def __post_init__(self) -> None:
        if self.reduced_betti and self.reduced_betti[0] != self.components - 1:
            raise ValueError("reduced b_0 must equal component count minus one")


def reduced_betti(complex_: Complex, up_to: int) -> BettiReport:
    """Reduced Betti numbers over GF(2) in dimensions 0..up_to.

    Computed from boundary ranks: b~_k = f_k - rank d_k - rank d_{k+1},
    with the augmentation map accounting for the reduction in degree 0.
    """
    d = complex_.dimension
    if up_to < 0 or up_to > d:
        raise DimensionOutOfRange(f"betti range must satisfy 0 <= up_to <= {d}, got {up_to}")
    layers = complex_._masks()
    counts = [len(layers.get(k, ())) for k in range(up_to + 2)]
    ranks = {k: _rank(_boundary_rows(complex_, k)) if k <= d else 0 for k in range(1, up_to + 2)}
    components = counts[0] - ranks[1]
    betti = [components - 1]
    for k in range(1, up_to + 1):
        betti.append(counts[k] - ranks[k] - ranks[k + 1])
    return BettiReport(tuple(betti), components)
