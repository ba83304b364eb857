"""Connected components and reduced mod-2 homology of finite complexes.

Boundary matrices are stored as big-integer bitmasks, one integer per row,
so rank computation is exact Gaussian elimination over GF(2) with
machine-word XOR underneath.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from .errors import DimensionOutOfRange
from .simplicial import Complex, Simplex

__all__ = [
    "GF2Matrix",
    "boundary_matrix",
    "connected_components",
    "BettiReport",
    "reduced_betti",
]


@dataclass(frozen=True)
class GF2Matrix:
    """A binary matrix; ``rows[i]`` has bit ``j`` set when entry (i, j) is 1."""

    rows: Tuple[int, ...]
    n_cols: int
    row_labels: Tuple[Simplex, ...] = field(default=())
    col_labels: Tuple[Simplex, ...] = field(default=())

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def rank(self) -> int:
        """Rank over GF(2) by reduction against a pivot basis."""
        basis: Dict[int, int] = {}
        for row in self.rows:
            r = row
            while r:
                pivot = r.bit_length() - 1
                if pivot in basis:
                    r ^= basis[pivot]
                else:
                    basis[pivot] = r
                    break
        return len(basis)


def boundary_matrix(complex_: Complex, k: int) -> GF2Matrix:
    """The mod-2 boundary operator from k-simplices to (k-1)-simplices.

    Rows are indexed by (k-1)-simplices and columns by k-simplices, both in
    canonical order; entry (i, j) is 1 exactly when row simplex i is a face
    of column simplex j.
    """
    if k < 1 or k > complex_.dimension:
        raise DimensionOutOfRange(
            f"boundary matrix defined for 1 <= k <= {complex_.dimension}, got {k}"
        )
    row_simplices = complex_.simplices_of_dim(k - 1)
    col_simplices = complex_.simplices_of_dim(k)
    row_index = {s: i for i, s in enumerate(row_simplices)}
    rows = [0] * len(row_simplices)
    for j, s in enumerate(col_simplices):
        for face in s.boundary():
            rows[row_index[face]] |= 1 << j
    return GF2Matrix(tuple(rows), len(col_simplices), row_simplices, col_simplices)


def connected_components(complex_: Complex) -> Tuple[frozenset, ...]:
    """Partition of the vertex set by 1-skeleton reachability (union-find)."""
    parent: Dict[Any, Any] = {v: v for v in complex_.vertices}

    def find(v: Any) -> Any:
        root = v
        while parent[root] is not root:
            root = parent[root]
        while parent[v] is not root:
            parent[v], v = root, parent[v]
        return root

    for edge in complex_.simplices_of_dim(1):
        u, v = edge.vertices
        ru, rv = find(u), find(v)
        if ru is not rv:
            parent[ru] = rv
    groups: Dict[Any, set] = {}
    for v in complex_.vertices:
        groups.setdefault(find(v), set()).add(v)
    return tuple(
        sorted(
            (frozenset(g) for g in groups.values()),
            key=lambda g: min(v.sort_key() for v in g),
        )
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
    counts = [len(complex_.simplices_of_dim(k)) for k in range(up_to + 2)]
    ranks: Dict[int, int] = {}
    for k in range(1, up_to + 2):
        ranks[k] = boundary_matrix(complex_, k).rank() if k <= d else 0
    components = counts[0] - ranks[1]
    betti = [components - 1]
    for k in range(1, up_to + 1):
        betti.append(counts[k] - ranks[k] - ranks[k + 1])
    return BettiReport(tuple(betti), components)
