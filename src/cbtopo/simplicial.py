"""Finite abstract simplicial complexes with canonical ordering.

A complex is stored as its set of inclusion-maximal facets and answers every
membership question from them: a simplex belongs to the complex when its
vertex set is a subset of some facet's.  Simplices are enumerated, lazily and
once, only when a caller asks for them by dimension.  Every vertex kind
exposes a ``sort_key`` so that simplices, facet lists, and iteration orders
are total and reproducible across runs.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Iterable, Iterator, Mapping, Tuple

from .errors import DimensionOutOfRange, EmptyInput, MalformedSimplex, UnknownVertex

__all__ = [
    "Value",
    "BlockRef",
    "Vertex",
    "SubdivisionVertex",
    "Simplex",
    "Complex",
    "make_complex",
    "SubdivisionResult",
    "barycentric_subdivide",
]


class Value(Enum):
    """Per-chain observation attached to a vertex.

    ZERO marks a local transaction that is not committed, ONE marks a local
    commit, and BOTTOM marks a branch that was invalidated by a fork
    suspension.
    """

    ZERO = "0"
    ONE = "1"
    BOTTOM = "bot"

    # Members are singletons, so identity is equality; this hash runs in C
    # where ``Enum.__hash__`` hashes the member name in Python.
    __hash__ = object.__hash__

    @property
    def rank(self) -> int:
        return _VALUE_RANK[self]

    @classmethod
    def from_code(cls, code: str) -> "Value":
        try:
            return _VALUE_OF_CODE[code]
        except (KeyError, TypeError):
            raise ValueError(f"unknown value code {code!r}") from None

    def __str__(self) -> str:
        return self.value


_VALUE_RANK = {Value.ZERO: 0, Value.ONE: 1, Value.BOTTOM: 2}
_VALUE_OF_CODE = {value.value: value for value in Value}


class _Interned:
    """Base of the interned value objects: one instance per distinct key.

    A subclass builds each instance once, in ``__new__``, and registers it
    in its class-level ``_table`` with ``dict.setdefault``, so two threads
    interning one key get the same object.  Instances are immutable, so
    equality and hashing are identity (inherited from ``object``);
    ``copy`` and ``deepcopy`` return the instance itself, and ``pickle``
    rebuilds it through the constructor, which returns the interned
    instance.  The table keeps every distinct instance for the life of the
    process.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __copy__(self) -> "_Interned":
        return self

    def __deepcopy__(self, memo: dict) -> "_Interned":
        return self


class BlockRef(_Interned):
    """Identity of one block on one chain: chain index plus block index.

    Interned: ``BlockRef(c, b)`` returns the one instance for (c, b), so
    equality is identity.  Both indices must be non-negative ``int``s; a
    ``bool`` or a float is refused before the table is consulted, since
    ``True`` and ``1.0`` hash and compare equal to 1.
    """

    __slots__ = ("chain", "block")
    _table: Dict[Tuple[int, int], "BlockRef"] = {}

    def __new__(cls, chain: int, block: int = 0) -> "BlockRef":
        if type(chain) is not int or type(block) is not int:
            raise TypeError(
                f"chain and block indices must be integers, got {chain!r} and {block!r}"
            )
        if chain < 0 or block < 0:
            raise ValueError("chain and block indices must be non-negative")
        ref = cls._table.get((chain, block))
        if ref is None:
            ref = object.__new__(cls)
            object.__setattr__(ref, "chain", chain)
            object.__setattr__(ref, "block", block)
            ref = cls._table.setdefault((chain, block), ref)
        return ref

    def __reduce__(self) -> tuple:
        return (BlockRef, (self.chain, self.block))

    def __repr__(self) -> str:
        return f"BlockRef(chain={self.chain!r}, block={self.block!r})"

    def __str__(self) -> str:
        return f"v{self.chain}.{self.block}"


class Vertex(_Interned):
    """A (block, value) pair; ``block`` is None for colorless vertices.

    Interned: ``Vertex(b, v)`` returns the one instance for (b, v), so
    equality is identity, and its sort key is computed once, here.
    """

    __slots__ = ("block", "value", "_key")
    _table: Dict[Tuple[BlockRef | None, Value], "Vertex"] = {}

    def __new__(cls, block: BlockRef | None, value: Value) -> "Vertex":
        vertex = cls._table.get((block, value))
        if vertex is not None:
            return vertex
        if type(value) is not Value:
            raise TypeError(f"vertex value must be a Value, got {value!r}")
        if block is None:
            key: tuple = (0, value.rank)
        elif type(block) is BlockRef:
            key = (1, block.chain, block.block, value.rank)
        else:
            raise TypeError(f"vertex block must be a BlockRef or None, got {block!r}")
        vertex = object.__new__(cls)
        object.__setattr__(vertex, "block", block)
        object.__setattr__(vertex, "value", value)
        object.__setattr__(vertex, "_key", key)
        return cls._table.setdefault((block, value), vertex)

    def __reduce__(self) -> tuple:
        return (Vertex, (self.block, self.value))

    @property
    def colored(self) -> bool:
        return self.block is not None

    def sort_key(self) -> tuple:
        return self._key

    def __repr__(self) -> str:
        return f"Vertex(block={self.block!r}, value={self.value!r})"

    def __str__(self) -> str:
        if self.block is None:
            return f"*={self.value}"
        return f"{self.block}={self.value}"


@dataclass(frozen=True)
class SubdivisionVertex:
    """Barycenter vertex created by one round of barycentric subdivision.

    ``below`` is the simplex of the previous round that this vertex
    subdivides; ``carrier`` is the smallest simplex of the original complex
    containing it, and ``level`` counts subdivision rounds from the original.
    """

    below: "Simplex"
    carrier: "Simplex"
    level: int

    def sort_key(self) -> tuple:
        return (2, self.level, self.below.sort_key())

    def __str__(self) -> str:
        return f"b{self.level}{self.below}"


_sort_key = operator.methodcaller("sort_key")


class Simplex:
    """A non-empty, duplicate-free vertex set kept in canonical order."""

    __slots__ = ("_vertices", "_vertex_set", "_key", "_hash")

    def __init__(self, vertices: Iterable[Any]) -> None:
        vs = tuple(vertices)
        if not vs:
            raise MalformedSimplex("a simplex needs at least one vertex")
        vset = frozenset(vs)
        if len(vset) != len(vs):
            raise MalformedSimplex(f"repeated vertex in simplex {vs!r}")
        ordered = tuple(sorted(vs, key=_sort_key))
        self._vertices = ordered
        self._vertex_set = vset
        self._key = tuple(map(_sort_key, ordered))
        self._hash = hash(ordered)

    @property
    def vertices(self) -> Tuple[Any, ...]:
        return self._vertices

    @property
    def vertex_set(self) -> frozenset:
        return self._vertex_set

    @property
    def dim(self) -> int:
        return len(self._vertices) - 1

    def sort_key(self) -> tuple:
        return self._key

    def faces(self, proper: bool = False) -> Iterator["Simplex"]:
        """Yield every non-empty sub-simplex, optionally excluding self."""
        top = len(self._vertices) - (1 if proper else 0)
        for r in range(1, top + 1):
            for combo in itertools.combinations(self._vertices, r):
                yield Simplex(combo)

    def boundary(self) -> Iterator["Simplex"]:
        """Yield the codimension-1 faces."""
        if self.dim == 0:
            return
        for combo in itertools.combinations(self._vertices, len(self._vertices) - 1):
            yield Simplex(combo)

    def issubset(self, other: "Simplex") -> bool:
        return self._vertex_set <= other._vertex_set

    def __contains__(self, vertex: Any) -> bool:
        return vertex in self._vertex_set

    def __iter__(self) -> Iterator[Any]:
        return iter(self._vertices)

    def __len__(self) -> int:
        return len(self._vertices)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Simplex):
            return NotImplemented
        return self._vertices == other._vertices

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Simplex({', '.join(str(v) for v in self._vertices)})"

    def __str__(self) -> str:
        return "{" + ", ".join(str(v) for v in self._vertices) + "}"


class Complex:
    """A finite simplicial complex represented by its maximal facets.

    Membership is a subset test against the facets; the simplices of each
    dimension are built lazily from the facets' faces on first request.
    """

    __slots__ = ("_facets", "_by_dim", "_vertices", "_vertex_set")

    def __init__(self, facets: Iterable[Simplex]) -> None:
        candidates = sorted(set(facets), key=lambda s: (-len(s), s.sort_key()))
        if not candidates:
            raise EmptyInput("a complex needs at least one facet")
        # A candidate of the largest size is no proper subset of another, so
        # only smaller ones are scanned; a pure family skips the scan.
        top = len(candidates[0])
        maximal = [s for s in candidates if len(s) == top]
        for s in candidates[len(maximal):]:
            if not any(s.issubset(kept) for kept in maximal):
                maximal.append(s)
        self._facets = tuple(sorted(maximal, key=Simplex.sort_key))
        self._by_dim: Dict[int, Tuple[Simplex, ...]] | None = None
        vset = frozenset(v for f in self._facets for v in f)
        self._vertex_set = vset
        self._vertices = tuple(sorted(vset, key=_sort_key))

    @property
    def facets(self) -> Tuple[Simplex, ...]:
        return self._facets

    @property
    def vertices(self) -> Tuple[Any, ...]:
        return self._vertices

    @property
    def vertex_set(self) -> frozenset:
        return self._vertex_set

    @property
    def dimension(self) -> int:
        return max(f.dim for f in self._facets)

    def simplices(self) -> Tuple[Simplex, ...]:
        """All simplices of the complex in canonical (dimension, key) order."""
        return tuple(
            s
            for d in range(self.dimension + 1)
            for s in self.simplices_of_dim(d)
        )

    def simplices_of_dim(self, k: int) -> Tuple[Simplex, ...]:
        if self._by_dim is None:
            # Facet vertices are in canonical order, so shared faces are equal tuples.
            groups: Dict[int, set[tuple]] = {}
            for f in self._facets:
                for r in range(1, len(f) + 1):
                    groups.setdefault(r - 1, set()).update(itertools.combinations(f.vertices, r))
            self._by_dim = {
                d: tuple(sorted(map(Simplex, group), key=Simplex.sort_key))
                for d, group in groups.items()
            }
        return self._by_dim.get(k, ())

    def contains(self, simplex: Simplex) -> bool:
        vset = simplex.vertex_set
        return any(vset <= f.vertex_set for f in self._facets)

    def contains_complex(self, other: "Complex") -> bool:
        """True when every facet of ``other`` is a simplex of this complex."""
        return all(self.contains(f) for f in other.facets)

    def has_vertex(self, vertex: Any) -> bool:
        return vertex in self._vertex_set

    @property
    def f_vector(self) -> Tuple[int, ...]:
        return tuple(len(self.simplices_of_dim(d)) for d in range(self.dimension + 1))

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** d * count for d, count in enumerate(self.f_vector))

    def is_pure(self) -> bool:
        d = self.dimension
        return all(f.dim == d for f in self._facets)

    def skeleton(self, k: int) -> "Complex":
        """The subcomplex of all simplices of dimension at most ``k``."""
        if k < 0:
            raise DimensionOutOfRange("skeleton dimension must be non-negative")
        if k >= self.dimension:
            return self
        # Every simplex of dimension at most k lies in a k-face or in a
        # smaller facet.
        low = [f for f in self._facets if f.dim < k]
        return Complex((*self.simplices_of_dim(k), *low))

    def induced_subcomplex(self, vertices: Iterable[Any]) -> "Complex":
        """The subcomplex of all simplices whose vertices lie in ``vertices``."""
        wanted = frozenset(vertices)
        if not wanted:
            raise EmptyInput("induced subcomplex needs at least one vertex")
        missing = wanted - self._vertex_set
        if missing:
            shown = ", ".join(sorted(str(v) for v in missing))
            raise UnknownVertex(f"vertices not in complex: {shown}")
        parts = (f.vertex_set & wanted for f in self._facets)
        return Complex(Simplex(part) for part in parts if part)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        return self._facets == other._facets

    def __hash__(self) -> int:
        return hash(self._facets)

    def __repr__(self) -> str:
        return f"Complex({len(self._vertices)} vertices, {len(self._facets)} facets, dim {self.dimension})"


def make_complex(facets: Iterable[Iterable[Any]]) -> Complex:
    """Build a complex from vertex iterables, pruning dominated facets."""
    return Complex(Simplex(f) for f in facets)


@dataclass(frozen=True)
class SubdivisionResult:
    """A subdivided complex plus the carrier of each of its vertices.

    ``carrier_of`` maps every vertex of ``complex`` to the smallest simplex
    of the original complex whose geometric realization contains it.
    """

    complex: Complex
    carrier_of: Mapping[Any, Simplex]

    def __iter__(self) -> Iterator[Any]:
        yield self.complex
        yield self.carrier_of


def barycentric_subdivide(complex_: Complex, depth: int) -> SubdivisionResult:
    """Apply ``depth`` rounds of barycentric subdivision with carrier tracking.

    Each round replaces the complex with its flag complex: one new vertex per
    simplex, and one facet per maximal chain of nested simplices inside each
    old facet.  Carriers compose across rounds, so the returned mapping always
    points back into the original complex.  Depth 0 returns the complex
    unchanged with each vertex carried by itself.
    """
    if depth < 0:
        raise ValueError("subdivision depth must be non-negative")
    carriers: Dict[Any, Simplex] = {v: Simplex([v]) for v in complex_.vertices}
    current = complex_
    for level in range(1, depth + 1):
        current, carriers = _subdivide_once(current, carriers, complex_, level)
    return SubdivisionResult(current, carriers)


def _subdivide_once(
    complex_: Complex, carriers: Mapping[Any, Simplex], original: Complex, level: int
) -> tuple[Complex, Dict[Any, Simplex]]:
    barycenter: Dict[frozenset, SubdivisionVertex] = {}
    new_carriers: Dict[Any, Simplex] = {}
    for s in complex_.simplices():
        carrier = _carrier_join([carriers[v] for v in s], original)
        vertex = SubdivisionVertex(below=s, carrier=carrier, level=level)
        barycenter[s.vertex_set] = vertex
        new_carriers[vertex] = carrier
    facets = []
    for facet in complex_.facets:
        for perm in itertools.permutations(facet.vertices):
            chain = [barycenter[frozenset(perm[:i])] for i in range(1, len(perm) + 1)]
            facets.append(Simplex(chain))
    return Complex(facets), new_carriers


def _carrier_join(simplices: list[Simplex], original: Complex) -> Simplex:
    """Smallest original simplex containing every given carrier: their union.

    In the first round the carriers of a simplex's vertices are distinct
    singletons and the union is the simplex itself; in later rounds they form
    a nested chain and the union is its top.  Either way the union must be a
    simplex of the original complex.
    """
    join = Simplex(frozenset().union(*(s.vertex_set for s in simplices)))
    if not original.contains(join):
        raise AssertionError(f"carrier join {join} is not a simplex of the original complex")
    return join
