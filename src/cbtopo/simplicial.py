"""Finite abstract simplicial complexes over numbered vertices.

Every vertex kind exposes a ``sort_key``, so simplices, facet lists and
iteration orders are total and reproducible across runs.  The vertices a
complex is built on are numbered in that order, bit i for the i-th vertex,
and inside a complex a simplex is an int mask on that numbering: a complex
is the numbering plus the masks of its inclusion-maximal facets.  A simplex
belongs to the complex when its mask is a submask of some facet's, and the
simplices of each dimension are enumerated from the facets once, on first
request.  Complexes derived from one another (a skeleton, an induced
subcomplex, a carrier image read on the output) share one numbering, so a
test between them is a mask test; a complex built from outside objects
numbers its own vertices.  ``Simplex`` and ``Complex`` objects are the
public face, built only when a caller asks for them.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, Iterable, Iterator, Sequence, Tuple

from .errors import DimensionOutOfRange, EmptyInput, MalformedSimplex, UnknownVertex, _require_int

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


def _subsets(items: Iterable[Any]) -> list:
    """Entry m: the items at the set bits of m, in order."""
    table = [()]
    for item in items:
        table += [subset + (item,) for subset in table]
    return table


_BYTE_BITS, _BYTE_BITS_8, _BYTE_BITS_16 = (_subsets(range(i, i + 8)) for i in (0, 8, 16))


def _bits(mask: int) -> Tuple[int, ...]:
    """Indices of the set bits of ``mask``, ascending.

    On a numbering these are the mask's vertices in canonical order, so the
    tuple is also the mask's sort key: comparing two tuples compares the
    simplices' vertex keys one by one.  Masks of up to 24 bits, every task
    numbering up to n = 6, are read a byte at a time from tables.
    """
    if mask < 1 << 24:
        return _BYTE_BITS[mask & 255] + _BYTE_BITS_8[mask >> 8 & 255] + _BYTE_BITS_16[mask >> 16]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _rank(mask: int) -> tuple:
    """Canonical (dimension, sort key) order of the simplex of ``mask``."""
    return mask.bit_count(), _bits(mask)


def _maximal(masks: Iterable[int]) -> Tuple[int, ...]:
    """The inclusion-maximal members of a mask family, in canonical order."""
    distinct = set(masks)
    if len(distinct) < 2:
        if not distinct:
            raise EmptyInput("a complex needs at least one facet")
        return tuple(distinct)
    family = sorted(distinct, key=int.bit_count, reverse=True)
    # A mask of the largest size is no proper subset of another, so only
    # smaller ones are scanned; a pure family skips the scan.
    top = family[0].bit_count()
    kept = list(itertools.takewhile(lambda m: m.bit_count() == top, family))
    for m in family[len(kept):]:
        if all(m | k != k for k in kept):
            kept.append(m)
    return tuple(sorted(kept, key=_bits))


def _within(small: Iterable[int], big: Tuple[int, ...]) -> bool:
    """True when every mask of ``small`` is a submask of one of ``big``."""
    for g in small:
        for f in big:
            if g & f == g:
                break
        else:
            return False
    return True


def _support(masks: Iterable[int]) -> int:
    """The OR of ``masks``: the vertices they use."""
    return functools.reduce(operator.or_, masks, 0)


def _layers(facets: Sequence[int], top: int) -> Dict[int, Tuple[int, ...]]:
    """The simplex masks of at most ``top`` vertices that the facet masks
    span, by dimension, each layer in canonical order.

    A simplex grows by one vertex past its last: the candidates are the
    later vertices that share a facet with each of its own, and a candidate
    stays when one facet holds all of it, which an AND of per-vertex facet
    sets (ints over facet positions) tells.  Growing a sorted layer this way
    keeps the next one sorted, and no simplex above ``top`` is enumerated.
    """
    width = _support(facets).bit_length()
    holds, near = [0] * width, [0] * width
    for i, f in enumerate(facets):
        position = 1 << i
        for v in _bits(f):
            holds[v] |= position
            near[v] |= f
    layer = [(1 << v, holds[v], near[v]) for v in range(width) if holds[v]]
    out = {}
    for d in range(top):
        out[d] = tuple(s for s, _, _ in layer)
        grown = []
        if d + 1 < top:
            for s, held, common in layer:
                last = s.bit_length()
                for v in _bits(common >> last << last):
                    both = held & holds[v]
                    if both:
                        grown.append((s | 1 << v, both, common & near[v]))
        if not grown:
            break
        layer = grown
    return out


def _bit_map(targets: Sequence[int]) -> Callable[[int], int]:
    """The map that sends a mask to the OR of ``targets[i]`` over its bits i.

    Tables of 256 entries serve eight bits each, so a mask on a numbering of
    up to eight vertices costs one lookup.
    """
    tables = []
    for base in range(0, len(targets), 8):
        table = [0]
        for target in targets[base:base + 8]:
            table += [m | target for m in table]
        tables.append(table)
    if len(tables) == 1:
        return tables[0].__getitem__

    def apply(mask: int) -> int:
        out = 0
        for table in tables:
            out |= table[mask & 255]
            mask >>= 8
        return out

    return apply


class _Numbering:
    """Vertices in canonical sort-key order; bit i of a mask is ``vertices[i]``.

    Complexes derived from one another share one numbering, so a test
    between them is a mask test.  A numbering may hold more vertices than a
    complex on it uses.
    """

    __slots__ = ("vertices", "bit")

    def __init__(self, ordered: Iterable[Any]) -> None:
        self.vertices = tuple(ordered)
        self.bit = {v: 1 << i for i, v in enumerate(self.vertices)}

    @classmethod
    def of(cls, vertices: Iterable[Any]) -> "_Numbering":
        """The numbering of the distinct ``vertices``, sorted here."""
        return cls(sorted(set(vertices), key=_sort_key))

    def mask(self, vertices: Iterable[Any]) -> int:
        """The mask of ``vertices``; KeyError names one that is not numbered."""
        bit = self.bit
        m = 0
        for v in vertices:
            m |= bit[v]
        return m

    def simplex(self, mask: int) -> "Simplex":
        vertices = self.vertices
        return Simplex(vertices[i] for i in _bits(mask))

    def same(self, other: "_Numbering") -> bool:
        # Vertices are interned or compare by value, so equal tuples number alike.
        return self is other or self.vertices == other.vertices

    def to(self, other: "_Numbering") -> Callable[[int], int] | None:
        """Renumbering of masks from this numbering onto ``other``, or None
        when they number alike.  A vertex ``other`` lacks becomes a bit past
        its end, so such a mask lies in no complex on ``other``."""
        if self.same(other):
            return None
        foreign = 1 << len(other.vertices)
        return _bit_map([other.bit.get(v, foreign) for v in self.vertices])


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
    """A finite simplicial complex: facet masks over a vertex numbering.

    A simplex of the complex is an int mask on the numbering, and the
    complex keeps the masks of its inclusion-maximal facets in canonical
    order.  Membership is a mask test against the facets; the masks of each
    dimension are enumerated from the facets once, on first request.
    ``Simplex`` objects are built only for the callers that ask for them.
    Equality and hashing compare vertices, not numberings.
    """

    __slots__ = ("_space", "_facets", "_support", "_layers", "_simplices", "_vertices")

    def __init__(self, facets: Iterable[Simplex]) -> None:
        facets = list(facets)
        space = _Numbering.of(v for f in facets for v in f)
        self._set(space, _maximal(space.mask(f) for f in facets))

    @classmethod
    def _of(cls, space: _Numbering, facets: Tuple[int, ...]) -> "Complex":
        """The complex on ``space`` whose facets are ``facets``: maximal
        masks in canonical order."""
        complex_ = object.__new__(cls)
        complex_._set(space, facets)
        return complex_

    def _set(self, space: _Numbering, facets: Tuple[int, ...]) -> None:
        self._space = space
        self._facets = facets
        self._support = _support(facets)
        self._layers = None
        self._simplices = {}
        self._vertices = None

    def _masks(self) -> Dict[int, Tuple[int, ...]]:
        """Every simplex mask by dimension, each layer in canonical order."""
        if self._layers is None:
            self._layers = _layers(self._facets, self.dimension + 1)
        return self._layers

    @property
    def facets(self) -> Tuple[Simplex, ...]:
        return tuple(map(self._space.simplex, self._facets))

    @property
    def vertices(self) -> Tuple[Any, ...]:
        if self._vertices is None:
            space = self._space.vertices
            self._vertices = tuple(space[i] for i in _bits(self._support))
        return self._vertices

    @property
    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices)

    @property
    def dimension(self) -> int:
        return max(map(int.bit_count, self._facets)) - 1

    def simplices(self) -> Tuple[Simplex, ...]:
        """All simplices of the complex in canonical (dimension, key) order."""
        return tuple(s for d in self._masks() for s in self.simplices_of_dim(d))

    def simplices_of_dim(self, k: int) -> Tuple[Simplex, ...]:
        layer = self._simplices.get(k)
        if layer is None:
            layer = tuple(map(self._space.simplex, self._masks().get(k, ())))
            self._simplices[k] = layer
        return layer

    def contains(self, simplex: Simplex) -> bool:
        bit = self._space.bit
        mask = 0
        for v in simplex:
            b = bit.get(v)
            if b is None:
                return False
            mask |= b
        return _within((mask,), self._facets)

    @property
    def f_vector(self) -> Tuple[int, ...]:
        return tuple(len(layer) for layer in self._masks().values())

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** d * count for d, count in enumerate(self.f_vector))

    def is_pure(self) -> bool:
        top = self._facets[0].bit_count()
        return all(f.bit_count() == top for f in self._facets)

    def skeleton(self, k: int) -> "Complex":
        """The subcomplex of all simplices of dimension at most ``k``."""
        if k < 0:
            raise DimensionOutOfRange("skeleton dimension must be non-negative")
        if k >= self.dimension:
            return self
        # Every simplex of dimension at most k lies in a k-face or in a
        # smaller facet, and none of those lies in another.  Only layers up
        # to k are enumerated, unless the whole complex already has them.
        if self._layers is None:
            layers = _layers(self._facets, k + 1)
        else:
            layers = {d: layer for d, layer in self._layers.items() if d <= k}
        low = [f for f in self._facets if f.bit_count() <= k]
        skeleton = Complex._of(self._space, tuple(sorted((*layers[k], *low), key=_bits)))
        skeleton._layers = layers
        return skeleton

    def induced_subcomplex(self, vertices: Iterable[Any]) -> "Complex":
        """The subcomplex of all simplices whose vertices lie in ``vertices``."""
        wanted = frozenset(vertices)
        if not wanted:
            raise EmptyInput("induced subcomplex needs at least one vertex")
        bit = self._space.bit
        missing = [v for v in wanted if not bit.get(v, 0) & self._support]
        if missing:
            shown = ", ".join(sorted(str(v) for v in missing))
            raise UnknownVertex(f"vertices not in complex: {shown}")
        mask = self._space.mask(wanted)
        return Complex._of(self._space, _maximal(f & mask for f in self._facets if f & mask))

    def _facet_vertices(self) -> Tuple[Tuple[Any, ...], ...]:
        space = self._space.vertices
        return tuple(tuple(space[i] for i in _bits(f)) for f in self._facets)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        if self._space.same(other._space):
            return self._facets == other._facets
        return self._facet_vertices() == other._facet_vertices()

    def __hash__(self) -> int:
        return hash(self._facet_vertices())

    def __repr__(self) -> str:
        return (
            f"Complex({len(self.vertices)} vertices, {len(self._facets)} facets, "
            f"dim {self.dimension})"
        )


def make_complex(facets: Iterable[Iterable[Any]]) -> Complex:
    """Build a complex from vertex iterables, pruning dominated facets."""
    return Complex(Simplex(f) for f in facets)


class SubdivisionResult:
    """A subdivided complex plus the carrier of each of its vertices.

    ``facets`` are sorted tuples of vertex numbers, in canonical order, on a
    numbering in sort-key order; ``carriers[u]`` masks, on the original
    numbering, the smallest original simplex containing vertex u.
    ``complex`` is built on first access.  At depth 1 or more its vertices
    are ``SubdivisionVertex`` objects that hold their carrier as ``carrier``;
    at depth 0 it is the original complex, each vertex carried by itself.
    """

    def __init__(self, original: Complex, levels: list, facets: list, carriers: list) -> None:
        self._original, self._levels, self.facets, self.carriers = original, levels, facets, carriers

    @functools.cached_property
    def complex(self) -> Complex:
        if not self._levels:
            return self._original
        space = self._original._space
        carrier, vertices = functools.cache(space.simplex), space.vertices
        for level, (faces, carriers) in enumerate(self._levels, 1):
            vertices = tuple(
                SubdivisionVertex(Simplex(map(vertices.__getitem__, face)), carrier(c), level)
                for face, c in zip(faces, carriers)
            )
        return Complex._of(_Numbering(vertices), tuple(sum(1 << u for u in f) for f in self.facets))


@functools.cache
def _chains(size: int) -> tuple:
    """Per ordering of ``size`` local vertices, the local masks of its prefixes."""
    orders = itertools.permutations([1 << i for i in range(size)])
    return tuple(tuple(itertools.accumulate(order, operator.or_)) for order in orders)


def barycentric_subdivide(complex_: Complex, depth: int) -> SubdivisionResult:
    """Apply ``depth`` rounds of barycentric subdivision with carrier tracking.

    Each round replaces the complex with its flag complex: one new vertex per
    simplex, and one facet per maximal chain of nested simplices inside each
    old facet.  Carriers compose across rounds, so the returned carriers
    always point back into the original complex.  Depth 0 returns the complex
    unchanged with each vertex carried by itself.

    A round tables each facet's faces by local mask (``_subsets``).  The
    distinct faces, in sorted tuple order (their sort-key order), are the new
    vertices, each carried by the union of its vertices' carriers.  An
    ordering of a facet gives the chain of its prefixes.  No maximality scan
    is needed: a chain holds its facet, which no other facet contains, and
    one facet's orderings give distinct chains of one length.
    """
    _require_int(depth, 0, "subdivision depth")
    facets = list(map(_bits, complex_._facets))
    carriers = [1 << i for i in range(len(complex_._space.vertices))]
    levels = []
    for _ in range(depth):
        tables = list(map(_subsets, facets))
        faces = sorted(set().union(*tables))[1:]
        index = {face: i for i, face in enumerate(faces)}
        carriers = [_support(map(carriers.__getitem__, face)) for face in faces]
        levels.append((faces, carriers))
        chains = []
        for facet, table in zip(facets, tables):
            ids = list(map(index.get, table))
            chains += [tuple(sorted([ids[m] for m in chain])) for chain in _chains(len(facet))]
        facets = sorted(chains)
    return SubdivisionResult(complex_, levels, facets, carriers)
