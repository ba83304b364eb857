"""Core complex machinery: vertices, simplices, complexes, subdivision."""
import copy
import itertools
import math
import pickle
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from cbtopo.errors import (
    DimensionOutOfRange,
    EmptyInput,
    MalformedSimplex,
    UnknownVertex,
)
from cbtopo.simplicial import (
    BlockRef,
    Complex,
    Simplex,
    SubdivisionVertex,
    Value,
    Vertex,
    barycentric_subdivide,
    make_complex,
)

from helpers import (
    bfs_components,
    closure_oracle,
    cx,
    free,
    maximal_facets,
    subdivision_facets_oracle,
    subdivision_oracle,
    sx,
    vertex_key_oracle,
    vtx,
)


# ---------------------------------------------------------------------------
# Value / BlockRef / Vertex
# ---------------------------------------------------------------------------


class TestValue:
    def test_codes_round_trip(self):
        for code in ("0", "1", "bot"):
            assert Value.from_code(code).value == code
            assert str(Value.from_code(code)) == code

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown value code"):
            Value.from_code("2")

    def test_rank_orders_zero_one_bottom(self):
        assert Value.ZERO.rank < Value.ONE.rank < Value.BOTTOM.rank


class TestBlockRef:
    def test_str_form(self):
        assert str(BlockRef(3, 7)) == "v3.7"
        assert str(BlockRef(0)) == "v0.0"

    @pytest.mark.parametrize("chain,block", [(-1, 0), (0, -2)])
    def test_negative_indices_rejected(self, chain, block):
        with pytest.raises(ValueError):
            BlockRef(chain, block)

    @pytest.mark.parametrize("chain,block", [(True, 0), (1.0, 0), (0, 0.5), (0, False), ("1", 0)])
    def test_non_integer_indices_rejected(self, chain, block):
        # The instances for the equal integer keys exist already.
        assert str(BlockRef(1, 0)) == "v1.0"
        assert str(BlockRef(0, 0)) == "v0.0"
        with pytest.raises(TypeError):
            BlockRef(chain, block)


indices = st.integers(min_value=0, max_value=40)
values = st.sampled_from(list(Value))
blocks = st.one_of(st.none(), st.builds(BlockRef, indices, indices))


class TestInterning:
    """``BlockRef`` and ``Vertex`` are interned: one object per key."""

    @given(chain=indices, block=indices, value=values)
    def test_equal_arguments_give_one_object(self, chain, block, value):
        ref = BlockRef(chain, block)
        assert ref is BlockRef(chain=chain, block=block)
        assert ref is BlockRef(chain, block=block)
        assert (ref.chain, ref.block) == (chain, block)
        vertex = Vertex(ref, value)
        assert vertex is Vertex(block=BlockRef(chain, block), value=value)
        assert vertex is Vertex(ref, value=value)
        assert Vertex(None, value) is Vertex(block=None, value=value)
        if block == 0:
            assert ref is BlockRef(chain)

    @given(block=blocks, value=values)
    def test_copies_are_the_interned_object(self, block, value):
        vertex = Vertex(block, value)
        for obj in (vertex, block):
            assert copy.copy(obj) is obj
            assert copy.deepcopy(obj) is obj
            assert pickle.loads(pickle.dumps(obj)) is obj
        assert copy.deepcopy([vertex, (vertex,)])[1][0] is vertex

    @given(block=blocks, value=values)
    def test_attribute_assignment_raises(self, block, value):
        vertex = Vertex(block, value)
        for obj, name in ((vertex, "value"), (vertex, "block"), (vertex, "extra")):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
        with pytest.raises(AttributeError):
            del vertex.value
        if block is not None:
            with pytest.raises(AttributeError):
                block.chain = block.chain + 1
        assert Vertex(block, value).value is value

    @given(st.lists(st.tuples(blocks, values), min_size=1, max_size=12))
    def test_sort_key_matches_field_order(self, pairs):
        vertices = [Vertex(block, value) for block, value in pairs]
        by_library = sorted(set(vertices), key=lambda v: v.sort_key())
        by_oracle = sorted(set(vertices), key=vertex_key_oracle)
        assert by_library == by_oracle
        assert [v.sort_key() for v in by_library] == [vertex_key_oracle(v) for v in by_oracle]

    def test_threads_intern_one_object_per_key(self):
        # Fresh keys, so the threads race to create the entries.
        keys = [(1000 + chain, block) for chain in range(30) for block in range(30)]
        barrier = threading.Barrier(4)
        results = [None] * 4

        def intern(slot):
            barrier.wait()
            results[slot] = [
                Vertex(BlockRef(chain, block), value)
                for chain, block in keys
                for value in Value
            ]

        threads = [threading.Thread(target=intern, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for other in results[1:]:
            assert all(a is b for a, b in zip(results[0], other))
        assert len(set(map(id, results[0]))) == len(keys) * len(Value)


class TestVertex:
    def test_colored_flag_and_str(self):
        assert vtx(0, "1").colored
        assert str(vtx(0, "1")) == "v0.0=1"
        assert not free("0").colored
        assert str(free("0")) == "*=0"

    def test_sort_groups_colorless_before_colored_before_subdivision(self):
        colorless = free("1")
        colored = vtx(0, "0")
        sub = SubdivisionVertex(below=sx(colored), carrier=sx(colored), level=1)
        keys = [colorless.sort_key(), colored.sort_key(), sub.sort_key()]
        assert keys == sorted(keys)
        assert [k[0] for k in keys] == [0, 1, 2]

    def test_sort_key_orders_by_chain_then_block_then_value(self):
        ordered = [vtx(0, "0"), vtx(0, "1"), vtx(0, "bot"), vtx(1, "0"), vtx(1, "0", block=2)]
        assert sorted(ordered, key=lambda v: v.sort_key()) == ordered


# ---------------------------------------------------------------------------
# Simplex
# ---------------------------------------------------------------------------


class TestSimplex:
    def test_vertices_canonical_regardless_of_input_order(self):
        a, b, c = vtx(0, "0"), vtx(1, "1"), vtx(2, "bot")
        assert sx(c, a, b) == sx(a, b, c)
        assert sx(c, a, b).vertices == (a, b, c)
        assert hash(sx(c, b, a)) == hash(sx(a, b, c))

    def test_empty_rejected(self):
        with pytest.raises(MalformedSimplex, match="at least one vertex"):
            Simplex([])

    def test_duplicate_rejected(self):
        v = vtx(0, "0")
        with pytest.raises(MalformedSimplex, match="repeated vertex"):
            Simplex([v, v])

    def test_dim_is_vertex_count_minus_one(self):
        assert sx(vtx(0, "0")).dim == 0
        assert sx(vtx(0, "0"), vtx(1, "0"), vtx(2, "0")).dim == 2

    def test_subset_and_membership(self):
        a, b, c = vtx(0, "0"), vtx(1, "0"), vtx(2, "0")
        assert sx(a, b).vertex_set <= sx(a, b, c).vertex_set
        assert not sx(a, c).vertex_set <= sx(a, b).vertex_set
        assert a in sx(a, b)
        assert c not in sx(a, b)
        assert len(sx(a, b)) == 2
        assert list(sx(b, a)) == [a, b]

    def test_str_lists_vertices(self):
        assert str(sx(vtx(1, "bot"), vtx(0, "1"))) == "{v0.0=1, v1.0=bot}"


# ---------------------------------------------------------------------------
# Complex
# ---------------------------------------------------------------------------


@pytest.fixture
def abc():
    return vtx(0, "0"), vtx(1, "0"), vtx(2, "0")


class TestComplex:
    def test_dominated_facets_are_pruned(self, abc):
        a, b, c = abc
        k = cx([a, b, c], [a, b], [c])
        assert k.facets == (sx(a, b, c),)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            Complex([])
        with pytest.raises(EmptyInput):
            make_complex([])

    def test_full_triangle_counts(self, abc):
        a, b, c = abc
        k = cx([a, b, c])
        assert k.f_vector == (3, 3, 1)
        assert k.euler_characteristic == 1
        assert k.dimension == 2
        assert k.is_pure()
        assert k.vertices == (a, b, c)

    def test_simplices_in_canonical_order(self, abc):
        a, b, c = abc
        k = cx([a, b, c], [a, vtx(3, "0")])
        listed = k.simplices()
        keys = [(s.dim, s.sort_key()) for s in listed]
        assert keys == sorted(keys)
        assert len(listed) == len(set(listed))
        assert sum(1 for _ in listed) == sum(k.f_vector)

    def test_contains(self, abc):
        a, b, c = abc
        triangle = cx([a, b, c])
        assert triangle.contains(sx(a, c))
        assert not triangle.contains(sx(a, vtx(3, "0")))

    def test_impure_complex_detected(self, abc):
        a, b, c = abc
        k = cx([a, b], [c])
        assert not k.is_pure()
        assert k.dimension == 1
        assert k.f_vector == (3, 1)

    def test_skeleton(self, abc):
        a, b, c = abc
        triangle = cx([a, b, c])
        edges = triangle.skeleton(1)
        assert edges.f_vector == (3, 3)
        points = triangle.skeleton(0)
        assert points.f_vector == (3,)
        assert triangle.skeleton(2) is triangle
        assert triangle.skeleton(5) is triangle
        with pytest.raises(DimensionOutOfRange):
            triangle.skeleton(-1)

    def test_induced_subcomplex(self, abc):
        a, b, c = abc
        triangle = cx([a, b, c])
        sub = triangle.induced_subcomplex({a, b})
        assert sub.facets == (sx(a, b),)
        with pytest.raises(UnknownVertex):
            triangle.induced_subcomplex({a, vtx(9, "0")})
        with pytest.raises(EmptyInput):
            triangle.induced_subcomplex(set())

    def test_equality_ignores_facet_input_order(self, abc):
        a, b, c = abc
        assert cx([a, b], [b, c]) == cx([b, c], [a, b])
        assert hash(cx([a, b], [b, c])) == hash(cx([b, c], [a, b]))
        assert cx([a, b]) != cx([b, c])

    def test_has_vertex(self, abc):
        a, b, c = abc
        k = cx([a, b])
        assert a in k.vertex_set
        assert c not in k.vertex_set


# ---------------------------------------------------------------------------
# Barycentric subdivision
# ---------------------------------------------------------------------------


def full_simplex_complex(l):
    return cx([vtx(i, "0") for i in range(l + 1)])


class TestSubdivision:
    def test_depth_zero_is_identity_with_singleton_carriers(self, abc):
        a, b, c = abc
        k = cx([a, b, c])
        result = barycentric_subdivide(k, 0)
        assert result.complex is k
        on_original = [{v for j, v in enumerate(k.vertices) if m >> j & 1} for m in result.carriers]
        assert on_original == [{v} for v in k.vertices]

    def test_negative_depth_rejected(self, abc):
        a, b, c = abc
        with pytest.raises(ValueError):
            barycentric_subdivide(cx([a, b]), -1)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_one_round_facet_count_is_factorial(self, l):
        k = full_simplex_complex(l)
        sub = barycentric_subdivide(k, 1).complex
        assert len(sub.facets) == math.factorial(l + 1)
        # one barycenter per original simplex
        assert len(sub.vertices) == 2 ** (l + 1) - 1

    def test_one_round_of_triangle_f_vector(self):
        sub = barycentric_subdivide(full_simplex_complex(2), 1).complex
        assert sub.f_vector == (7, 12, 6)
        assert sub.euler_characteristic == 1

    def test_facets_are_nested_chains(self):
        sub = barycentric_subdivide(full_simplex_complex(2), 1).complex
        for facet in sub.facets:
            belows = sorted((u.below for u in facet), key=lambda s: s.dim)
            assert [s.dim for s in belows] == [0, 1, 2]
            for small, big in zip(belows, belows[1:]):
                assert small.vertex_set <= big.vertex_set

    def test_level_one_carriers_are_the_subdivided_simplex(self):
        k = full_simplex_complex(2)
        result = barycentric_subdivide(k, 1)
        for u, mask in zip(result.complex.vertices, result.carriers):
            assert u.carrier == u.below
            assert {v for j, v in enumerate(k.vertices) if mask >> j & 1} == u.carrier.vertex_set
            assert k.contains(u.carrier)

    def test_level_two_carriers_join_their_chain(self):
        k = full_simplex_complex(2)
        sub = barycentric_subdivide(k, 2).complex
        for u in sub.vertices:
            assert u.level == 2
            expected = set()
            for w in u.below:
                expected |= w.carrier.vertex_set
            assert u.carrier.vertex_set == expected
            assert k.contains(u.carrier)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_euler_and_components_preserved(self, depth):
        a, b, c, d = (vtx(i, "0") for i in range(4))
        samples = [
            cx([a, b, c]),              # disk
            cx([a, b], [b, c], [a, c]),  # circle
            cx([a, b], [c, d]),          # two disjoint edges
            cx([a, b, c], [c, d]),       # triangle with a whisker
        ]
        for k in samples:
            sub = barycentric_subdivide(k, depth).complex
            assert sub.euler_characteristic == k.euler_characteristic
            assert len(bfs_components(sub)) == len(bfs_components(k))

    def test_depth_two_counts_compound(self):
        # each round multiplies facet count by (dim+1)! for a pure complex
        k = full_simplex_complex(2)
        sub = barycentric_subdivide(k, 2).complex
        assert len(sub.facets) == 6 * 6

    def test_subdivision_vertices_know_their_level(self):
        sub1 = barycentric_subdivide(full_simplex_complex(1), 1).complex
        assert {u.level for u in sub1.vertices} == {1}
        sub2 = barycentric_subdivide(full_simplex_complex(1), 2).complex
        assert {u.level for u in sub2.vertices} == {2}


class TestSubdivisionKernel:
    """The index-table kernel against oracles that rebuild every round from
    vertex sets."""

    @staticmethod
    def _random_complexes(rng, top):
        """Non-pure complexes on five vertices, half of them with a lone
        sixth vertex."""
        pool = [vtx(i, "0") for i in range(6)]
        for _ in range(12):
            facets = [rng.sample(pool[:5], rng.randint(1, top)) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.5:
                facets.append([pool[5]])
            yield make_complex(facets)

    @pytest.mark.parametrize("depth,top", [(1, 4), (2, 3), (3, 3)])
    def test_random_complexes_match_round_by_round_oracle(self, depth, top):
        rng = random.Random(20261018 + depth)
        for k in self._random_complexes(rng, top):
            result = barycentric_subdivide(k, depth)
            sub = result.complex
            # Oracle vertices compare by (below, carrier, level), so equal
            # facets also check every vertex's carrier.
            assert {f.vertex_set for f in sub.facets} == subdivision_oracle(
                (f.vertices for f in k.facets), depth
            )
            assert len(result.carriers) == len(sub.vertices)
            for i, u in enumerate(sub.vertices):
                assert u.level == depth
                on_original = {v for j, v in enumerate(k.vertices) if result.carriers[i] >> j & 1}
                assert on_original == u.carrier.vertex_set
            assert list(sub.vertices) == sorted(sub.vertices, key=lambda v: v.sort_key())
            assert list(sub.facets) == sorted(sub.facets, key=lambda f: f.sort_key())
            assert [tuple(sub.vertices[u] for u in f) for f in result.facets] == [
                f.vertices for f in sub.facets
            ]

    def test_lone_vertex_is_its_own_barycenter(self):
        a, b, c, d = (vtx(i, "0") for i in range(4))
        sub = barycentric_subdivide(cx([a, b, c], [d]), 2).complex
        lone = [f for f in sub.facets if len(f) == 1]
        assert len(lone) == 1
        (u,) = lone[0]
        assert u.carrier == sx(d)
        assert u.below.vertices[0].below == sx(d)


# ---------------------------------------------------------------------------
# Property-based checks over random small complexes
# ---------------------------------------------------------------------------

_POOL = [vtx(i, "0") for i in range(5)]


def _facet_strategy():
    return st.sets(st.sampled_from(_POOL), min_size=1, max_size=4)


@st.composite
def _complexes(draw):
    facets = draw(st.lists(_facet_strategy(), min_size=1, max_size=4))
    return make_complex(facets)


@st.composite
def _facet_families(draw):
    """Facet lists with duplicates and nested faces, or pure ones of one size
    with duplicates only, in any order."""
    pure = draw(st.booleans())
    if pure:
        size = draw(st.integers(min_value=1, max_value=4))
        sized = st.sets(st.sampled_from(_POOL), min_size=size, max_size=size)
        base = draw(st.lists(sized, min_size=1, max_size=6))
    else:
        base = draw(st.lists(_facet_strategy(), min_size=1, max_size=6))
    family = list(base)
    for f in base:
        if draw(st.booleans()):
            family.append(set(f))
        if not pure and len(f) > 1 and draw(st.booleans()):
            ordered = sorted(f, key=lambda v: v.sort_key())
            family.append(draw(st.sets(st.sampled_from(ordered), min_size=1, max_size=len(f) - 1)))
    return draw(st.permutations(family))


@settings(max_examples=100)
@given(_facet_families())
def test_facets_match_maximal_oracle(family):
    facets = make_complex(family).facets
    assert {f.vertex_set for f in facets} == maximal_facets(family)
    assert list(facets) == sorted(facets, key=lambda f: f.sort_key())


@settings(max_examples=60)
@given(_complexes())
def test_facets_are_mutually_incomparable(k):
    for s, t in itertools.combinations(k.facets, 2):
        assert not s.vertex_set <= t.vertex_set
        assert not t.vertex_set <= s.vertex_set


@settings(max_examples=60)
@given(_complexes())
def test_complex_is_downward_closed(k):
    for facet in k.facets:
        for face in closure_oracle([facet.vertices]):
            assert k.contains(Simplex(face))


_FOREIGN = [vtx(0, "1"), vtx(7, "0")]


def _subsets(vertices):
    for r in range(1, len(vertices) + 1):
        yield from (set(c) for c in itertools.combinations(vertices, r))


@settings(max_examples=80)
@given(_complexes())
def test_facet_queries_match_closure_oracle(k):
    closure = closure_oracle(f.vertices for f in k.facets)
    for d in range(k.dimension + 2):
        layer = k.simplices_of_dim(d)
        assert {s.vertex_set for s in layer} == {c for c in closure if len(c) == d + 1}
        assert list(layer) == sorted(layer, key=lambda s: s.sort_key())
    for probe in _subsets(_POOL + _FOREIGN):
        assert k.contains(Simplex(probe)) == (frozenset(probe) in closure)
    for wanted in _subsets(k.vertices):
        induced = k.induced_subcomplex(wanted)
        assert closure_oracle(f.vertices for f in induced.facets) == {
            c for c in closure if c <= wanted
        }
    for d in range(k.dimension + 1):
        skeleton = k.skeleton(d)
        assert closure_oracle(f.vertices for f in skeleton.facets) == {
            c for c in closure if len(c) <= d + 1
        }


@settings(max_examples=60)
@given(_complexes())
def test_euler_matches_direct_enumeration(k):
    assert k.euler_characteristic == sum((-1) ** s.dim for s in k.simplices())


@settings(max_examples=40)
@given(_complexes())
def test_subdivision_preserves_euler_and_components(k):
    sub = barycentric_subdivide(k, 1).complex
    assert sub.euler_characteristic == k.euler_characteristic
    assert len(bfs_components(sub)) == len(bfs_components(k))
    for u in sub.vertices:
        assert k.contains(u.carrier)


def test_random_complexes_share_counts_with_oracle():
    rng = random.Random(20260816)
    pool = [vtx(i, "0") for i in range(6)]
    for _ in range(25):
        facets = [
            rng.sample(pool, rng.randint(1, 4)) for _ in range(rng.randint(1, 5))
        ]
        k = make_complex(facets)
        # closure computed independently from the raw facet list
        closure = {
            frozenset(c)
            for f in facets
            for r in range(1, len(f) + 1)
            for c in itertools.combinations(f, r)
        }
        assert sum(k.f_vector) == len(closure)


# ---------------------------------------------------------------------------
# The mask kernel against frozenset oracles, across numberings
# ---------------------------------------------------------------------------


def _check_family(family, probes):
    """Each (complex, closure) pair answers from its oracle closure, and
    every two of them compare as their closures do."""
    for k, closure in family:
        for probe in probes:
            assert k.contains(Simplex(probe)) == (probe in closure)
        top = max(map(len, closure))
        assert k.dimension == top - 1
        for d in range(top + 1):
            layer = k.simplices_of_dim(d)
            assert {s.vertex_set for s in layer} == {c for c in closure if len(c) == d + 1}
            assert list(layer) == sorted(layer, key=lambda s: s.sort_key())
        assert {f.vertex_set for f in k.facets} == maximal_facets(closure)
        support = frozenset().union(*closure)
        assert k.vertex_set == support
    for (a, ca), (b, cb) in itertools.product(family, repeat=2):
        assert (a == b) == (ca == cb)
        if ca == cb:
            assert hash(a) == hash(b)


def _derived(k, closure, wanted, d):
    """``k`` with its skeleton and an induced subcomplex, which share its
    numbering, and copies of both built on numberings of their own."""
    skeleton = {c for c in closure if len(c) <= d + 1}
    induced = {c for c in closure if c <= wanted}
    return [
        (k, closure),
        (k.skeleton(d), skeleton),
        (k.induced_subcomplex(wanted), induced),
        (k.induced_subcomplex(wanted).skeleton(d), {c for c in induced if len(c) <= d + 1}),
        (make_complex(maximal_facets(skeleton)), skeleton),
        (Complex(Simplex(f) for f in maximal_facets(induced)), induced),
    ]


@settings(max_examples=80)
@given(_complexes(), st.data())
def test_shared_and_separate_numberings_match_oracle(k, data):
    closure = closure_oracle(f.vertices for f in k.facets)
    wanted = data.draw(st.sets(st.sampled_from(k.vertices), min_size=1))
    d = data.draw(st.integers(min_value=0, max_value=k.dimension))
    foreign = make_complex([_FOREIGN, _POOL[:2]])
    family = _derived(k, closure, frozenset(wanted), d)
    family.append((foreign, closure_oracle([_FOREIGN, _POOL[:2]])))
    _check_family(family, [frozenset(p) for p in _subsets(_POOL + _FOREIGN)])


@settings(max_examples=30)
@given(_complexes(), st.data())
def test_subdivision_complexes_match_oracle(k, data):
    sub = barycentric_subdivide(k, 1).complex
    closure = closure_oracle(subdivision_facets_oracle((f.vertices for f in k.facets), sub.vertices))
    wanted = data.draw(st.sets(st.sampled_from(sub.vertices), min_size=1))
    d = data.draw(st.integers(min_value=0, max_value=sub.dimension))
    family = _derived(sub, closure, frozenset(wanted), d)
    family.append((k, closure_oracle(f.vertices for f in k.facets)))
    probes = set(closure) | {
        frozenset(pair) for pair in itertools.combinations([*sub.vertices, _FOREIGN[0]], 2)
    }
    _check_family(family, probes)
