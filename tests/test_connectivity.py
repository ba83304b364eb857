"""Components and reduced Betti numbers."""
import itertools
import random

import pytest

from cbtopo.connectivity import BettiReport, connected_components, reduced_betti
from cbtopo.errors import DimensionOutOfRange
from cbtopo.simplicial import barycentric_subdivide

from helpers import betti_oracle, bfs_components, cx, vtx, xor_span_rank


def verts(k):
    return [vtx(i, "0") for i in range(k)]


@pytest.fixture
def circle():
    a, b, c = verts(3)
    return cx([a, b], [b, c], [a, c])


@pytest.fixture
def sphere():
    a, b, c, d = verts(4)
    return cx([a, b, c], [a, b, d], [a, c, d], [b, c, d])


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------


class TestConnectedComponents:
    def test_matches_bfs_oracle_on_fixed_cases(self, circle):
        a, b, c, d = verts(4)
        cases = [
            circle,
            cx([a, b], [c, d]),
            cx([a], [b], [c]),
            cx([a, b, c, d]),
            cx([a, b], [b, c], [d]),
        ]
        for k in cases:
            assert connected_components(k) == tuple(bfs_components(k))

    def test_matches_bfs_oracle_on_random_complexes(self):
        rng = random.Random(20260816)
        pool = [vtx(i, "0") for i in range(7)]
        for _ in range(30):
            facets = [
                rng.sample(pool, rng.randint(1, 3)) for _ in range(rng.randint(1, 6))
            ]
            k = cx(*facets)
            assert connected_components(k) == tuple(bfs_components(k))

    def test_component_order_is_canonical(self):
        a, b, c, d = verts(4)
        k = cx([c, d], [a, b])
        parts = connected_components(k)
        assert min(v.sort_key() for v in parts[0]) < min(v.sort_key() for v in parts[1])


# ---------------------------------------------------------------------------
# Reduced Betti numbers
# ---------------------------------------------------------------------------


class TestReducedBetti:
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_full_simplex_is_acyclic(self, l):
        k = cx([vtx(i, "0") for i in range(l + 1)])
        report = reduced_betti(k, l)
        assert report.reduced_betti == (0,) * (l + 1)
        assert report.components == 1

    def test_circle(self, circle):
        assert reduced_betti(circle, 1).reduced_betti == (0, 1)

    def test_sphere_boundary(self, sphere):
        boundary = sphere  # boundary of the 3-simplex: 4 triangles
        assert reduced_betti(boundary, 2).reduced_betti == (0, 0, 1)

    def test_two_isolated_vertices(self):
        a, b = verts(2)
        report = reduced_betti(cx([a], [b]), 0)
        assert report.reduced_betti == (1,)
        assert report.components == 2

    def test_two_disjoint_triangles(self):
        a, b, c = verts(3)
        d, e, f = (vtx(i, "0") for i in (3, 4, 5))
        k = cx([a, b, c], [d, e, f])
        assert reduced_betti(k, 2).reduced_betti == (1, 0, 0)

    def test_up_to_out_of_range(self, circle):
        with pytest.raises(DimensionOutOfRange):
            reduced_betti(circle, 2)
        with pytest.raises(DimensionOutOfRange):
            reduced_betti(circle, -1)

    def test_b0_agrees_with_component_count(self):
        rng = random.Random(20260816)
        pool = [vtx(i, "0") for i in range(6)]
        for _ in range(20):
            facets = [
                rng.sample(pool, rng.randint(1, 3)) for _ in range(rng.randint(1, 5))
            ]
            k = cx(*facets)
            report = reduced_betti(k, 0)
            assert report.components == len(connected_components(k))
            assert report.components == len(bfs_components(k))
            assert report.reduced_betti[0] == report.components - 1

    @pytest.mark.parametrize("depth", [1, 2])
    def test_betti_invariant_under_subdivision(self, circle, depth):
        a, b = verts(2)
        cases = [circle, cx([a, b]), cx([a], [b])]
        for k in cases:
            sub, _ = barycentric_subdivide(k, depth)
            d = min(k.dimension, 1)
            assert (
                reduced_betti(sub, min(sub.dimension, 1) if sub.dimension else 0).reduced_betti[: d + 1]
                == reduced_betti(k, d).reduced_betti
            )

    def test_betti_oracle_on_fixed_cases(self, circle, sphere):
        assert xor_span_rank([0b11, 0b01, 0b10]) == 2
        assert betti_oracle(f.vertices for f in circle.facets) == (0, 1)
        assert betti_oracle(f.vertices for f in sphere.facets) == (0, 0, 1)
        a, b, c, d = verts(4)
        assert betti_oracle([[a, b, c, d]]) == (0, 0, 0, 0)
        assert betti_oracle([[a], [b], [c, d]]) == (2, 0)

    def test_matches_betti_oracle_on_random_complexes(self):
        # Most of the faces of one size on at most 6 vertices, so cycles
        # appear in every dimension up to 4 while the ranks stay small
        # enough for the span oracle, plus a few small facets on 7 vertices.
        rng = random.Random(20261018)
        pool = verts(7)
        for _ in range(150):
            size = rng.randint(2, 5)
            support = rng.sample(pool, rng.randint(size + 1, 6))
            facets = [
                list(f) for f in itertools.combinations(support, size) if rng.random() < 0.75
            ]
            facets += [rng.sample(pool, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
            k = cx(*facets)
            expected = betti_oracle(facets)
            assert len(expected) == k.dimension + 1
            for up_to in range(k.dimension + 1):
                report = reduced_betti(k, up_to)
                assert report.reduced_betti == expected[: up_to + 1]
                assert report.components == expected[0] + 1

    def test_report_consistency_enforced(self):
        with pytest.raises(ValueError, match="component count"):
            BettiReport(reduced_betti=(2,), components=2)
