"""GF(2) boundary algebra, components, and reduced Betti numbers."""
import random

import pytest

from cbtopo.connectivity import (
    BettiReport,
    GF2Matrix,
    boundary_matrix,
    connected_components,
    reduced_betti,
)
from cbtopo.errors import DimensionOutOfRange
from cbtopo.simplicial import barycentric_subdivide

from helpers import bfs_components, cx, gf2_product_rows, vtx, xor_span_rank


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
# GF2Matrix
# ---------------------------------------------------------------------------


class TestGF2Matrix:
    def test_entry_and_bounds(self):
        m = GF2Matrix(rows=(0b01, 0b10), n_cols=2)
        assert len(m.rows) == 2
        assert [(m.rows[0] >> j) & 1 for j in range(m.n_cols)] == [1, 0]
        assert [(m.rows[1] >> j) & 1 for j in range(m.n_cols)] == [0, 1]
        assert all(row >> m.n_cols == 0 for row in m.rows)

    def test_rank_simple_cases(self):
        assert GF2Matrix(rows=(0b1, 0b1), n_cols=1).rank() == 1
        assert GF2Matrix(rows=(0b11, 0b01, 0b10), n_cols=2).rank() == 2
        assert GF2Matrix(rows=(0, 0), n_cols=3).rank() == 0

    def test_rank_matches_span_enumeration_oracle(self):
        rng = random.Random(20260816)
        for _ in range(40):
            n_rows = rng.randint(1, 7)
            n_cols = rng.randint(1, 7)
            rows = tuple(rng.getrandbits(n_cols) for _ in range(n_rows))
            assert GF2Matrix(rows=rows, n_cols=n_cols).rank() == xor_span_rank(rows)


# ---------------------------------------------------------------------------
# Boundary matrices
# ---------------------------------------------------------------------------


class TestBoundaryMatrix:
    def test_single_edge(self):
        a, b = verts(2)
        m = boundary_matrix(cx([a, b]), 1)
        assert (len(m.rows), m.n_cols) == (2, 1)
        assert list(m.rows) == [0b1, 0b1]
        assert m.row_labels[0].vertices == (a,)

    def test_labels_are_canonical(self, sphere):
        m = boundary_matrix(sphere, 2)
        assert list(m.col_labels) == list(sphere.simplices_of_dim(2))
        assert list(m.row_labels) == list(sphere.simplices_of_dim(1))

    def test_out_of_range_rejected(self, circle):
        with pytest.raises(DimensionOutOfRange):
            boundary_matrix(circle, 0)
        with pytest.raises(DimensionOutOfRange):
            boundary_matrix(circle, 2)

    def test_boundary_of_boundary_vanishes(self, sphere):
        assert gf2_product_rows([0b01, 0b10], [0b11, 0b01]) == [0b11, 0b01]
        solid = cx(verts(4))
        for complex_ in (sphere, solid):
            for k in range(2, complex_.dimension + 1):
                dk = boundary_matrix(complex_, k)
                dk_minus = boundary_matrix(complex_, k - 1)
                product = gf2_product_rows(dk_minus.rows, dk.rows)
                assert len(product) == len(dk_minus.rows)
                assert not any(product)

    def test_entry_means_face_incidence(self, circle):
        m = boundary_matrix(circle, 1)
        for i, row_simplex in enumerate(m.row_labels):
            for j, col_simplex in enumerate(m.col_labels):
                expected = 1 if row_simplex.issubset(col_simplex) else 0
                assert (m.rows[i] >> j) & 1 == expected


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

    def test_report_consistency_enforced(self):
        with pytest.raises(ValueError, match="component count"):
            BettiReport(reduced_betti=(2,), components=2)
