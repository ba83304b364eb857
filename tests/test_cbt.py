"""The cross-chain transaction task family: structure and carrier rules."""
import itertools

import pytest

from cbtopo.cbt import (
    CbtConfig,
    build_carrier_map,
    build_colorless_task,
    build_input_complex,
    build_output_complex,
    build_task,
)
from cbtopo import simplicial
from cbtopo.connectivity import connected_components, reduced_betti
from cbtopo.simplicial import Simplex, Value, Vertex, _layers

from helpers import closure_oracle, cx, free, sx, vertex_key_oracle, vtx


class TestConfig:
    def test_at_least_two_chains(self):
        with pytest.raises(ValueError, match="at least two chains"):
            CbtConfig(n=0)

    def test_block_index_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            CbtConfig(n=1, block_index=-1)

    def test_block_index_propagates(self):
        task = build_task(CbtConfig(n=1, block_index=3))
        assert str(task.input.vertices[0]) == "v0.3=0"


class TestInputComplex:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_counts_against_direct_enumeration(self, n):
        complex_ = build_input_complex(CbtConfig(n=n))
        assert len(complex_.vertices) == 3 * (n + 1)
        assert complex_.dimension == n
        # oracle: rebuild the facet set by brute force product enumeration
        expected = {
            Simplex(
                Vertex(vtx(chain, "0").block, value)
                for chain, value in enumerate(values)
            )
            for values in itertools.product(
                (Value.ZERO, Value.ONE, Value.BOTTOM), repeat=n + 1
            )
        }
        assert set(complex_.facets) == expected
        assert len(complex_.facets) == 3 ** (n + 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_closed_form_layers_match_closure_oracle(self, n):
        complex_ = build_input_complex(CbtConfig(n=n, block_index=7))
        vertices = complex_._space.vertices
        facets = [
            [vtx(chain, code, block=7) for chain, code in enumerate(codes)]
            for codes in itertools.product(("0", "1", "bot"), repeat=n + 1)
        ]
        closure = closure_oracle(facets)
        layers = complex_._masks()
        assert list(layers) == list(range(n + 1))
        for dim, layer in layers.items():
            got = [[vertices[i] for i in range(m.bit_length()) if m >> i & 1] for m in layer]
            expected = sorted(
                (s for s in closure if len(s) == dim + 1),
                key=lambda s: sorted(map(vertex_key_oracle, s)),
            )
            assert got == [sorted(s, key=vertex_key_oracle) for s in expected]
        assert layers == _layers(complex_._facets)

    def test_building_a_task_enumerates_no_layers(self, monkeypatch):
        def enumerate_layers(facets):
            raise AssertionError("the input's layers were enumerated from its facets")

        monkeypatch.setattr(simplicial, "_layers", enumerate_layers)
        task = build_task(CbtConfig(n=3, block_index=7))
        assert len(task.carrier) == 4 ** 4 - 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_purity(self, n):
        assert build_input_complex(CbtConfig(n=n)).is_pure()

    def test_simplices_are_exactly_partial_assignments(self):
        # a vertex set spans a simplex iff its chains are pairwise distinct
        complex_ = build_input_complex(CbtConfig(n=2))
        for k in range(complex_.dimension + 1):
            expected = (
                len(list(itertools.combinations(range(3), k + 1))) * 3 ** (k + 1)
            )
            assert len(complex_.simplices_of_dim(k)) == expected
        same_chain = sx(vtx(0, "0"), vtx(0, "1"))
        assert not complex_.contains(same_chain)

    def test_one_skeleton_is_connected(self):
        complex_ = build_input_complex(CbtConfig(n=2))
        assert len(connected_components(complex_.skeleton(1))) == 1


class TestOutputComplex:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_two_disjoint_full_simplices(self, n):
        out = build_output_complex(CbtConfig(n=n))
        assert len(out.facets) == 2
        assert len(out.vertices) == 2 * (n + 1)
        assert out.is_pure()
        assert out.dimension == n
        parts = connected_components(out)
        assert len(parts) == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_each_component_is_acyclic(self, n):
        out = build_output_complex(CbtConfig(n=n))
        for part in connected_components(out):
            piece = out.induced_subcomplex(part)
            report = reduced_betti(piece, piece.dimension)
            assert report.reduced_betti == (0,) * (n + 1)


def base_rule_vertices(simplex):
    """The per-simplex verdict rule, before accumulating face images."""
    values = [v.value for v in simplex]
    if all(v is Value.ONE for v in values):
        return {Vertex(v.block, Value.ONE) for v in simplex}
    if any(v is Value.BOTTOM for v in values):
        return {Vertex(v.block, Value.ZERO) for v in simplex}
    return {
        Vertex(v.block, value)
        for v in simplex
        for value in (Value.ZERO, Value.ONE)
    }


class TestCarrierMap:
    @pytest.mark.parametrize("n,total", [(1, 15), (2, 63), (3, 255)])
    def test_total_over_all_simplices(self, cbt_tasks, n, total):
        assert len(cbt_tasks[n].carrier) == total

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_images_accumulate_base_rules_over_faces(self, n):
        """Oracle: the image vertex set is the union of the per-simplex rule
        applied to every face; anything else would let a sub-view widen the
        verdict set and break monotonicity.  The closed-form image has the
        facets, in order, of the output induced on that set."""
        task = build_task(CbtConfig(n=n))
        for simplex, image in task.carrier.items():
            expected = set()
            for r in range(1, len(simplex) + 1):
                for face in itertools.combinations(simplex.vertices, r):
                    expected |= base_rule_vertices(face)
            assert image.vertex_set == expected, str(simplex)
            assert image == task.output.induced_subcomplex(expected)

    def test_all_commit_edge_maps_to_commit_edge_only(self, cbt_tasks):
        task = cbt_tasks[1]
        edge = sx(vtx(0, "1"), vtx(1, "1"))
        assert task.carrier[edge].facets == (edge,)

    def test_mixed_vote_edge_keeps_both_verdicts(self, cbt_tasks):
        task = cbt_tasks[1]
        edge = sx(vtx(0, "1"), vtx(1, "0"))
        expected = (sx(vtx(0, "0"), vtx(1, "0")), sx(vtx(0, "1"), vtx(1, "1")))
        assert task.carrier[edge].facets == expected

    def test_suspended_edge_keeps_abort_edge_plus_commit_memory(self, cbt_tasks):
        # the committed leg's singleton view still allows commit, so its
        # commit vertex survives as an isolated facet next to the abort edge
        task = cbt_tasks[1]
        edge = sx(vtx(0, "1"), vtx(1, "bot"))
        expected = (sx(vtx(0, "0"), vtx(1, "0")), sx(vtx(0, "1")))
        assert task.carrier[edge].facets == expected

    def test_fully_suspended_simplices_map_to_abort_only(self, cbt_tasks):
        for n in (1, 2):
            task = cbt_tasks[n]
            all_bot = sx(*(vtx(i, "bot") for i in range(n + 1)))
            abort = sx(*(vtx(i, "0") for i in range(n + 1)))
            assert task.carrier[all_bot].facets == (abort,)

    def test_vertex_images(self, cbt_tasks):
        task = cbt_tasks[1]
        assert task.carrier[sx(vtx(0, "1"))].facets == (sx(vtx(0, "1")),)
        assert task.carrier[sx(vtx(0, "bot"))].facets == (sx(vtx(0, "0")),)
        both = task.carrier[sx(vtx(0, "0"))]
        assert both.facets == (sx(vtx(0, "0")), sx(vtx(0, "1")))
        assert both.dimension == 0

    def test_standalone_builder_matches_task(self, cbt_tasks):
        assert build_carrier_map(CbtConfig(n=1)) == cbt_tasks[1].carrier


class TestColorlessTask:
    def test_shape(self, colorless_tasks):
        task = colorless_tasks[2]
        assert not task.colored
        assert task.output.facets == (sx(free("0")), sx(free("1")))
        assert len(task.carrier) == 63

    def test_forced_singleton_carriers(self, colorless_tasks):
        task = colorless_tasks[2]
        assert task.carrier[sx(vtx(0, "1"))].facets == (sx(free("1")),)
        assert task.carrier[sx(vtx(0, "bot"))].facets == (sx(free("0")),)

    def test_matches_projection_of_colored(self, cbt_tasks, colorless_tasks):
        from cbtopo.tasks import colorless_projection

        assert colorless_tasks[1] == colorless_projection(cbt_tasks[1])
