"""Obstruction certificates and the carried simplicial map search."""
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from cbtopo import CbtConfig, build_task
from cbtopo.errors import BadResilience, NotColored, ResourceBound, check_resilience
from cbtopo.solvability import (
    SolvabilityReport,
    Verdict,
    connectivity_obstruction,
    decide,
    search_carried_simplicial_map,
)
from cbtopo.simplicial import Complex, Simplex
from cbtopo.tasks import CarrierMap, Task, colorless_projection, restrict_to_skeleton

from helpers import (
    assignment_is_valid,
    brute_force_depth0_map,
    cx,
    free,
    identity_task,
    monotonic_oracle,
    random_connected_complex,
    random_induced_image_task,
    random_shared_mask_task,
    split_vote_task,
    sx,
    t1_map_exists,
    vtx,
)


@pytest.fixture
def triangle_identity():
    return identity_task(cx([vtx(0, "0"), vtx(1, "0"), vtx(2, "0")]))


def constant_carrier_task():
    """Connected input, split output, but every carrier allows both verdicts."""
    inp = cx([vtx(0, "0"), vtx(1, "0"), vtx(2, "0")])
    output = cx([free("0")], [free("1")])
    entries = {s: output for s in inp.simplices()}
    return Task(input=inp, output=output, carrier=CarrierMap(entries), colored=False)


class TestCheckResilience:
    """One window for both callers; only the simulator admits t = 0."""

    @pytest.mark.parametrize("n,t", [(1, 0), (2, 0), (4, 2)])
    def test_simulator_window(self, n, t):
        check_resilience(n, t, allow_zero=True)

    @pytest.mark.parametrize("n,t", [(0, 0), (1, 1), (2, 2), (3, -1)])
    def test_outside_every_window(self, n, t):
        for allow_zero in (True, False):
            with pytest.raises(BadResilience):
                check_resilience(n, t, allow_zero=allow_zero)

    def test_obstruction_needs_a_crash(self):
        check_resilience(2, 1, allow_zero=False)
        with pytest.raises(BadResilience, match="0 < t < "):
            check_resilience(2, 0, allow_zero=False)


class TestReportValidation:
    def test_obstruction_needs_witnesses(self):
        with pytest.raises(ValueError, match="witnesses"):
            SolvabilityReport(verdict=Verdict.UNSOLVABLE_BY_OBSTRUCTION, n=2, t=1)

    def test_map_needs_assignment(self):
        with pytest.raises(ValueError, match="assignment"):
            SolvabilityReport(verdict=Verdict.MAP_FOUND, n=2, t=1)


class TestObstruction:
    def test_rejects_colored_tasks(self, cbt_tasks):
        with pytest.raises(NotColored):
            connectivity_obstruction(cbt_tasks[2], 1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_cbt_unsolvable(self, colorless_tasks, n):
        report = connectivity_obstruction(colorless_tasks[n], 1)
        assert report.verdict is Verdict.UNSOLVABLE_BY_OBSTRUCTION
        assert report.input_components == 1
        assert report.skeleton_betti0 == 0
        assert report.output_components == 2
        assert report.witness_components is not None
        a, b = report.witness_components
        assert a != b

    @pytest.mark.parametrize("n", [2, 3])
    def test_witness_carriers_lie_in_distinct_components(self, colorless_tasks, n):
        task = colorless_tasks[n]
        report = connectivity_obstruction(task, 1)
        sides = []
        for witness in report.witnesses:
            values = {v.value.value for v in task.carrier[witness].vertices}
            assert len(values) == 1
            sides.append(values.pop())
        assert sorted(sides) == ["0", "1"]

    def test_witnesses_are_canonical_first_pair(self, colorless_tasks):
        report = connectivity_obstruction(colorless_tasks[2], 1)
        assert report.witnesses == (sx(vtx(0, "1")), sx(vtx(0, "bot")))

    def test_second_witness_skips_the_first_ones_component(self):
        # The first two vertices are carried into the same component, so the
        # second witness is the third vertex, carried into the other.
        inp = cx([vtx(0, "0"), vtx(1, "0"), vtx(2, "0")])
        side = {v: "1" if v.block.chain == 2 else "0" for v in inp.vertices}
        report = connectivity_obstruction(split_vote_task(inp, side), 1)
        assert report.verdict is Verdict.UNSOLVABLE_BY_OBSTRUCTION
        assert report.witnesses == (sx(vtx(0, "0")), sx(vtx(2, "0")))
        a, b = report.witness_components
        assert a != b

    @pytest.mark.parametrize("t", [0, 1])
    def test_resilience_bound_enforced_for_n1(self, colorless_tasks, t):
        with pytest.raises(BadResilience):
            connectivity_obstruction(colorless_tasks[1], t)

    def test_resilience_upper_bound(self, colorless_tasks):
        with pytest.raises(BadResilience):
            connectivity_obstruction(colorless_tasks[2], 2)

    def test_inconclusive_when_output_connected(self):
        inp = cx([vtx(0, "0"), vtx(1, "0"), vtx(2, "0")])
        output = cx([free("0"), free("1")])  # one edge: connected
        entries = {s: output for s in inp.simplices()}
        task = Task(input=inp, output=output, carrier=CarrierMap(entries), colored=False)
        report = connectivity_obstruction(task, 1)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert "output complex is connected" in report.note

    def test_inconclusive_when_input_disconnected(self):
        inp = cx(
            [vtx(0, "0"), vtx(1, "0"), vtx(2, "0")],
            [vtx(3, "0"), vtx(4, "0"), vtx(5, "0")],
        )
        side = {v: "0" if v.block.chain < 3 else "1" for v in inp.vertices}
        task = split_vote_task(inp, side)
        report = connectivity_obstruction(task, 1)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.input_components == 2
        assert "not connected" in report.note

    def test_inconclusive_without_witness_pair(self):
        report = connectivity_obstruction(constant_carrier_task(), 1)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert "no simplex pair" in report.note


class TestSearch:
    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_cbt_has_no_carried_map(self, colorless_tasks, depth):
        report = search_carried_simplicial_map(colorless_tasks[2], 1, depth)
        assert report.verdict is Verdict.NO_MAP_UP_TO_DEPTH
        assert report.depth == depth
        assert report.nodes_explored > 0

    def test_depth0_verdict_matches_brute_force_oracle(self, colorless_tasks):
        assert brute_force_depth0_map(colorless_tasks[2], 1) is None

    @pytest.mark.parametrize("n", [2, 3])
    def test_colored_depth0_verdict_matches_brute_force_oracle(self, cbt_tasks, n):
        report = search_carried_simplicial_map(cbt_tasks[n], 1, 0)
        assert report.verdict is Verdict.NO_MAP_UP_TO_DEPTH
        assert brute_force_depth0_map(cbt_tasks[n], 1) is None

    def test_identity_task_yields_map(self, triangle_identity):
        for depth in (0, 1):
            report = search_carried_simplicial_map(triangle_identity, 1, depth)
            assert report.verdict is Verdict.MAP_FOUND
            assert assignment_is_valid(triangle_identity, 1, depth, report.assignment)

    def test_exhausted_search_builds_no_simplex(
        self, colorless_tasks, triangle_identity, monkeypatch
    ):
        # The search reads the subdivision's index tables; objects are built
        # only to write a found map.
        made = []
        init = Simplex.__init__

        def counting(self, vertices, **canonical):
            made.append(1)
            init(self, vertices, **canonical)

        monkeypatch.setattr(Simplex, "__init__", counting)
        report = search_carried_simplicial_map(colorless_tasks[2], 1, 2)
        assert report.verdict is Verdict.NO_MAP_UP_TO_DEPTH
        assert made == []
        found = search_carried_simplicial_map(triangle_identity, 1, 1)
        assert found.verdict is Verdict.MAP_FOUND
        assert made

    def test_identity_depth0_matches_brute_force_oracle(self, triangle_identity):
        assert brute_force_depth0_map(triangle_identity, 1) is not None

    def test_constant_carrier_admits_constant_map(self):
        task = constant_carrier_task()
        report = search_carried_simplicial_map(task, 1, 0)
        assert report.verdict is Verdict.MAP_FOUND
        assert assignment_is_valid(task, 1, 0, report.assignment)

    def test_negative_depth_rejected(self, colorless_tasks):
        with pytest.raises(ValueError):
            search_carried_simplicial_map(colorless_tasks[2], 1, -1)

    def test_node_budget_exhaustion(self, colorless_tasks):
        with pytest.raises(ResourceBound) as excinfo:
            search_carried_simplicial_map(colorless_tasks[2], 1, 1, node_budget=1)
        assert excinfo.value.explored > 0

    def test_node_budget_must_be_positive(self, colorless_tasks):
        with pytest.raises(ValueError):
            search_carried_simplicial_map(colorless_tasks[2], 1, 0, node_budget=0)

    def test_deterministic_across_runs(self, triangle_identity, colorless_tasks):
        first = search_carried_simplicial_map(triangle_identity, 1, 1)
        second = search_carried_simplicial_map(triangle_identity, 1, 1)
        assert first == second
        assert search_carried_simplicial_map(
            colorless_tasks[2], 1, 1
        ) == search_carried_simplicial_map(colorless_tasks[2], 1, 1)

    @pytest.mark.parametrize("n,depth", [(3, 1), (2, 2), (4, 1)])
    def test_colored_cbt_finishes_in_few_nodes(self, n, depth):
        # One node per value class: all chains' commit vertices share a mask,
        # and so do their abort vertices.
        task = build_task(CbtConfig(n=n))
        report = search_carried_simplicial_map(task, 1, depth, node_budget=1_000)
        assert report.verdict is Verdict.NO_MAP_UP_TO_DEPTH
        assert report.depth == depth
        assert report.nodes_explored < 1_000

    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_shared_mask_tasks_agree_with_oracles(self, seed):
        task = random_shared_mask_task(random.Random(seed))
        shallow = search_carried_simplicial_map(task, 1, 0)
        expected = brute_force_depth0_map(task, 1)
        assert (shallow.verdict is Verdict.MAP_FOUND) == (expected is not None)
        deep = search_carried_simplicial_map(task, 1, 1)
        for depth, report in ((0, shallow), (1, deep)):
            if report.verdict is Verdict.MAP_FOUND:
                assert assignment_is_valid(task, 1, depth, report.assignment)
            else:
                assert report.verdict is Verdict.NO_MAP_UP_TO_DEPTH
        # The carrier map is monotonic, so a map at depth 0 persists at depth 1.
        if shallow.verdict is Verdict.MAP_FOUND:
            assert deep.verdict is Verdict.MAP_FOUND

    def test_shared_mask_tasks_agree_with_exact_t1_oracle(self):
        # Shared-mask images are induced and the carrier map is monotonic, so
        # the search's rule, each subdivided facet inside an output simplex,
        # is exact there.  Seed 99 at depth 2 backtracks past the budget.
        over_budget = []
        for seed in range(150):
            task = random_shared_mask_task(random.Random(seed))
            for depth in (0, 1, 2):
                try:
                    report = search_carried_simplicial_map(task, 1, depth, node_budget=200_000)
                except ResourceBound:
                    over_budget.append((seed, depth))
                    continue
                assert (report.verdict is Verdict.MAP_FOUND) == t1_map_exists(task, depth)
        assert over_budget in ([], [(99, 2)])

    def test_non_monotonic_task_claims_its_depth_alone(self):
        # A map exists at depth 0 but none at depth 1, so "or below" is false.
        task = random_induced_image_task(random.Random(3))
        assert search_carried_simplicial_map(task, 1, 0).verdict is Verdict.MAP_FOUND
        deep = search_carried_simplicial_map(task, 1, 1)
        assert deep.verdict is Verdict.NO_MAP_UP_TO_DEPTH
        assert deep.note.startswith("no carried simplicial map exists at subdivision depth 1")
        assert "or below" not in deep.note

    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_or_below_claimed_exactly_for_monotonic_maps(self, seed):
        for build in (random_induced_image_task, random_shared_mask_task):
            task = build(random.Random(seed))
            deep = search_carried_simplicial_map(task, 1, 1)
            if deep.verdict is Verdict.NO_MAP_UP_TO_DEPTH:
                claims_below = deep.note.endswith(" or below")
                assert claims_below == (not monotonic_oracle(restrict_to_skeleton(task, 1)))
                if claims_below:
                    assert brute_force_depth0_map(task, 1) is None

    def test_outputs_are_pinned(self, cbt_tasks, colorless_tasks):
        # sha256 over one line per case: the verdict, node count, note and
        # assignment, or ("budget", explored) for a search cut off by its
        # budget.  The grid is CBT at n = 2, 3, colored then colorless, and
        # the shared-mask then the induced-image tasks at seeds 0-39, each at
        # t = 1 and depths 0-2; shared-mask seed 35 at depth 2 backtracks
        # through 186,575 nodes.
        tasks = [cases[n] for n in (2, 3) for cases in (cbt_tasks, colorless_tasks)]
        tasks += [
            build(random.Random(seed))
            for build in (random_shared_mask_task, random_induced_image_task)
            for seed in range(40)
        ]
        lines = []
        for task in tasks:
            for depth in (0, 1, 2):
                try:
                    r = search_carried_simplicial_map(task, 1, depth)
                    outcome = (r.verdict, r.nodes_explored, r.note, r.assignment)
                except ResourceBound as exc:
                    outcome = ("budget", exc.explored)
                lines.append(repr(outcome))
        assert len(lines) == 252
        assert hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest() == (
            "7b36c72ddde23008923467896541c96fe46f143bc7db9337b527af3b95fb405f"
        )


class TestDecide:
    def test_colored_cbt_projects_then_obstructs(self, cbt_tasks):
        report = decide(cbt_tasks[2], 1, max_depth=1)
        assert report.verdict is Verdict.UNSOLVABLE_BY_OBSTRUCTION

    def test_identity_task_finds_map_at_depth_zero(self, triangle_identity):
        report = decide(triangle_identity, 1, max_depth=2)
        assert report.verdict is Verdict.MAP_FOUND
        assert report.depth == 0

    def test_inconclusive_obstruction_falls_through_to_search(self):
        report = decide(constant_carrier_task(), 1, max_depth=0)
        assert report.verdict is Verdict.MAP_FOUND

    def test_exhausted_depths_return_the_last_search(self):
        # A triangle and an isolated vertex: the input 1-skeleton is not
        # connected, so the obstruction is inconclusive.  The subdivided
        # edge v0v1 runs from one isolated output point to the other, so no
        # depth has a map.
        u, v, w, x = (vtx(chain, "0") for chain in range(4))
        zero, one = free("0"), free("1")
        inp = cx([u, v, w], [x])
        output = cx([zero], [one])
        points = {u: zero, v: one, w: zero, x: zero}
        entries = {
            s: cx([points[s.vertices[0]]]) if s.dim == 0 else output for s in inp.simplices()
        }
        task = Task(input=inp, output=output, carrier=CarrierMap(entries), colored=False)
        assert connectivity_obstruction(task, 1).note == "input skeleton is not connected"
        assert not any(t1_map_exists(task, depth) for depth in range(3))
        report = decide(task, 1, max_depth=2)
        assert report.verdict is Verdict.NO_MAP_UP_TO_DEPTH
        assert report == search_carried_simplicial_map(task, 1, 2)

    def test_negative_max_depth_rejected(self, colorless_tasks):
        with pytest.raises(ValueError):
            decide(colorless_tasks[2], 1, max_depth=-1)


class TestRandomizedAgreement:
    """Small-scale version of the acceptance soundness cross-check."""

    def test_obstructed_tasks_agree_with_search(self):
        rng = random.Random(20260816)
        for _ in range(5):
            inp = random_connected_complex(rng, rng.randint(4, 7))
            side = {
                v: ("0" if rng.random() < 0.5 else "1") for v in inp.vertices
            }
            # force both verdicts to appear so a witness pair exists
            vs = sorted(inp.vertices, key=lambda v: v.sort_key())
            side[vs[0]], side[vs[-1]] = "0", "1"
            task = split_vote_task(inp, side)
            report = connectivity_obstruction(task, 1)
            assert report.verdict is Verdict.UNSOLVABLE_BY_OBSTRUCTION
            search = search_carried_simplicial_map(task, 1, 0)
            assert search.verdict is Verdict.NO_MAP_UP_TO_DEPTH
            assert brute_force_depth0_map(task, 1) is None

    def test_identity_tasks_always_find_maps(self):
        rng = random.Random(20260816)
        for _ in range(5):
            task = identity_task(random_connected_complex(rng, rng.randint(4, 7)))
            report = search_carried_simplicial_map(task, 1, 0)
            assert report.verdict is Verdict.MAP_FOUND
            assert assignment_is_valid(task, 1, 0, report.assignment)
            assert brute_force_depth0_map(task, 1) is not None
