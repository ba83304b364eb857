"""Task triples, carrier-map validation, and the structural property checks."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from cbtopo import CbtConfig, build_colorless_task, build_task
from cbtopo.errors import BadResilience, InvalidTask, NotColored
from cbtopo.serialize import task_from_obj, task_to_obj, vertex_from_obj
from cbtopo.simplicial import Complex, Simplex, Value, Vertex, _bits, _maximal, _Numbering
from cbtopo.tasks import (
    CarrierMap,
    PropertyCheck,
    Task,
    colorless_projection,
    restrict_to_skeleton,
    verify_monotonic,
    verify_name_preserving,
    verify_rigid,
)

from helpers import (
    cx,
    free,
    identity_task,
    maximal_facets,
    monotonic_oracle,
    projection_oracle,
    random_induced_image_task,
    random_shared_mask_task,
    replace_image,
    replace_images,
    rigid_oracle,
    sx,
    vtx,
)


def assert_valid(task):
    """``validate_for`` accepts the task, and the task rebuilt from its
    carrier's items through the validating constructor equals it."""
    task.carrier.validate_for(task.input, task.output)
    rebuilt = Task(
        input=task.input,
        output=task.output,
        carrier=CarrierMap(dict(task.carrier.items())),
        colored=task.colored,
    )
    assert rebuilt == task


@pytest.fixture
def triangle_task():
    """Identity task over the full triangle on three colored vertices."""
    return identity_task(cx([vtx(0, "0"), vtx(1, "0"), vtx(2, "0")]))


class TestPropertyCheck:
    def test_truthiness_tracks_ok(self):
        assert PropertyCheck(name="x", ok=True)
        assert not PropertyCheck(name="x", ok=False)


class TestCarrierMap:
    def test_lookup_len_contains(self, triangle_task):
        carrier = triangle_task.carrier
        s = triangle_task.input.facets[0]
        assert carrier[s] == Complex([s])
        assert s in carrier
        assert sx(vtx(0, "0"), vtx(9, "0")) not in carrier
        assert len(carrier) == 7

    def test_domain_and_items_in_canonical_order(self, triangle_task):
        domain = [s for s, _ in triangle_task.carrier.items()]
        keys = [(s.dim, s.sort_key()) for s in domain]
        assert keys == sorted(keys)
        assert len(domain) == len(triangle_task.carrier)

    def test_equality(self, triangle_task):
        same = CarrierMap(dict(triangle_task.carrier.items()))
        assert same == triangle_task.carrier
        smaller = CarrierMap({s: img for s, img in list(triangle_task.carrier.items())[:3]})
        assert smaller != triangle_task.carrier
        assert (triangle_task.carrier == triangle_task.input) is False

    def test_missing_entry_rejected(self, triangle_task):
        entries = dict(triangle_task.carrier.items())
        removed = min(entries, key=lambda s: (s.dim, s.sort_key()))
        del entries[removed]
        with pytest.raises(InvalidTask, match="no entry"):
            Task(
                input=triangle_task.input,
                output=triangle_task.output,
                carrier=CarrierMap(entries),
                colored=True,
            )

    def test_foreign_entry_rejected(self, triangle_task):
        entries = dict(triangle_task.carrier.items())
        foreign = sx(vtx(9, "0"))
        entries[foreign] = triangle_task.output
        with pytest.raises(InvalidTask, match="foreign simplex"):
            Task(
                input=triangle_task.input,
                output=triangle_task.output,
                carrier=CarrierMap(entries),
                colored=True,
            )

    def test_image_outside_output_rejected(self, triangle_task):
        entries = dict(triangle_task.carrier.items())
        some = next(iter(entries))
        entries[some] = cx([vtx(9, "0")])
        with pytest.raises(InvalidTask, match="not a subcomplex"):
            Task(
                input=triangle_task.input,
                output=triangle_task.output,
                carrier=CarrierMap(entries),
                colored=True,
            )


def wide_triangle_task():
    """The identity task on a triangle whose input and output lie on
    numberings with one vertex they do not use, bit 0 on both, so a
    carrier map built from objects numbers its vertices otherwise."""
    spare = vtx(0, "0")
    triangle = [vtx(1, "1"), vtx(2, "1"), vtx(3, "1")]
    inp = cx([spare], triangle).induced_subcomplex(triangle)
    entries = {s: Complex([s]) for s in inp.simplices()}
    return Task(input=inp, output=cx([spare], triangle), carrier=CarrierMap(entries), colored=True)


def reordered_task():
    """``build_task`` at n=1 read back from a file that lists one two-facet
    image twice, the copy with its facets reversed, and names the copy from
    every other entry that names the image; both copies must read as one
    number."""
    obj = task_to_obj(build_task(CbtConfig(n=1, block_index=7)))
    images, entries = obj["images"], obj["carrier"]
    k = next(k for k, image in enumerate(images) if len(image) == 2
             and sum(entry[1] == k for entry in entries) > 1)
    images.append(images[k][::-1])
    named = [entry for entry in entries if entry[1] == k]
    for entry in named[1::2]:
        entry[1] = len(images) - 1
    task = task_from_obj(obj)
    vertices = [vertex_from_obj(v) for v in obj["vertices"]]
    space, ids = task.input._space, task.carrier._ids
    assert len({ids[space.mask(vertices[i] for i in entry[0])] for entry in named}) == 1
    return task


class TestCarrierTable:
    def test_validate_for_returns_the_map_on_the_complexes_numberings(self):
        task = wide_triangle_task()
        carrier = CarrierMap(dict(task.carrier.items()))
        assert not carrier._in.same(task.input._space)
        assert not carrier._out.same(task.output._space)
        fields = [getattr(carrier, name) for name in CarrierMap.__slots__]
        copies = dict(carrier._ids), list(carrier._images)
        validated = carrier.validate_for(task.input, task.output)
        assert isinstance(validated, CarrierMap)
        assert validated._in.same(task.input._space)
        assert validated._out.same(task.output._space)
        assert set(validated._ids) == {task.input._space.mask(s) for s in task.input.simplices()}
        assert validated == carrier
        assert validated.validate_for(task.input, task.output) is validated
        # The receiver is left as it was.
        assert all(
            getattr(carrier, name) is value for name, value in zip(CarrierMap.__slots__, fields)
        )
        assert (carrier._ids, carrier._images) == copies

    @pytest.mark.parametrize(
        "make",
        [
            wide_triangle_task,
            lambda: build_task(CbtConfig(n=2, block_index=7)),
            lambda: build_colorless_task(CbtConfig(n=2, block_index=7)),
            lambda: task_from_obj(task_to_obj(build_task(CbtConfig(n=2)))),
            reordered_task,
            lambda: restrict_to_skeleton(build_task(CbtConfig(n=3)), 1),
            lambda: colorless_projection(build_task(CbtConfig(n=2))),
            lambda: colorless_projection(wide_triangle_task()),
        ],
        ids=[
            "Task", "build_task", "build_colorless_task", "task_from_obj",
            "task_from_obj-reordered", "restrict_to_skeleton",
            "colorless_projection", "colorless_projection-wide",
        ],
    )
    def test_carrier_is_one_table_on_the_task_numberings(self, make):
        task = make()
        carrier = task.carrier
        assert carrier._in.same(task.input._space)
        assert carrier._out.same(task.output._space)
        # One number per distinct image.
        assert len(set(carrier._images)) == len(carrier._images)
        assert set(carrier._ids) == set(task._simplices())
        assert set(carrier._ids.values()) <= set(range(len(carrier._images)))

    def test_restriction_shares_the_image_list(self, cbt_tasks):
        restricted = restrict_to_skeleton(cbt_tasks[2], 1)
        assert restricted.carrier._images is cbt_tasks[2].carrier._images


class TestTaskValidation:
    def test_bottom_in_output_rejected(self):
        bad_out = cx([vtx(0, "bot")])
        inp = cx([vtx(0, "1")])
        entries = {s: bad_out for s in inp.simplices()}
        with pytest.raises(InvalidTask, match="suspended value"):
            Task(input=inp, output=bad_out, carrier=CarrierMap(entries), colored=True)

    def test_colored_task_needs_blocks_everywhere(self):
        inp = cx([free("1")])
        out = cx([vtx(0, "1")])
        entries = {s: out for s in inp.simplices()}
        with pytest.raises(InvalidTask, match="block-labeled"):
            Task(input=inp, output=out, carrier=CarrierMap(entries), colored=True)

    def test_colorless_task_needs_unlabeled_outputs(self):
        inp = cx([vtx(0, "1")])
        out = cx([vtx(0, "1")])
        entries = {s: out for s in inp.simplices()}
        with pytest.raises(InvalidTask, match="unlabeled"):
            Task(input=inp, output=out, carrier=CarrierMap(entries), colored=False)

    def test_equal_tasks_hash_alike(self, triangle_task):
        twin = identity_task(triangle_task.input)
        assert twin == triangle_task
        assert hash(twin) == hash(triangle_task)


class TestVerifyChecks:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cbt_task_satisfies_all_three(self, cbt_tasks, n):
        task = cbt_tasks[n]
        assert verify_monotonic(task).ok
        assert verify_rigid(task).ok
        assert verify_name_preserving(task).ok

    def test_monotonic_catches_shrunken_image(self, cbt_tasks):
        task = cbt_tasks[1]
        edge = sx(vtx(0, "1"), vtx(1, "1"))
        vertex_only = task.output.induced_subcomplex({vtx(0, "1")})
        broken = replace_image(task, edge, vertex_only)
        check = verify_monotonic(broken)
        assert not check.ok
        face, coface = check.counterexample
        assert coface == edge
        assert face.vertex_set <= coface.vertex_set
        assert "not contained" in check.detail

    def test_monotonic_reports_dropped_vertex(self, cbt_tasks):
        # dropping one vertex from one facet image breaks some face inclusion
        task = cbt_tasks[1]
        edge = sx(vtx(0, "0"), vtx(1, "0"))
        image = task.carrier[edge]
        kept = [v for v in image.vertices if v != vtx(0, "1")]
        broken = replace_image(task, edge, task.output.induced_subcomplex(kept))
        check = verify_monotonic(broken)
        assert not check.ok

    def test_monotonic_matches_all_faces_oracle(self):
        # Codimension-1 checks agree with every proper face; the swapped
        # copies give both verdicts.
        verdicts = set()
        for seed in range(120):
            rng = random.Random(seed)
            task = random_shared_mask_task(rng)
            assert not monotonic_oracle(task)
            simplex = rng.choice(task.input.simplices())
            picked = rng.sample(task.output.vertices, rng.randint(1, 2))
            swapped = replace_image(task, simplex, task.output.induced_subcomplex(picked))
            for candidate in (task, swapped):
                check = verify_monotonic(candidate)
                violations = monotonic_oracle(candidate)
                assert check.ok == (not violations)
                verdicts.add(check.ok)
                if not check.ok:
                    face, coface = check.counterexample
                    assert face.vertex_set <= coface.vertex_set
                    assert face.dim == coface.dim - 1
                    assert (face, coface) in violations
        assert verdicts == {True, False}

    def test_rigid_catches_dimension_drop(self, cbt_tasks):
        task = cbt_tasks[1]
        edge = sx(vtx(0, "1"), vtx(1, "1"))
        flat = task.output.induced_subcomplex({vtx(0, "1"), vtx(1, "1")})
        assert flat.dimension == 1
        point = task.output.induced_subcomplex({vtx(0, "1")})
        broken = replace_image(task, edge, point)
        check = verify_rigid(broken)
        assert not check.ok
        assert check.counterexample == (edge,)
        assert "dimension 0" in check.detail

    def test_rigid_accepts_impure_images_of_matching_dimension(self, cbt_tasks):
        # the mixed commit/suspended edge maps to an impure complex of dim 1
        task = cbt_tasks[1]
        edge = sx(vtx(0, "1"), vtx(1, "bot"))
        image = task.carrier[edge]
        assert not image.is_pure()
        assert image.dimension == edge.dim
        assert verify_rigid(task).ok

    def test_name_preserving_catches_foreign_block(self, cbt_tasks):
        task = cbt_tasks[1]
        vertex = sx(vtx(0, "1"))
        wrong = task.output.induced_subcomplex({vtx(1, "1")})
        broken = replace_image(task, vertex, wrong)
        check = verify_name_preserving(broken)
        assert not check.ok
        assert check.counterexample == (vertex,)

    # The image of a mixed edge on chains 0 and 1, which the three mixed
    # edges there share, spoiled in three ways: its commit vertex of chain 1
    # dropped (only monotonic fails), cut to one point (every check fails),
    # or moved to chains 2 and 3 (rigid holds, the other two fail).
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "distinct"])
    @pytest.mark.parametrize("kept", [
        [vtx(0, "0"), vtx(1, "0"), vtx(0, "1")],
        [vtx(0, "0")],
        [vtx(2, "0"), vtx(3, "0"), vtx(2, "1"), vtx(3, "1")],
    ], ids=["dropped", "point", "moved"])
    def test_spoiled_image_first_counterexample(self, cbt_tasks, kept, shared):
        task = cbt_tasks[3]
        image = task.carrier[sx(vtx(0, "1"), vtx(1, "0"))]
        spoiled = task.output.induced_subcomplex(kept)
        users = [s for s, img in task.carrier.items() if img == image]
        assert len(users) == 3
        broken = replace_images(task, users, spoiled, shared)

        def first(simplices):
            return min(simplices, key=lambda s: (s.dim, s.sort_key()))

        monotonic = verify_monotonic(broken)
        violations = [(f, c) for f, c in monotonic_oracle(broken) if f.dim == c.dim - 1]
        assert not monotonic.ok
        assert monotonic.counterexample == min(
            violations, key=lambda p: (p[1].dim, p[1].sort_key(), p[0].sort_key())
        )
        rigid, flat = verify_rigid(broken), rigid_oracle(broken)
        assert rigid.ok == (not flat)
        if flat:
            assert rigid.counterexample == (first(flat),)
        names = verify_name_preserving(broken)
        renamed = {
            s for s, img in broken.carrier.items()
            if {v.block for v in img.vertices} != {v.block for v in s}
        }
        assert names.ok == (not renamed)
        if renamed:
            assert names.counterexample == (first(renamed),)

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "distinct"])
    def test_image_outside_output_named_by_first_entry(self, cbt_tasks, shared):
        # Entries listed last simplex first: the message names the first
        # entry, in the map's own order, whose image leaves the output.
        task = cbt_tasks[3]
        image = task.carrier[sx(vtx(0, "1"), vtx(1, "0"))]
        mixed = cx([vtx(0, "0"), vtx(1, "1")])
        entries = {}
        for s, img in reversed(list(task.carrier.items())):
            entries[s] = img if img != image else mixed if shared else cx([vtx(0, "0"), vtx(1, "1")])
        named = next(s for s, img in entries.items() if img == mixed)
        with pytest.raises(InvalidTask) as raised:
            Task(input=task.input, output=task.output, carrier=CarrierMap(entries), colored=True)
        assert str(raised.value) == f"carrier image of {named} is not a subcomplex of the output"

    def test_name_preserving_needs_colors(self, colorless_tasks):
        with pytest.raises(NotColored):
            verify_name_preserving(colorless_tasks[1])


class TestRestrictToSkeleton:
    def test_counts_for_one_skeleton(self, cbt_tasks):
        task = cbt_tasks[2]
        restricted = restrict_to_skeleton(task, 1)
        assert restricted.input.f_vector == (9, 27)
        assert len(restricted.carrier) == 36
        assert restricted.output == task.output
        assert restricted.colored == task.colored

    def test_images_are_shared_not_recomputed(self, cbt_tasks):
        task = cbt_tasks[2]
        restricted = restrict_to_skeleton(task, 1)
        for s, image in restricted.carrier.items():
            assert image == task.carrier[s]

    @pytest.mark.parametrize("n,t", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    def test_restricted_tasks_validate(self, cbt_tasks, colorless_tasks, n, t):
        for task in (cbt_tasks[n], colorless_tasks[n]):
            restricted = restrict_to_skeleton(task, t)
            assert_valid(restricted)
            domain = {s for s, _ in restricted.carrier.items()}
            assert domain == set(task.input.skeleton(t).simplices())

    @pytest.mark.parametrize("t", [0, 3, -1])
    def test_out_of_range_rejected(self, cbt_tasks, t):
        with pytest.raises(BadResilience):
            restrict_to_skeleton(cbt_tasks[2], t)


class TestColorlessProjection:
    def test_output_collapses_to_two_verdict_vertices(self, cbt_tasks):
        projected = colorless_projection(cbt_tasks[2])
        assert not projected.colored
        assert projected.input is cbt_tasks[2].input
        assert projected.output.facets == (sx(free("0")), sx(free("1")))

    def test_carrier_images_project_vertexwise(self, cbt_tasks):
        task = cbt_tasks[1]
        projected = colorless_projection(task)
        for s, image in task.carrier.items():
            expected = {Vertex(None, v.value) for v in image.vertices}
            assert set(projected.carrier[s].vertices) == expected

    def test_mixed_edges_project_to_both_verdicts(self, cbt_tasks):
        projected = colorless_projection(cbt_tasks[1])
        mixed = sx(vtx(0, "1"), vtx(1, "0"))
        assert projected.carrier[mixed].facets == (sx(free("0")), sx(free("1")))
        all_bot = sx(vtx(0, "bot"), vtx(1, "bot"))
        assert projected.carrier[all_bot].facets == (sx(free("0")),)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_projected_tasks_validate(self, cbt_tasks, n):
        assert_valid(colorless_projection(cbt_tasks[n]))

    def test_projecting_twice_rejected(self, colorless_tasks):
        with pytest.raises(NotColored, match="already colorless"):
            colorless_projection(colorless_tasks[1])

    @staticmethod
    def check_tables(task):
        """The projection's tables are those of the definition that cuts
        every distinct image to its maximal facets on its own: the same
        output numbering and facets, ids and image list, in order."""
        projected = colorless_projection(task)
        output = task.output
        vertices = output._space.vertices
        free_of = {i: Vertex(None, vertices[i].value) for i in _bits(output._support)}
        space = _Numbering.of(free_of.values())

        def project(mask):
            return space.mask(free_of[i] for i in _bits(mask))

        number = {}
        moved = [number.setdefault(_maximal(map(project, image)), len(number))
                 for image in task.carrier._images]
        assert projected.output._space.vertices == space.vertices
        assert projected.output._facets == _maximal(map(project, output._facets))
        assert list(projected.carrier._ids.items()) == [
            (s, moved[k]) for s, k in task.carrier._ids.items()
        ]
        assert projected.carrier._images == list(number)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tables_on_cbt_tasks(self, n):
        self.check_tables(build_task(CbtConfig(n=n, block_index=7)))

    @pytest.mark.parametrize("seed", range(12))
    def test_tables_on_random_tasks(self, seed):
        self.check_tables(random_shared_mask_task(random.Random(seed)))
        self.check_tables(random_induced_image_task(random.Random(seed)))


@settings(max_examples=80)
@given(st.integers(min_value=0, max_value=2**32), st.booleans())
def test_mask_checks_match_oracles(seed, induced):
    """The mask checks, the projection and the restriction against
    frozenset oracles, on monotonic and on induced (in general not
    monotonic) random tasks; every derived task passes ``validate_for``."""
    task = (random_induced_image_task if induced else random_shared_mask_task)(random.Random(seed))
    # A check reports the first failure in canonical order: the coface by
    # (dimension, key), then its faces in ``boundary`` order, which is key
    # order.
    monotonic = verify_monotonic(task)
    violations = [(f, c) for f, c in monotonic_oracle(task) if f.dim == c.dim - 1]
    assert monotonic.ok == (not violations)
    if violations:
        assert monotonic.counterexample == min(
            violations, key=lambda p: (p[1].dim, p[1].sort_key(), p[0].sort_key())
        )
    rigid = verify_rigid(task)
    flat = rigid_oracle(task)
    assert rigid.ok == (not flat)
    if flat:
        assert rigid.counterexample == (min(flat, key=lambda s: (s.dim, s.sort_key())),)
    projected = colorless_projection(task)
    assert_valid(projected)
    output, images = projection_oracle(task)
    for complex_, closure in (
        (projected.output, output),
        *((image, images[s]) for s, image in projected.carrier.items()),
    ):
        facets = complex_.facets
        assert {f.vertex_set for f in facets} == maximal_facets(closure)
        assert list(facets) == sorted(facets, key=lambda f: f.sort_key())
    for derived in (task, projected):
        restricted = restrict_to_skeleton(derived, 1)
        assert_valid(restricted)
        for s, image in restricted.carrier.items():
            assert s.dim <= 1
            assert image == derived.carrier[s]
