"""JSON round trips for vertices, complexes, tasks, reports, traces."""
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from cbtopo import CbtConfig, build_colorless_task, build_task, decide, serialize
from cbtopo.errors import InvalidTask, MalformedTrace
from cbtopo.forksim import (
    RandomMode,
    ScheduleAction,
    TwoPhaseCommit,
    check_trace,
    find_violation,
    run,
)
from cbtopo.serialize import (
    dumps,
    report_to_obj,
    simplex_to_obj,
    task_from_json,
    task_from_obj,
    task_to_json,
    task_to_obj,
    trace_from_jsonl,
    trace_to_jsonl,
    vertex_from_obj,
    vertex_to_obj,
)
from cbtopo.simplicial import Complex, Simplex, barycentric_subdivide
from cbtopo.tasks import CarrierMap, Task, colorless_projection, restrict_to_skeleton

from helpers import (
    TASK_FILE_FAULTS,
    closure_oracle,
    cx,
    free,
    identity_task,
    random_induced_image_task,
    random_shared_mask_task,
    split_vote_task,
    sx,
    task_obj_oracle,
    task_obj_oracle_format1,
    vertex_key_oracle,
    vtx,
)


class TestVertexObjects:
    def test_colored_round_trip(self):
        v = vtx(1, "bot", block=3)
        obj = vertex_to_obj(v)
        assert obj == {"chain": 1, "block": 3, "value": "bot"}
        assert vertex_from_obj(obj) == v

    def test_colorless_round_trip(self):
        v = free("0")
        obj = vertex_to_obj(v)
        assert obj == {"chain": None, "block": None, "value": "0"}
        assert vertex_from_obj(obj) == v

    def test_subdivision_vertex_shape(self):
        result = barycentric_subdivide(cx([vtx(0, "1"), vtx(1, "1")]), 1)
        barycenter = next(
            v for v in result.complex.vertex_set if len(v.below) == 2
        )
        obj = vertex_to_obj(barycenter)
        assert set(obj) == {"level", "carrier", "below"}
        assert obj["level"] == 1
        assert len(obj["below"]) == 2

    def test_unserializable_vertex(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            vertex_to_obj("v0.0=1")

    @pytest.mark.parametrize(
        "obj",
        [
            {"chain": 0, "block": 0},  # missing value
            {"chain": 0, "value": "1"},  # missing block
            {"chain": 0, "block": 0, "value": "2"},  # bad code
            {"chain": 0, "block": None, "value": "1"},  # half-labeled
            {"chain": None, "block": 4, "value": "1"},
        ],
    )
    def test_malformed_vertex_objects(self, obj):
        with pytest.raises(InvalidTask):
            vertex_from_obj(obj)


class TestComplexObjects:
    def test_simplex_round_trip(self):
        s = sx(vtx(0, "1"), vtx(1, "bot"))
        assert Simplex(map(vertex_from_obj, simplex_to_obj(s))) == s

    def test_complex_round_trip(self):
        c = cx([vtx(0, "1"), vtx(1, "0")], [vtx(2, "bot")])
        task = split_vote_task(c, dict.fromkeys(c.vertices, "1"))
        assert task_from_obj(task_to_obj(task)).input == c

    def test_input_that_is_not_a_facet_list(self):
        obj = task_to_obj(identity_task(cx([vtx(0, "1")])))
        # A format-1 complex object, and an empty facet list.
        for complex_obj in ({"facets": obj["input"]}, []):
            with pytest.raises(InvalidTask, match="malformed 'input'"):
                task_from_obj({**obj, "input": complex_obj})


class TestTaskObjects:
    @pytest.mark.parametrize("colorless", [False, True])
    def test_cbt_task_round_trip(self, colorless, cbt_tasks, colorless_tasks):
        task = (colorless_tasks if colorless else cbt_tasks)[1]
        again = task_from_obj(task_to_obj(task))
        assert again == task
        assert again.colored == task.colored

    def test_identity_task_round_trip(self):
        task = identity_task(cx([vtx(0, "1"), vtx(1, "0")]))
        assert task_from_obj(task_to_obj(task)) == task

    def test_obj_shape(self, cbt_tasks):
        obj = task_to_obj(cbt_tasks[1])
        assert list(obj) == ["format", "vertices", "input", "output", "images", "carrier",
                             "colored"]
        assert obj["format"] == 2 and obj["colored"] is True
        assert len(obj["vertices"]) == 6
        simplex, image = obj["carrier"][0]
        assert simplex == [0] and type(image) is int

    @pytest.mark.parametrize("key", ["vertices", "input", "output", "images", "carrier",
                                     "colored"])
    def test_missing_top_level_key(self, key, cbt_tasks):
        obj = task_to_obj(cbt_tasks[1])
        del obj[key]
        with pytest.raises(InvalidTask, match=f"malformed task object: missing '{key}'"):
            task_from_obj(obj)

    def test_malformed_carrier_entry(self, cbt_tasks):
        obj = task_to_obj(cbt_tasks[1])
        del obj["carrier"][3][1]
        with pytest.raises(InvalidTask, match=r"malformed 'carrier' item 3: need \[simplex"):
            task_from_obj(obj)

    def test_reloaded_task_is_revalidated(self, cbt_tasks):
        obj = task_to_obj(cbt_tasks[1])
        # poison one carrier image with a verdict outside the output complex
        obj["vertices"].append({"chain": 9, "block": 9, "value": "1"})
        obj["images"][0] = [[len(obj["vertices"]) - 1]]
        with pytest.raises(InvalidTask, match="is not a subcomplex of the output"):
            task_from_obj(obj)

    @pytest.mark.parametrize("fault", list(TASK_FILE_FAULTS))
    def test_each_fault_is_named(self, fault, cbt_tasks):
        spoil, message = TASK_FILE_FAULTS[fault]
        obj = task_to_obj(cbt_tasks[2])
        spoil(obj)
        with pytest.raises(InvalidTask, match=message):
            task_from_obj(obj)

    def test_a_format_1_file_is_refused(self, cbt_tasks):
        text = json.dumps(task_obj_oracle_format1(cbt_tasks[1]), indent=2)
        with pytest.raises(InvalidTask, match=r"format is None, not 2: run `cbtopo build` again"):
            task_from_json(text)

    def test_each_listed_vertex_is_decoded_once(self, monkeypatch):
        text = task_to_json(build_task(CbtConfig(n=3, block_index=7)))
        decode, decoded = serialize.vertex_from_obj, []

        def counted(obj):
            decoded.append(obj)
            return decode(obj)

        monkeypatch.setattr(serialize, "vertex_from_obj", counted)
        task_from_json(text)
        assert decoded == json.loads(text)["vertices"]


def _key(vertex):
    """A vertex as the (chain, block, value) of its file object."""
    block = vertex.block
    return (block and block.chain, block and block.block, vertex.value.value)


def _obj_key(obj):
    return obj["chain"], obj["block"], obj["value"]


@pytest.fixture(scope="module")
def cbt_texts():
    """The task file of every CBT task at n = 1..4, colored and colorless."""
    return {
        (n, colorless): task_to_json(
            (build_colorless_task if colorless else build_task)(CbtConfig(n=n, block_index=7))
        )
        for n in (1, 2, 3, 4)
        for colorless in (False, True)
    }


class TestSkeletonOfARead:
    """``restrict_to_skeleton`` of a read file against the file read with
    plain ``json``: the skeleton is ``closure_oracle`` of the input facets
    cut to at most d + 1 vertices, and the carrier holds exactly the file's
    entries of at most d + 1 vertices."""

    @pytest.mark.parametrize("colorless", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_skeleton_matches_the_file(self, n, colorless, cbt_texts):
        text = cbt_texts[n, colorless]
        file = json.loads(text)
        keys = [_obj_key(v) for v in file["vertices"]]

        def named(indices):
            return frozenset(keys[i] for i in indices)

        input_facets = [named(f) for f in file["input"]]
        assert max(map(len, input_facets)) == n + 1
        closure = closure_oracle(input_facets)
        task = task_from_json(text)
        assert task.input.dimension == n
        for dim in range(1, n + 1):
            restricted = restrict_to_skeleton(task, dim)
            assert restricted.colored is file["colored"]
            skeleton = {frozenset(map(_key, s)) for s in restricted.input.simplices()}
            assert skeleton == {s for s in closure if len(s) <= dim + 1}
            assert {
                frozenset(map(_key, s)): {frozenset(map(_key, f)) for f in image.facets}
                for s, image in restricted.carrier.items()
            } == {
                named(s): {named(f) for f in file["images"][k]}
                for s, k in file["carrier"]
                if len(s) <= dim + 1
            }
            assert {frozenset(map(_key, f)) for f in restricted.output.facets} == set(
                map(named, file["output"])
            )


def _derived_tasks(n):
    """The CBT task's colorless projection and the skeletons of both: skeleton
    inputs and projected images, each of its own tuple."""
    task = build_task(CbtConfig(n=n, block_index=7))
    projected = colorless_projection(task)
    yield projected
    for t in range(1, n):
        yield restrict_to_skeleton(task, t)
        yield restrict_to_skeleton(projected, t)


def _assert_same_text(got, expected):
    """``got == expected``; on a mismatch, the first differing line and its
    number, as the assertion's diff of texts of up to a megabyte would
    take minutes to build."""
    if got == expected:
        return
    pairs = itertools.zip_longest(got.split("\n"), expected.split("\n"))
    number, (line, wanted) = next((i, p) for i, p in enumerate(pairs, 1) if p[0] != p[1])
    pytest.fail(f"texts differ first at line {number}: {line!r} != {wanted!r}", pytrace=False)


class TestTaskWriter:
    """``task_to_json`` is compact JSON of an independently built task
    object."""

    @staticmethod
    def check(task):
        _assert_same_text(
            task_to_json(task),
            json.dumps(task_obj_oracle(task), separators=(",", ":")) + "\n",
        )

    @pytest.mark.parametrize("colorless", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cbt_tasks(self, n, colorless):
        config = CbtConfig(n=n, block_index=7)
        self.check(build_colorless_task(config) if colorless else build_task(config))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_tasks(self, seed):
        self.check(random_shared_mask_task(random.Random(seed)))
        self.check(random_induced_image_task(random.Random(seed)))

    def test_identity_task(self):
        self.check(identity_task(cx([vtx(0, "1"), vtx(1, "0"), vtx(2, "1")])))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_derived_cbt_tasks(self, n):
        for task in _derived_tasks(n):
            self.check(task)

    @pytest.mark.parametrize("seed", range(3))
    def test_equal_images_as_distinct_objects(self, seed):
        # Every entry's image is a fresh complex on its own numbering, so
        # equal images reach the writer as distinct objects.
        for task in (build_task(CbtConfig(n=2, block_index=7)),
                     random_shared_mask_task(random.Random(seed))):
            entries = {s: Complex(image.facets) for s, image in task.carrier.items()}
            assert len({id(image) for image in entries.values()}) == len(entries)
            self.check(Task(input=task.input, output=task.output,
                            carrier=CarrierMap(entries), colored=task.colored))

    def test_task_to_obj_returns_fresh_objects(self, cbt_tasks):
        first = task_to_obj(cbt_tasks[1])
        first["vertices"][0]["value"] = "bot"
        first["input"][0].append(5)
        second = task_to_obj(cbt_tasks[1])
        assert second["vertices"][0]["value"] != "bot"
        assert 5 not in second["input"][0]


def _assert_same_read(got, expected):
    """Two reads of one task agree: the same numbering, id table and image
    list, both in order, the same facets and the same ``colored``."""
    assert isinstance(got, Task) and isinstance(expected, Task)
    for a, b in ((got.input, expected.input), (got.output, expected.output)):
        assert a._space.vertices == b._space.vertices
        assert a._facets == b._facets
    assert list(got.carrier._ids.items()) == list(expected.carrier._ids.items())
    assert got.carrier._images == expected.carrier._images
    assert got.colored is expected.colored


class TestRoundTrip:
    """``task_from_json(task_to_json(task))`` is the task, on one numbering
    of the task's own vertices, with each entry's image as the task has it;
    and it is a fixed point: read and written again, it gives the same
    text and the same numbering, id table and image list."""

    @staticmethod
    def check(task):
        text = task_to_json(task)
        read = task_from_json(text)
        assert read == task and read.colored is task.colored
        vertices = set(task.input.vertices) | set(task.output.vertices)
        space = read.input._space
        assert read.output._space is space and read.carrier._in is space
        assert space.vertices == tuple(sorted(vertices, key=vertex_key_oracle))
        carrier = task.carrier
        assert {read.input._space.simplex(s): read.carrier._images[k]
                for s, k in read.carrier._ids.items()} == {
            s: tuple(map(space.mask, image.facets)) for s, image in carrier.items()
        }
        assert len(set(read.carrier._images)) == len(read.carrier._images)
        assert task_to_json(read) == text
        _assert_same_read(task_from_json(text), read)

    @pytest.mark.parametrize("colorless", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cbt_tasks(self, n, colorless):
        config = CbtConfig(n=n, block_index=7)
        self.check(build_colorless_task(config) if colorless else build_task(config))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_derived_tasks(self, n):
        for task in _derived_tasks(n):
            self.check(task)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_tasks(self, seed):
        self.check(random_shared_mask_task(random.Random(seed)))
        self.check(random_induced_image_task(random.Random(seed)))


def _shuffled(obj, rng):
    """``obj`` with its vertices, the input's and the output's facets, each
    simplex's indices, the images, each image's facets and the carrier
    entries each in a random order, every index remapped to match."""
    order = rng.sample(range(len(obj["vertices"])), len(obj["vertices"]))
    at = {old: new for new, old in enumerate(order)}

    def simplex(indices):
        return rng.sample([at[i] for i in indices], len(indices))

    def facets(lists):
        return rng.sample([simplex(f) for f in lists], len(lists))

    image_order = rng.sample(range(len(obj["images"])), len(obj["images"]))
    image_at = {old: new for new, old in enumerate(image_order)}
    entries = [[simplex(s), image_at[k]] for s, k in obj["carrier"]]
    return {
        **obj,
        "vertices": [obj["vertices"][i] for i in order],
        "input": facets(obj["input"]),
        "output": facets(obj["output"]),
        "images": [facets(obj["images"][i]) for i in image_order],
        "carrier": rng.sample(entries, len(entries)),
    }


def _reorder_keys(obj):
    """``obj`` with the keys of it and of each vertex object reversed."""
    obj = {**obj, "vertices": [dict(reversed(v.items())) for v in obj["vertices"]]}
    return dict(reversed(obj.items()))


def _escape_a_value(text):
    # The same vertex in other text: "1" written with a JSON escape, in a
    # layout this test writes itself.
    text = dumps(json.loads(text))
    assert '"value": "1"' in text
    return text.replace('"value": "1"', '"value": "\\u0031"', 1)


def _add_face(obj):
    # A face of the first input facet, listed as a facet too.
    obj["input"].append(obj["input"][0][:1])
    return obj


_SAME_TASK_TEXTS = {
    "compact": lambda text: json.dumps(json.loads(text)),
    "pretty": lambda text: dumps(json.loads(text)),
    "keys-reordered": lambda text: json.dumps(_reorder_keys(json.loads(text)), indent=1),
    "value-escaped": _escape_a_value,
    "extra-key": lambda text: dumps({**json.loads(text), "note": "hand edited"}),
    "non-maximal-facet": lambda text: dumps(_add_face(json.loads(text))),
    "final-newline-dropped": lambda text: text[:-1],
}


class TestTaskReader:
    """The reader reads the JSON value, not its bytes, and takes no list in
    it to be in any order."""

    @staticmethod
    def check_shuffles(text, seed):
        expected = task_from_json(text)
        rng = random.Random(seed)
        for _ in range(3):
            obj = _shuffled(json.loads(text), rng)
            _assert_same_read(task_from_obj(obj), expected)
            _assert_same_read(task_from_json(dumps(obj)), expected)

    @pytest.mark.parametrize("colorless", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_shuffled_cbt_files(self, n, colorless, cbt_texts):
        text = cbt_texts[n, colorless]
        assert json.loads(text)["vertices"] != _shuffled(json.loads(text), random.Random(n))[
            "vertices"]
        self.check_shuffles(text, n)

    @pytest.mark.parametrize("seed", range(12))
    def test_shuffled_random_tasks(self, seed):
        for build in (random_shared_mask_task, random_induced_image_task):
            self.check_shuffles(task_to_json(build(random.Random(seed))), seed)

    @pytest.mark.parametrize("name", list(_SAME_TASK_TEXTS))
    @pytest.mark.parametrize("colorless", [False, True])
    def test_other_texts_of_one_value_read_the_same_task(self, name, colorless, cbt_texts):
        text = cbt_texts[2, colorless]
        other = _SAME_TASK_TEXTS[name](text)
        assert other != text
        _assert_same_read(task_from_json(other), task_from_json(text))


class TestTaskText:
    """A task file is one line of compact JSON, and the same value indented
    reads the same task."""

    @staticmethod
    def check(text):
        assert text.count("\n") == 1 and text.endswith("\n")
        assert json.dumps(json.loads(text), separators=(",", ":")) + "\n" == text
        _assert_same_read(task_from_json(_SAME_TASK_TEXTS["pretty"](text)), task_from_json(text))

    @pytest.mark.parametrize("colorless", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cbt_files(self, n, colorless, cbt_texts):
        self.check(cbt_texts[n, colorless])

    @pytest.mark.parametrize("seed", range(12))
    def test_random_tasks(self, seed):
        for build in (random_shared_mask_task, random_induced_image_task):
            self.check(task_to_json(build(random.Random(seed))))


class TestReportObjects:
    def test_obstruction_report_shape(self, cbt_tasks):
        report = decide(cbt_tasks[2], t=1, max_depth=0)
        obj = report_to_obj(report)
        assert obj["verdict"] == "unsolvable_by_obstruction"
        assert obj["parameters"] == {"n": 2, "t": 1, "depth": None}
        evidence = obj["evidence"]
        assert evidence["skeleton_reduced_b0"] == 0
        assert evidence["output_components"] == 2
        assert len(evidence["witnesses"]) == 2
        assert evidence["witness_components"] == [1, 0]
        assert evidence["assignment"] is None
        json.loads(dumps(obj))  # JSON-clean

    def test_map_report_shape(self):
        task = identity_task(cx([vtx(0, "1"), vtx(1, "1"), vtx(2, "1")]))
        report = decide(task, t=1, max_depth=0)
        obj = report_to_obj(report)
        assert obj["verdict"] == "map_found"
        assert obj["evidence"]["witnesses"] is None
        pairs = obj["evidence"]["assignment"]
        assert {tuple(sorted(p)) for p in pairs} == {("from", "to")}
        assert obj["nodes_explored"] >= 1


class TestTraceJsonl:
    def schedule(self):
        return [
            ScheduleAction(kind="step", chain=1),
            ScheduleAction(kind="suspend", chain=1),
            ScheduleAction(kind="step", chain=0),
            ScheduleAction(kind="step", chain=2),
            ScheduleAction(kind="deliver", sequence=0),
            ScheduleAction(kind="deliver", sequence=1),
        ]

    def test_line_structure(self):
        trace = run(2, 1, TwoPhaseCommit(), self.schedule())
        text = trace_to_jsonl(trace, check_trace(trace))
        assert text.endswith("\n")
        lines = [json.loads(line) for line in text.splitlines()]
        assert lines[0]["type"] == "meta"
        assert lines[0]["n"] == 2 and lines[0]["protocol"] == "2pc"
        kinds = [line["type"] for line in lines]
        assert kinds.count("event") == len(self.schedule())
        assert kinds[-2] == "outcome"
        assert kinds[-1] == "verdict"
        outcome = lines[-2]
        assert outcome["realized"] == ["1", "bot", "1"]
        assert outcome["suspended"] == [1]
        verdict = lines[-1]
        assert verdict["ok"] is False
        assert verdict["violations"][0]["kind"] == "atomicity"

    def test_compact_lines_and_optional_verdict(self):
        trace = run(2, 1, TwoPhaseCommit(), self.schedule()[:1])
        text = trace_to_jsonl(trace)
        assert ": " not in text  # compact separators
        types = [json.loads(line)["type"] for line in text.splitlines()]
        assert types == ["meta", "event", "outcome"]

    def test_deliver_events_embed_the_message(self):
        trace = run(
            2,
            1,
            TwoPhaseCommit(),
            [ScheduleAction(kind="step", chain=1), ScheduleAction(kind="deliver", sequence=0)],
        )
        lines = [json.loads(line) for line in trace_to_jsonl(trace).splitlines()]
        deliver = lines[2]
        assert deliver["kind"] == "deliver"
        assert deliver["message"] == {
            "from": 1,
            "to": 0,
            "seq": 0,
            "payload": {"kind": "vote", "value": "1"},
        }


    @pytest.mark.parametrize("seed", range(6))
    def test_read_back(self, seed):
        trace = find_violation(
            3, 1, TwoPhaseCommit(), RandomMode(seed=seed, trials=5), suspensions=seed % 2
        )
        assert trace is not None
        report = check_trace(trace)
        kinds = tuple(v.kind for v in report.violations)
        assert trace_from_jsonl(trace_to_jsonl(trace, report)) == (trace, kinds)
        assert trace_from_jsonl(trace_to_jsonl(trace)) == (trace, None)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            '{"type":"outcome"}\n',
            '{"type":"meta"}\n{"type":"verdict"}\n{"type":"outcome"}\n',
            "[]\n",
            "{\n",
        ],
    )
    def test_malformed_text(self, text):
        with pytest.raises(MalformedTrace):
            trace_from_jsonl(text)


# Strings that hold quotes, backslashes, control characters and non-ASCII
# text, which the encoder must escape as the stdlib does.
_TEXTS = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600') | st.characters())


class _Str(str):
    pass


class _Int(int):
    pass


class TestDumps:
    def test_trailing_newline_and_determinism(self, cbt_tasks):
        obj = task_to_obj(cbt_tasks[1])
        first = dumps(obj)
        second = dumps(task_to_obj(cbt_tasks[1]))
        assert first == second
        assert first.endswith("\n")
        assert json.loads(first) == obj

    def test_empty_containers_at_every_depth(self):
        obj = {"": [], "a": {}, "b": [[], {}, [[{}], {"c": []}]], "d": [{"e": {"f": {}}}]}
        assert dumps(obj) == json.dumps(obj, indent=2) + "\n"
        assert dumps([]) == "[]\n" and dumps({}) == "{}\n"

    @settings(max_examples=300)
    @given(value=st.recursive(
        st.none() | st.booleans() | st.integers() | st.integers(-(2**130), 2**130) | _TEXTS,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXTS, inner, max_size=4),
        max_leaves=40,
    ))
    def test_matches_the_stdlib_indent_encoder(self, value):
        assert dumps(value) == json.dumps(value, indent=2) + "\n"

    @pytest.mark.parametrize(
        "value,name",
        [
            (0.5, "float"),
            ((1, 2), "tuple"),
            ({1}, "set"),
            (_Str("a"), "_Str"),
            (_Int(1), "_Int"),
            ({1: "a"}, "int"),
            ({_Str("a"): 1}, "_Str"),
        ],
        ids=["float", "tuple", "set", "str-subclass", "int-subclass", "int-key", "str-subclass-key"],
    )
    @pytest.mark.parametrize("nested", [False, True])
    def test_anything_else_raises_type_error(self, value, name, nested):
        with pytest.raises(TypeError, match=rf"\b{name}\b"):
            dumps([{"a": [value]}] if nested else value)
