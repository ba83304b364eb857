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
    _task_from_layout,
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
    closure_oracle,
    cx,
    free,
    identity_task,
    random_induced_image_task,
    random_shared_mask_task,
    split_vote_task,
    sx,
    task_obj_oracle,
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

    def test_missing_facets_key(self):
        obj = task_to_obj(identity_task(cx([vtx(0, "1")])))
        for complex_obj in ({"simplices": []}, []):
            with pytest.raises(InvalidTask, match="'facets' list"):
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
        assert set(obj) == {"input", "output", "carrier", "colored"}
        assert obj["colored"] is True
        entry = obj["carrier"][0]
        assert set(entry) == {"simplex", "image_facets"}

    def test_missing_top_level_key(self):
        with pytest.raises(InvalidTask, match="malformed task object"):
            task_from_obj({})

    def test_malformed_carrier_entry(self, cbt_tasks):
        obj = task_to_obj(cbt_tasks[1])
        del obj["carrier"][0]["image_facets"]
        with pytest.raises(InvalidTask, match="malformed carrier entry"):
            task_from_obj(obj)

    def test_reloaded_task_is_revalidated(self, cbt_tasks):
        obj = task_to_obj(cbt_tasks[1])
        # poison one carrier image with a verdict outside the output complex
        obj["carrier"][0]["image_facets"] = [
            [{"chain": 9, "block": 9, "value": "1"}]
        ]
        with pytest.raises(InvalidTask):
            task_from_obj(obj)



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
        input_facets = [list(map(_obj_key, f)) for f in file["input"]["facets"]]
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
                frozenset(map(_obj_key, e["simplex"])): {
                    frozenset(map(_obj_key, f)) for f in e["image_facets"]
                }
                for e in file["carrier"]
                if len(e["simplex"]) <= dim + 1
            }
            assert {frozenset(map(_key, f)) for f in restricted.output.facets} == {
                frozenset(map(_obj_key, f)) for f in file["output"]["facets"]
            }


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
    """``task_to_json`` is ``dumps`` of an independently built task object."""

    @staticmethod
    def check(task):
        text = task_to_json(task)
        _assert_same_text(text, json.dumps(task_obj_oracle(task), indent=2) + "\n")
        _assert_same_text(dumps(task_to_obj(task)), text)

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
        # Skeleton inputs and projected images, each of its own tuple.
        task = build_task(CbtConfig(n=n, block_index=7))
        projected = colorless_projection(task)
        self.check(projected)
        for t in range(1, n):
            self.check(restrict_to_skeleton(task, t))
            self.check(restrict_to_skeleton(projected, t))

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
        first["input"]["facets"][0][0]["value"] = "bot"
        assert task_to_obj(cbt_tasks[1])["input"]["facets"][0][0]["value"] != "bot"


def _general(text):
    return task_from_obj(json.loads(text))


def _outcome(read, text):
    """What ``read(text)`` gives: the task, or its error's type and message."""
    try:
        return read(text)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_same_read(got, expected):
    """Two reads of one file agree: the same numbering, id table and image
    list, both in order, the same facets and the same ``colored``."""
    assert isinstance(got, Task) and isinstance(expected, Task)
    for a, b in ((got.input, expected.input), (got.output, expected.output)):
        assert a._space.vertices == b._space.vertices
        assert a._facets == b._facets
    assert list(got.carrier._ids.items()) == list(expected.carrier._ids.items())
    assert got.carrier._images == expected.carrier._images
    assert got.colored is expected.colored


def _edited(edit):
    """A perturbation of a task file that edits its object and writes it
    back in the writer's own indentation."""

    def perturb(text):
        obj = json.loads(text)
        edit(obj)
        return dumps(obj)

    return perturb


def _swap_entries(obj):
    # Two entries of one dimension whose images differ.
    carrier = obj["carrier"]
    i, j = next(
        (i, j) for i, j in itertools.combinations(range(len(carrier)), 2)
        if len(carrier[i]["simplex"]) == len(carrier[j]["simplex"])
        and carrier[i]["image_facets"] != carrier[j]["image_facets"]
    )
    carrier[i], carrier[j] = carrier[j], carrier[i]


def _reverse_image(obj):
    next(e for e in obj["carrier"] if len(e["image_facets"]) > 1)["image_facets"].reverse()


def _add_face(obj):
    facets = obj["input"]["facets"]
    assert len(facets[0]) > 1
    facets.append(facets[0][:1])


def _first_vertex(edit):
    """A perturbation that rewrites the text of the file's first vertex
    object, an input vertex, and leaves every other byte as written."""

    def perturb(text):
        start = text.index("{", len('{\n  "input": {'))
        end = text.index("}", start) + 1
        return text[:start] + edit(text[start:end]) + text[end:]

    return perturb


def _reorder_keys(vertex_text):
    vertex = json.loads(vertex_text)
    return json.dumps({key: vertex[key] for key in reversed(vertex)}, indent=2).replace(
        "\n", "\n" + " " * 8
    )


def _escape_a_value(text):
    # The same vertex in other text: "1" written with a JSON escape.
    assert '"value": "1"' in text
    return text.replace('"value": "1"', '"value": "\\u0031"', 1)


_PERTURBATIONS = {
    "compact": lambda text: json.dumps(json.loads(text)),
    "entries-swapped": _edited(_swap_entries),
    "image-reversed": _edited(_reverse_image),
    "non-maximal-facet": _edited(_add_face),
    "extra-key": _edited(lambda obj: obj.update(note="hand edited")),
    "duplicated-entry": _edited(lambda obj: obj["carrier"].append(obj["carrier"][0])),
    "vertex-in-one-image": _edited(
        lambda obj: obj["carrier"][-1]["image_facets"].append(
            [{"chain": 9, "block": 7, "value": "1"}]
        )
    ),
    "final-newline-dropped": lambda text: text[:-1],
    "simplex-not-a-list": _edited(lambda obj: obj["carrier"][-1].update(simplex=5)),
    "vertex-keys-reordered": _first_vertex(_reorder_keys),
    "vertex-without-inner-spaces": _first_vertex(lambda vertex: vertex.replace('": ', '":')),
    "vertex-repeated-in-input-facet": _edited(
        lambda obj: obj["input"]["facets"][0].append(obj["input"]["facets"][0][0])
    ),
    "value-escaped": _escape_a_value,
    "block-a-string": _edited(lambda obj: obj["input"]["facets"][0][0].update(block="0")),
}


class TestTaskFromJson:
    """``task_from_json`` reads a file the writer wrote by its layout, and
    any other text as ``task_from_obj(json.loads(text))`` does."""

    @staticmethod
    def layout_read(text, monkeypatch):
        """``task_from_json(text)`` with the general reader made to fail,
        so a task can only come from the layout read."""

        def refuse(*args):
            raise AssertionError("the general reader was called")

        with monkeypatch.context() as patch:
            patch.setattr("cbtopo.serialize.task_from_obj", refuse)
            return task_from_json(text)

    @pytest.mark.parametrize("colorless", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cbt_files(self, n, colorless, cbt_texts, monkeypatch):
        text = cbt_texts[n, colorless]
        _assert_same_read(self.layout_read(text, monkeypatch), _general(text))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_tasks(self, seed, monkeypatch):
        for build in (random_shared_mask_task, random_induced_image_task):
            text = task_to_json(build(random.Random(seed)))
            _assert_same_read(self.layout_read(text, monkeypatch), _general(text))

    def test_toy_tasks(self, monkeypatch):
        line = cx([vtx(0, "0"), vtx(1, "1")], [vtx(1, "1"), vtx(2, "0")])
        for task in (identity_task(cx([vtx(0, "1"), vtx(1, "0"), vtx(2, "1")])),
                     split_vote_task(line, {vtx(0, "0"): "0", vtx(1, "1"): "1", vtx(2, "0"): "0"})):
            text = task_to_json(task)
            _assert_same_read(self.layout_read(text, monkeypatch), _general(text))

    @pytest.mark.parametrize("name", list(_PERTURBATIONS))
    @pytest.mark.parametrize("colorless", [False, True])
    def test_perturbed_texts_read_as_the_general_reader_reads_them(
        self, name, colorless, cbt_texts
    ):
        text = _PERTURBATIONS[name](cbt_texts[2, colorless])
        assert text != cbt_texts[2, colorless]
        got, expected = _outcome(task_from_json, text), _outcome(_general, text)
        if isinstance(expected, Task):
            _assert_same_read(got, expected)
        else:
            assert got == expected

    def test_each_vertex_text_is_decoded_once_as_one_object(self, cbt_texts, monkeypatch):
        text = cbt_texts[3, False]
        loads, decode = json.loads, serialize.vertex_from_obj
        loaded, decoded = [], []

        def counted_loads(s, *args, **kwargs):
            loaded.append(s)
            return loads(s, *args, **kwargs)

        def counted_decode(obj):
            decoded.append(obj)
            return decode(obj)

        with monkeypatch.context() as patch:
            patch.setattr(json, "loads", counted_loads)
            patch.setattr(serialize, "vertex_from_obj", counted_decode)
            task = self.layout_read(text, monkeypatch)
        _assert_same_read(task, _general(text))
        for s in loaded:
            assert list(loads(s)) == ["chain", "block", "value"]
        assert len(loaded) == len(set(loaded))
        assert 0 < len(decoded) <= len(loaded)

    def test_swapped_entries_fail_only_the_byte_comparison(self, cbt_texts):
        # Read by the layout, the swapped entries carry each other's
        # images, and the task is still valid: only its text tells.
        text = _PERTURBATIONS["entries-swapped"](cbt_texts[2, False])
        misread = _task_from_layout(text)
        assert misread != _general(text)
        assert task_to_json(misread) != text
        assert task_from_json(text) == _general(text)


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
