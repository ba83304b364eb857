"""JSON round trips for vertices, complexes, tasks, reports, traces."""
import json
import random

import pytest

from cbtopo import CbtConfig, build_colorless_task, build_task, decide
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
    task_from_obj,
    task_to_json,
    task_to_obj,
    trace_from_jsonl,
    trace_to_jsonl,
    vertex_from_obj,
    vertex_to_obj,
)
from cbtopo.simplicial import Simplex, barycentric_subdivide

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


class TestRestrictedLoad:
    """``task_from_obj`` with a dimension cap d against the file read with
    plain ``json``: the skeleton is ``closure_oracle`` of the input facets
    cut to at most d + 1 vertices, and the carrier holds exactly the file's
    entries of at most d + 1 vertices."""

    @pytest.mark.parametrize("colorless", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_cap_matches_the_file(self, n, colorless, cbt_texts):
        text = cbt_texts[n, colorless]
        file = json.loads(text)
        input_facets = [list(map(_obj_key, f)) for f in file["input"]["facets"]]
        assert max(map(len, input_facets)) == n + 1
        closure = closure_oracle(input_facets)
        for dim in range(n + 1):
            restricted, dimension = task_from_obj(json.loads(text), dim)
            assert dimension == n
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

    def test_entries_above_the_cap_are_not_decoded(self, cbt_tasks):
        obj = task_to_obj(cbt_tasks[2])
        for entry in obj["carrier"]:
            if len(entry["simplex"]) == 3:
                entry["simplex"][0]["value"] = "neither"
                del entry["image_facets"]
        restricted, n = task_from_obj(obj, 1)
        assert (n, len(restricted.carrier)) == (2, 36)
        with pytest.raises(InvalidTask):
            task_from_obj(obj, 2)
        with pytest.raises(InvalidTask):
            task_from_obj(obj)


class TestTaskWriter:
    """``task_to_json`` is ``dumps`` of an independently built task object."""

    @staticmethod
    def check(task):
        text = task_to_json(task)
        assert text == json.dumps(task_obj_oracle(task), indent=2) + "\n"
        assert dumps(task_to_obj(task)) == text

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

    def test_task_to_obj_returns_fresh_objects(self, cbt_tasks):
        first = task_to_obj(cbt_tasks[1])
        first["input"]["facets"][0][0]["value"] = "bot"
        assert task_to_obj(cbt_tasks[1])["input"]["facets"][0][0]["value"] != "bot"


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


class TestDumps:
    def test_trailing_newline_and_determinism(self, cbt_tasks):
        obj = task_to_obj(cbt_tasks[1])
        first = dumps(obj)
        second = dumps(task_to_obj(cbt_tasks[1]))
        assert first == second
        assert first.endswith("\n")
        assert json.loads(first) == obj
