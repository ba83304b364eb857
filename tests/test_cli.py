"""End-to-end checks of the cbtopo command line."""
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cbtopo
from cbtopo.cli import build_parser, main
from cbtopo.forksim import PROTOCOLS, TwoPhaseCommit
from cbtopo.serialize import dumps, task_from_json, task_to_obj

from helpers import (
    TASK_FILE_FAULTS,
    cx,
    identity_task,
    random_induced_image_task,
    task_obj_oracle_format1,
    vtx,
)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def task_file(tmp_path, capsys):
    """Colored 3-chain task written by the build command itself."""
    path = tmp_path / "task.json"
    code, out, err = run_cli(["build", "--n", "2", "--out", str(path)], capsys)
    assert code == 0
    return path


def _index(obj, vertex):
    """The index of the vertex object ``vertex`` in a task object's list."""
    return obj["vertices"].index(vertex)


def _set_image(obj, entry, facets):
    """Give a carrier entry of a task object the image ``facets``: in place
    of its image when no other entry names that, else as a new image."""
    if sum(other[1] == entry[1] for other in obj["carrier"]) == 1:
        obj["images"][entry[1]] = facets
    else:
        obj["images"].append(facets)
        entry[1] = len(obj["images"]) - 1


class TestBuild:
    def test_stdout_json_with_stderr_summary(self, capsys):
        code, out, err = run_cli(["build", "--n", "1"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert list(obj) == ["format", "vertices", "input", "output", "images", "carrier",
                             "colored"]
        assert obj["format"] == 2 and obj["colored"] is True
        assert "input: vertices=6 facets=9 dimension=1" in err
        assert "carrier: entries=15" in err

    def test_out_file_with_stdout_summary(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        code, out, err = run_cli(["build", "--n", "2", "--out", str(path)], capsys)
        assert code == 0
        assert "input: vertices=9 facets=27 dimension=2" in out
        assert err == ""
        obj = json.loads(path.read_text())
        assert len(obj["carrier"]) == 63

    def test_colorless_flag(self, capsys):
        code, out, err = run_cli(["build", "--n", "2", "--colorless"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["colored"] is False
        verdicts = {obj["vertices"][i]["value"] for f in obj["output"] for i in f}
        assert verdicts == {"0", "1"}
        assert "colored: false" in err

    @pytest.mark.parametrize("argv", [["build", "--n", "0"],
                                      ["build", "--n", "2", "--block-index", "-1"]])
    def test_parameter_errors(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("error:")

    # sha256 of ``build --n k [--colorless] --block-index 7`` stdout in
    # format 1, which wrote each vertex object in full inside every simplex:
    # for k <= 4 as the object-by-object encoder wrote it before the task
    # writer replaced it, for k = 5 as the writer wrote it before it walked
    # the input's layers.  The task ``build`` writes now is read back and
    # encoded through the format-1 oracle, which must give those bytes.
    @pytest.mark.parametrize(
        "n,flags,digest",
        [
            (1, [], "bf3b53de1c5a995addc567dcd8851a2ead599fb1b15237821c7ca84709cd2a12"),
            (1, ["--colorless"], "c1d2404dd337e7c0aea1698f0347bb92d92533a6c058078b41bf099c8fe81741"),
            (2, [], "43347f430312fd6dc05c526d1fea65740ddb69866a5ca8d6f158ced6e7249660"),
            (2, ["--colorless"], "ae88835fbd4593afb30f0f5e461f07cb7d0aa288e7d4e14ee199019d2003ee46"),
            (3, [], "e69e5f8933c139831413cdaf404098305c0a9961fc9e0c96ad208dda4e942e89"),
            (3, ["--colorless"], "02ee738bbb8a6a06c6a916aef8bfc926a352b5e201a60eb9f97b250610903afa"),
            (4, [], "9881e6b4ede09d3f87724c4ecd0640361ad8883d6bf97937f36ee065df0622c1"),
            (4, ["--colorless"], "9a511fb17a745a74b35706c690b7cc1676ab86d2446eb942e930579fe7db2aa8"),
            (5, [], "3ecbd95016132168b7270d29ababb39b981bd1d838d142c031dfac1d02f83e84"),
            (5, ["--colorless"], "2f1e2345d52f482a3b9e8dc760b5574c163f8b0ecf8f14aba241a803fbf32e52"),
        ],
    )
    def test_output_bytes_are_pinned(self, n, flags, digest, capsys):
        code, out, err = run_cli(
            ["build", "--n", str(n), *flags, "--block-index", "7"], capsys
        )
        assert code == 0
        text = json.dumps(task_obj_oracle_format1(task_from_json(out)), indent=2) + "\n"
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    # sha256 of the same stdout as format 2 first wrote it, indented by 2:
    # the compact stdout re-encoded through ``dumps`` must give those bytes.
    @pytest.mark.parametrize(
        "n,flags,digest",
        [
            (1, [], "b83f2a09d49bee1393c29d134815fdfbb4b836a571712c7fc3f108468437abc9"),
            (1, ["--colorless"], "93b0652ed0188e2ceda63f3fc6eafa08601be305e49aa17573c3552466ad426d"),
            (2, [], "c401f8875d752c262ecea0833abef63b627766f852d2f324dbfef7c6969be9c5"),
            (2, ["--colorless"], "fe9bd390f35778bf2e52f35922055f277294e7a3164810bda4815f3a9c6962e6"),
            (3, [], "0f0764c23d219da5539e05892ae1d75edfd744126877a91229b54bc931da06cb"),
            (3, ["--colorless"], "65e1049f0a46c31042543398f1a1402f63e279d09bc818c9d13451f039736d78"),
            (4, [], "fd9e619c76bdcb08f73278e0d44fce76ec47d014a5282a1b9c399f8aa9fe546b"),
            (4, ["--colorless"], "4507d2fa64b9ffca8edb8dacbbd9bd83843c973dea9bd7aac8b8bdc7072cdde7"),
            (5, [], "870cf58acdf008f23ab842158dbec97e4326e4156e96648a3e5a60384bfc9e79"),
            (5, ["--colorless"], "ff0ab520891840af96d17448bb6ece532129913c8368f449f7a18a8748429198"),
        ],
    )
    def test_format_2_bytes_are_pinned(self, n, flags, digest, capsys):
        code, out, err = run_cli(
            ["build", "--n", str(n), *flags, "--block-index", "7"], capsys
        )
        assert code == 0
        text = dumps(json.loads(out))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    # sha256 of the same stdout, compact JSON on one line.
    @pytest.mark.parametrize(
        "n,flags,digest",
        [
            (1, [], "464495438556f40082985859f1f9db6a1d02bef27dfae439afdfbea104677ab2"),
            (1, ["--colorless"], "cb04296e03cfab24877c3239048ac60be809d9796408796830e9634c49dce9d9"),
            (2, [], "b8cb85c9653eb12b13b14c769d8f428c87038b1ec97a0af2772f414c95186867"),
            (2, ["--colorless"], "c03036bf5d908c902998985e1cb20e1b2da087e971724f0d171b7e39edb19dde"),
            (3, [], "e6826a04bb5385e5ee8df299d4e73d9432393c9dc224e9948bbc749a53caced6"),
            (3, ["--colorless"], "66b928d5b36fc8e37bb7b8307505b03fe37f8528988be51835c1c4d537edcadb"),
            (4, [], "9d68bb41e709d9409ee05d8ad977b3fa35b24c0bd231b45b23c0153385575a80"),
            (4, ["--colorless"], "c925885307880103d25c152113e13477ff1eedb9065e04a6e270d3163faeb577"),
            (5, [], "50c0ecffa40a8877a35badf62014d1ec02aea149ba78f1c9dc705a3510190e62"),
            (5, ["--colorless"], "9efc00882f522a056e8eb7538e1125839132f6a5c11b1a3646bc423e1728fd6e"),
        ],
    )
    def test_compact_bytes_are_pinned(self, n, flags, digest, capsys):
        code, out, err = run_cli(
            ["build", "--n", str(n), *flags, "--block-index", "7"], capsys
        )
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.fixture(scope="module")
def block7_files(tmp_path_factory):
    """``build --n k [--colorless] --block-index 7 --out f`` for k = 2, 3, 4."""
    root = tmp_path_factory.mktemp("block7")
    files = {}
    for k in (2, 3, 4):
        for colorless in (False, True):
            path = root / f"n{k}{'-colorless' if colorless else ''}.json"
            flags = ["--colorless"] if colorless else []
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["build", "--n", str(k), *flags, "--block-index", "7",
                             "--out", str(path)])
            assert code == 0
            files[k, colorless] = path
    return files


# sha256 of the stdout of ``analyze`` at every legal t, ``search`` at N = 0
# and 1, and ``export`` in both formats, on the files of ``block7_files``, as
# written before complexes were kept as masks; and of the two deeper colorless
# searches, as written before subdivision ran on index tables.
@pytest.mark.parametrize(
    "k,colorless,argv,digest",
    [
        (2, False, ["analyze", "--t", "1"], "465376a7d3d4e1e804670f4554132904627028f2a2b9c2d90fc3ac24cc0ad6cf"),
        (2, True, ["analyze", "--t", "1"], "e4c0823adf7f8407b355f5d5811e60289ab7af6c1f689214df61babb833897fe"),
        (3, False, ["analyze", "--t", "1"], "0198911eed65d6a5a30d657dd06c74df1ca0bc12dc10bacbc109fc13b167992e"),
        (3, True, ["analyze", "--t", "1"], "13289a6b6a331d1d87275bd7ea51f8dc8e691c67c48d4c57a7c6e5991cb32995"),
        (4, False, ["analyze", "--t", "1"], "54dc0fcf6cb19c46da318d081bd4988ee14eac8c509774b8d9df935ddcc352e4"),
        (4, False, ["analyze", "--t", "2"], "71d554e1534d95e54ff7c2434271934765480eeacfce7345114479878979719b"),
        (4, True, ["analyze", "--t", "1"], "d54c4a8a3ee8778769e6d1b8119f15ddc2e3ee137d19c25d7a2c9802dcedca6e"),
        (4, True, ["analyze", "--t", "2"], "0d8449057f41cde87cb15b83e9f94b5e9e1b3386d1fcdd26d17431adc025d4a0"),
        (2, False, ["search", "--t", "1", "--N", "0"], "b658e87082fdb4764ed174b639fa0c7ff4bdfa05d3afe786e3cb106ba1c283e1"),
        (2, False, ["search", "--t", "1", "--N", "1"], "07023fcaf04d9eb1eb5092e8c5d6f0f54c2183c397feed315281d677537e1603"),
        (2, True, ["search", "--t", "1", "--N", "0"], "b658e87082fdb4764ed174b639fa0c7ff4bdfa05d3afe786e3cb106ba1c283e1"),
        (2, True, ["search", "--t", "1", "--N", "1"], "07023fcaf04d9eb1eb5092e8c5d6f0f54c2183c397feed315281d677537e1603"),
        (3, False, ["search", "--t", "1", "--N", "0"], "17f482affbe3edc0c25478766e59f59b2271a6070554d5d4fd0ef6aff4a68fb8"),
        (3, False, ["search", "--t", "1", "--N", "1"], "c32f3c0184da596fbdc9e8fd2f6ba0c8254677fab117cfac8fde9475596fabf8"),
        (3, True, ["search", "--t", "1", "--N", "0"], "17f482affbe3edc0c25478766e59f59b2271a6070554d5d4fd0ef6aff4a68fb8"),
        (3, True, ["search", "--t", "1", "--N", "1"], "c32f3c0184da596fbdc9e8fd2f6ba0c8254677fab117cfac8fde9475596fabf8"),
        (3, False, ["export", "--format", "dot", "--which", "input"], "d54dfdb2ed51f4dfff6ddeda8f454e39322791d79586e8d33656b475bb81a2eb"),
        (3, False, ["export", "--format", "dot", "--which", "output"], "0807b263aae0165c24c8c6b28cdb528c6bb279441b81578d1d01c9861571ad7e"),
        (3, False, ["export", "--format", "json", "--which", "input"], "e8ea5cd419a264e6c2e6813710cf5c6038f97a74462eafbdb384cfc2e5e1700d"),
        (3, False, ["export", "--format", "json", "--which", "output"], "8010ceb24d820e5fb620c4c17d8163733a646937617e83a6cd6f9580a860f849"),
        (3, True, ["export", "--format", "dot", "--which", "input"], "d54dfdb2ed51f4dfff6ddeda8f454e39322791d79586e8d33656b475bb81a2eb"),
        (3, True, ["export", "--format", "dot", "--which", "output"], "bd701ea4abe371b2ace348cc32fa269c5535d76df7dbb478b20857a97fcad93d"),
        (3, True, ["export", "--format", "json", "--which", "input"], "e8ea5cd419a264e6c2e6813710cf5c6038f97a74462eafbdb384cfc2e5e1700d"),
        (3, True, ["export", "--format", "json", "--which", "output"], "6e643650b1ad6e658ecdc26051182ce40a04e50b7ccd3a1f812cf63c59810fac"),
        (4, True, ["search", "--t", "2", "--N", "2"], "1a2fa2a1f4dc9a2597fb6a618c255c98a9fcd7e7c4170d6eef51e8c010477b4d"),
        (3, True, ["search", "--t", "1", "--N", "3"], "4a1e5bb2d1fc111eed02eb9ee885b7fc94cc3ee1f1032e6a6339da3751044f95"),
    ],
)
def test_reading_outputs_are_pinned(k, colorless, argv, digest, block7_files, capsys):
    command, *options = argv
    code, out, err = run_cli([command, str(block7_files[k, colorless]), *options], capsys)
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestAnalyze:
    def test_colored_claims_confirmed(self, task_file, capsys):
        code, out, err = run_cli(["analyze", str(task_file), "--t", "1"], capsys)
        assert code == 0
        assert "carrier monotonic: PASS" in out
        assert "carrier rigid: PASS" in out
        assert "carrier name-preserving: PASS" in out
        assert "obstruction: unsolvable_by_obstruction" in out
        assert "claims: CONFIRMED (4/4)" in out

    def test_colorless_claims_confirmed(self, tmp_path, capsys):
        path = tmp_path / "flat.json"
        assert run_cli(["build", "--n", "2", "--colorless", "--out", str(path)], capsys)[0] == 0
        code, out, err = run_cli(["analyze", str(path), "--t", "1"], capsys)
        assert code == 0
        assert "claims: CONFIRMED (2/2)" in out
        assert "rigid" not in out

    def test_component_acyclicity_reported(self, task_file, capsys):
        _, out, _ = run_cli(["analyze", str(task_file), "--t", "1"], capsys)
        assert "output component 0: reduced_betti=[0, 0, 0]" in out
        assert "output component 1: reduced_betti=[0, 0, 0]" in out

    def test_broken_carrier_fails_claims(self, task_file, tmp_path, capsys):
        obj = json.loads(task_file.read_text())
        all_zero = [_index(obj, {"chain": c, "block": 0, "value": "0"}) for c in range(3)]
        hits = 0
        for entry in obj["carrier"]:
            simplex = [obj["vertices"][i] for i in entry[0]]
            if sorted(v["chain"] for v in simplex) == [0, 1, 2] and all(
                v["value"] == "1" for v in simplex
            ):
                _set_image(obj, entry, [all_zero])
                hits += 1
        assert hits == 1, "expected exactly one all-commit facet"
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(obj))
        code, out, err = run_cli(["analyze", str(broken), "--t", "1"], capsys)
        assert code == 4
        assert "carrier monotonic: FAIL" in out
        assert "claims: FAILED (3/4)" in out

    def test_resilience_out_of_range(self, task_file, capsys):
        code, out, err = run_cli(["analyze", str(task_file), "--t", "2"], capsys)
        assert code == 2
        assert "0 < t < (n+1)/2" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(["analyze", str(tmp_path / "nope.json"), "--t", "1"], capsys)
        assert code == 3

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "garbled.json"
        path.write_text("{not json")
        code, _, err = run_cli(["analyze", str(path), "--t", "1"], capsys)
        assert code == 3

    def test_well_formed_json_malformed_task(self, tmp_path, capsys):
        path = tmp_path / "halftask.json"
        path.write_text(json.dumps({"input": {"facets": [[{"chain": 0, "block": 0, "value": "1"}]]}}))
        code, _, err = run_cli(["analyze", str(path), "--t", "1"], capsys)
        assert code == 3
        assert "cannot load task" in err

    @pytest.mark.parametrize(
        "where,key,value",
        [
            pytest.param("input", "chain", -1, id="negative-chain"),
            pytest.param("output", "block", -2, id="negative-block"),
            pytest.param(None, "carrier", 5, id="carrier-int"),
            pytest.param(None, "carrier", None, id="carrier-null"),
        ],
    )
    def test_malformed_task_exits_io(self, task_file, tmp_path, where, key, value, capsys):
        obj = json.loads(task_file.read_text())
        if where is None:
            obj[key] = value
        else:
            obj["vertices"][obj[where][-1][0]][key] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(obj))
        code, _, err = run_cli(["analyze", str(path), "--t", "1"], capsys)
        assert code == 3
        assert "cannot load task" in err

    @pytest.mark.parametrize(
        "key,old,new",
        [("chain", 1, True), ("chain", 1, 1.0), ("block", 0, 0.5)],
        ids=["chain-true", "chain-float", "block-float"],
    )
    def test_non_integer_index_exits_io(self, task_file, tmp_path, key, old, new, capsys):
        # Every vertex with that index is rewritten, so the task would still
        # be consistent if the index were read as the equal integer.  The
        # edit is made in a layout this test writes itself.
        text = dumps(json.loads(task_file.read_text()))
        spoiled = text.replace(f'"{key}": {old},', f'"{key}": {json.dumps(new)},')
        assert spoiled != text
        path = tmp_path / "spoiled.json"
        path.write_text(spoiled)
        code, out, err = run_cli(["analyze", str(path), "--t", "1"], capsys)
        assert (code, out) == (3, "")
        assert "cannot load task" in err
        assert "must be integers" in err


_READING_COMMANDS = pytest.mark.parametrize(
    "command,options",
    [
        ("analyze", ["--t", "1"]),
        ("search", ["--t", "1", "--N", "0"]),
        ("export", []),
        ("replay", []),
    ],
)


@_READING_COMMANDS
def test_deeply_nested_json_exits_io(command, options, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, out, err = run_cli([command, str(path), *options], capsys)
    assert (code, out) == (3, "")
    assert "nested too deeply" in err


@_READING_COMMANDS
def test_int_past_the_digit_limit_exits_io(command, options, tmp_path, capsys):
    # ``json.loads`` refuses such a literal with a plain ValueError, not a
    # JSONDecodeError.
    path = tmp_path / "long.json"
    digits = "1" * 5_000
    if command == "replay":
        path.write_text(f'{{"type":"meta","n":{digits}}}\n')
    else:
        path.write_text(f'{{"format": 2, "vertices": [{digits}]}}')
    code, out, err = run_cli([command, str(path), *options], capsys)
    assert (code, out) == (3, "")
    assert "Exceeds the limit" in err
    if command != "replay":
        assert f"cannot load task from {path}" in err


@pytest.mark.parametrize(
    "command,options",
    [("analyze", ["--t", "1"]), ("search", ["--t", "1", "--N", "0"]), ("export", [])],
)
def test_duplicate_carrier_entry_exits_io(command, options, tmp_path, capsys):
    # A 16th entry for {v0.0=0}, with the image {v0.0=0, v1.0=0} that is not
    # name-preserving; the loader used to keep it in place of the first.
    path = tmp_path / "n1.json"
    assert run_cli(["build", "--n", "1", "--out", str(path)], capsys)[0] == 0
    obj = json.loads(path.read_text())
    zero = [_index(obj, {"chain": c, "block": 0, "value": "0"}) for c in (0, 1)]
    obj["images"].append([zero])
    obj["carrier"].append([zero[:1], len(obj["images"]) - 1])
    path.write_text(json.dumps(obj))
    code, out, err = run_cli([command, str(path), *options], capsys)
    assert (code, out) == (3, "")
    assert "cannot load task" in err
    assert "lists input simplex {v0.0=0} twice" in err


@pytest.mark.parametrize(
    "command,options",
    [("analyze", ["--t", "1"]), ("search", ["--t", "1", "--N", "0"]), ("export", [])],
)
@pytest.mark.parametrize("fault", list(TASK_FILE_FAULTS))
def test_malformed_format_2_file_exits_io(fault, command, options, task_file, tmp_path, capsys):
    spoil, message = TASK_FILE_FAULTS[fault]
    obj = json.loads(task_file.read_text())
    spoil(obj)
    path = tmp_path / "spoiled.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli([command, str(path), *options], capsys)
    assert (code, out) == (3, "")
    assert "cannot load task" in err and "Traceback" not in err
    assert re.search(message, err)


@pytest.mark.parametrize(
    "command,options",
    [("analyze", ["--t", "1"]), ("search", ["--t", "1", "--N", "0"]), ("export", [])],
)
def test_format_1_file_exits_io_and_asks_for_a_rebuild(command, options, tmp_path, capsys):
    path = tmp_path / "format1.json"
    task = task_from_json(run_cli(["build", "--n", "1"], capsys)[1])
    path.write_text(dumps(task_obj_oracle_format1(task)))
    code, out, err = run_cli([command, str(path), *options], capsys)
    assert (code, out) == (3, "")
    assert "cannot load task" in err
    assert "format is None, not 2: run `cbtopo build` again" in err


@pytest.mark.parametrize("colored", ["false", 0, None])
def test_non_boolean_colored_exits_io(colored, task_file, tmp_path, capsys):
    obj = json.loads(task_file.read_text())
    obj["colored"] = colored
    path = tmp_path / "colored.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(["analyze", str(path), "--t", "1"], capsys)
    assert (code, out) == (3, "")
    assert "cannot load task" in err
    assert "'colored' must be a boolean" in err


class TestSearch:
    def test_no_map_on_the_split_task(self, task_file, capsys):
        code, out, err = run_cli(
            ["search", str(task_file), "--t", "1", "--N", "1"], capsys
        )
        assert code == 0
        head, _, tail = out.rpartition("\n}")
        report = json.loads(head + "\n}")
        assert report["verdict"] == "no_map_up_to_depth"
        assert "no carried simplicial map up to depth 1" in tail

    def test_map_found_on_identity_task(self, tmp_path, capsys):
        task = identity_task(cx([vtx(0, "1"), vtx(1, "1"), vtx(2, "1")]))
        path = tmp_path / "identity.json"
        path.write_text(dumps(task_to_obj(task)))
        code, out, err = run_cli(["search", str(path), "--t", "1", "--N", "0"], capsys)
        assert code == 0
        assert "map found at depth 0" in out

    # sha256 of ``search`` stdout on the identity task of a triangle, whose
    # assignment lists subdivision vertices, as written before subdivision
    # ran on index tables.
    @pytest.mark.parametrize(
        "depth,digest",
        [
            (1, "0748615c934efd0f05902903a3db8182b52c1985d6c265dd5a1ee2c7bfcf47f3"),
            (2, "2014ab637a7b7c8ca21d12f7fbda773689c8d671542ff06a9bfe144c1fff28e6"),
        ],
    )
    def test_found_map_output_is_pinned(self, depth, digest, tmp_path, capsys):
        task = identity_task(cx([vtx(0, "1"), vtx(1, "1"), vtx(2, "1")]))
        path = tmp_path / "identity.json"
        path.write_text(dumps(task_to_obj(task)))
        code, out, err = run_cli(["search", str(path), "--t", "1", "--N", str(depth)], capsys)
        assert code == 0
        assert f"map found at depth {depth}" in out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_non_monotonic_task_no_map_at_depth_only(self, tmp_path, capsys):
        # A map exists at depth 0, so the verdict line must not claim "up to".
        path = tmp_path / "induced.json"
        path.write_text(dumps(task_to_obj(random_induced_image_task(random.Random(3)))))
        code, out, err = run_cli(["search", str(path), "--t", "1", "--N", "1"], capsys)
        assert code == 0
        head, _, tail = out.rpartition("\n}")
        report = json.loads(head + "\n}")
        assert report["verdict"] == "no_map_up_to_depth"
        assert "or below" not in report["note"]
        assert tail.strip().startswith("no carried simplicial map at depth 1 (")

    def test_budget_exhaustion(self, task_file, capsys):
        code, _, err = run_cli(
            ["search", str(task_file), "--t", "1", "--N", "1", "--budget", "1"], capsys
        )
        assert code == 5
        assert "error:" in err

    def test_negative_depth(self, task_file, capsys):
        code, _, err = run_cli(
            ["search", str(task_file), "--t", "1", "--N", "-1"], capsys
        )
        assert code == 2

    def test_resilience_out_of_range(self, task_file, capsys):
        code, out, err = run_cli(["search", str(task_file), "--t", "2", "--N", "1"], capsys)
        assert code == 2
        assert out == ""
        assert "0 < t < (n+1)/2" in err



def _entry_of_dim(obj, dim):
    """The first carrier entry of ``obj`` whose simplex has dimension ``dim``."""
    return next(e for e in obj["carrier"] if len(e[0]) == dim + 1)


def _non_integer_index(obj, dim):
    _entry_of_dim(obj, dim)[0][0] = 0.5


def _image_outside_output(obj, dim):
    obj["vertices"].append({"chain": 9, "block": 9, "value": "1"})
    _set_image(obj, _entry_of_dim(obj, dim), [[len(obj["vertices"]) - 1]])


def _duplicated_entry(obj, dim):
    entry = _entry_of_dim(obj, dim)
    obj["carrier"].append(json.loads(json.dumps(entry)))


def _foreign_simplex(obj, dim):
    # Two vertices of one chain lie in no simplex of a CBT input; at
    # dimension 0 a vertex of a chain the task does not have is foreign.
    entry = _entry_of_dim(obj, dim)
    first, *rest = entry[0]
    vertex = obj["vertices"][first]
    if rest:
        other = _index(obj, {**vertex, "value": "0" if vertex["value"] != "0" else "1"})
        simplex = [first, other, *rest[1:]]
    else:
        obj["vertices"].append({**vertex, "chain": 9})
        simplex = [len(obj["vertices"]) - 1]
    obj["carrier"].append([simplex, entry[1]])


SPOILERS = [
    pytest.param(_non_integer_index, id="non-integer-index"),
    pytest.param(_image_outside_output, id="image-outside-output"),
    pytest.param(_duplicated_entry, id="duplicated-entry"),
    pytest.param(_foreign_simplex, id="foreign-simplex"),
]


def _spoiled(task_file, tmp_path, spoil, dim):
    obj = json.loads(task_file.read_text())
    spoil(obj, dim)
    path = tmp_path / f"spoiled-{dim}.json"
    path.write_text(json.dumps(obj, indent=2))
    return path


class TestSearchReadsTheWholeFile:
    """``search``, like ``analyze`` and ``export``, reads and checks every
    carrier entry of its file, whatever the entry's dimension and ``--t``."""

    @pytest.mark.parametrize("dim", [0, 1, 2])
    @pytest.mark.parametrize("spoil", SPOILERS)
    def test_spoiled_at_any_dim_is_rejected_by_every_reader(
        self, spoil, dim, task_file, tmp_path, capsys
    ):
        path = _spoiled(task_file, tmp_path, spoil, dim)
        for command, options in (
            ("search", ["--t", "1", "--N", "1"]), ("analyze", ["--t", "1"]), ("export", [])
        ):
            code, out, err = run_cli([command, str(path), *options], capsys)
            assert (code, out) == (3, ""), command
            assert "cannot load task" in err

    def test_search_runs_the_public_search(self, task_file, monkeypatch, capsys):
        # The name a caller, such as a span recorder, wraps to see each search.
        calls = []
        search = cbtopo.cli.search_carried_simplicial_map

        def counted(task, *args, **options):
            calls.append((args, options))
            return search(task, *args, **options)

        monkeypatch.setattr("cbtopo.cli.search_carried_simplicial_map", counted)
        argv = ["search", str(task_file), "--t", "1", "--N", "1", "--budget", "900"]
        assert run_cli(argv, capsys)[0] == 0
        assert calls == [((1, 1), {"node_budget": 900})]

    @pytest.mark.parametrize("dim", [0, 1, 2])
    @pytest.mark.parametrize(
        "replace",
        [
            pytest.param(lambda entry: ["x", entry[1]], id="simplex-string"),
            pytest.param(lambda entry: [entry[0][0], entry[1]], id="simplex-index"),
            pytest.param(lambda entry: [None, entry[1]], id="simplex-null"),
            pytest.param(lambda entry: entry[0], id="entry-list"),
            pytest.param(lambda entry: {"simplex": entry[0], "image": entry[1]},
                         id="entry-object"),
            pytest.param(lambda entry: 7, id="entry-int"),
        ],
    )
    def test_entry_without_simplex_list_is_rejected_at_any_dim(
        self, replace, dim, task_file, tmp_path, capsys
    ):
        obj = json.loads(task_file.read_text())
        carrier = obj["carrier"]
        index = carrier.index(_entry_of_dim(obj, dim))
        carrier[index] = replace(carrier[index])
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(["search", str(path), "--t", "1", "--N", "1"], capsys)
        assert (code, out) == (3, "")
        assert "cannot load task" in err
        assert f"malformed 'carrier' item {index}" in err

    @pytest.mark.parametrize("t", ["-1", "0", "2", "5"])
    def test_bad_resilience_on_a_well_formed_file_exits_usage(self, t, task_file, capsys):
        code, out, err = run_cli(["search", str(task_file), "--t", t, "--N", "1"], capsys)
        assert (code, out) == (2, "")
        assert "0 < t < (n+1)/2" in err

    @pytest.mark.parametrize("t", ["-1", "0", "2", "5"])
    @pytest.mark.parametrize("dim", [0, 1, 2])
    @pytest.mark.parametrize("spoil", SPOILERS)
    def test_malformed_at_any_dim_wins_over_bad_resilience(
        self, spoil, dim, t, task_file, tmp_path, capsys
    ):
        path = _spoiled(task_file, tmp_path, spoil, dim)
        code, out, err = run_cli(["search", str(path), "--t", t, "--N", "1"], capsys)
        assert (code, out) == (3, "")
        assert "cannot load task" in err


class TestSimulate:
    def test_exhaustive_finds_atomicity_violation(self, capsys):
        code, out, err = run_cli(
            ["simulate", "--n", "2", "--t", "1", "--depth", "10"], capsys
        )
        assert code == 0
        assert "violation found after 8 events:" in out
        assert "violation[atomicity]:" in out
        assert "mandate abort" in out
        assert "realized inputs:" in out

    def test_fault_free_run_is_clean(self, capsys):
        code, out, err = run_cli(
            ["simulate", "--n", "2", "--t", "0", "--no-suspend", "--depth", "12"],
            capsys,
        )
        assert code == 0
        assert "no violation found within depth 12" in out

    def test_resilience_window(self, capsys):
        code, _, err = run_cli(["simulate", "--n", "2", "--t", "2"], capsys)
        assert code == 2
        assert "0 <= t < (n+1)/2" in err

    def test_too_few_chains(self, capsys):
        code, out, err = run_cli(["simulate", "--n", "0", "--t", "0"], capsys)
        assert code == 2
        assert out == ""
        assert "at least two chains" in err

    def test_state_budget(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--n", "2", "--t", "1", "--budget", "1"], capsys
        )
        assert code == 5

    def test_random_mode_is_deterministic(self, capsys):
        argv = ["simulate", "--n", "2", "--t", "1", "--random", "--seed", "5",
                "--trials", "60"]
        first = run_cli(argv, capsys)
        second = run_cli(argv, capsys)
        assert first == second
        assert first[0] == 0

    def test_trace_out_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        code, out, _ = run_cli(
            ["simulate", "--n", "2", "--t", "1", "--depth", "10",
             "--trace-out", str(path)],
            capsys,
        )
        assert code == 0
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["type"] == "meta"
        assert lines[-1]["type"] == "verdict"
        assert lines[-1]["ok"] is False

    def test_trace_out_into_a_missing_directory_fails_before_the_search(
        self, tmp_path, capsys
    ):
        path = tmp_path / "missing" / "trace.jsonl"
        code, out, err = run_cli(
            ["simulate", "--n", "2", "--t", "0", "--trace-out", str(path)], capsys
        )
        assert (code, out) == (3, "")
        assert "missing" in err
        assert not path.parent.exists()

    def test_trace_out_onto_a_directory_fails_before_the_search(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["simulate", "--n", "2", "--t", "1", "--trace-out", str(tmp_path)], capsys
        )
        assert (code, out) == (3, "")
        assert "is a directory" in err

    def test_exhaustive_flag_is_the_default(self, capsys):
        argv = ["simulate", "--n", "2", "--t", "1", "--depth", "10"]
        assert run_cli(argv + ["--exhaustive"], capsys) == run_cli(argv, capsys)

    def test_protocol_choices_come_from_the_registry(self, monkeypatch, capsys):
        class Renamed(TwoPhaseCommit):
            name = "2pc-renamed"

        monkeypatch.setitem(PROTOCOLS, Renamed.name, Renamed)
        argv = ["simulate", "--n", "2", "--t", "1", "--depth", "10"]
        renamed = run_cli(argv + ["--protocol", Renamed.name], capsys)
        assert renamed[0] == 0
        assert renamed == run_cli(argv, capsys)

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_unknown_protocol_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--n", "2", "--t", "1", "--protocol", "3pc"])
        assert excinfo.value.code == 2


# sha256 of ``simulate`` stdout and of its ``--trace-out`` bytes (None: no
# file, the run found no violation) at n = 2..5, every legal t, with and
# without ``--no-suspend``, plus one random run per n, as written while each
# simulator state still owned mutable node records.  The random runs with
# seeds 31 (n=4), 13 and 2 (n=5) first violate in their third, third and
# second trial, so their pins depend on every draw of the earlier trials;
# they were taken while random trials still advanced ``Simulation`` clones.
@pytest.mark.parametrize(
    "argv,stdout_digest,trace_digest",
    [
        (
            ["--n", "2", "--t", "0"],
            "f863f520f0e0baea2a1788192a50f76d44c3d770f3ec0362e24ea1ca041ecf11",
            "3d1b57fcdbb1caf28d42259097d78bf258469c2e19341944038aa8b4d1c31561",
        ),
        (
            ["--n", "2", "--t", "0", "--no-suspend"],
            "ed9c7e43ce3f77d2130752720d2f4719f26b29cd580e24b003bb1aed893f5fea",
            None,
        ),
        (
            ["--n", "2", "--t", "1"],
            "f863f520f0e0baea2a1788192a50f76d44c3d770f3ec0362e24ea1ca041ecf11",
            "b5d57c0d1637ccf051bcc364d637b746485140750cfa41789fb2f8f4c7bcd09c",
        ),
        (
            ["--n", "2", "--t", "1", "--no-suspend"],
            "cdde6bf04f63f1daf3d74e8a3116d6080433c99fa8a2f8e5d016907a1af19c4d",
            "68698becd6e23f9bf0bdbefb4c38636b49f3c2b67cf73854430f879d4b6fef1e",
        ),
        (
            ["--n", "2", "--t", "1", "--random", "--seed", "5", "--trials", "60"],
            "f1d3210578b162d92147bf7ebf01302b07b2cb722e8915898e7d9afdc590aa6d",
            "43670898197a437cfceeb8a7f35d6ae862bc00cdbd87c56845240ecd81108b21",
        ),
        (
            ["--n", "3", "--t", "0"],
            "a0970cfdf571aba2c07f2297496598842b2e2999789b21b798c24763a58b403d",
            "8a735d8c4d9c7b59d8103f4244e3d47cbc65a145278f3028e459c2b9bc9a7dc8",
        ),
        (
            ["--n", "3", "--t", "0", "--no-suspend"],
            "ed9c7e43ce3f77d2130752720d2f4719f26b29cd580e24b003bb1aed893f5fea",
            None,
        ),
        (
            ["--n", "3", "--t", "1"],
            "a0970cfdf571aba2c07f2297496598842b2e2999789b21b798c24763a58b403d",
            "07e2e27143224db7b2b513d0a73cfd66bf2ba4f456b5a42cbf18c678a6d3decf",
        ),
        (
            ["--n", "3", "--t", "1", "--no-suspend"],
            "e00e3370311aa230bc30ee8e6a6848bacb909643d996455067f6b4421186d630",
            "f25b0ba32a0e3c55a210e06c25d8344c0da60eb629f3cc4b6b79ec6c80d02e5e",
        ),
        (
            ["--n", "3", "--t", "1", "--random", "--seed", "5", "--trials", "60"],
            "14fee2f01cfe19a45ad753bf7e5d91b2326f7e7f09253480e5f2d6e327029df0",
            "19ccf4c0998ecd2893fe7f2250a40d4522998b8f0e0950ad173ef78db9437596",
        ),
        (
            ["--n", "4", "--t", "0"],
            "1d176c375445856359c792c8a75cfddeeaa066f0e323d051a1c562da74c77e62",
            "6305dd986cef4c18132a4c2d89cb0fef64e8e5301b93f84485dc57fd69441f6b",
        ),
        (
            ["--n", "4", "--t", "0", "--no-suspend"],
            "ed9c7e43ce3f77d2130752720d2f4719f26b29cd580e24b003bb1aed893f5fea",
            None,
        ),
        (
            ["--n", "4", "--t", "1"],
            "1d176c375445856359c792c8a75cfddeeaa066f0e323d051a1c562da74c77e62",
            "6a1ed880931f42d0fcaeb9f66cece0bcaddc6a505669b65942a123f7f2b39fde",
        ),
        (
            ["--n", "4", "--t", "1", "--no-suspend"],
            "7378b87df5a9dde1fca81242adfcfa7b18ab2715de7b2501a1042b95f031a7ec",
            "2d38eb5c45735eb8470b31458a452e2f9d0e9e2cd26a7db04a7e4e7e297edc57",
        ),
        (
            ["--n", "4", "--t", "2"],
            "1d176c375445856359c792c8a75cfddeeaa066f0e323d051a1c562da74c77e62",
            "94414f580248d49386220c255d80e4ae659e51a56978fb9a3d466442483e31ea",
        ),
        (
            ["--n", "4", "--t", "2", "--no-suspend"],
            "7378b87df5a9dde1fca81242adfcfa7b18ab2715de7b2501a1042b95f031a7ec",
            "2b60a30846cfae3e16965eadbeb0287b5e7983bc8417379ce65b89977f72b796",
        ),
        (
            ["--n", "4", "--t", "2", "--random", "--seed", "5", "--trials", "60"],
            "7610318e4b16561d3dafee9783f9ff79fdb2fc16e78d39852cfc587d3f7fbf85",
            "03a97994eae4d292cd36ed84215b8acefb21c4572fceaa6aa4cd78debde39bbb",
        ),
        (
            ["--n", "4", "--t", "2", "--random", "--seed", "31", "--trials", "60"],
            "bf852e5446d651b2167c15293438bf652abbd65a8b37caeeb5de589a78cc8f04",
            "bc554d6e9ef6ebe1216d11b8715e91498007f6972fde08af46a440c4be8370d6",
        ),
        (
            ["--n", "5", "--t", "0"],
            "36f6af73a20b174c072c0d059f69a1024c7483f0cdee3fef6b8d5c82eab261c6",
            "d2388c62d3c58439717b640971b44c8b0c3b4fab44e22d490ee60e930a410a03",
        ),
        (
            ["--n", "5", "--t", "0", "--no-suspend"],
            "ed9c7e43ce3f77d2130752720d2f4719f26b29cd580e24b003bb1aed893f5fea",
            None,
        ),
        (
            ["--n", "5", "--t", "1"],
            "36f6af73a20b174c072c0d059f69a1024c7483f0cdee3fef6b8d5c82eab261c6",
            "cf06b298b82fdfefbc193a1a2bf4f914d46f556793066479f01fdf260a467513",
        ),
        (
            ["--n", "5", "--t", "1", "--no-suspend"],
            "b91a5db403690c0425bfe39b982eca0c11c4c29e9d53387bf53cd6ff47e87250",
            "d7d4e8474d1083d54f56ccd0187b656f8538aa169023ef56a77a98500777490b",
        ),
        (
            ["--n", "5", "--t", "2"],
            "36f6af73a20b174c072c0d059f69a1024c7483f0cdee3fef6b8d5c82eab261c6",
            "21e95da846caddb9ab82562045e0803c02a050d96518d1e07616d0116e8db049",
        ),
        (
            ["--n", "5", "--t", "2", "--no-suspend"],
            "b91a5db403690c0425bfe39b982eca0c11c4c29e9d53387bf53cd6ff47e87250",
            "24c66d4ccf98c78143511c20025d57808530e9d0bf72fa1d6d85fe4ad8ab50bb",
        ),
        (
            ["--n", "5", "--t", "2", "--random", "--seed", "5", "--trials", "60"],
            "6bc41229742397bd38501463f195ad561fb31bd4c9c2165d255ee546cbf9c44b",
            "abfc5b230a2cd909d6281b1090e96028a2c3751d1ccd6faa8ae40d234d081d13",
        ),
        (
            ["--n", "5", "--t", "1", "--random", "--seed", "13", "--trials", "60"],
            "2d570dc80e354fabe57e6a3ad220d0c07e3f6e869c955286cec8b070864aa198",
            "f8f86cd52dbd73e7a3c393d54de63f5e0dd5c73b776b3ea058eb5c8c65f6095c",
        ),
        (
            ["--n", "5", "--t", "2", "--random", "--seed", "2", "--trials", "60"],
            "e77334d87bdc2455c9af79a17805b2e9c5347e8a34de3843de3f47d7ee1d88a7",
            "2463d6521b19d8ad6035d37b356965c34ff0008aceb4b86a29c38fe40779988d",
        ),
    ],
)
def test_simulate_outputs_are_pinned(argv, stdout_digest, trace_digest, tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    code, out, err = run_cli(["simulate", *argv, "--trace-out", str(path)], capsys)
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == stdout_digest
    written = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    assert written == trace_digest


@pytest.fixture
def trace_lines(tmp_path, capsys):
    """``simulate --trace-out`` lines of the n=2, t=1 atomicity violation."""
    path = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(
        ["simulate", "--n", "2", "--t", "1", "--depth", "10", "--trace-out", str(path)],
        capsys,
    )
    assert code == 0
    return path.read_text().splitlines(keepends=True)


def _replay_lines(tmp_path, capsys, lines):
    path = tmp_path / "replay.jsonl"
    path.write_text("".join(lines))
    return run_cli(["replay", str(path)], capsys)


def _edited(lines, index, edit):
    """``lines`` with the JSON record at ``index`` changed in place by ``edit``."""
    index %= len(lines)
    record = json.loads(lines[index])
    edit(record)
    return lines[:index] + [json.dumps(record) + "\n"] + lines[index + 1:]


class TestReplay:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "2", "--t", "1"],
            ["--n", "3", "--t", "1"],
            ["--n", "4", "--t", "1", "--no-suspend"],
            ["--n", "2", "--t", "0", "--random", "--seed", "3", "--trials", "20"],
        ],
    )
    def test_round_trip_from_simulate(self, argv, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        code, simulated, _ = run_cli(
            ["simulate", *argv, "--trace-out", str(path)], capsys
        )
        assert code == 0
        code, out, err = run_cli(["replay", str(path)], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "replay: REPRODUCED"
        # The replay prints the run simulate printed, line for line.
        assert out.splitlines()[1:-1] == simulated.splitlines()[1:]

    def test_file_without_verdict_checks_the_run(self, trace_lines, tmp_path, capsys):
        code, out, _ = _replay_lines(tmp_path, capsys, trace_lines[:-1])
        assert code == 0
        assert "violation[atomicity]:" in out
        assert out.endswith("replay: REPRODUCED\n")

    def test_corrupted_verdict(self, trace_lines, tmp_path, capsys):
        def relabel(record):
            record["violations"][0]["kind"] = "termination"

        code, out, _ = _replay_lines(tmp_path, capsys, _edited(trace_lines, -1, relabel))
        assert code == 4
        assert out.endswith("replay: FAILED (violations not reproduced)\n")

    def test_dropped_violation(self, trace_lines, tmp_path, capsys):
        def clear(record):
            record["ok"], record["violations"] = True, []

        code, _, _ = _replay_lines(tmp_path, capsys, _edited(trace_lines, -1, clear))
        assert code == 4

    def test_corrupted_event_payload(self, trace_lines, tmp_path, capsys):
        # Line 4 is the first delivery, a vote for commit.
        def flip(record):
            record["message"]["payload"]["value"] = "0"

        code, out, _ = _replay_lines(tmp_path, capsys, _edited(trace_lines, 4, flip))
        assert code == 4
        assert out.endswith("replay: FAILED (events not reproduced)\n")

    def test_corrupted_event_that_cannot_run(self, trace_lines, tmp_path, capsys):
        # Line 1 starts chain 0; starting chain 1 there makes it start twice.
        def restart(record):
            record["chain"] = 1

        code, out, _ = _replay_lines(tmp_path, capsys, _edited(trace_lines, 1, restart))
        assert code == 4
        assert "schedule does not run" in out

    def test_corrupted_outcome(self, trace_lines, tmp_path, capsys):
        def undecide(record):
            record["decided"][1] = None

        code, out, _ = _replay_lines(tmp_path, capsys, _edited(trace_lines, -2, undecide))
        assert code == 4
        assert out.endswith("replay: FAILED (outcome not reproduced)\n")

    @pytest.mark.parametrize("keep", [1, 5, -2])
    def test_truncated_at_a_line_end(self, keep, trace_lines, tmp_path, capsys):
        lines = trace_lines[:keep] if keep > 0 else trace_lines[:keep] + trace_lines[-1:]
        code, out, err = _replay_lines(tmp_path, capsys, lines)
        assert (code, out) == (3, "")
        assert err.startswith("error: ")

    def test_truncated_mid_line(self, trace_lines, tmp_path, capsys):
        text = "".join(trace_lines)
        code, out, err = _replay_lines(tmp_path, capsys, [text[: len(text) // 2]])
        assert (code, out) == (3, "")
        assert "not JSON" in err

    @pytest.mark.parametrize(
        "index,key,value",
        [
            (0, "n", "two"),
            (0, "inputs", "111"),
            (0, "inputs", ["1", "1"]),
            (1, "chain", "0"),
            (1, "kind", "teleport"),
            (4, "message", {"from": 1}),
            (-2, "quiescent", "yes"),
            (-2, "crashed", [None]),
            (-1, "ok", True),
        ],
    )
    def test_malformed_record(self, index, key, value, trace_lines, tmp_path, capsys):
        def spoil(record):
            record[key] = value

        code, out, err = _replay_lines(
            tmp_path, capsys, _edited(trace_lines, index, spoil)
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: ")

    def test_empty_missing_and_binary_files(self, tmp_path, capsys):
        assert _replay_lines(tmp_path, capsys, [])[0] == 3
        assert run_cli(["replay", str(tmp_path / "absent.jsonl")], capsys)[0] == 3
        path = tmp_path / "binary.jsonl"
        path.write_bytes(b"\xff\xfe\x00")
        assert run_cli(["replay", str(path)], capsys)[0] == 3

    def test_unknown_protocol_is_a_usage_error(self, trace_lines, tmp_path, capsys):
        def rename(record):
            record["protocol"] = "3pc"

        code, _, err = _replay_lines(tmp_path, capsys, _edited(trace_lines, 0, rename))
        assert code == 2
        assert "unknown protocol" in err


class TestHashIndependence:
    """``Value``, ``BlockRef`` and ``Vertex`` hash by identity, that is by
    address, which differs from run to run; no output may depend on it, nor
    on the string hash seed.  The runs cover colored and colorless tasks and
    every command that writes one."""

    def test_output_is_the_same_under_two_hash_seeds(self, tmp_path):
        src = str(Path(cbtopo.__file__).resolve().parent.parent)

        def outputs(seed):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])
            )
            task = tmp_path / f"task-{seed}.json"
            colorless = tmp_path / f"colorless-{seed}.json"
            runs = [
                ["build", "--n", "3"],
                ["build", "--n", "3", "--out", str(task)],
                ["build", "--colorless", "--n", "3"],
                ["build", "--colorless", "--n", "3", "--out", str(colorless)],
                ["analyze", str(task), "--t", "1"],
                ["search", str(task), "--t", "1", "--N", "1"],
                ["search", str(colorless), "--t", "1", "--N", "1"],
                ["export", str(task), "--format", "dot"],
                ["export", str(colorless), "--format", "json", "--which", "output"],
                ["simulate", "--n", "4", "--t", "1"],
            ]
            stdout = []
            for argv in runs:
                done = subprocess.run(
                    [sys.executable, "-m", "cbtopo", *argv],
                    env=env, capture_output=True, text=True, check=False,
                )
                assert done.returncode == 0, done.stderr
                stdout.append(
                    done.stdout.replace(str(task), "TASK").replace(str(colorless), "TASK")
                )
            return stdout

        first, second = outputs("0"), outputs("1")
        for one, other in zip(first, second):
            assert one == other


class TestExport:
    def test_dot_output_skeleton(self, task_file, capsys):
        code, out, err = run_cli(
            ["export", str(task_file), "--which", "output"], capsys
        )
        assert code == 0
        assert out.startswith("graph task_output {")
        assert out.count(" -- ") == 6  # two triangles
        assert out.count("fillcolor") == 6
        assert '"v0.0=1" [fillcolor="palegreen"];' in out
        assert '"v0.0=0" [fillcolor="lightsteelblue"];' in out

    def test_json_output_skeleton(self, task_file, capsys):
        code, out, err = run_cli(
            ["export", str(task_file), "--format", "json"], capsys
        )
        assert code == 0
        obj = json.loads(out)
        assert len(obj["nodes"]) == 9
        assert len(obj["edges"]) == 27
        assert {n["value"] for n in obj["nodes"]} == {"0", "1", "bot"}

    def test_out_file(self, task_file, tmp_path, capsys):
        path = tmp_path / "graph.dot"
        code, out, err = run_cli(
            ["export", str(task_file), "--out", str(path)], capsys
        )
        assert code == 0
        assert "wrote input 1-skeleton: 9 nodes, 27 edges" in out
        assert path.read_text().startswith("graph task_input {")

    # sha256 of ``export`` stdout on the n=2 files of ``block7_files``, as
    # written when each JSON node spelled out its vertex's fields itself.
    @pytest.mark.parametrize(
        "colorless,fmt,which,digest",
        [
            (False, "dot", "input", "3286304986ef7c4e990c765b04c8047ffe834a88ce6359dd529360e936da8b5d"),
            (False, "dot", "output", "4cd05a57b7ec8ab16efb15b95fea770da1340847ab57fff8185e38731310f270"),
            (False, "json", "input", "08a89573f8798424a536e44a68167b1c4782f73be7bc6d3a5a4bd6e68c2bc1d5"),
            (False, "json", "output", "0a1580de7498ee9696fcecc9126de2caa0bccdaba1b0657edc374325f7512c78"),
            (True, "dot", "input", "3286304986ef7c4e990c765b04c8047ffe834a88ce6359dd529360e936da8b5d"),
            (True, "dot", "output", "bd701ea4abe371b2ace348cc32fa269c5535d76df7dbb478b20857a97fcad93d"),
            (True, "json", "input", "08a89573f8798424a536e44a68167b1c4782f73be7bc6d3a5a4bd6e68c2bc1d5"),
            (True, "json", "output", "6e643650b1ad6e658ecdc26051182ce40a04e50b7ccd3a1f812cf63c59810fac"),
        ],
    )
    def test_output_bytes_are_pinned(self, colorless, fmt, which, digest, block7_files, capsys):
        argv = ["export", str(block7_files[2, colorless]), "--format", fmt, "--which", which]
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_byte_determinism(self, task_file, capsys):
        argv = ["export", str(task_file), "--format", "json", "--which", "output"]
        first = run_cli(argv, capsys)
        second = run_cli(argv, capsys)
        assert first == second


class TestTopLevel:
    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


class TestCollector:
    """``main`` runs each command with the cyclic collector paused and gives
    the caller back the collector state it had."""

    @pytest.fixture
    def collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("collecting", [True, False])
    @pytest.mark.parametrize(
        "argv,code",
        [
            (["build", "--n", "1"], 0),
            (["analyze", "{task}", "--t", "2"], 2),
            (["analyze", "{missing}", "--t", "1"], 3),
            (["analyze", "{identity}", "--t", "1"], 4),
            (["search", "{task}", "--t", "1", "--N", "1", "--budget", "1"], 5),
        ],
    )
    def test_state_comes_back_on_every_exit(
        self, argv, code, collecting, collector, task_file, tmp_path, capsys
    ):
        identity = tmp_path / "identity.json"
        task = identity_task(cx([vtx(0, "1"), vtx(1, "1"), vtx(2, "1")]))
        identity.write_text(dumps(task_to_obj(task)))
        names = {"task": task_file, "missing": tmp_path / "missing.json", "identity": identity}
        (gc.enable if collecting else gc.disable)()
        assert run_cli([arg.format(**names) for arg in argv], capsys)[0] == code
        assert gc.isenabled() is collecting

    @pytest.mark.parametrize("collecting", [True, False])
    def test_state_comes_back_past_an_escaping_exception(self, collecting, collector, monkeypatch):
        seen = []

        def fail(config):
            seen.append(gc.isenabled())
            raise RuntimeError("fail")

        monkeypatch.setattr("cbtopo.cli.build_task", fail)
        (gc.enable if collecting else gc.disable)()
        with pytest.raises(RuntimeError, match="fail"):
            main(["build", "--n", "1"])
        assert seen == [False]
        assert gc.isenabled() is collecting

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "--n", "{k}", "--out", "{out}"],
            ["analyze", "{task}", "--t", "1"],
            ["search", "{task}", "--t", "1", "--N", "1"],
            ["export", "{task}", "--format", "json"],
            ["export", "{task}", "--format", "dot"],
            ["simulate", "--n", "{k}", "--t", "1", "--trace-out", "{out}"],
            ["replay", "{trace}"],
        ],
        ids=["build", "analyze", "search", "export-json", "export-dot", "simulate", "replay"],
    )
    def test_no_command_leaves_cyclic_garbage(self, argv, k, collector, block7_files, tmp_path, capsys):
        names = {
            "k": k,
            "task": block7_files[k, False],
            "out": tmp_path / f"out-{k}",
            "trace": self.trace(k, tmp_path, capsys),
        }
        assert self.garbage([arg.format(**names) for arg in argv], capsys) == 0

    @staticmethod
    def trace(k, tmp_path, capsys):
        """The trace file of the violation ``simulate --n k --t 1`` finds."""
        path = tmp_path / f"trace-{k}.jsonl"
        if not path.exists():
            argv = ["simulate", "--n", str(k), "--t", "1", "--trace-out", str(path)]
            assert run_cli(argv, capsys)[0] == 0
        return path

    @staticmethod
    def garbage(argv, capsys):
        """The objects in reference cycles that ``main(argv)`` leaves."""
        gc.disable()
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            code, _, _ = run_cli(argv, capsys)
            assert code == 0
            gc.collect()
            return len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
