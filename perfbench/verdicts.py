"""Independent checks of every verdict a benchmark job produces.

None of these trusts the library's own verdict: build summaries are compared
with closed forms, search and analyze output is parsed and held to the
paper's claims, a found map is re-checked vertex by vertex and facet by
facet, and every violating trace is replayed from its schedule.  A failed
check raises ``VerdictError``; the benchmark then exits without a result.
"""
from __future__ import annotations

import itertools
import json


class VerdictError(Exception):
    """A job produced a verdict that contradicts the independent check."""


class NoVerdict(Exception):
    """A job ended without a verdict: a search that exhausted its budget."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise VerdictError(message)


def check_build(code: int, out: str, n: int) -> None:
    """``cbtopo build --n n --out f`` summary against the closed forms."""
    _require(code == 0, f"build --n {n} exited {code}")
    expected = [
        f"input: vertices={3 * (n + 1)} facets={3 ** (n + 1)} dimension={n}",
        f"output: vertices={2 * (n + 1)} facets=2 dimension={n}",
        f"carrier: entries={4 ** (n + 1) - 1}",
        "colored: true",
    ]
    _require(out.splitlines() == expected, f"build --n {n} summary {out!r}, expected {expected}")


def check_analyze(code: int, out: str) -> None:
    """``cbtopo analyze`` on a colored task confirms all four claims."""
    lines = out.splitlines()
    _require(code == 0, f"analyze exited {code}")
    _require(not any("FAIL" in line for line in lines), "analyze printed a FAIL line")
    _require("obstruction: unsolvable_by_obstruction" in lines, "analyze found no obstruction")
    _require(lines[-1:] == ["claims: CONFIRMED (4/4)"], f"analyze ended with {lines[-1:]}")


def check_search(code: int, out: str, depth: int) -> None:
    """``cbtopo search`` on a CBT task reports no map up to ``depth``."""
    if code == 5:
        raise NoVerdict(out.strip())
    _require(code == 0, f"search exited {code}")
    body, _, last = out.rstrip("\n").rpartition("\n")
    try:
        report = json.loads(body)
    except ValueError:
        raise VerdictError("search printed no JSON report") from None
    _require(
        report.get("verdict") == "no_map_up_to_depth",
        f"search verdict {report.get('verdict')!r}, expected 'no_map_up_to_depth'",
    )
    _require(report["parameters"]["depth"] == depth, "search report names the wrong depth")
    _require(
        last.startswith(f"no carried simplicial map up to depth {depth} "),
        f"search verdict line {last!r}",
    )


def _subdivided_facets(skeleton_facets, vertices, depth):
    """Facets of the ``depth``-fold barycentric subdivision, rebuilt from the
    map's own subdivision vertices: a level-k facet is a maximal chain of
    prefixes of an ordering of a level-(k-1) facet."""
    facets = [frozenset(f) for f in skeleton_facets]
    for level in range(1, depth + 1):
        by_below = {
            frozenset(u.below.vertex_set): u for u in vertices if getattr(u, "level", 0) == level
        }
        try:
            facets = [
                frozenset(by_below[frozenset(perm[:i])] for i in range(1, len(perm) + 1))
                for facet in facets
                for perm in itertools.permutations(facet)
            ]
        except KeyError:
            raise VerdictError(f"the map misses a vertex of subdivision level {level}") from None
    return facets


def check_control_map(lib, report, task, skeleton_facets) -> None:
    """A found map on the control task: every vertex lands in its carrier
    and every subdivided facet lands inside one output facet.

    ``skeleton_facets`` are the facets of the input t-skeleton, enumerated
    by the caller without the library.
    """
    _require(report.verdict.value == "map_found", f"decide verdict {report.verdict.value!r}")
    _require(report.assignment is not None, "map verdict without an assignment")
    image = dict(report.assignment)
    depth = report.depth
    for u, w in image.items():
        carrier = u.carrier if depth else lib.Simplex([u])
        _require(w in task.carrier[carrier].vertex_set, f"{u} maps to {w} outside its carrier")
    facets = _subdivided_facets(skeleton_facets, image, depth)
    covered = set().union(*facets)
    _require(covered == set(image), "the map does not cover exactly the subdivided vertices")
    output_facets = [f.vertex_set for f in task.output.facets]
    for facet in facets:
        images = {image[u] for u in facet}
        _require(
            any(images <= out for out in output_facets),
            f"a subdivided facet maps onto {sorted(map(str, images))}, not an output simplex",
        )


def violation_expected(t: int, suspensions: int, inputs) -> bool:
    """Closed form for 2PC under fork suspension within the explored depth:
    a crash can always block the participants, and a suspension after an
    all-commit vote always breaks atomicity; nothing else goes wrong."""
    return t >= 1 or (suspensions >= 1 and all(v.value == "1" for v in inputs))


def check_replay(recorded_kinds, replayed_kinds) -> None:
    """A replayed trace must reproduce exactly the recorded violation kinds."""
    _require(bool(replayed_kinds), "the replayed trace shows no violation")
    _require(
        set(replayed_kinds) == set(recorded_kinds),
        f"replay gives {sorted(replayed_kinds)}, recorded {sorted(recorded_kinds)}",
    )


def check_simulation(lib, trace, n: int, t: int, inputs, suspensions: int) -> None:
    """``find_violation``'s answer against the closed form, plus a replay of
    any trace through ``run(..., trace.schedule(), inputs=trace.inputs)``."""
    expected = violation_expected(t, suspensions, inputs)
    _require(
        (trace is not None) == expected,
        f"n={n} t={t}: violation {'missing' if expected else 'reported'}",
    )
    if trace is None:
        return
    forksim = lib.forksim
    replay = forksim.run(
        n, t, forksim.get_protocol(trace.protocol), trace.schedule(), inputs=trace.inputs
    )
    check_replay(
        {v.kind for v in forksim.check_trace(trace).violations},
        {v.kind for v in forksim.check_trace(replay).violations},
    )


def check_simulate_cli(lib, code: int, out: str, trace_lines, n: int, t: int) -> None:
    """``cbtopo simulate`` with every leg at ONE: the printed verdict, the
    ``--trace-out`` file and its replay must all name the same violation."""
    _require(code == 0, f"simulate exited {code}")
    lines = out.splitlines()
    found = bool(lines) and lines[0].startswith("violation found after ")
    _require(found == violation_expected(t, 1, [lib.Value.ONE] * (n + 1)),
             f"simulate --n {n} --t {t} printed {lines[:1]}")
    if not found:
        return
    printed = {line.split("]", 1)[0][len("violation["):] for line in lines
               if line.startswith("violation[")}
    records = [json.loads(line) for line in trace_lines]
    meta = records[0]
    recorded = {v["kind"] for r in records if r["type"] == "verdict" for v in r["violations"]}
    _require(printed == recorded, f"printed kinds {sorted(printed)}, file {sorted(recorded)}")
    forksim = lib.forksim
    schedule = [
        forksim.ScheduleAction(kind="deliver", sequence=r["message"]["seq"])
        if r["kind"] == "deliver"
        else forksim.ScheduleAction(kind=r["kind"], chain=r["chain"])
        for r in records
        if r["type"] == "event"
    ]
    replay = forksim.run(
        meta["n"], meta["t"], forksim.get_protocol(meta["protocol"]), schedule,
        inputs=[lib.Value(value) for value in meta["inputs"]],
    )
    check_replay(recorded, {v.kind for v in forksim.check_trace(replay).violations})
