"""Deterministic JSON forms for complexes, tasks, reports, and traces.

Every serializer walks its object in canonical order, so equal objects
always produce byte-identical text.  All of it is written by one encoder,
``dumps``: compact JSON on one line, with no whitespace and a final
newline, from the standard library's C encoder.  Task files, ``search``
reports and ``export --format json`` are one such line each, and a trace
is one line per record.  ``python3 -m json.tool`` shows a line indented.

A task file is format 2: it lists every vertex once and writes every
simplex as the indices of its vertices in that list.  ``task_to_obj`` is
the one writer and ``task_from_obj`` the one reader.  The file's text is
``dumps`` of the one, and ``json.loads`` of the other, which reads the
value and not its layout, so an indented file reads the same.  Format 1,
which wrote each vertex object in full inside every simplex, is no longer
read.
"""
from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .errors import EmptyInput, InvalidTask, MalformedTrace
from .forksim import ExecutionTrace, Message, SimEvent, ViolationReport
from .simplicial import (
    BlockRef,
    Complex,
    Simplex,
    SubdivisionVertex,
    Value,
    Vertex,
    _bits,
    _maximal,
    _Numbering,
)
from .solvability import SolvabilityReport
from .tasks import CarrierMap, Task

__all__ = [
    "dumps",
    "vertex_to_obj",
    "vertex_from_obj",
    "simplex_to_obj",
    "task_to_json",
    "task_to_obj",
    "task_from_json",
    "task_from_obj",
    "report_to_obj",
    "trace_to_jsonl",
    "trace_from_jsonl",
]


# The one JSON writer: the standard library's C encoder, with no whitespace
# and without its check for cycles, since every object written is freshly
# built and has none.
_compact = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def dumps(obj: Any) -> str:
    """``obj`` as compact JSON on one line, with a final newline: a task
    file, a ``search`` report, an ``export --format json`` graph or one
    trace record.  ``python3 -m json.tool`` shows it indented."""
    return _compact(obj) + "\n"


def vertex_to_obj(vertex: Any) -> Dict[str, Any]:
    if isinstance(vertex, SubdivisionVertex):
        return {
            "level": vertex.level,
            "carrier": simplex_to_obj(vertex.carrier),
            "below": simplex_to_obj(vertex.below),
        }
    if not isinstance(vertex, Vertex):
        raise TypeError(f"cannot serialize vertex {vertex!r}")
    return {
        "chain": vertex.block.chain if vertex.block else None,
        "block": vertex.block.block if vertex.block else None,
        "value": vertex.value.value,
    }


def vertex_from_obj(obj: Dict[str, Any]) -> Vertex:
    try:
        chain = obj["chain"]
        block = obj["block"]
        value = Value.from_code(obj["value"])
        if (chain is None) != (block is None):
            raise InvalidTask(f"vertex {obj!r} must set chain and block together")
        ref = None if chain is None else BlockRef(chain=chain, block=block)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidTask(f"malformed vertex object {obj!r}: {exc}") from None
    return Vertex(block=ref, value=value)


def simplex_to_obj(simplex: Simplex) -> List[Dict[str, Any]]:
    return [vertex_to_obj(v) for v in simplex]


def task_to_obj(task: Task) -> Dict[str, Any]:
    """The task file's object, format 2: every vertex of the input and the
    output once, in canonical order, and every simplex as the list of its
    vertices' indices there, ascending.

    The input's and the output's facets are listed in canonical order, and
    the carrier map as one ``[simplex, image number]`` entry per input
    simplex, in canonical (dimension, key) order.  ``images`` lists each
    image an entry names once, numbered in the order the entries first name
    them, so equal tasks give equal objects.
    """
    space = _Numbering.of((*task.input.vertices, *task.output.vertices))

    def indices(numbering: _Numbering) -> Callable[[Iterable[int]], List[List[int]]]:
        """The index lists, on the file's numbering, of masks on ``numbering``."""
        renumber = numbering.to(space)
        return lambda masks: list(map(list, map(_bits, masks if renumber is None
                                                 else map(renumber, masks))))

    input_, output = indices(task.input._space), indices(task.output._space)
    simplices = list(task._simplices())
    listed = list(map(task.carrier._ids.__getitem__, simplices))
    number = {k: i for i, k in enumerate(dict.fromkeys(listed))}
    images = task.carrier._images
    return {
        "format": 2,
        "vertices": [vertex_to_obj(v) for v in space.vertices],
        "input": input_(task.input._facets),
        "output": output(task.output._facets),
        "images": [output(images[k]) for k in number],
        "carrier": list(map(list, zip(input_(simplices), map(number.__getitem__, listed)))),
        "colored": task.colored,
    }


def task_to_json(task: Task) -> str:
    """The task file: ``dumps(task_to_obj(task))``."""
    return dumps(task_to_obj(task))


def task_from_json(text: str) -> Task:
    """Read a task file's text: ``task_from_obj(json.loads(text))``."""
    return task_from_obj(json.loads(text))


_KEYS = ("vertices", "input", "output", "images", "carrier", "colored")


def task_from_obj(obj: Any) -> Task:
    """Read a task object in format 2, such as ``json.loads`` of a task file.

    Each listed vertex is decoded once, and an index stands for its vertex
    on the canonical numbering of them all, which the input, the output and
    the images share; no list is taken to be in any order.  Equal images
    share one number.  The whole object is read and checked, and any fault
    raises ``InvalidTask`` naming it: a missing key or another format, an
    empty vertex or image list, a vertex listed twice, an index that is not
    an ``int`` naming a listed vertex, an empty simplex, facet list or
    image, a simplex that repeats an index, a carrier entry that is not
    ``[simplex, image number]`` or names no listed image, an image no entry
    names, an input simplex listed twice, a ``colored`` that is not a
    boolean, and any task that fails validation.  The entries are numbered
    in the order of the input's layers, which validation takes from the
    same cache; an entry of no input simplex goes after them.
    """
    found = obj.get("format") if type(obj) is dict else None
    if type(found) is not int or found != 2:
        raise InvalidTask(f"task file format is {found!r}, not 2: run `cbtopo build` again")
    missing = [key for key in _KEYS if key not in obj]
    if missing:
        raise InvalidTask(f"malformed task object: missing {', '.join(map(repr, missing))}")
    vertex_objs, input_, output, image_objs, entry_objs, colored = map(obj.__getitem__, _KEYS)
    if type(colored) is not bool:
        raise InvalidTask(f"malformed task object: 'colored' must be a boolean, got {colored!r}")
    where, at = "'vertices'", None  # the key being read, and its item number
    try:
        vertices = [vertex_from_obj(v) for v in _list(vertex_objs)]
        if not vertices:
            raise ValueError("no vertex is listed")
        space = _Numbering.of(vertices)
        if len(space.vertices) != len(vertices):
            twice = next(v for i, v in enumerate(vertices) if v in vertices[:i])
            raise ValueError(f"vertex {twice} is listed twice")
        bit_of = dict(enumerate(map(space.bit.__getitem__, vertices)))

        def simplex(indices: Any) -> int:
            """The mask of a list of vertex indices."""
            mask = 0
            for i in _list(indices):
                if type(i) is not int or i not in bit_of:
                    raise ValueError(f"vertex index {i!r} is not an int in 0..{len(vertices) - 1}")
                mask |= bit_of[i]
            if not mask or mask.bit_count() != len(indices):
                raise ValueError(f"simplex {indices!r} is empty or repeats a vertex")
            return mask

        def facets(objs: Any) -> Tuple[int, ...]:
            return _maximal(map(simplex, _list(objs)))

        where = "'input'"
        input_facets = facets(input_)
        where = "'output'"
        output_facets = facets(output)
        where, images = "'images'", []
        for at, image in enumerate(_list(image_objs)):
            images.append(facets(image))
        if not images:
            raise ValueError("no image is listed")
        where, at = "'carrier'", None
        image_of: Dict[int, int] = {}  # each entry's simplex mask and listed image
        for at, entry in enumerate(_list(entry_objs)):
            if type(entry) is not list or len(entry) != 2:
                raise ValueError(f"need [simplex, image number], got {entry!r}")
            s, k = simplex(entry[0]), entry[1]
            if type(k) is not int or not 0 <= k < len(images):
                raise ValueError(f"image number {k!r} is not an int in 0..{len(images) - 1}")
            if s in image_of:
                raise ValueError(f"carrier map lists input simplex {space.simplex(s)} twice")
            image_of[s] = k
        unnamed = set(range(len(images))).difference(image_of.values())
        if unnamed:
            where, at = "'images'", min(unnamed)
            raise ValueError("no carrier entry names it")
    except (ValueError, EmptyInput) as exc:
        where = where if at is None else f"{where} item {at}"
        raise InvalidTask(f"malformed {where}: {exc}") from None
    # Entries in canonical order, and the distinct images numbered as they
    # first occur there, as the writer lists them.  The input's layers are
    # that order, and validation takes them from the same cache; entries of
    # no input simplex follow in any order, and validation names them.
    input_complex = Complex._of(space, input_facets)
    order = [s for layer in input_complex._masks().values() for s in layer if s in image_of]
    if len(order) != len(image_of):
        order += image_of.keys() - set(order)
    number: Dict[Tuple[int, ...], int] = {}
    ids = {s: number.setdefault(images[image_of[s]], len(number)) for s in order}
    return Task(
        input=input_complex,
        output=Complex._of(space, output_facets),
        carrier=CarrierMap._of(space, space, ids, list(number)),
        colored=colored,
    )


def _list(value: Any) -> list:
    if type(value) is not list:
        raise ValueError(f"need a list, got {value!r}")
    return value


def report_to_obj(report: SolvabilityReport) -> Dict[str, Any]:
    witnesses = None
    if report.witnesses is not None:
        witnesses = [simplex_to_obj(s) for s in report.witnesses]
    assignment = None
    if report.assignment is not None:
        assignment = [
            {"from": vertex_to_obj(u), "to": vertex_to_obj(w)}
            for u, w in report.assignment
        ]
    return {
        "verdict": report.verdict.value,
        "parameters": {"n": report.n, "t": report.t, "depth": report.depth},
        "evidence": {
            "input_components": report.input_components,
            "output_components": report.output_components,
            "skeleton_reduced_b0": report.skeleton_betti0,
            "witnesses": witnesses,
            "witness_components": (
                list(report.witness_components) if report.witness_components else None
            ),
            "assignment": assignment,
        },
        "nodes_explored": report.nodes_explored,
        "note": report.note,
    }


def _message_to_obj(message: Message) -> Dict[str, Any]:
    return {
        "from": message.sender,
        "to": message.receiver,
        "seq": message.sequence,
        "payload": dict(message.payload),
    }


def _event_to_obj(event: SimEvent) -> Dict[str, Any]:
    obj: Dict[str, Any] = {"type": "event", "kind": event.kind}
    if event.kind == "deliver":
        obj["message"] = _message_to_obj(event.message)
    else:
        obj["chain"] = event.chain
    return obj


def trace_to_jsonl(trace: ExecutionTrace, report: ViolationReport | None = None) -> str:
    """One JSON object per line: metadata, events, outcome, optional verdict."""
    records = [
        {
            "type": "meta",
            "n": trace.n,
            "t": trace.t,
            "protocol": trace.protocol,
            "inputs": [v.value for v in trace.inputs],
        },
        *map(_event_to_obj, trace.events),
        {
            "type": "outcome",
            "decided": [v.value if v else None for v in trace.outcome],
            "realized": [v.value for v in trace.realized],
            "crashed": sorted(trace.crashed),
            "suspended": sorted(trace.suspended),
            "quiescent": trace.quiescent,
        },
    ]
    if report is not None:
        records.append(
            {
                "type": "verdict",
                "ok": report.ok,
                "violations": [
                    {"kind": v.kind, "detail": v.detail, "chains": list(v.chains)}
                    for v in report.violations
                ],
            }
        )
    return "".join(map(dumps, records))


def _int_field(obj: Dict[str, Any], key: str) -> int:
    value = obj[key]
    if type(value) is not int:
        raise TypeError(f"{key!r} must be an integer, got {value!r}")
    return value


def _list_field(obj: Dict[str, Any], key: str) -> List[Any]:
    value = obj[key]
    if not isinstance(value, list):
        raise TypeError(f"{key!r} must be a list, got {value!r}")
    return value


def _chain_set(obj: Dict[str, Any], key: str) -> frozenset:
    chains = _list_field(obj, key)
    if any(type(chain) is not int for chain in chains):
        raise TypeError(f"{key!r} must list integers, got {chains!r}")
    return frozenset(chains)


def _event_from_obj(obj: Dict[str, Any]) -> SimEvent:
    kind = obj["kind"]
    if kind == "deliver":
        raw = obj["message"]
        message = Message(
            sender=_int_field(raw, "from"),
            receiver=_int_field(raw, "to"),
            sequence=_int_field(raw, "seq"),
            payload=tuple(sorted(raw["payload"].items())),
        )
        return SimEvent(kind="deliver", chain=message.receiver, message=message)
    if kind not in ("step", "crash", "suspend"):
        raise ValueError(f"unknown event kind {kind!r}")
    return SimEvent(kind=kind, chain=_int_field(obj, "chain"))


def trace_from_jsonl(text: str) -> Tuple[ExecutionTrace, Optional[Tuple[str, ...]]]:
    """Read ``trace_to_jsonl``'s output back: the trace, and the violation
    kinds its verdict line names (None when the file has no verdict).

    The lines must be one meta record, the events, one outcome and at most
    one verdict, in that order; anything else raises ``MalformedTrace``.
    """
    try:
        records = [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError as exc:
        raise MalformedTrace(f"trace line is not JSON: {exc}") from None
    except ValueError as exc:  # an int literal past the digit limit
        raise MalformedTrace(f"trace line is not readable JSON: {exc}") from None
    except RecursionError:
        raise MalformedTrace("trace line is JSON nested too deeply") from None
    types = [r.get("type") if isinstance(r, dict) else None for r in records]
    if "outcome" not in types:
        raise MalformedTrace("trace has no outcome line")
    end = types.index("outcome")
    if (
        types[0] != "meta"
        or any(kind != "event" for kind in types[1:end])
        or types[end + 1:] not in ([], ["verdict"])
    ):
        raise MalformedTrace(
            "trace lines must be meta, events, outcome and an optional verdict"
        )
    meta, outcome = records[0], records[end]
    try:
        n = _int_field(meta, "n")
        inputs = tuple(Value.from_code(v) for v in _list_field(meta, "inputs"))
        decided = tuple(
            None if v is None else Value.from_code(v)
            for v in _list_field(outcome, "decided")
        )
        realized = tuple(Value.from_code(v) for v in _list_field(outcome, "realized"))
        if not len(inputs) == len(decided) == len(realized) == n + 1:
            raise ValueError(f"need {n + 1} inputs, decisions and realized values")
        quiescent = outcome["quiescent"]
        if not isinstance(quiescent, bool):
            raise TypeError(f"'quiescent' must be a boolean, got {quiescent!r}")
        trace = ExecutionTrace(
            n=n,
            t=_int_field(meta, "t"),
            protocol=str(meta["protocol"]),
            inputs=inputs,
            events=tuple(_event_from_obj(r) for r in records[1:end]),
            outcome=decided,
            realized=realized,
            crashed=_chain_set(outcome, "crashed"),
            suspended=_chain_set(outcome, "suspended"),
            quiescent=quiescent,
        )
        kinds = None
        if types[end + 1:]:
            verdict = records[end + 1]
            kinds = tuple(str(v["kind"]) for v in _list_field(verdict, "violations"))
            if verdict["ok"] is not (not kinds):
                raise ValueError("verdict 'ok' disagrees with its violations")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedTrace(f"malformed trace record: {exc}") from None
    return trace, kinds
