"""Deterministic JSON forms for complexes, tasks, reports, and traces.

Every serializer walks its object in canonical order, so equal objects
always produce byte-identical text.  Pretty text comes from one encoder,
``dumps``: it writes plain JSON values (dicts with ``str`` keys, lists,
``str``, ``int``, ``bool`` and ``None``) byte for byte as
``json.dumps(obj, indent=2) + "\n"`` does, in one direct pass, and raises
``TypeError`` on anything else.  ``task_from_json`` reads a task file
by the writer's own layout when it can: it cuts the text at the writer's
separators, decodes each distinct vertex text once, and keeps what it read
only when that task writes back to the same bytes.
"""
from __future__ import annotations

import functools
import json
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .errors import CbtopoError, EmptyInput, InvalidTask, MalformedTrace
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


def dumps(obj: Any) -> str:
    """``json.dumps(obj, indent=2) + "\n"``, byte for byte, for a plain JSON
    value: a dict with ``str`` keys, a list, a ``str``, an ``int``, a
    ``bool`` or ``None``, nested to any depth.  Anything else, a float, a
    tuple, a non-``str`` key or a subclass of one of those types included,
    raises ``TypeError`` naming its type.  The text is appended to one list
    and joined once, so no encoder objects are left behind."""
    parts: List[str] = []
    _encode(obj, parts, "\n")
    parts.append("\n")
    return "".join(parts)


_INDENT = "  "
_LITERALS = {None: "null", True: "true", False: "false"}
# The text of each scalar type, by exact type: a subclass is not in it.
_SCALARS: Dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: _LITERALS.__getitem__,
    type(None): _LITERALS.__getitem__,
}


def _encode(obj: Any, parts: List[str], pad: str) -> None:
    """Append ``dumps``'s text of ``obj``, less the final newline, to
    ``parts``, with ``pad`` (a newline and the indent of ``obj``) opening
    each of its lines after the first."""
    kind = type(obj)
    if kind is dict and obj:
        inner = pad + _INDENT
        sep, after = "{" + inner, "," + inner
        for key, value in obj.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            scalar = _SCALARS.get(type(value))
            if scalar is None:
                parts.append(sep + encode_basestring_ascii(key) + ": ")
                _encode(value, parts, inner)
            else:
                parts.append(sep + encode_basestring_ascii(key) + ": " + scalar(value))
            sep = after
        parts.append(pad + "}")
    elif kind is list and obj:
        inner = pad + _INDENT
        sep, after = "[" + inner, "," + inner
        for value in obj:
            scalar = _SCALARS.get(type(value))
            if scalar is None:
                parts.append(sep)
                _encode(value, parts, inner)
            else:
                parts.append(sep + scalar(value))
            sep = after
        parts.append(pad + "]")
    elif kind is dict or kind is list:
        parts.append("{}" if kind is dict else "[]")
    else:
        scalar = _SCALARS.get(kind)
        if scalar is None:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        parts.append(scalar(obj))


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


# The fixed texts of a task file, which the writer joins around its lists
# and the layout reader splits the file on: the top level's opening and
# keys, and its close; a complex's key and close; and a carrier entry's
# opening, image key and close.
_INPUT = '{\n  "input": '
_OUTPUT = ',\n  "output": '
_CARRIER = ',\n  "carrier": '
_COLORED = ',\n  "colored": '
_END = "\n}\n"
_FACETS = '{\n    "facets": '
_COMPLEX_END = "\n  }"
_SIMPLEX = '{\n      "simplex": '
_IMAGE = ',\n      "image_facets": '
_ENTRY_END = "\n    }"


@functools.cache
def _brackets(depth: int) -> Tuple[str, str, str]:
    """How ``dumps`` opens, separates and closes a non-empty list at
    nesting ``depth``."""
    inner = "\n" + _INDENT * (depth + 1)
    return "[" + inner, "," + inner, "\n" + _INDENT * depth + "]"


class _Bodies(dict):
    """The vertex items of a mask joined as a list's body, built on first
    request from the body of its prefix (the mask without its top bit)."""

    def __init__(self, items: List[str], sep: str) -> None:
        super().__init__()
        self.items, self.sep = items, sep

    def __missing__(self, mask: int) -> str:
        top = mask.bit_length() - 1
        rest = mask ^ 1 << top
        body = self[mask] = self[rest] + self.sep + self.items[top] if rest else self.items[top]
        return body


def task_to_json(task: Task) -> str:
    """The task file: the same text as ``dumps`` of the task object.

    A task repeats its few distinct vertices throughout, so each one is
    encoded from ``vertex_to_obj`` by ``dumps``'s encoder once for each
    nesting depth it is written at; each simplex or facet list is joined
    once per numbering and depth, from its prefix's text and its last
    vertex.  Carrier entries are written in the input's layer order, which
    is the canonical order, and each distinct image is encoded once, by the
    carrier's image numbering.  Lists and entries are joined around those
    texts from fixed strings for their depth.  This is the one definition
    of the task format, and ``task_from_json`` relies on its entry order:
    it reads entry k of a file as the k-th input simplex in canonical order.
    """
    carrier = task.carrier
    bodies: Dict[Tuple[Any, int], _Bodies] = {}

    def lists(space: Any, depth: int) -> _Bodies:
        """The body of each mask's vertex list on ``space``, items at ``depth``."""
        found = bodies.get((space, depth))
        if found is None:
            pad, items = "\n" + _INDENT * depth, []
            for v in space.vertices:
                text: List[str] = []
                _encode(vertex_to_obj(v), text, pad)
                items.append("".join(text))
            found = bodies[space, depth] = _Bodies(items, _brackets(depth - 1)[1])
        return found

    def facets(space: Any, masks: Sequence[int], depth: int) -> str:
        """A list of facet lists at ``depth``."""
        body = lists(space, depth + 2)
        open_, _, close = _brackets(depth + 1)
        outer_open, outer_sep, outer_close = _brackets(depth)
        return outer_open + outer_sep.join([open_ + body[f] + close for f in masks]) + outer_close

    def complex_(c: Complex) -> str:
        return _FACETS + facets(c._space, c._facets, 2) + _COMPLEX_END

    ids = carrier._ids
    image_texts = [facets(carrier._out, image, 3) for image in carrier._images]
    # An entry is an object at depth 2 holding a simplex list at depth 3,
    # as an input facet is a list at depth 3 in the input's facet list.
    simplex = lists(task.input._space, 4)
    open_, _, close = _brackets(3)
    head = _SIMPLEX + open_
    middle = close + _IMAGE
    open_, sep, close = _brackets(1)
    parts = [
        _INPUT, complex_(task.input),
        _OUTPUT, complex_(task.output),
        _CARRIER + open_,
    ]
    for s in task._simplices():
        parts += (head, simplex[s], middle, image_texts[ids[s]], _ENTRY_END, sep)
    # The separator after the last entry becomes the close of the list.
    parts[-1] = close + _COLORED + _LITERALS[task.colored] + _END
    return "".join(parts)


def task_to_obj(task: Task) -> Dict[str, Any]:
    """The task as fresh JSON objects, read back from ``task_to_json``."""
    return json.loads(task_to_json(task))


def task_from_json(text: str) -> Task:
    """Read a task file's text: the result, or the error, of
    ``task_from_obj(json.loads(text))``.

    The text is first taken to be in the writer's layout: the input's and
    the output's facet lists and each distinct image text are cut at the
    writer's separators, each distinct vertex text is decoded once, entry
    k's simplex is taken to be the k-th input simplex in canonical order
    (``task_to_json``'s entry order), and the task so built and validated
    is returned only when ``task_to_json`` of it is ``text`` itself.  As
    the writer is the one definition of the format, that task is the one
    the general reader returns.  Any other text, and any text on which the
    layout read fails in any way, go to the general reader.
    """
    try:
        task = _task_from_layout(text)
    except (CbtopoError, LookupError, TypeError, ValueError, RecursionError):
        task = None
    if task is not None and task_to_json(task) == text:
        return task
    return task_from_obj(json.loads(text))


def _task_from_layout(text: str) -> Task:
    """The task of ``text`` read by the writer's layout, each facet list by
    ``_TaskReader.layout``, not yet checked against it.  A text in another
    layout raises, or gives a task whose text differs."""
    if not text.startswith(_INPUT):
        raise ValueError("not in the task writer's layout")
    output_at = text.index(_OUTPUT)
    carrier_at = text.index(_CARRIER, output_at)
    colored_at = text.rindex(_COLORED, carrier_at)
    colored = {"true": True, "false": False}[text[colored_at + len(_COLORED):-len(_END)]]
    # Each piece after the first opens with an entry's image text, and what
    # follows the image's end is indented deeper, to the next entry's simplex.
    texts: Dict[str, int] = {}
    entries = [
        texts.setdefault(piece[:piece.rindex(_ENTRY_END)], len(texts))
        for piece in text[carrier_at:colored_at].split(_IMAGE)[1:]
    ]
    reader = _TaskReader()
    start, end = len(_FACETS), -len(_COMPLEX_END)
    input_facets = reader.layout(text[len(_INPUT) + start:output_at + end], 2)
    output_facets = reader.layout(text[output_at + len(_OUTPUT) + start:carrier_at + end], 2)
    images = [tuple(reader.layout(image, 3)) for image in texts]
    return _task(reader, input_facets, output_facets, images, entries, colored)


class _TaskReader:
    """Decodes the vertex objects of one task file, or one complex, into masks.

    Each distinct vertex object is decoded once and numbered in the order
    it is first seen; ``numbering`` then gives the canonical numbering and
    the map onto it.  Two objects share a number only when their chain,
    block and value are equal and of the same types, so ``true`` is never
    read as a cached chain 1.
    """

    def __init__(self) -> None:
        self.bit_of: Dict[tuple, int] = {}
        self.bit_of_text: Dict[str, int] = {}
        self.vertices: List[Vertex] = []

    def bit(self, obj: Any) -> int:
        """The bit of a vertex object not read before, or the
        ``InvalidTask`` of a malformed one."""
        vertex = vertex_from_obj(obj)
        chain, block = obj["chain"], obj["block"]
        bit = self.bit_of[type(chain), chain, type(block), block, obj["value"]] = (
            1 << len(self.vertices)
        )
        self.vertices.append(vertex)
        return bit

    def simplex(self, objs: Sequence[Any]) -> int:
        bit_of = self.bit_of
        mask = 0
        for obj in objs:
            try:
                chain, block = obj["chain"], obj["block"]
                mask |= bit_of[type(chain), chain, type(block), block, obj["value"]]
            except (KeyError, TypeError):
                mask |= self.bit(obj)
        if not mask or mask.bit_count() != len(objs):
            # Empty, or a vertex repeated: the constructor names the fault.
            Simplex(vertex_from_obj(obj) for obj in objs)
        return mask

    def layout(self, text: str, depth: int) -> List[int]:
        """The facet masks of a facet list that ``task_to_json`` wrote at
        ``depth``, cut at the writer's separators (a JSON string holds no raw
        newline, so only between items); each distinct item text decoded once."""
        outer_open, outer_sep, outer_close = _brackets(depth)
        open_, sep, close = _brackets(depth + 1)
        bits, masks = self.bit_of_text, []
        body = text[len(outer_open + open_ + "{"):-len(close + outer_close)]
        for facet in body.split(close + outer_sep + open_ + "{"):
            mask = 0
            for item in facet.split(sep + "{"):
                if item not in bits:
                    bits[item] = self.simplex([json.loads("{" + item)])
                mask |= bits[item]
            masks.append(mask)
        return masks

    def facets(self, objs: Sequence[Any]) -> List[int]:
        masks = [self.simplex(f) for f in objs]
        if not masks:
            raise EmptyInput("a complex needs at least one facet")
        return masks

    def complex(self, obj: Any) -> List[int]:
        try:
            facets = obj["facets"]
        except (KeyError, TypeError):
            raise InvalidTask("complex object needs a 'facets' list") from None
        return self.facets(facets)

    def numbering(self) -> Tuple[_Numbering, Callable[[int], int]]:
        """The canonical numbering of every vertex read, and the map from
        first-seen masks onto it."""
        space = _Numbering.of(self.vertices)
        return space, _Numbering(self.vertices).to(space) or (lambda mask: mask)


def task_from_obj(obj: Dict[str, Any]) -> Task:
    """Read a task object, such as ``json.loads`` of a task file.

    Every vertex of the file is numbered in one numbering, which the input,
    the output and the carrier images share.  The whole object is read and
    checked: a malformed object raises ``InvalidTask`` (or the
    ``CbtopoError`` a malformed simplex or complex raises), and so does a
    carrier map that lists one input simplex twice.
    """
    reader = _TaskReader()
    try:
        input_facets = reader.complex(obj["input"])
        output_facets = reader.complex(obj["output"])
        entries_raw = list(obj["carrier"])
        colored = obj["colored"]
    except (KeyError, TypeError) as exc:
        raise InvalidTask(f"malformed task object: {exc}") from None
    if type(colored) is not bool:
        raise InvalidTask(f"malformed task object: 'colored' must be a boolean, got {colored!r}")
    entries: Dict[int, int] = {}
    images: Dict[Tuple[int, ...], int] = {}  # the index of each image as read
    for entry in entries_raw:
        try:
            objs = entry["simplex"]
            if type(objs) is not list:
                raise TypeError(f"'simplex' must be a list, got {objs!r}")
            simplex = reader.simplex(objs)
            image = tuple(reader.facets(entry["image_facets"]))
        except (KeyError, TypeError) as exc:
            raise InvalidTask(f"malformed carrier entry: {exc}") from None
        if simplex in entries:
            raise InvalidTask(
                f"carrier map lists input simplex "
                f"{Simplex(reader.vertices[i] for i in _bits(simplex))} twice"
            )
        entries[simplex] = images.setdefault(image, len(images))
    return _task(reader, input_facets, output_facets, list(images), entries, colored)


def _task(
    reader: _TaskReader,
    input_facets: List[int],
    output_facets: List[int],
    images: List[Tuple[int, ...]],
    entries: Union[Dict[int, int], List[int]],
    colored: bool,
) -> Task:
    """The task of what ``reader`` read, validated as a task.

    ``images`` lists the distinct images as read, first seen first, and
    ``entries`` gives each carrier entry's index in it: keyed by the
    entry's simplex mask as read, or listed in the input's canonical
    simplex order.  Images are numbered in the order listed, so both forms
    number a file's images alike.
    """
    space, renumber = reader.numbering()
    number: Dict[Tuple[int, ...], int] = {}  # each distinct image's number
    moved = [number.setdefault(_maximal(map(renumber, image)), len(number)) for image in images]
    input_ = Complex._of(space, _maximal(map(renumber, input_facets)))
    if isinstance(entries, list):
        simplices = (s for layer in input_._masks().values() for s in layer)
        ids = dict(zip(simplices, map(moved.__getitem__, entries), strict=True))
    else:
        ids = {renumber(s): moved[k] for s, k in entries.items()}
    return Task(
        input=input_,
        output=Complex._of(space, _maximal(map(renumber, output_facets))),
        carrier=CarrierMap._of(space, space, ids, list(number)),
        colored=colored,
    )


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
    lines = [
        json.dumps(
            {
                "type": "meta",
                "n": trace.n,
                "t": trace.t,
                "protocol": trace.protocol,
                "inputs": [v.value for v in trace.inputs],
            },
            separators=(",", ":"),
        )
    ]
    for event in trace.events:
        lines.append(json.dumps(_event_to_obj(event), separators=(",", ":")))
    lines.append(
        json.dumps(
            {
                "type": "outcome",
                "decided": [v.value if v else None for v in trace.outcome],
                "realized": [v.value for v in trace.realized],
                "crashed": sorted(trace.crashed),
                "suspended": sorted(trace.suspended),
                "quiescent": trace.quiescent,
            },
            separators=(",", ":"),
        )
    )
    if report is not None:
        lines.append(
            json.dumps(
                {
                    "type": "verdict",
                    "ok": report.ok,
                    "violations": [
                        {"kind": v.kind, "detail": v.detail, "chains": list(v.chains)}
                        for v in report.violations
                    ],
                },
                separators=(",", ":"),
            )
        )
    return "\n".join(lines) + "\n"


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
