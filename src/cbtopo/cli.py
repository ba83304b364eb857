"""Command line front end.

Exit codes: 0 success, 2 usage or parameter error, 3 I/O or malformed input
file, 4 failed claim check (including a trace that does not replay), 5
exhausted resource budget.
"""
from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from typing import Sequence

from .cbt import CbtConfig, build_colorless_task, build_task
from .connectivity import connected_components, reduced_betti
from .errors import (
    CbtopoError,
    InvalidSchedule,
    InvalidTask,
    MalformedTrace,
    ResourceBound,
    check_resilience,
)
from .forksim import (
    PROTOCOLS,
    ExecutionTrace,
    ExhaustiveMode,
    RandomMode,
    ViolationReport,
    check_trace,
    find_violation,
    get_protocol,
    run,
)
from .serialize import (
    dumps,
    report_to_obj,
    task_from_json,
    task_to_json,
    trace_from_jsonl,
    trace_to_jsonl,
    vertex_to_obj,
)
from .simplicial import Complex, Value
from .solvability import Verdict, connectivity_obstruction, search_carried_simplicial_map
from .tasks import (
    Task,
    colorless_projection,
    verify_monotonic,
    verify_name_preserving,
    verify_rigid,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CLAIM = 4
EXIT_RESOURCE = 5

_VALUE_STYLE = {
    Value.ZERO: "lightsteelblue",
    Value.ONE: "palegreen",
    Value.BOTTOM: "lightgray",
}


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_task(path: str) -> Task:
    """``task_from_json`` of the file at ``path``."""
    with open(path, "rb") as handle:
        text = handle.read().decode("utf-8")
    try:
        return task_from_json(text)
    except RecursionError:
        raise InvalidTask(f"cannot load task from {path}: JSON nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except (ValueError, CbtopoError) as exc:  # ValueError: an int past the digit limit
        raise InvalidTask(f"cannot load task from {path}: {exc}") from None


def _shape(c: Complex) -> str:
    return f"vertices={len(c.vertices)} facets={len(c._facets)} dimension={c.dimension}"


def _task_summary(task: Task) -> str:
    return (
        f"input: {_shape(task.input)}\noutput: {_shape(task.output)}\n"
        f"carrier: entries={len(task.carrier)}\ncolored: {str(task.colored).lower()}\n"
    )


def cmd_build(args: argparse.Namespace) -> int:
    config = CbtConfig(n=args.n, block_index=args.block_index)
    task = build_colorless_task(config) if args.colorless else build_task(config)
    text = task_to_json(task)
    if args.out is None:
        sys.stdout.write(text)
        sys.stderr.write(_task_summary(task))
    else:
        _write_text(args.out, text)
        sys.stdout.write(_task_summary(task))
    return EXIT_OK


def _print_check(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"carrier {name}: {status}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)


def cmd_analyze(args: argparse.Namespace) -> int:
    task = _load_task(args.task)
    check_resilience(task.input.dimension, args.t, allow_zero=False)
    input_, output = task.input, task.output
    in_parts = connected_components(input_)
    out_parts = connected_components(output)
    pure = str(input_.is_pure()).lower()
    print(f"input: {_shape(input_)} pure={pure} components={len(in_parts)}")
    print(f"output: {_shape(output)} components={len(out_parts)}")
    for i, part in enumerate(out_parts):
        piece = output.induced_subcomplex(part)
        betti = reduced_betti(piece, piece.dimension)
        print(f"output component {i}: reduced_betti={list(betti.reduced_betti)}")
    checks: list[tuple[str, bool, str]] = []
    monotonic = verify_monotonic(task)
    checks.append(("monotonic", monotonic.ok, monotonic.detail))
    if task.colored:
        rigid = verify_rigid(task)
        checks.append(("rigid", rigid.ok, rigid.detail))
        names = verify_name_preserving(task)
        checks.append(("name-preserving", names.ok, names.detail))
    for name, ok, detail in checks:
        _print_check(name, ok, detail)
    colorless = colorless_projection(task) if task.colored else task
    obstruction = connectivity_obstruction(colorless, args.t)
    skeleton_b0 = obstruction.skeleton_betti0
    print(
        f"input skeleton(t={args.t}): components={obstruction.input_components} "
        f"reduced_b0={skeleton_b0}"
    )
    print(f"obstruction: {obstruction.verdict.value}")
    if obstruction.witnesses is not None:
        a, b = obstruction.witnesses
        ca, cb = obstruction.witness_components
        print(f"  witness A: {a} -> output component {ca}")
        print(f"  witness B: {b} -> output component {cb}")
    claims = [ok for _, ok, _ in checks]
    claims.append(obstruction.verdict is Verdict.UNSOLVABLE_BY_OBSTRUCTION)
    confirmed = sum(claims)
    status = "CONFIRMED" if all(claims) else "FAILED"
    print(f"claims: {status} ({confirmed}/{len(claims)})")
    return EXIT_OK if all(claims) else EXIT_CLAIM


def cmd_search(args: argparse.Namespace) -> int:
    report = search_carried_simplicial_map(
        _load_task(args.task), args.t, args.depth, node_budget=args.budget
    )
    sys.stdout.write(dumps(report_to_obj(report)))
    if report.verdict is Verdict.MAP_FOUND:
        print(f"map found at depth {args.depth} after {report.nodes_explored} nodes")
    else:
        scope = "up to" if report.note.endswith(" or below") else "at"
        print(
            f"no carried simplicial map {scope} depth {args.depth} "
            f"({report.nodes_explored} nodes explored)"
        )
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    protocol = get_protocol(args.protocol)
    if args.random:
        mode: ExhaustiveMode | RandomMode = RandomMode(seed=args.seed, trials=args.trials)
    else:
        mode = ExhaustiveMode(depth=args.depth)
    suspensions = 0 if args.no_suspend else 1
    if args.trace_out is not None:
        # Refused before the search, not after it; the file itself is
        # written only for a violation.
        folder = os.path.dirname(args.trace_out) or "."
        if not os.path.isdir(folder):
            raise FileNotFoundError(f"no directory {folder!r} for --trace-out")
        if os.path.isdir(args.trace_out):
            raise IsADirectoryError(f"--trace-out {args.trace_out!r} is a directory")
    trace = find_violation(
        args.n,
        args.t,
        protocol,
        mode,
        suspensions=suspensions,
        state_budget=args.budget,
    )
    if trace is None:
        bound = (
            f"depth {args.depth}" if isinstance(mode, ExhaustiveMode) else f"{args.trials} trials"
        )
        print(f"no violation found within {bound}")
        return EXIT_OK
    report = check_trace(trace)
    print(f"violation found after {len(trace.events)} events:")
    _print_run(trace, report)
    if args.trace_out is not None:
        _write_text(args.trace_out, trace_to_jsonl(trace, report))
    return EXIT_OK


def _print_run(trace: ExecutionTrace, report: ViolationReport) -> None:
    for i, event in enumerate(trace.events):
        if event.kind == "deliver":
            message = event.message
            payload = dict(message.payload)
            print(
                f"  {i:2d} deliver seq={message.sequence} "
                f"chain{message.sender}->chain{message.receiver} {payload}"
            )
        else:
            print(f"  {i:2d} {event.kind} chain{event.chain}")
    decided = ", ".join(
        f"chain{i}={v.value if v else 'undecided'}" for i, v in enumerate(trace.outcome)
    )
    realized = ", ".join(f"chain{i}={v.value}" for i, v in enumerate(trace.realized))
    print(f"outcome: {decided}")
    print(f"realized inputs: {realized}")
    for violation in report.violations:
        print(f"violation[{violation.kind}]: {violation.detail}")


def _final_state(trace: ExecutionTrace) -> tuple:
    return trace.outcome, trace.realized, trace.crashed, trace.suspended, trace.quiescent


def cmd_replay(args: argparse.Namespace) -> int:
    with open(args.trace, "r", encoding="utf-8") as handle:
        recorded, kinds = trace_from_jsonl(handle.read())
    protocol = get_protocol(recorded.protocol)
    try:
        replayed = run(
            recorded.n, recorded.t, protocol, recorded.schedule(), inputs=recorded.inputs
        )
    except InvalidSchedule as exc:
        print(f"replay: FAILED (the recorded schedule does not run: {exc})")
        return EXIT_CLAIM
    report = check_trace(replayed)
    print(
        f"replayed {len(replayed.events)} events of {replayed.protocol} "
        f"at n={replayed.n}, t={replayed.t}:"
    )
    _print_run(replayed, report)
    differs = [
        name
        for name, same in (
            ("events", replayed.events == recorded.events),
            ("outcome", _final_state(replayed) == _final_state(recorded)),
            ("violations", kinds is None or kinds == tuple(v.kind for v in report.violations)),
        )
        if not same
    ]
    if differs:
        print(f"replay: FAILED ({', '.join(differs)} not reproduced)")
        return EXIT_CLAIM
    print("replay: REPRODUCED")
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    task = _load_task(args.task)
    complex_ = task.input if args.which == "input" else task.output
    skeleton = complex_.skeleton(min(1, complex_.dimension))
    vertices = skeleton.vertices
    edges = skeleton.simplices_of_dim(1)
    if args.format == "dot":
        lines = [f"graph task_{args.which} {{", "  node [style=filled];"]
        for v in vertices:
            lines.append(f'  "{v}" [fillcolor="{_VALUE_STYLE[v.value]}"];')
        for e in edges:
            u, v = e.vertices
            lines.append(f'  "{u}" -- "{v}";')
        lines.append("}")
        text = "\n".join(lines) + "\n"
    else:
        obj = {
            "nodes": [{"id": str(v), **vertex_to_obj(v)} for v in vertices],
            "edges": [[str(e.vertices[0]), str(e.vertices[1])] for e in edges],
        }
        text = dumps(obj)
    _write_text(args.out, text)
    if args.out is not None:
        print(f"wrote {args.which} 1-skeleton: {len(vertices)} nodes, {len(edges)} edges")
    return EXIT_OK


@functools.cache  # one parser per process; --protocol reads the live registry
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbtopo",
        description=(
            "Build, analyze, and stress cross-chain transaction tasks as "
            "simplicial complexes"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="emit a task instance as JSON")
    p_build.add_argument("--n", type=int, required=True, help="number of chains minus one")
    p_build.add_argument("--block-index", type=int, default=0)
    p_build.add_argument("--colorless", action="store_true", help="strip output block labels")
    p_build.add_argument("--out", default=None, help="output path (default stdout)")
    p_build.set_defaults(func=cmd_build)

    p_analyze = sub.add_parser("analyze", help="re-check structural claims of a task file")
    p_analyze.add_argument("task", help="task JSON path")
    p_analyze.add_argument("--t", type=int, required=True, help="crash resilience bound")
    p_analyze.set_defaults(func=cmd_analyze)

    p_search = sub.add_parser("search", help="search for a carried simplicial map")
    p_search.add_argument("task", help="task JSON path")
    p_search.add_argument("--t", type=int, required=True)
    p_search.add_argument("--N", dest="depth", type=int, required=True,
                          help="barycentric subdivision depth")
    p_search.add_argument("--budget", type=int, default=None, help="node budget override")
    p_search.set_defaults(func=cmd_search)

    p_sim = sub.add_parser("simulate", help="hunt for protocol violations under suspension")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--t", type=int, required=True)
    p_sim.add_argument("--protocol", default="2pc", choices=PROTOCOLS.keys())
    mode = p_sim.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", help="check every state within --depth events (default)")
    mode.add_argument("--random", action="store_true", help="sample random schedules")
    p_sim.add_argument("--depth", type=int, default=24, help="exhaustive search depth, in events")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--trials", type=int, default=200)
    p_sim.add_argument("--no-suspend", action="store_true", help="disable fork suspensions")
    p_sim.add_argument("--budget", type=int, default=None,
                       help="state budget override, counted in orbit representatives")
    p_sim.add_argument("--trace-out", default=None, help="write the violating trace as JSON lines")
    p_sim.set_defaults(func=cmd_simulate)

    p_replay = sub.add_parser(
        "replay", help="re-run and re-check a trace written by simulate --trace-out"
    )
    p_replay.add_argument("trace", help="trace JSON lines path")
    p_replay.set_defaults(func=cmd_replay)

    p_export = sub.add_parser("export", help="render a task complex 1-skeleton")
    p_export.add_argument("task", help="task JSON path")
    p_export.add_argument("--format", choices=("dot", "json"), default="dot")
    p_export.add_argument("--which", choices=("input", "output"), default="input")
    p_export.add_argument("--out", default=None, help="output path (default stdout)")
    p_export.set_defaults(func=cmd_export)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Each command runs with the cyclic collector paused, and the caller's
    # state comes back in the ``finally``.  A collection pass walks every
    # object the command holds (the parsed task file, a subdivision, the
    # search's incidence lists) and frees nothing: no command leaves
    # cyclic garbage.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ResourceBound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    # JSONDecodeError and UnicodeDecodeError subclass ValueError, so file
    # problems must win first
    except (
        OSError, json.JSONDecodeError, UnicodeDecodeError, InvalidTask, MalformedTrace
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, CbtopoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
