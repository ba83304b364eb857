"""Integer bound parameters follow one rule at every entry point.

A depth, count or budget must be an ``int``, never a ``bool`` or a float,
of at least 0 or 1, and is refused with ``ValueError`` otherwise; the chain
count n and crash bound t are refused with ``BadResilience``.  Without the
type test 2.5 would run as 2, 1.5 would fail inside ``range`` with a bare
``TypeError``, and ``True`` would run as 1.
"""
import pytest

from cbtopo import CbtConfig
from cbtopo.errors import BadResilience
from cbtopo.forksim import (
    ExhaustiveMode,
    RandomMode,
    ScheduleAction,
    TwoPhaseCommit,
    find_violation,
    run,
)
from cbtopo.simplicial import barycentric_subdivide
from cbtopo.solvability import decide, search_carried_simplicial_map

from helpers import cx, identity_task, vtx


def _triangle():
    return cx([vtx(0, "0"), vtx(1, "0"), vtx(2, "0")])


def _violation(mode=ExhaustiveMode(depth=2), **options):
    return lambda: find_violation(2, 1, TwoPhaseCommit(), mode, **options)


def _map_search(depth=0, **options):
    return lambda: search_carried_simplicial_map(identity_task(_triangle()), 1, depth, **options)


CASES = {
    "exhaustive depth 2.5": (_violation(ExhaustiveMode(2.5)), ValueError, "exploration depth"),
    "exhaustive depth True": (_violation(ExhaustiveMode(True)), ValueError, "exploration depth"),
    "random trials 1.5": (_violation(RandomMode(seed=0, trials=1.5)), ValueError, "trial count"),
    "state budget 2.5": (_violation(state_budget=2.5), ValueError, "state budget"),
    "state budget True": (_violation(state_budget=True), ValueError, "state budget"),
    "suspensions 1.5": (
        _violation(suspensions=1.5), ValueError, "suspensions must be a non-negative int"
    ),
    "search depth 1.5": (_map_search(1.5), ValueError, "subdivision depth"),
    "node budget True": (_map_search(node_budget=True), ValueError, "node budget"),
    "node budget 2.5": (_map_search(node_budget=2.5), ValueError, "node budget"),
    "decide max depth 1.5": (
        lambda: decide(identity_task(_triangle()), 1, max_depth=1.5), ValueError, "maximum depth"
    ),
    "subdivision depth 1.5": (
        lambda: barycentric_subdivide(_triangle(), 1.5), ValueError, "subdivision depth"
    ),
    "subdivision depth True": (
        lambda: barycentric_subdivide(_triangle(), True), ValueError, "subdivision depth"
    ),
    "config n 2.0": (lambda: CbtConfig(n=2.0), ValueError, "at least two chains"),
    "config n True": (lambda: CbtConfig(n=True), ValueError, "at least two chains"),
    "config block 1.5": (lambda: CbtConfig(n=2, block_index=1.5), ValueError, "block index"),
    "run t 1.5": (
        lambda: run(3, 1.5, TwoPhaseCommit(), [ScheduleAction("crash", c) for c in (1, 2)]),
        BadResilience,
        "must be ints",
    ),
    "simulate n 2.0": (
        lambda: find_violation(2.0, 1, TwoPhaseCommit(), ExhaustiveMode(depth=2)),
        BadResilience,
        "must be ints",
    ),
    "search t True": (
        lambda: search_carried_simplicial_map(identity_task(_triangle()), True, 0),
        BadResilience,
        "must be ints",
    ),
}


@pytest.mark.parametrize("call,error,match", CASES.values(), ids=CASES.keys())
def test_non_int_bounds_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()
