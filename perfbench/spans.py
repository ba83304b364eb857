"""Span recorder for the traced run.

The recorder wraps the public functions of each cbtopo layer from outside,
in every module namespace that binds them, and methods on their class.  Each
call records a span: name, start, end, parent span and job id.  Spans stay in
memory until the run ends.  Counters are taken at the same boundaries.
``restore`` puts every wrapped attribute back.  Inside ``paused()`` the
wrappers call straight through, so the benchmark's own verdict checks add
neither spans nor counts: their time stays in the job's own self time.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter

# (span name, module, attribute); a dotted attribute is a method on a class.
SPANS = (
    ("cli", "cbtopo.cli", "main"),
    ("cbt.build_input_complex", "cbtopo.cbt", "build_input_complex"),
    ("cbt.build_carrier_map", "cbtopo.cbt", "build_carrier_map"),
    ("simplicial.induced_subcomplex", "cbtopo.simplicial", "Complex.induced_subcomplex"),
    ("simplicial.skeleton", "cbtopo.simplicial", "Complex.skeleton"),
    ("simplicial.barycentric_subdivide", "cbtopo.simplicial", "barycentric_subdivide"),
    ("tasks.validate_for", "cbtopo.tasks", "CarrierMap.validate_for"),
    ("tasks.verify_monotonic", "cbtopo.tasks", "verify_monotonic"),
    ("tasks.verify_rigid", "cbtopo.tasks", "verify_rigid"),
    ("tasks.verify_name_preserving", "cbtopo.tasks", "verify_name_preserving"),
    ("tasks.colorless_projection", "cbtopo.tasks", "colorless_projection"),
    ("tasks.restrict_to_skeleton", "cbtopo.tasks", "restrict_to_skeleton"),
    ("serialize.task_to_obj", "cbtopo.serialize", "task_to_obj"),
    ("serialize.dumps", "cbtopo.serialize", "dumps"),
    ("serialize.task_from_obj", "cbtopo.serialize", "task_from_obj"),
    ("connectivity.connected_components", "cbtopo.connectivity", "connected_components"),
    ("connectivity.reduced_betti", "cbtopo.connectivity", "reduced_betti"),
    ("solvability.connectivity_obstruction", "cbtopo.solvability", "connectivity_obstruction"),
    ("solvability.search", "cbtopo.solvability", "search_carried_simplicial_map"),
    ("forksim.find_violation", "cbtopo.forksim", "find_violation"),
    ("forksim.clone", "cbtopo.forksim", "Simulation.clone"),
    ("forksim.fingerprint", "cbtopo.forksim", "Simulation.fingerprint"),
    ("forksim.apply", "cbtopo.forksim", "Simulation.apply"),
    ("forksim.check_trace", "cbtopo.forksim", "check_trace"),
)
# Wrapped for counting only, without a span.
COUNTED = (
    ("simplicial.simplex_new", "cbtopo.simplicial", "Simplex.__init__"),
    ("solvability.decide", "cbtopo.solvability", "decide"),
)
JOB = "job"
_installed = None  # the Recorder whose wrappers are in place, if any

# Every per-layer metric a traced run prints, with its unit.
PER_LAYER = (
    *((f"{name}.self_s", "s") for name, _, _ in SPANS),
    (f"{JOB}.self_s", "s"),
    ("simplicial.simplex_new", "count"),
    ("simplicial.induced_subcomplex.calls", "count"),
    ("simplicial.subdivided_facets", "count"),
    ("serialize.task_bytes", "bytes"),
    ("solvability.search.nodes", "count"),
    ("solvability.search.nodes_per_s", "1/s"),
    ("solvability.search.budget_outs", "count"),
    ("solvability.decide.searches", "count"),
    ("forksim.states", "count"),
    ("forksim.transitions", "count"),
    ("forksim.dedup_hit_ratio", "ratio"),
    ("forksim.states_per_s", "1/s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class MissingTarget(LookupError):
    """A layer the recorder should wrap is not where ``SPANS`` or ``COUNTED``
    says.  Its metrics would read as zero, so the traced run stops instead."""


@contextlib.contextmanager
def paused():
    """Run library code without recording it; a no-op when nothing is installed."""
    recorder = _installed
    if recorder is None:
        yield
        return
    recorder.paused += 1
    try:
        yield
    finally:
        recorder.paused -= 1


class Recorder:
    """In-memory spans plus counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job = None
        self.paused = 0
        self._restore: list[tuple[object, str, object]] = []
        self._in_decide = 0
        self._seen = None  # fingerprints of the running find_violation call

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self.stack.pop()

    def run_job(self, job_id, fn):
        """Run one job under a root span named ``job``."""
        self.job = job_id
        record = self._open(JOB)
        try:
            return fn()
        finally:
            self._close(record)
            self.job = None

    def _spanned(self, name: str, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        failed = _FAILED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if before is not None:
                before(self, args)
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(record)
                if failed is not None:
                    failed(self, exc)
                raise
            self._close(record)
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        if name == "solvability.decide":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.paused:
                    return fn(*args, **kwargs)
                self._in_decide += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._in_decide -= 1
        else:
            counts = self.counts

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.paused:
                    counts[name] += 1
                return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every target, or raise ``MissingTarget`` naming those the
        program no longer has, before wrapping any."""
        global _installed
        modules = [m for key, m in list(sys.modules.items())
                   if (key == "cbtopo" or key.startswith("cbtopo.")) and m is not None]
        found, missing = [], []
        for targets, make in ((SPANS, self._spanned), (COUNTED, self._counted)):
            for name, module_name, attr in targets:
                owner_name, _, attr_name = attr.rpartition(".")
                owner = sys.modules.get(module_name)
                if owner is not None and owner_name:
                    owner = getattr(owner, owner_name, None)
                original = vars(owner).get(attr_name) if owner is not None else None
                if original is None:
                    missing.append(f"{name} ({module_name}.{attr})")
                else:
                    holders = [owner] if owner_name else modules
                    found.append((make(name, original), original, holders))
        if missing:
            raise MissingTarget(", ".join(missing))
        for wrapper, original, holders in found:
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapper)
        _installed = self

    def restore(self) -> None:
        global _installed
        while self._restore:
            holder, key, original = self._restore.pop()
            setattr(holder, key, original)
        _installed = None

    # -- results -------------------------------------------------------
    def self_times(self) -> Counter:
        return self_times(self.spans)

    def metrics(self, untraced_pass_s: float) -> dict:
        """Every PER_LAYER metric from the recorded spans and counters;
        ``untraced_pass_s`` is the median untraced pass."""
        own = self.self_times()
        counts = self.counts

        def total(span_name):
            return sum(end - start for name, start, end, _, _ in self.spans if name == span_name)

        values = {f"{name}.self_s": float(own[name]) for name, _, _ in SPANS}
        values[f"{JOB}.self_s"] = float(own[JOB])
        values.update({key: counts[key] for key, unit in PER_LAYER if unit in ("count", "bytes")})
        values["solvability.search.nodes_per_s"] = _rate(
            counts["solvability.search.nodes"], own["solvability.search"])
        values["forksim.dedup_hit_ratio"] = _rate(
            counts["forksim.dedup_hits"], counts["forksim.children"])
        values["forksim.states_per_s"] = _rate(
            counts["forksim.states"], total("forksim.find_violation"))
        values["trace.wall_s"] = total(JOB)
        values["trace.overhead_ratio"] = values["trace.wall_s"] / untraced_pass_s - 1.0
        return {key: {"value": values[key], "unit": unit} for key, unit in PER_LAYER}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def self_times(spans) -> Counter:
    """Per-name sum of span duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Counter = Counter()
    for index, (name, start, end, _, _) in enumerate(spans):
        totals[name] += (end - start) - covered[index]
    return totals


def _rate(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- counters taken at span boundaries ----------------------------------
def _count_induced(rec, args):
    rec.counts["simplicial.induced_subcomplex.calls"] += 1


def _count_decide_search(rec, args):
    if rec._in_decide:
        rec.counts["solvability.decide.searches"] += 1


def _enter_find_violation(rec, args):
    rec._seen = set()


def _count_state(rec, args):
    if rec._seen is not None:
        rec.counts["forksim.states"] += 1


def _count_transition(rec, args):
    rec.counts["forksim.transitions"] += 1


def _subdivided(rec, result):
    rec.counts["simplicial.subdivided_facets"] += len(result.complex.facets)


def _searched(rec, report):
    rec.counts["solvability.search.nodes"] += report.nodes_explored


def _leave_find_violation(rec, result):
    rec._seen = None


def _fingerprinted(rec, key):
    # find_violation seeds its seen-set with the root's fingerprint and
    # prunes every child whose fingerprint it has already computed.
    seen = rec._seen
    if seen is None:
        return
    if seen:
        rec.counts["forksim.children"] += 1
        if key in seen:
            rec.counts["forksim.dedup_hits"] += 1
    seen.add(key)


def _search_failed(rec, exc):
    explored = getattr(exc, "explored", None)
    if explored is not None:
        rec.counts["solvability.search.nodes"] += explored
        rec.counts["solvability.search.budget_outs"] += 1


def _find_violation_failed(rec, exc):
    rec._seen = None


_BEFORE = {
    "simplicial.induced_subcomplex": _count_induced,
    "solvability.search": _count_decide_search,
    "forksim.find_violation": _enter_find_violation,
    "forksim.check_trace": _count_state,
    "forksim.apply": _count_transition,
}
_AFTER = {
    "simplicial.barycentric_subdivide": _subdivided,
    "solvability.search": _searched,
    "forksim.find_violation": _leave_find_violation,
    "forksim.fingerprint": _fingerprinted,
}
_FAILED = {
    "solvability.search": _search_failed,
    "forksim.find_violation": _find_violation_failed,
}
