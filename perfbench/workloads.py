"""The benchmark's workloads: seeded verdict jobs run through the calls users make.

A workload object is built during set-up from the freshly imported ``cbtopo``
package, the seed and a scratch directory.  ``jobs(index)`` returns pass
``index`` as a list of ``(job id, callable)``; each callable runs one job,
checks its verdict independently and returns the task-file bytes it wrote
and read.  The checks run under ``spans.paused()``, so a traced run books
the library code they call to the job, not to the program's layers.  Every
pass runs the same kinds of jobs; the seed draws block indices, simulator
input vectors and job order, so a pass costs the same whatever the seed.
Block indices have three digits, which keeps every task file the same size.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
from functools import partial

from spans import paused
from verdicts import (
    check_analyze,
    check_build,
    check_control_map,
    check_search,
    check_simulate_cli,
    check_simulation,
)


def run_cli(lib, argv) -> tuple[int, str]:
    """``cbtopo`` as a user runs it, in-process: exit code, then stdout
    followed by stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main([str(a) for a in argv])
    return code, out.getvalue() + err.getvalue()


def _block(rng: random.Random) -> int:
    return rng.randrange(100, 1000)


class Workload:
    name = ""

    def __init__(self, lib, seed: int, workdir: str) -> None:
        self.lib = lib
        self.seed = seed
        self.workdir = workdir

    def rng(self, index) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def jobs(self, index: int) -> list:
        jobs = self._jobs(self.rng(index))
        self.rng(("order", index)).shuffle(jobs)
        return jobs

    def _jobs(self, rng: random.Random) -> list:
        raise NotImplementedError


class Verify(Workload):
    """``build --n k --out f`` then ``analyze f --t <largest legal t>``."""

    name = "verify"
    # n=5 takes most of a pass on its own (about 8 s at the seed), which left
    # three or four samples per run and too wide a run-to-run spread.
    SIZES = (2, 3, 4)

    def _jobs(self, rng):
        return [(f"verify n={k}", partial(self._job, k, _block(rng))) for k in self.SIZES]

    def _job(self, k: int, block: int) -> int:
        path = self.path(f"verify-n{k}.json")
        build = run_cli(self.lib, ["build", "--n", k, "--block-index", block, "--out", path])
        with paused():
            check_build(*build, k)
        code, out = run_cli(self.lib, ["analyze", path, "--t", k // 2])
        with paused():
            check_analyze(code, out)
        return 2 * os.path.getsize(path)


class Search(Workload):
    """``search`` on task files written during set-up, plus one ``decide``.

    Colored jobs spend their time backtracking, colorless ones subdividing;
    the control task has a map, so ``decide`` takes its ``MAP_FOUND`` path.
    Every job is short, so a run holds many passes.  The colored jobs are
    the majority, so the median job is always one of them.
    """

    name = "search"
    # (n, colorless, t, N): eight colored n=2 files with their own block
    # indices, 7,172 nodes each; two-level subdivision at n=3; one level at n=4.
    SEARCHES = ((2, False, 1, 1),) * 8 + ((3, True, 1, 2), (4, True, 2, 1))
    CONTROL_N = 4
    CONTROL_T = 2
    CONTROL_MAX_DEPTH = 2

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        rng = self.rng("setup")
        serialize = lib.serialize
        self.files = []
        for index, (n, colorless, t, depth) in enumerate(self.SEARCHES):
            config = lib.CbtConfig(n=n, block_index=_block(rng))
            task = lib.build_colorless_task(config) if colorless else lib.build_task(config)
            path = self.path(f"search-{index}-n{n}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(serialize.dumps(serialize.task_to_obj(task)))
            self.files.append((path, t, depth))
            if colorless and n == self.CONTROL_N:
                self.control = self._control_task(task)
                self.control_facets = _skeleton_facets(
                    lib, n, config.block_index, self.CONTROL_T)

    def _control_task(self, colorless):
        """The colorless n=4 task with the output replaced by the edge
        {*=0, *=1} and every carrier image re-induced on that edge."""
        lib = self.lib
        edge = lib.make_complex([[lib.Vertex(None, lib.Value.ZERO),
                                  lib.Vertex(None, lib.Value.ONE)]])
        carrier = lib.CarrierMap({s: edge.induced_subcomplex(image.vertices)
                                  for s, image in colorless.carrier.items()})
        return lib.Task(input=colorless.input, output=edge, carrier=carrier, colored=False)

    def _jobs(self, rng):
        jobs = [(f"search {os.path.basename(path)} t={t} N={depth}",
                 partial(self._search, path, t, depth)) for path, t, depth in self.files]
        jobs.append(("decide control", self._decide))
        return jobs

    def _search(self, path: str, t: int, depth: int) -> int:
        code, out = run_cli(self.lib, ["search", path, "--t", t, "--N", depth])
        with paused():
            check_search(code, out, depth)
        return os.path.getsize(path)

    def _decide(self) -> int:
        report = self.lib.decide(self.control, self.CONTROL_T, self.CONTROL_MAX_DEPTH)
        with paused():
            check_control_map(self.lib, report, self.control, self.control_facets)
        return 0


def _skeleton_facets(lib, n: int, block: int, t: int):
    """Facets of the t-skeleton of the CBT input complex, enumerated
    directly: t+1 distinct chains, each with any of the three values."""
    return [
        [lib.Vertex(lib.BlockRef(chain, block), value) for chain, value in zip(chains, values)]
        for chains in itertools.combinations(range(n + 1), t + 1)
        for values in itertools.product(lib.Value, repeat=t + 1)
    ]


class Simulate(Workload):
    """2PC exploration at n = 4 and 5, depth 24, one fork suspension.

    Hunts stop at the first violation, clean sweeps explore every reachable
    state, and random mode runs every trial to quiescence without cloning or
    fingerprinting.
    """

    name = "simulate"
    DEPTH = 24
    CLI_HUNTS = ((5, 0), (5, 1), (5, 2))
    CRASH_HUNTS = ((4, 1), (4, 2), (5, 1), (5, 2))
    CLEAN_SWEEPS = (4, 5)
    RANDOM_N = 5
    TRIALS = 200

    def _jobs(self, rng):
        lib = self.lib
        value = lib.Value
        exhaustive = lib.ExhaustiveMode(depth=self.DEPTH)

        def legs(n, leg):
            inputs = [value.ONE] * (n + 1)
            inputs[rng.randrange(n + 1)] = leg
            return inputs

        jobs = [(f"simulate cli n={n} t={t}", partial(self._cli, n, t))
                for n, t in self.CLI_HUNTS]
        jobs += [(f"crash hunt n={n} t={t}", partial(self._find, n, t, legs(n, value.ZERO),
                                                     exhaustive))
                 for n, t in self.CRASH_HUNTS]
        jobs += [(f"clean sweep n={n} leg={leg.value}",
                  partial(self._find, n, 0, legs(n, leg), exhaustive))
                 for n in self.CLEAN_SWEEPS for leg in (value.ZERO, value.BOTTOM)]
        mode = lib.RandomMode(seed=rng.randrange(2 ** 31), trials=self.TRIALS)
        leg = rng.choice((value.ZERO, value.BOTTOM))
        jobs.append((f"random n={self.RANDOM_N} trials={self.TRIALS}",
                     partial(self._find, self.RANDOM_N, 0, legs(self.RANDOM_N, leg), mode)))
        return jobs

    def _cli(self, n: int, t: int) -> int:
        path = self.path(f"simulate-n{n}-t{t}.jsonl")
        if os.path.exists(path):
            os.remove(path)
        code, out = run_cli(self.lib, ["simulate", "--n", n, "--t", t, "--depth", self.DEPTH,
                                       "--trace-out", path])
        lines = []
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        with paused():
            check_simulate_cli(self.lib, code, out, lines, n, t)
        return 0

    def _find(self, n: int, t: int, inputs, mode) -> int:
        lib = self.lib
        trace = lib.find_violation(n, t, lib.get_protocol("2pc"), mode, inputs=inputs)
        with paused():
            check_simulation(lib, trace, n, t, inputs, suspensions=1)
        return 0


WORKLOADS = {w.name: w for w in (Verify, Search, Simulate)}
