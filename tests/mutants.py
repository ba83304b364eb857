"""Named mutants of the package, and a runner that checks each is killed.

A mutant names a file, one whole source line of it (indentation included),
the line that replaces it, and the test files expected to kill it.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones

For each mutant the runner copies the repository to a temporary directory,
applies the mutant there and runs its test files with ``pytest -x`` in a
subprocess.  A mutant is killed when a test fails (pytest exits 1); any
other exit, a clean pass included, leaves it alive, and the runner then
exits 1.  ``tests/test_mutants.py`` checks, without running any mutant,
that each listed line still occurs exactly once in its file: a change that
rewrites a listed line updates its mutant too.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    line: str
    replacement: str
    tests: Tuple[str, ...]


_SERIALIZE = "src/cbtopo/serialize.py"
_TASK_FILE_TESTS = ("tests/test_serialize.py", "tests/test_cli.py")

MUTANTS = (
    # The format-2 reader's checks.
    Mutant("entries-in-file-order", _SERIALIZE,
           "    order = sorted(image_of, key=_rank)",
           "    order = list(image_of)",
           _TASK_FILE_TESTS),
    Mutant("no-unnamed-image-check", _SERIALIZE,
           "        unnamed = set(range(len(images))).difference(image_of.values())",
           "        unnamed = set()",
           _TASK_FILE_TESTS),
    Mutant("no-duplicate-vertex-check", _SERIALIZE,
           "        if len(space.vertices) != len(vertices):",
           "        if False:",
           _TASK_FILE_TESTS),
    Mutant("bool-index-accepted", _SERIALIZE,
           "                if type(i) is not int or i not in bit_of:",
           "                if not isinstance(i, int) or i not in bit_of:",
           _TASK_FILE_TESTS),
    Mutant("no-repeat-check", _SERIALIZE,
           "            if not mask or mask.bit_count() != len(indices):",
           "            if not mask:",
           _TASK_FILE_TESTS),
    Mutant("no-empty-check", _SERIALIZE,
           "            if not mask or mask.bit_count() != len(indices):",
           "            if mask.bit_count() != len(indices):",
           _TASK_FILE_TESTS),
    Mutant("bool-image-number-accepted", _SERIALIZE,
           "            if type(k) is not int or not 0 <= k < len(images):",
           "            if not isinstance(k, int) or not 0 <= k < len(images):",
           _TASK_FILE_TESTS),
    Mutant("float-format-accepted", _SERIALIZE,
           "    if type(found) is not int or found != 2:",
           "    if found != 2:",
           _TASK_FILE_TESTS),
    # The format-2 writer.
    Mutant("writer-keeps-image-order", _SERIALIZE,
           "    ids, images, number = task.carrier._ids, task.carrier._images, {}",
           "    ids, images, number = task.carrier._ids, task.carrier._images,"
           " {k: k for k in range(len(task.carrier._images))}",
           _TASK_FILE_TESTS),
    Mutant("writer-indents", _SERIALIZE,
           '    return json.dumps(task_to_obj(task), separators=(",", ":")) + "\\n"',
           "    return dumps(task_to_obj(task))",
           _TASK_FILE_TESTS),
    # An int literal past the digit limit is a malformed file, not a usage error.
    Mutant("long-int-task-is-usage-error", "src/cbtopo/cli.py",
           "    except (ValueError, CbtopoError) as exc:  # ValueError: an int past the digit limit",
           "    except CbtopoError as exc:",
           ("tests/test_cli.py",)),
    Mutant("long-int-trace-is-usage-error", _SERIALIZE,
           '        raise MalformedTrace(f"trace line is not readable JSON: {exc}") from None',
           "        raise",
           ("tests/test_cli.py",)),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    """How many lines of the mutant's file, under ``root``, are its line."""
    return (root / mutant.path).read_text(encoding="utf-8").split("\n").count(mutant.line)


def _apply(mutant: Mutant, root: Path) -> None:
    path = root / mutant.path
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines.count(mutant.line) != 1:
        raise ValueError(f"mutant {mutant.name}: its line does not occur once in {mutant.path}")
    lines[lines.index(mutant.line)] = mutant.replacement
    path.write_text("\n".join(lines), encoding="utf-8")


def run(mutant: Mutant) -> Tuple[int, float, str]:
    """Run the mutant's tests on a mutated copy: pytest's exit code, the
    seconds the run took and the test that failed ("" if none did)."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
    with tempfile.TemporaryDirectory(prefix="cbtopo-mutant-") as scratch:
        root = Path(scratch) / "repo"
        shutil.copytree(ROOT, root, ignore=ignore)
        _apply(mutant, root)
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   *mutant.tests]
        start = time.perf_counter()
        done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    return done.returncode, seconds, failed[0] if failed else ""


def main(names: Sequence[str]) -> int:
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    alive: List[str] = []
    for mutant in [by_name[name] for name in names] or MUTANTS:
        code, seconds, failed = run(mutant)
        status = "killed" if code == 1 else f"ALIVE (pytest exit {code})"
        print(f"{mutant.name:30} {status:22} {seconds:5.1f} s  {failed}", flush=True)
        if code != 1:
            alive.append(mutant.name)
    print(f"{len(alive)} alive" if alive else "every mutant killed")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
