"""The benchmark still runs against the library.

``perfbench/spans.py`` wraps the functions and methods named in its
``SPANS`` and ``COUNTED`` tables, and a traced run stops when one is
missing.  Installing and restoring its recorder here makes a refactor that
moves or renames one of them fail the test suite instead.  The benchmark's
own unit tests run here too, since they call the library through its CLI
and re-check the verdicts it prints.
"""
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS_PY = ROOT / "perfbench" / "spans.py"


def _load_spans() -> types.ModuleType:
    """``perfbench/spans.py`` as a module, read from source: no bytecode is
    written beside it and ``sys.modules`` is left alone."""
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS_PY)
    exec(compile(SPANS_PY.read_text(encoding="utf-8"), str(SPANS_PY), "exec"), vars(module))
    return module


def _target(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    owner_name, _, attr_name = attr.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name)
    return vars(owner)[attr_name]


def test_every_span_and_counted_target_is_found():
    spans = _load_spans()
    targets = spans.SPANS + spans.COUNTED
    for _, module_name, _ in targets:
        importlib.import_module(module_name)
    before = [_target(module_name, attr) for _, module_name, attr in targets]
    recorder = spans.Recorder()
    try:
        recorder.install()
        assert all(
            _target(module_name, attr) is not original
            for (_, module_name, attr), original in zip(targets, before)
        )
    finally:
        recorder.restore()
    assert [_target(module_name, attr) for _, module_name, attr in targets] == before


# Run in a fresh interpreter with ``perfbench`` on the path: import the
# package as a traced run does, through ``run.import_cbtopo`` alone, then
# install the recorder (``MissingTarget`` names any layer those imports do
# not load) and restore it.
_TRACED_RUN_IMPORTS = """
import functools, sys
sys.path.insert(0, sys.argv[1])
import run, spans
run.import_cbtopo()
targets = spans.SPANS + spans.COUNTED
def target(module_name, attr):
    return functools.reduce(getattr, attr.split("."), sys.modules[module_name])
recorder = spans.Recorder()
recorder.install()
wrapped = [target(module_name, attr) for _, module_name, attr in targets]
recorder.restore()
restored = [target(module_name, attr) for _, module_name, attr in targets]
assert all(hasattr(fn, "__wrapped__") for fn in wrapped), "a target was not wrapped"
assert not any(hasattr(fn, "__wrapped__") for fn in restored), "a target was not restored"
"""


def test_recorder_installs_on_what_a_traced_run_imports():
    """``test_every_span_and_counted_target_is_found`` imports every target
    module first; a traced run imports only ``cbtopo`` and ``cbtopo.cli``,
    so a module they stop importing fails here, not in the traced run."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN_IMPORTS, str(ROOT / "perfbench")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-4000:]


def test_perfbench_unit_tests_pass():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-4000:]
