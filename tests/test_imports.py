"""A lint of the package's modules: every import is used, no lint warning
is silenced, and JSON text has one writer, ``serialize.dumps``, whose
encoder is the package's only ``json.JSONEncoder`` and does not indent."""
import ast
import io
import tokenize
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).parent.parent / "src" / "cbtopo").glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]


def _imported(tree):
    """The name each import binds, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_lint_warning_is_silenced(path):
    with path.open("rb") as handle:
        silenced = [
            f"line {token.start[0]}: {token.string}"
            for token in tokenize.tokenize(handle.readline)
            if token.type == tokenize.COMMENT and "noqa" in token.string.lower()
        ]
    assert not silenced, f"{path.name} silences a lint warning: {'; '.join(silenced)}"


def _json_calls(path, names):
    """Each call in ``path`` of ``json.<name>`` for a name in ``names``, or of
    such a name imported from ``json``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "json"
        for alias in node.names
        if alias.name in names
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "json"
            and func.attr in names
        ) or (isinstance(func, ast.Name) and func.id in imported):
            yield node


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_no_json_dump_call(path):
    """JSON text has one writer, ``serialize.dumps``: no module calls
    ``json.dump`` or ``json.dumps``."""
    calls = [f"line {node.lineno}" for node in _json_calls(path, ("dump", "dumps"))]
    assert not calls, f"{path.name} writes JSON past serialize.dumps: {'; '.join(calls)}"


def test_one_json_encoder_and_it_does_not_indent():
    """``serialize.dumps``'s encoder is the package's one ``json.JSONEncoder``,
    and it writes compact text."""
    encoders = [
        (path.name, node) for path in PACKAGE for node in _json_calls(path, ("JSONEncoder",))
    ]
    assert [name for name, _ in encoders] == ["serialize.py"], encoders
    (_, encoder), = encoders
    assert not any(keyword.arg in ("indent", None) for keyword in encoder.keywords)
