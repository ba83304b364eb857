"""A lint of the package's modules: every import is used, no lint warning
is silenced, and no JSON call indents its text past ``serialize.dumps``."""
import ast
import io
import tokenize
from pathlib import Path

import pytest

MODULES = sorted(
    path for path in (Path(__file__).parent.parent / "src" / "cbtopo").glob("*.py")
    if path.name != "__init__.py"
)


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


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_json_call_indents(path):
    """Pretty text has one encoder, ``serialize.dumps``: no ``json.dump`` or
    ``json.dumps`` call passes ``indent``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    indented = [
        f"line {node.lineno}: json.{node.func.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json"
        and node.func.attr in ("dump", "dumps")
        and any(keyword.arg == "indent" for keyword in node.keywords)
    ]
    assert not indented, f"{path.name} indents JSON past serialize.dumps: {'; '.join(indented)}"
