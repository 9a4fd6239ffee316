"""The installed ``qbuffer`` command runs the function that
``python -m qbuffer.cli`` runs (stdlib only; the package is not imported)."""

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main_block_call(tree):
    """The name of the function the ``if __name__ == "__main__":`` block
    calls."""
    for node in tree.body:
        if (isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"):
            (stmt,) = node.body
            call = getattr(stmt, "value", None)
            assert isinstance(call, ast.Call) \
                and isinstance(call.func, ast.Name), ast.unparse(stmt)
            return call.func.id
    raise AssertionError("cli.py has no __main__ block")


def test_script_names_the_main_block_function():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["qbuffer"]
    tree = ast.parse((ROOT / "src" / "qbuffer" / "cli.py").read_text())
    name = main_block_call(tree)
    assert target == f"qbuffer.cli:{name}"
    assert any(isinstance(node, ast.FunctionDef) and node.name == name
               for node in tree.body)
