"""The number of settable values in ``src/mcdyn`` may not grow unnoticed.

A settable value is a function parameter with a default or a dataclass
field with a default, counted over the package's source with ``ast``.
Each is an option a caller can set and every later change must keep
working, so a change that adds one raises ``LIMIT`` here and says why.
"""

import ast
from pathlib import Path

import mcdyn

LIMIT = 23


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def settable_values(root: Path) -> list:
    """The "file:line name" of every defaulted parameter and defaulted dataclass field under ``root``."""
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults) :]
                named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                for arg in named:
                    found.append(f"{path.name}:{arg.lineno} {getattr(node, 'name', 'lambda')}({arg.arg}=)")
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                        found.append(f"{path.name}:{stmt.lineno} {node.name}.{stmt.target.id}")
    return found


def test_settable_values_do_not_grow():
    found = settable_values(Path(mcdyn.__file__).parent)
    assert len(found) <= LIMIT, "settable values:\n" + "\n".join(sorted(found))
