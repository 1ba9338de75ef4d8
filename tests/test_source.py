"""The package source itself: no module-level private name is left over."""

import ast
import pathlib
import re

import botsift

SOURCES = sorted(pathlib.Path(botsift.__file__).parent.glob("*.py"))


def private_definitions(tree: ast.Module):
    """(name, node) for each private name a module binds at its top level:
    a function, class or assignment target starting with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_name_is_used_outside_its_definition():
    texts = {path: path.read_text(encoding="utf-8") for path in SOURCES}
    orphans = []
    for path, text in texts.items():
        lines = text.splitlines(keepends=True)
        for name, node in private_definitions(ast.parse(text)):
            first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
            rest = "".join(lines[:first - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(rest if other == path else body)
                       for other, body in texts.items()):
                orphans.append(f"{path.name}:{node.lineno}: {name}")
    assert orphans == []
