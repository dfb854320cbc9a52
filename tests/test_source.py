"""Rules that hold for every module of the package source."""

import ast
import pathlib

import exactmatch

PACKAGE = pathlib.Path(exactmatch.__file__).parent


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, so a check the library relies on
    # raises one of its own errors instead
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _call_graph(tree: ast.Module) -> dict[str, set[str]]:
    """Each function's called names, f(...) and self.f(...), attributed to
    the innermost enclosing function. A call that is the direct operand of
    yield makes a step for graphs._run, not a nested call, so it is left
    out (its arguments still count)."""
    graph: dict[str, set[str]] = {}

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
            graph.setdefault(owner, set())
        elif isinstance(node, ast.Call) and owner:
            func = node.func
            if isinstance(func, ast.Name):
                graph[owner].add(func.id)
            elif (isinstance(func, ast.Attribute)
                  and isinstance(func.value, ast.Name)
                  and func.value.id == "self"):
                graph[owner].add(func.attr)
        if isinstance(node, ast.Yield) and isinstance(node.value, ast.Call):
            for child in ast.iter_child_nodes(node.value):
                visit(child, owner)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "")
    return graph


def test_no_function_reaches_itself_outside_verify():
    # a nested Python call per level would bound the input depth by the
    # recursion limit; recursions run as generator steps instead.
    # verify/'s capped enumerators are oracles and stay exempt
    modules = sorted(
        path for path in PACKAGE.rglob("*.py")
        if "verify" not in path.relative_to(PACKAGE).parts
    )
    assert len(modules) >= 8
    found = []
    for path in modules:
        graph = _call_graph(ast.parse(path.read_text(), filename=str(path)))
        for start in graph:
            seen, todo = set(), list(graph[start])
            while todo:
                name = todo.pop()
                if name in seen or name not in graph:
                    continue
                seen.add(name)
                todo.extend(graph[name])
            if start in seen:
                found.append(f"{path.relative_to(PACKAGE)}:{start}")
    assert found == []


def _imported_modules(tree: ast.Module) -> set[str]:
    """Every module an import statement names, anywhere in tree, relative
    ones with their leading dots ("from . import verify" gives ".verify")."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            found.add(base)
            if not node.module:
                found.update(base + alias.name for alias in node.names)
    return found


def test_the_solve_path_imports_no_oracle():
    # oracles stay in verify/ and out of the solve path, at module level
    # and inside functions alike; cli.py and decomposition's audit may
    # import them
    found = []
    for name in ("graphs", "matching", "algebra", "solver"):
        path = PACKAGE / f"{name}.py"
        for module in _imported_modules(ast.parse(path.read_text())):
            parts = module.lstrip(".").split(".")
            if module.startswith("exactmatch.verify") or (
                module.startswith(".") and parts[0] == "verify"
            ):
                found.append(f"{name}.py: {module}")
    assert found == []
