"""Source hygiene of the `utk` package and its tests."""

import ast
import dataclasses
from collections import defaultdict
from pathlib import Path

import utk
from utk import syntax as S

PACKAGE = Path(utk.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_imported_name_is_used():
    unused = {}
    for root, paths in ((PACKAGE, PACKAGE.rglob("*.py")), (TESTS, TESTS.glob("*.py"))):
        for path in sorted(paths):
            names = _unused_imports(ast.parse(path.read_text(), str(path)))
            if names:
                unused[f"{root.name}/{path.relative_to(root)}"] = names
    assert unused == {}


def _uses(tree: ast.Module):
    """(name, line) of every name read, attribute taken, or identifier-like
    string constant (hooks name their targets by string)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def _definitions_without_a_use(definitions) -> list:
    """The `path:line name` of each definition that `definitions(tree)`
    picks from a module of `utk` and that nothing outside its own body
    names, in the package, its tests or the benchmark."""
    paths = [*PACKAGE.rglob("*.py"), *TESTS.glob("*.py"),
             *(TESTS.parent / "perfbench").rglob("*.py")]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    uses = defaultdict(list)
    for path, tree in trees.items():
        for name, line in _uses(tree):
            uses[name].append((path, line))
    return [f"{path.relative_to(PACKAGE)}:{node.lineno} {node.name}"
            for path in sorted(PACKAGE.rglob("*.py"))
            for node in definitions(trees[path])
            if all(where == path and node.lineno <= line <= node.end_lineno
                   for where, line in uses[node.name])]


def test_every_module_level_definition_has_a_use():
    """A function or class of `utk` that nothing outside its own definition
    names is dead code."""
    assert _definitions_without_a_use(lambda tree: [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))]) == []


def test_every_method_has_a_use():
    """A method of a `utk` class, dunders aside, that nothing outside its
    own body names is dead code, such as a copy left behind when its
    callers moved to a shared function."""
    assert _definitions_without_a_use(lambda tree: [
        item for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
        and not (item.name.startswith("__") and item.name.endswith("__"))]) == []


def test_one_thread_and_one_recursion_limit():
    """Subcommands and tests run on the calling thread: nothing imports
    `threading`, and the recursion limit is set once, when `utk` is imported
    (a call in a subprocess script counts too)."""
    threads, limits, call = [], [], "setrecursionlimit"
    for root, paths in ((PACKAGE, PACKAGE.rglob("*.py")), (TESTS, TESTS.glob("*.py"))):
        for path in sorted(paths):
            where = f"{root.name}/{path.relative_to(root)}"
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    modules = []
                if any(name.split(".")[0] == "threading" for name in modules):
                    threads.append(where)
                if (isinstance(node, ast.Attribute) and node.attr == call
                        or isinstance(node, ast.Constant) and isinstance(node.value, str)
                        and call + "(" in node.value):
                    limits.append(where)
    assert threads == []
    assert limits == ["utk/__init__.py"]


def _unread_locals(tree: ast.Module) -> list:
    """(line, name) of each name a function assigns, or declares `nonlocal`,
    and never reads; `_` is exempt.  A read anywhere in the outermost
    function around the assignment counts, in a nested function too."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    outermost, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, functions):
            outermost.append(node)
        else:
            stack.extend(ast.iter_child_nodes(node))
    unread = set()
    for top in outermost:
        reads = {node.id for node in ast.walk(top)
                 if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = [node.id]
            elif isinstance(node, ast.Nonlocal):
                names = node.names
            else:
                continue
            unread.update((node.lineno, name) for name in names
                          if name != "_" and name not in reads)
    return sorted(unread)


def test_every_local_is_read():
    """A local a function assigns and never reads is dead code, or a value
    computed for nothing; bind a deliberately unused value to `_`."""
    unread = [f"{root.name}/{path.relative_to(root)}:{line} {name}"
              for root, paths in ((PACKAGE, PACKAGE.rglob("*.py")), (TESTS, TESTS.glob("*.py")))
              for path in sorted(paths)
              for line, name in _unread_locals(ast.parse(path.read_text(), str(path)))]
    assert unread == []


def _defaults(tree: ast.Module):
    """(callee name, position, parameter, line) of each defaulted parameter
    of a module-level function or method, and each plain-default field of a
    dataclass; position is None for a keyword-only parameter.  A method's
    position skips `self`/`cls`, and `__init__` and the fields are called by
    the class name.  Nested functions and `field(...)` slots are skipped."""
    def params(fn, callee, skip):
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for k, arg in enumerate(positional[first:], first):
            yield callee, k - skip, arg.arg, arg.lineno
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield callee, None, arg.arg, arg.lineno

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            yield from params(node, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                for k, item in enumerate(fields):
                    value = item.value
                    if value is not None and not (
                            isinstance(value, ast.Call) and ast.unparse(value.func) == "field"):
                        yield node.name, k, item.target.id, item.lineno
            for item in node.body:
                if isinstance(item, functions):
                    static = any(ast.unparse(d) == "staticmethod" for d in item.decorator_list)
                    callee = node.name if item.name == "__init__" else item.name
                    yield from params(item, callee, 0 if static else 1)


def test_every_default_is_overridden_somewhere():
    """A default that no call in the package, its tests or the benchmark
    overrides is a knob nobody sets: use the value.  A call is matched by
    the callee's name; one with `*args` or `**kwargs` passes everything."""
    paths = [*PACKAGE.rglob("*.py"), *TESTS.glob("*.py"),
             *(TESTS.parent / "perfbench").rglob("*.py")]
    calls = defaultdict(list)  # callee name -> (positional count, keywords)
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    kw.arg is None for kw in node.keywords):
                calls[name].append((float("inf"), set()))
            else:
                calls[name].append((len(node.args), {kw.arg for kw in node.keywords}))
    unset = [f"{path.relative_to(PACKAGE)}:{line} {callee}({param})"
             for path in sorted(PACKAGE.rglob("*.py"))
             for callee, k, param, line in _defaults(ast.parse(path.read_text(), str(path)))
             if not any(k is not None and count > k or param in keywords
                        for count, keywords in calls[callee])]
    assert unset == []


def test_no_code_assigns_a_field_of_a_core_term():
    """Core terms are not frozen, and one `Var` or `Universe` is shared by
    every term that holds it: no code of `utk` assigns or deletes a field of
    a core term (`self` aside, and term classes have no methods), or calls
    `setattr` or `__setattr__`.  Checking's `Hole.solution` is the one field
    written after construction."""
    formers = (*S.SUBTERMS, *S.LEAVES)
    fields = {f.name for cls in formers for f in dataclasses.fields(cls)}
    writes = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in {c.__name__ for c in formers}:
                if any(isinstance(item, ast.FunctionDef) for item in node.body):
                    writes.append(f"{path.name}:{node.lineno} methods of {node.name}")
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del))
                  and node.attr in fields
                  and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
                writes.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == "setattr"
                    or isinstance(node.func, ast.Attribute) and node.func.attr == "__setattr__"):
                writes.append(f"{path.name}:{node.lineno} {ast.unparse(node.func)}")
    assert "solution" not in fields
    assert writes == []
