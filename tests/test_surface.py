"""The public surface of pdp is used by pdp itself.

Every function and class that a pdp module lists in __all__, or that
pdp/__init__ re-exports, must be referenced somewhere in src/pdp besides
its own definition, and so must every public method and property of
those classes, and every field of those that are dataclasses.  A name
that only the tests use belongs in the tests.
References are found in the syntax trees, not by text search: a name
counts where it is loaded under the binding that one of its module's
imports (or its own module) gives it, or as an attribute of its module.
A method, property or field counts wherever an attribute of its name is
read, because the syntax does not tell the type of the object read from.

Every pdp name that the benchmark in perfbench/ reads must exist, and
every call that it makes of a pdp callable must bind to the callable's
signature: its workloads import pdp inside their methods, so a name that
pdp drops, or a changed signature that the benchmark calls positionally,
would otherwise fail only when the benchmark runs.

Every private function, class and module-level constant of a pdp module
must be referenced by name somewhere in src/pdp or tests/ besides its own
definition, and every parameter of a function or lambda in src/pdp must be
read in its body, so that a simplification leaves no dead code behind.
"""
import ast
import dataclasses
import importlib
import inspect
import pathlib

import pdp

SRC = pathlib.Path(pdp.__file__).parent
TESTS = pathlib.Path(__file__).parent
BENCH = TESTS.parent / "perfbench"

# public names that no pdp code calls, and why each stays
ALLOWED = {
    ("fgr", "gamma_jost_form"): "the independent Jost-form assembly of Gamma, "
    "which criterion 4 and the evaluate-batch benchmark check compare gamma with",
    ("fgr", "clear_cache"): "the benchmark workloads call it before each timed operation",
}
# public methods and properties that no pdp code reads, and why each stays
ALLOWED_MEMBERS: dict[str, str] = {}


class _References(ast.NodeVisitor):
    """The references in one pdp module, each with its enclosing definitions.

    names holds ((module, name), enclosing) for each load of a pdp name;
    attrs holds (attribute, enclosing) for each attribute read.  enclosing
    is the tuple of names of the defs and classes around the reference,
    outermost first.
    """

    def __init__(self, module: str, tree: ast.Module):
        self.bound = {}  # local name -> (module, name)
        self.modules = {}  # local name -> pdp module
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        self.modules[local] = alias.name
                    else:
                        self.bound[local] = (node.module, alias.name)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.bound[node.name] = (module, node.name)
        self.names: list = []
        self.attrs: list = []
        self._stack: list[str] = []
        self.visit(tree)

    def _definition(self, node):
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    visit_FunctionDef = visit_ClassDef = _definition

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id in self.bound:
            self.names.append((self.bound[node.id], tuple(self._stack)))

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.value.id in self.modules:
            target = (self.modules[node.value.id], node.attr)
            self.names.append((target, tuple(self._stack)))
        self.attrs.append((node.attr, tuple(self._stack)))
        self.generic_visit(node)


def _parse():
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    return trees, {m: _References(m, tree) for m, tree in trees.items()}


def _surface(refs) -> set[tuple[str, str]]:
    """(module, name) of every public function and class."""
    out = {target for target in refs["__init__"].bound.values() if target[1] != "__version__"}
    for module in refs:
        if module == "__init__":
            continue
        mod = importlib.import_module(f"pdp.{module}")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                out.add((module, name))
    return out


def _unreferenced_names(refs) -> set[tuple[str, str]]:
    used = set()
    for module, r in refs.items():
        for target, enclosing in r.names:
            if not (target[0] == module and enclosing[:1] == (target[1],)):
                used.add(target)
    return _surface(refs) - used


def test_every_public_function_and_class_is_used_in_the_package():
    unused = _unreferenced_names(_parse()[1]) - set(ALLOWED)
    assert sorted(unused) == []


def test_every_public_method_and_property_is_used_in_the_package():
    trees, refs = _parse()
    unused = []
    for module, name in sorted(_surface(refs)):
        cls = next(
            (n for n in trees[module].body if isinstance(n, ast.ClassDef) and n.name == name),
            None,
        )
        if cls is None:
            continue
        for member in cls.body:
            if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                continue
            own = (name, member.name)
            if not any(
                attr == member.name and not (m == module and enclosing[:2] == own)
                for m, r in refs.items()
                for attr, enclosing in r.attrs
            ):
                unused.append(f"{module}.{name}.{member.name}")
    assert sorted(unused) == sorted(ALLOWED_MEMBERS)


def test_every_public_dataclass_field_is_read_in_the_package():
    # a field that pdp only writes is a value that nothing reads back
    _, refs = _parse()
    read = {attr for r in refs.values() for attr, _ in r.attrs}
    unused = []
    for module, name in sorted(_surface(refs)):
        obj = getattr(importlib.import_module(f"pdp.{module}"), name)
        if dataclasses.is_dataclass(obj):
            unused += [
                f"{module}.{name}.{f.name}" for f in dataclasses.fields(obj) if f.name not in read
            ]
    assert unused == []


def test_allowed_exceptions_are_public_and_unused():
    # an exception that pdp starts to use, or that leaves the surface,
    # comes off the list
    assert set(ALLOWED) <= _unreferenced_names(_parse()[1])


def _private_definitions(tree: ast.Module):
    """(name, statement) of each private function, class and module-level
    name (one leading underscore) defined at the top level of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [getattr(target, "id", "") for target in node.targets]
        elif isinstance(node, ast.AnnAssign):
            names = [getattr(node.target, "id", "")]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _names_read(node) -> set[str]:
    """Names loaded, attributes read and names imported anywhere in node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def test_every_private_name_is_referenced():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    trees = {p: ast.parse(p.read_text(), str(p)) for p in paths}
    # the names each top-level statement reads, its own definition aside
    reads = [(stmt, _names_read(stmt)) for tree in trees.values() for stmt in tree.body]
    unused = [
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name, node in _private_definitions(trees[path])
        if not any(name in names for stmt, names in reads if stmt is not node)
    ]
    assert unused == []


def _unread_parameters(tree: ast.Module, module: str) -> list[str]:
    """module:line name.parameter of each parameter that its function's body never loads."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            sub.id
            for stmt in body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        out += [f"{module}:{node.lineno} {name}.{p.arg}" for p in params if p.arg not in read]
    return out


def test_every_parameter_is_read():
    # a parameter that its body never reads is an argument every caller
    # passes for nothing
    unread = []
    for path in sorted(SRC.glob("*.py")):
        unread += _unread_parameters(ast.parse(path.read_text(), str(path)), path.stem)
    assert unread == []


def test_unread_parameter_rule_sees_functions_and_lambdas():
    tree = ast.parse(
        "def f(V, bs):\n    return bs.psi\n"
        "def g(x, *args, y, **kw):\n    return lambda z: x + y + len(args) + len(kw)\n"
        "def h(grid):\n    def inner():\n        return grid\n    return inner\n"
    )
    assert _unread_parameters(tree, "m") == ["m:1 f.V", "m:4 <lambda>.z"]


# what only pdp.kernels may name: scipy.linalg, its fetch functions, the
# compiled modules that kernels loads and the loader it uses
_LINALG_NAMES = (
    "get_blas_funcs", "get_lapack_funcs", "_flapack", "_fblas",
    "_linalg_extension", "FileFinder", "ExtensionFileLoader",
)


def _linalg_references(tree: ast.Module, module: str) -> list[str]:
    """module:line name of each import or name in tree that reaches BLAS or LAPACK."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [ast.unparse(node)]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        found += [
            f"{module}:{node.lineno} {name}"
            for name in names
            if name.startswith("scipy.linalg") or name.split(".")[-1] in _LINALG_NAMES
        ]
    return found


def test_blas_and_lapack_are_reached_only_through_kernels():
    # pdp.kernels fetches every BLAS and LAPACK routine that pdp calls, so
    # that a second copy of a routine, or a backend change, has one place
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "kernels":
            found += _linalg_references(ast.parse(path.read_text(), str(path)), path.stem)
    assert found == []


def test_linalg_rule_sees_fetches_extension_modules_and_the_loader():
    tree = ast.parse(
        "from scipy.linalg import lapack\n"
        "f = get_lapack_funcs(('gtsv',))\n"
        "g = kernels._flapack.dgtsv\n"
        "h = importlib.machinery.FileFinder(d)\n"
        "from importlib.machinery import ExtensionFileLoader\n"
        "m = kernels._linalg_extension('_fblas')\n"
        "n = np.linalg.norm(x)\n"
    )
    assert sorted(_linalg_references(tree, "m")) == [
        "m:1 scipy.linalg.lapack",
        "m:2 get_lapack_funcs",
        "m:3 kernels._flapack",
        "m:4 importlib.machinery.FileFinder",
        "m:5 importlib.machinery.ExtensionFileLoader",
        "m:6 kernels._linalg_extension",
    ]


def _fetched_routines(tree: ast.Module) -> list[str]:
    """Names that an assignment in tree binds from a BLAS or LAPACK routine.

    Each target name of an assignment whose value calls get_blas_funcs or
    get_lapack_funcs, or reads an attribute of the compiled module _flapack
    or _fblas, counts, tuple unpackings included.
    """
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(sub, ast.Call)
            and getattr(sub.func, "id", getattr(sub.func, "attr", None))
            in ("get_blas_funcs", "get_lapack_funcs")
            or isinstance(sub, ast.Attribute)
            and getattr(sub.value, "id", getattr(sub.value, "attr", None)) in ("_flapack", "_fblas")
            for sub in ast.walk(node.value)
        ):
            out += [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return out


def test_fetched_routine_rule_sees_unpackings_and_subscripts():
    tree = ast.parse(
        "a, b = get_lapack_funcs(('x', 'y'))\n"
        "c = scipy.linalg.get_blas_funcs(('z',))[0]\n"
        "d = len(e)\n"
        "f, g = _flapack.dgtsv, scipy.linalg._fblas.dtbsv\n"
        "h = _fblas\n"
        "_flapack = _linalg_extension('_flapack')\n"
    )
    assert _fetched_routines(tree) == ["a", "b", "c", "f", "g"]


def test_every_routine_kernels_fetches_is_read():
    # a BLAS or LAPACK routine that pdp.kernels fetches but no code calls
    # is a dead fetch; the private-name rule does not see the names of a
    # tuple unpacking
    read = {
        name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        for name in (
            [node.id] if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            else [node.attr] if isinstance(node, ast.Attribute)
            else []
        )
    }
    fetched = _fetched_routines(ast.parse((SRC / "kernels.py").read_text()))
    assert fetched
    assert sorted(set(fetched) - read) == []


def _pdp_imports(body) -> dict[str, str]:
    """local name -> dotted pdp path of each `from pdp... import` in body,
    nested definitions aside."""
    out = {}
    todo = list(body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pdp":
            out.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
        todo.extend(ast.iter_child_nodes(node))
    return out


def _pdp_path(node, bound: dict[str, str]) -> str | None:
    """The dotted pdp path of an imported name, or of an attribute read off one."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in bound):
        return f"{bound[node.value.id]}.{node.attr}"
    return None


def _pdp_reads(scope, bound: dict[str, str], found: set[str], calls: list) -> None:
    """Add to found the dotted path of each pdp name that scope imports, and
    of each attribute it reads off one, under the imports of its enclosing
    scopes and its own; add to calls (path, call) for each call of one."""
    bound = {**bound, **_pdp_imports(scope.body)}
    found.update(bound.values())
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _pdp_reads(node, bound, found, calls)
            continue
        if isinstance(node, ast.Attribute) and (path := _pdp_path(node, bound)):
            found.add(path)
        if isinstance(node, ast.Call) and (path := _pdp_path(node.func, bound)):
            calls.append((path, node))
        todo.extend(ast.iter_child_nodes(node))


_MISSING = object()


def _lookup(path: str):
    """The object that the dotted path names, a module or an attribute chain
    off one, or _MISSING."""
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr, _MISSING)
            if obj is _MISSING:
                break
        return obj
    return _MISSING


def _benchmark_reads() -> tuple[set[str], list]:
    found: set[str] = set()
    calls: list = []
    for path in sorted(BENCH.glob("*.py")):
        _pdp_reads(ast.parse(path.read_text(), path.name), {}, found, calls)
    return found, calls


def test_every_pdp_name_the_benchmark_reads_exists():
    found, _ = _benchmark_reads()
    # the scan sees names imported in methods and read off builders
    assert {"pdp.fgr.clear_cache", "pdp.config.builders.grid"} <= found
    assert sorted(p for p in found if _lookup(p) is _MISSING) == []


def _unbound_calls(calls) -> list[str]:
    """line path: error of each call whose arguments its pdp callable's
    signature does not bind, each argument a placeholder.  A call that
    passes *args or **kwargs is skipped, as is a path that names nothing
    (the name rule reports it)."""
    out = []
    for path, call in calls:
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords
        ):
            continue
        obj = _lookup(path)
        if not callable(obj):
            continue
        try:
            inspect.signature(obj).bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            out.append(f"{call.lineno} {path}: {exc}")
    return out


def test_every_pdp_call_of_the_benchmark_binds():
    _, calls = _benchmark_reads()
    # the scan sees calls of imported names and of attributes off modules
    called = {path for path, _ in calls}
    assert {"pdp.timedomain.propagate", "pdp.spectral.wronskian_at_zero",
            "pdp.grid.DesignParams", "pdp.config.builders.design"} <= called
    assert _unbound_calls(calls) == []


def test_call_rule_reports_a_call_that_does_not_bind():
    tree = ast.parse(
        "from pdp import spectral\n"
        "def f(V, args, kw):\n"
        "    from pdp.grid import make_grid\n"
        "    spectral.wronskian_at_zero(V, 1e-8, 3)\n"
        "    make_grid(-1.0, 1.0)\n"
        "    make_grid(-1.0, 1.0, 5, m=2)\n"
        "    make_grid(*args)\n"
        "    make_grid(-1.0, 1.0, **kw)\n"
        "    spectral.wronskian_at_zero(V, tol=1e-8)\n"
        "    spectral.no_such_function(V)\n"
    )
    calls: list = []
    _pdp_reads(tree, {}, set(), calls)
    assert len(calls) == 7
    assert sorted(line.split(":")[0] for line in _unbound_calls(calls)) == [
        "4 pdp.spectral.wronskian_at_zero", "5 pdp.grid.make_grid", "6 pdp.grid.make_grid",
    ]
