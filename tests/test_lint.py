"""Source rules that a reader of one module cannot see at a glance, the
names the benchmark's tracer reaches into, and a reader for every
top-level name and every record field of the package."""

import ast
import importlib.util
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rotaperm"
PERFBENCH = SRC.parent.parent / "perfbench"


def test_no_bare_assert_in_the_package():
    """Invariants raise typed errors (rotaperm.errors): `python -O` strips
    an assert statement, and the check with it."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert list(SRC.rglob("*.py"))
    assert found == []


def test_only_field_reads_the_product_table():
    """Every array product goes through FieldCtx.vmul, so the layout of the
    q x q product table is known to field.py alone."""
    found = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
             if path.name != "field.py" and "mul_table" in path.read_text()]
    assert (SRC / "field.py").is_file()
    assert found == []


def test_only_images_evaluates_a_monomial():
    """Every image of F goes through permcheck._images, the one caller of
    _monomial, so a second array evaluator of F cannot come back beside
    it unseen."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        callers = {id(node): f.name for f in ast.walk(tree)
                   if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "_monomial" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.append(f"{path.relative_to(SRC)}:{callers.get(id(node))}")
    assert found == ["permcheck.py:_images"]


def test_package_images_only_slab_prefixes():
    """Every call of family_images in the package passes its slabs
    argument, so the image of the whole q^3 cube (512 MB at m=9, and a
    1 GB scan of it) is built only by the tests and the benchmark, and
    cannot come back into a verb unseen."""
    found, calls = [], 0
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and "family_images" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                calls += 1
                if len(node.args) < 3 and "slabs" not in {k.arg for k in node.keywords}:
                    found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert calls
    assert found == []


def test_only_invert_evaluates_all_four_resolvent_blocks():
    """resolvent_coeffs evaluates A, B, C and D in 48 products; the T1
    inverter reads all four, and the A-zero certificate reads A alone
    through resolvent_A in 20, so it cannot go back to evaluating B, C
    and D unseen."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and "resolvent_coeffs" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.append(str(path.relative_to(SRC)))
    assert found == ["invert.py"]


_ORBIT_NAMES = {"group_tables", "GroupTables", "canon"}


def _identifiers(tree):
    """Every name a module binds, reads or imports, and every attribute it reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from filter(None, (*node.name.split("."), node.asname))
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name


def test_only_permcheck_knows_the_orbit_format():
    """The orbits of the projective representatives under the rotation
    (the canon classes) and under <sigma, phi> (group_tables and its
    GroupTables) are used by permcheck.py alone, so a change of orbit
    group changes one module.  Identifiers are matched, not substrings: a
    docstring may say "canonical"."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        names = set(_identifiers(ast.parse(path.read_text(), filename=str(path))))
        if path.name != "permcheck.py" and names & _ORBIT_NAMES:
            found.append(f"{path.relative_to(SRC)}: {sorted(names & _ORBIT_NAMES)}")
    assert _ORBIT_NAMES <= set(_identifiers(ast.parse((SRC / "permcheck.py").read_text())))
    assert found == []


def test_package_reads_no_environment():
    """No module of the package reads os.environ or os.getenv, so a run is
    decided by its arguments alone.  Identifiers are matched, as above."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        read = set(_identifiers(ast.parse(path.read_text(), filename=str(path))))
        read &= {"environ", "getenv"}
        if read:
            found.append(f"{path.relative_to(SRC)}: {sorted(read)}")
    assert found == []


def _load_tracing():
    """perfbench/tracing.py as a module of its own, loaded by path."""
    path = SRC.parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    """Every name the benchmark's tracer patches or reads is still in the
    package, so a removal cannot silently break a traced run."""
    tracing = _load_tracing()
    missing = []
    for _, module, attr in tracing.FUNCTIONS:
        if not callable(getattr(import_module(module), attr, None)):
            missing.append(f"{module}.{attr}")
    for _, module, cls_name, attr in (*tracing.METHODS, *tracing.COUNTED):
        cls = getattr(import_module(module), cls_name, None)
        if cls is None or attr not in vars(cls):
            missing.append(f"{module}.{cls_name}.{attr}")
    read_directly = (("rotaperm._kernels", "BACKEND"), ("rotaperm.search", "worker_count"),
                     ("rotaperm.invert", "_inverse_table"))
    for module, attr in read_directly:
        if not hasattr(import_module(module), attr):
            missing.append(f"{module}.{attr}")
    assert tracing.FUNCTIONS and tracing.METHODS and tracing.COUNTED
    assert missing == []


def _defined_names(body):
    """Names a module or class body binds: defs, classes, assignments, imports."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield from (alias.asname or alias.name for alias in stmt.names)


def test_traced_names_are_defined_in_the_source():
    """The same tables read as source text, not imported: each (module,
    attribute) of FUNCTIONS, and each (module, class, attribute) of
    METHODS and COUNTED, is bound in that module's file under src/rotaperm
    (the attribute in the class body), and the package the tests import
    is that tree."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    tables = {target.id: ast.literal_eval(stmt.value) for stmt in tree.body
              if isinstance(stmt, ast.Assign) for target in stmt.targets
              if isinstance(target, ast.Name) and target.id in ("FUNCTIONS", "METHODS", "COUNTED")}
    assert set(tables) == {"FUNCTIONS", "METHODS", "COUNTED"} and all(tables.values())
    modules = {}

    def body_of(module):
        if module not in modules:
            path = SRC / (module.removeprefix("rotaperm.") + ".py")
            modules[module] = ast.parse(path.read_text()).body if path.is_file() else []
        return modules[module]

    missing = [f"{module}.{attr}" for _, module, attr in tables["FUNCTIONS"]
               if attr not in set(_defined_names(body_of(module)))]
    for _, module, cls_name, attr in (*tables["METHODS"], *tables["COUNTED"]):
        classes = [s for s in body_of(module) if isinstance(s, ast.ClassDef) and s.name == cls_name]
        if not classes or attr not in set(_defined_names(classes[0].body)):
            missing.append(f"{module}.{cls_name}.{attr}")
    assert missing == []
    assert Path(import_module("rotaperm").__file__).resolve().parent == SRC


def _bindings(tree):
    """(name, statement) for every function, class and constant a module
    binds at its top level, dunders aside."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, stmt) for name in names if not name.startswith("__"))


def _reads(node):
    """Every identifier read under node: loaded names and attributes."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n.attr


def _unread_names(src, perfbench, exported):
    """Top-level names of the modules under src that nothing reads: not an
    identifier in src outside the statement that binds it, not an
    identifier or a string in perfbench, and not in exported."""
    statements = [(path, stmt) for path in sorted(src.rglob("*.py"))
                  for stmt in ast.parse(path.read_text(), filename=str(path)).body]
    read_by = {}
    for path, stmt in statements:
        for name in _reads(stmt):
            read_by.setdefault(name, set()).add((path, id(stmt)))
    bench = set(exported)
    for path in sorted(perfbench.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bench.update(_reads(tree))
        bench.update(n.value for n in ast.walk(tree)
                     if isinstance(n, ast.Constant) and isinstance(n.value, str))
    unread = []
    for path in sorted(src.rglob("*.py")):
        for name, stmt in _bindings(ast.parse(path.read_text(), filename=str(path))):
            readers = read_by.get(name, set()) - {(path, id(stmt))}
            if not readers and name not in bench:
                unread.append(f"{path.relative_to(src)}: {name}")
    return unread


def test_every_top_level_name_has_a_reader():
    """A function, class or constant of the package is read somewhere in
    the package, read by the benchmark, or exported in rotaperm.__all__.
    Code that only tests read belongs in tests/oracles.py."""
    exported = import_module("rotaperm").__all__
    assert list(_bindings(ast.parse((SRC / "field.py").read_text())))
    assert _unread_names(SRC, PERFBENCH, exported) == []


def _record_fields(tree):
    """(class, field) for every annotated field of a dataclass or NamedTuple."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(n, ast.Name) and n.id in {"dataclass", "NamedTuple"}
               for n in (*decorators, *node.bases)):
            yield from ((node.name, stmt.target.id) for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name))


def _unread_fields(src, perfbench):
    """Record fields of the modules under src that no module under src or
    perfbench reads as an attribute."""
    read, fields = set(), []
    for path in (*sorted(src.rglob("*.py")), *sorted(perfbench.rglob("*.py"))):
        tree = ast.parse(path.read_text(), filename=str(path))
        read.update(n.attr for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
        if path.is_relative_to(src):
            fields.extend(_record_fields(tree))
    assert fields
    return [f"{cls}.{name}" for cls, name in fields if name not in read]


def test_every_record_field_has_a_reader():
    """Every field of a dataclass or NamedTuple in the package is read as
    an attribute in the package or the benchmark: a field that only tests
    read is built on every call for nothing."""
    assert _unread_fields(SRC, PERFBENCH) == []


def test_only_field_builds_a_field():
    """Every context of the package comes from field.shared_field, one per
    degree per process: a module that calls FieldCtx(...) itself would
    rebuild every table on each call, and no result would show it."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "field.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and "FieldCtx" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert "FieldCtx(" in (SRC / "field.py").read_text()
    assert found == []


def _options(tree):
    """(callee, parameter, position) for every defaulted or keyword-only
    parameter of a function or method in tree.  position is the index a
    call passes the parameter at, after self for a method, and None for a
    keyword-only one; a class's __init__ is called by the class name."""
    def visit(body, cls):
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                yield from visit(stmt.body, stmt.name)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = stmt.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                shift = 1 if cls and not any(getattr(d, "id", None) == "staticmethod"
                                             for d in stmt.decorator_list) else 0
                name = cls if stmt.name == "__init__" else stmt.name
                for i, arg in enumerate(positional[first:], first):
                    yield name, arg.arg, i - shift
                yield from ((name, arg.arg, None) for arg in args.kwonlyargs)
                yield from visit(stmt.body, None)

    yield from visit(tree.body, None)


def _uncalled_options(src, perfbench):
    """Defaulted or keyword-only parameters under src that no call under src
    or perfbench passes, by keyword or by position; calls are matched by
    callee name."""
    passed = {}
    for path in (*sorted(src.rglob("*.py")), *sorted(perfbench.rglob("*.py"))):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                seen = passed.setdefault(callee, set())
                seen.update(k.arg for k in node.keywords)
                seen.update(range(len(node.args)))
    unused = []
    for path in sorted(src.rglob("*.py")):
        for name, param, pos in _options(ast.parse(path.read_text(), filename=str(path))):
            if not passed.get(name, set()) & {param, pos}:
                unused.append(f"{path.relative_to(src)}: {name}({param})")
    return unused


def test_every_option_has_a_caller():
    """Every defaulted or keyword-only parameter of the package is passed by
    some call in the package or the benchmark: an option that only tests
    set is a code path no verb takes."""
    lift = set(_options(ast.parse((SRC / "lift.py").read_text())))
    assert ("ExtCtx", "cubic", 1) in lift and ("ExtCtx", "base", 0) not in lift
    assert ("is_permutation", "witness", None) in set(
        _options(ast.parse((SRC / "permcheck.py").read_text())))
    assert _uncalled_options(SRC, PERFBENCH) == []


SYMBOLIC_MODULES = ("rotaperm.mpoly", "rotaperm.resolvent", "rotaperm.certify")


def test_numeric_modules_load_no_symbolic_module():
    """A fresh interpreter that imports search and lift, the numeric verbs'
    modules, has loaded no polynomial arithmetic.  rotaperm.invert is left
    out: it reads resolvent_coeffs from rotaperm.resolvent."""
    code = ("import sys, rotaperm.search, rotaperm.lift; "
            f"print(sorted(set({SYMBOLIC_MODULES!r}) & set(sys.modules)))")
    path = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    assert run.stdout.strip() == "[]"
