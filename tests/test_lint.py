"""Source rules that a reader of one module cannot see at a glance, and the
names the benchmark's tracer reaches into."""

import ast
import importlib.util
from importlib import import_module
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rotaperm"


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


_ORBIT_NAMES = {"orbit_tables", "canon", "frobenius_tables", "FrobeniusTables", "group_move"}


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
    (orbit_tables and the canon classes) and under <sigma, phi>
    (frobenius_tables, its FrobeniusTables and the group_move search) are
    used by permcheck.py alone, so a change of orbit group changes one
    module.  Identifiers are matched, not substrings: a docstring may say
    "canonical"."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        names = set(_identifiers(ast.parse(path.read_text(), filename=str(path))))
        if path.name != "permcheck.py" and names & _ORBIT_NAMES:
            found.append(f"{path.relative_to(SRC)}: {sorted(names & _ORBIT_NAMES)}")
    assert _ORBIT_NAMES <= set(_identifiers(ast.parse((SRC / "permcheck.py").read_text())))
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
