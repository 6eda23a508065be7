"""Every name a module imports is used in that module, and every public
name of the package, public methods of public classes included, is reached
from the package, the demos or the benchmark, or is listed below with the
reason it stays."""

import ast
import importlib
import inspect
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diffwedge"
MODULES = sorted(PACKAGE.glob("*.py"))
LINTED = ([(p, p.name) for p in MODULES]
          + [(p, f"{p.parent.name}/{p.name}")
             for d in ("tests", "demos") for p in sorted((ROOT / d).glob("*.py"))])


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_sees_an_unused_import():
    src = "from fractions import Fraction\nimport math\nx = math.pi\n"
    assert unused_imports(src) == [(1, "Fraction")]


@pytest.mark.parametrize("path", [p for p, _ in LINTED],
                         ids=[i for _, i in LINTED])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# Public names and methods with no caller yet, each with the reason it
# stays: a ROADMAP item that will call it, a test that uses it as an oracle,
# or the benchmark's tracer test, which asserts that `forms` binds
# `simplify` (`differential` is that module's only call of it).
UNREACHED = {
    "bundle.glue_sections": "item 9",
    "bundle.split_section": "item 9",
    "bundle.phi_sum": "item 9",
    "bundle.phi_dual": "item 9",
    "connection.sum_connection": "item 9",
    "connection.tensor_connection": "item 9",
    "dvspace.check_dual_compatibility": "item 9",
    "clifford.exterior_algebra": "item 8",
    "clifford.vector_mv": "item 8",
    "clifford.quantize": "item 8",
    "clifford.symbol": "item 8",
    "clifford.parity": "item 8",
    "clifford.filtration_degree": "item 8",
    "dvspace.characteristic_subspace": "oracle",
    "forms.differential": "perfbench binding",
    "bundle.PseudoBundle.metric_at": "item 9",
    "bundle.Section.value_at": "item 9",
}


def public_definitions(tree):
    """(name, node) for each public top-level def, class or assignment,
    and for each public method of a public class, named ``Class.method``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in targets if not name.startswith("_"))
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from ((f"{node.name}.{f.name}", f) for f in node.body
                        if isinstance(f, ast.FunctionDef)
                        and not f.name.startswith("_"))


def unreached_names():
    """Public names of the package that no Name or Attribute node in the
    package, the demos or the benchmark refers to, outside the name's own
    definition.  A method counts as reached by an Attribute node of its
    name on any object, since the scan does not know types."""
    trees = {p: ast.parse(p.read_text()) for d in (PACKAGE, ROOT / "demos",
                                                   ROOT / "perfbench")
             for p in sorted(d.glob("*.py"))}
    refs, attrs = {}, {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                refs.setdefault(n.id, []).append(n)
            elif isinstance(n, ast.Attribute):
                refs.setdefault(n.attr, []).append(n)
                attrs.setdefault(n.attr, []).append(n)
    out = set()
    for path in MODULES:
        for name, node in public_definitions(trees[path]):
            own = {id(n) for n in ast.walk(node)}
            cls, _, attr = name.rpartition(".")
            found = attrs.get(attr, []) if cls else refs.get(name, [])
            if all(id(n) in own for n in found):
                out.add(f"{path.stem}.{name}")
    return out


def test_every_public_name_is_reached_or_listed():
    assert unreached_names() == set(UNREACHED)


def test_traced_functions_are_plain_module_functions():
    """Each ``module.function`` the benchmark's per-layer metrics name is a
    plain function defined in that module, which is what the tracer wraps:
    a rename or a caching decorator would leave the metric without a value.
    """
    bench = json.loads((PACKAGE.parent.parent / "BENCHMARK.json").read_text())
    modules = {p.stem for p in MODULES}
    named = {tuple(m["name"].split(".")[:2]) for m in bench["per_layer"]}
    named = sorted((mod, fn) for mod, fn in named
                   if mod in modules and fn != "self_ms")
    assert named
    for mod, fn in named:
        module = importlib.import_module(f"diffwedge.{mod}")
        obj = getattr(module, fn, None)
        assert inspect.isfunction(obj) and obj.__module__ == module.__name__, \
            f"{mod}.{fn} is not a plain function of diffwedge.{mod}"


def _names_called(code):
    """Global and attribute names a code object and its nested ones use."""
    names = set(code.co_names)
    for c in code.co_consts:
        if inspect.iscode(c):
            names |= _names_called(c)
    return names


def test_evaluation_helpers_never_call_the_public_evaluate(monkeypatch):
    """The tracer counts ``symexpr.evaluate`` by wrapping the module
    attribute, so its count is of callers' calls only while no private
    helper of symexpr calls it back."""
    from fractions import Fraction
    from diffwedge import symexpr
    helpers = [f for name, f in vars(symexpr).items() if name.startswith("_")
               and inspect.isfunction(f) and f.__module__ == symexpr.__name__]
    assert {"_walk", "_compile", "_run", "_add", "_div"} <= {f.__name__ for f in helpers}
    for f in helpers:
        assert "evaluate" not in _names_called(f.__code__), f.__name__
    calls = []
    evaluate = symexpr.evaluate
    monkeypatch.setattr(symexpr, "evaluate",
                        lambda e, x: calls.append(x) or evaluate(e, x))
    e = symexpr.parse_expr("(x+1)*(x-2)/(x^2+3) - exp(x)^-2")
    for x in (Fraction(1, 2), 3, 0.25):      # the walk, then the tape
        symexpr.evaluate(e, x)
    assert calls == [Fraction(1, 2), 3, 0.25]
