"""pyproject.toml and the package docstring declare only what ships, the
benchmark's layer tracing finds every name it wraps, no check in the
package is an assert statement, no deadline parameter defaults to None,
every function of the package is used and every instance attribute read,
no module imports another module's private names, and one module owns
each of a lattice's stored form and f/code's presentation."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import frlimits
from frlimits.intlin import Lattice

from code_lines import code_lines

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
META = tomllib.loads((ROOT / "pyproject.toml").read_text())
SETUPTOOLS = META["tool"]["setuptools"]


def test_script_targets_import():
    for name, target in META["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_package_data_globs_match_files():
    src = ROOT / SETUPTOOLS["packages"]["find"]["where"][0]
    for package, patterns in SETUPTOOLS.get("package-data", {}).items():
        for pattern in patterns:
            assert list((src / package.replace(".", "/")).glob(pattern)), pattern


def test_docstring_lists_the_submodules():
    _, _, listing = frlimits.__doc__.partition("Submodules:")
    listed = [line.split("--")[0].strip() for line in listing.strip().splitlines()]
    shipped = [m.name for m in pkgutil.iter_modules(frlimits.__path__)]
    assert sorted(listed) == sorted(shipped)


def test_trace_targets_resolve():
    # bench/layertrace.py wraps these names from outside the package; a
    # renamed one would only fail a traced benchmark run
    spec = importlib.util.spec_from_file_location("layertrace", ROOT / "bench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    for _, module, attr in layertrace.SPANS:
        target = importlib.import_module(module)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (module, attr)
    # its counters read these with getattr defaults, so a rename would
    # make them silently wrong
    lat = Lattice(2)
    assert lat._canonical is True and lat.big is False


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a check written as one
    # vanishes; the package raises explicitly instead
    hits = []
    for path in sorted((ROOT / "src" / "frlimits").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        hits += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not hits, hits


def test_no_deadline_defaults_to_none():
    # Deadline() is the budget that never expires, so no check site needs
    # a branch for a missing one; a None default would bring that back
    hits = []
    for path in sorted((ROOT / "src" / "frlimits").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                pairs = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
                         *zip(args.kwonlyargs, args.kw_defaults)]
                hits += [
                    f"{path.name}:{node.lineno} {node.name}" for arg, default in pairs
                    if arg.arg == "deadline" and isinstance(default, ast.Constant)
                    and default.value is None
                ]
    assert not hits, hits


# public API that only the tests reach today (equals_as_map: the pairwise
# cosimplicial oracle in tests/oracles.py; compose and identity of AbMap:
# the same oracle; compose and identity of FreeHom: the tests of the
# simplicial identities); with the dunder methods, which Python calls
# itself, these are the only functions of the package that src/ and
# bench/ may leave unnamed
UNREFERENCED_OK = {
    "direct_sum", "is_well_defined", "to_json_dict", "free", "cyclic",
    "equals_as_map", "compose", "identity",
}

# the instance attributes that only the tests read (FrCodeError.offset:
# the parse tests; GroupData.inverse: the oracles' group arithmetic), the
# only ones that src/ and bench/ may set and never read
UNREAD_ATTRIBUTES_OK = {"offset", "inverse"}


def _names(tree):
    """(names, attributes): every name a module refers to, and every
    attribute it reads, by a dot or by getattr, with each part of a string
    that is a dotted name (the benchmark's tracer names its targets as
    strings such as "TruncatedRing.eval_monomial").  An attribute that is
    only assigned is not read."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            if not isinstance(node.ctx, ast.Store):
                attrs.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr", "setattr") and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            attrs.add(node.args[1].value)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                (attrs if len(parts) > 1 else names).update(parts)
    return names, attrs


def test_every_function_is_used_by_the_package_or_the_benchmark():
    # a method counts as used only through an attribute or a dotted
    # string: a local variable of the same name does not call it; an
    # instance attribute, set as self.<name> in a class, counts as used
    # only where it is read
    names, attrs, defined = set(), set(), []
    for top in ("src", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            found = _names(tree)
            names |= found[0]
            attrs |= found[1]
            if top == "src":
                classes = [cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)]
                methods = {node for cls in classes for node in cls.body}
                defined += [
                    (f"{path.name}:{node.lineno}", node.name,
                     "method" if node in methods else "function")
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
                defined += [
                    (f"{path.name}:{node.lineno}", node.attr, "attribute")
                    for cls in classes for node in ast.walk(cls)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"
                ]

    def used(name, kind):
        return name in attrs or (kind == "function" and name in names)

    # (name, whether it is an attribute) -> where it is defined unused
    unused = {}
    for where, name, kind in defined:
        if not used(name, kind) and not (name.startswith("__") and name.endswith("__")):
            unused.setdefault((name, kind == "attribute"), []).append(where + " " + name)
    allowed = {(n, False) for n in UNREFERENCED_OK} | {(n, True) for n in UNREAD_ATTRIBUTES_OK}
    assert not unused.keys() - allowed, sorted(unused[key] for key in unused.keys() - allowed)
    # the allowlists are exact: an entry the package no longer defines, or
    # one that src/ or bench/ now use, would hide the next unused name
    assert not allowed - unused.keys(), sorted(allowed - unused.keys())


# the private names one package module still takes from another: none
PRIVATE_IMPORTS_OK = set()


def test_no_module_imports_a_private_name_of_another():
    # one module owns each decision; a private name imported elsewhere
    # makes a second owner
    hits = set()
    for path in sorted((ROOT / "src" / "frlimits").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "frlimits"
            ):
                hits |= {(path.name, a.name) for a in node.names if a.name.startswith("_")}
    # exact, so an entry no module needs any more fails too
    assert hits == PRIVATE_IMPORTS_OK, (sorted(hits - PRIVATE_IMPORTS_OK),
                                        sorted(PRIVATE_IMPORTS_OK - hits))


def _name_of(node):
    """The name an AST node refers to: an attribute it reads or writes, a
    name or an imported alias, or None for any other node."""
    return (node.attr if isinstance(node, ast.Attribute) else
            node.id if isinstance(node, ast.Name) else
            node.name if isinstance(node, ast.alias) else None)


# the names through which a lattice's stored form (pivots, columns and
# block) is read or written
STORED_FORM = {"_hnf", "stored_form", "canonical", "_of", "_Hermite"}


def test_only_intlin_touches_a_lattices_stored_form():
    # intlin owns the stored form; every other module goes through its
    # quotient routine, its seed constructors and the pivot array, so a
    # change of the form is a change to intlin alone
    hits = []
    for path in sorted((ROOT / "src" / "frlimits").rglob("*.py")):
        if path.name == "intlin.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            name = _name_of(node)
            if name in STORED_FORM:
                hits.append(f"{path.name}:{node.lineno} {name}")
    assert not hits, hits


# the names through which f/code's presentation is read, with the modules
# that may name them: each value's generators among the basis words (read
# as an attribute, ``.gens``), the word maps of the relabelling structure
# maps and the all-copies words the Moore levels are cut to, and the
# quotient routine that cuts a lattice to columns
PRESENTATION_OWNERS = {
    ".gens": {"truncring.py"},
    "relabelling": {"truncring.py"},
    "all_copies_words": {"truncring.py"},
    "quotient": {"intlin.py", "truncring.py"},
}


def test_only_truncring_builds_the_presentation_of_f_mod_code():
    # truncring builds f/code's levels, maps and Moore levels, and limits
    # sees only presented groups and maps, so a change of how they are
    # built is a change to truncring alone
    hits = []
    for path in sorted((ROOT / "src" / "frlimits").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            name = _name_of(node)
            if name == "gens" and isinstance(node, ast.Attribute):
                name = ".gens"
            if name in PRESENTATION_OWNERS and path.name not in PRESENTATION_OWNERS[name]:
                hits.append(f"{path.name}:{node.lineno} {name}")
    assert not hits, hits


def test_code_lines_skip_comments_blank_lines_and_docstrings():
    # the rule the change log counts code lines by: a line holding a token
    # other than a comment, a newline or indentation, outside docstrings
    source = (
        '"""A module\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "x = 1  # and a trailing one\n"
        "\n"
        "def f():\n"
        '    """A function\n    docstring."""\n'
        '    s = """a string\n    of two lines"""\n'
        "    return s\n"
        "\n"
        "class C:\n"
        '    "a class docstring"\n'
        "    y = (1,\n"
        "         2)\n"
    )
    assert code_lines(source) == 8
    assert code_lines("") == 0
