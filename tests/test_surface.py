"""The package keeps no public name that nothing reads.

Walks the modules of src/fpplab with ast and collects each public
top-level function and class and each public method. Each must be read
by the code of src/fpplab (its modules, not __init__.py: a re-export is
not a use), of bench/*.py or of tests/test_acceptance.py. Reads are
found in the syntax tree, not in the text, so that prose or a local
variable of the same name does not count: a method is read as an
attribute (obj.name), a top-level name also as a bare name, and either
as a string that is exactly the name, which is how getattr looks one up.
A name read only by its own unit tests fails, unless KEEP gives the
reason to keep it.

Likewise each parameter with a default must be set by some call: a knob
that nothing sets is a constant.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "fpplab").glob("*.py")
                 if p.name != "__init__.py")
READERS = MODULES + sorted((ROOT / "bench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"]

KEEP = {
    "EdgeField.edge_weight": "the one-edge weight the solver oracles use",
    "InfectionGraph.vertex_count": "the tree tests count the graph's sites",
    "eps_density": "the abstract's claim: the extreme points are dense",
}


def public_names():
    """(qualified name, bare name) of every public definition."""
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield "%s.%s" % (node.name, item.name), item.name


def references(paths):
    """(attributes, names): the attribute names and string constants
    read in these files, and the bare names they load."""
    attributes, names = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                attributes.add(node.value)
            elif isinstance(node, ast.Name):
                names.add(node.id)
    return attributes, names


def unread(readers):
    attributes, names = references(readers)
    return [q for q, name in public_names()
            if q not in KEEP and name not in attributes
            and ("." in q or name not in names)]


def test_every_public_name_is_read():
    assert unread(READERS) == []


def test_prose_and_local_names_are_no_reads(tmp_path):
    def unread_by(text):
        path = tmp_path / "reader.py"
        path.write_text(text)
        return set(unread([path]))

    # named in a docstring, or a variable of the method's name
    prose = unread_by('"""Take the hull and test what it contains."""\n'
                      "contains = 1\n")
    assert {"ConvexShape.contains", "hull"} <= prose
    # a bare name reads a function but not a method
    assert "hull" not in unread_by("contains(hull(points), p)\n")
    assert "ConvexShape.contains" in unread_by("contains(p)\n")
    assert "ConvexShape.contains" not in unread_by("shape.contains(p)\n")
    # getattr's string
    assert "hull" not in unread_by('getattr(convex, "hull")\n')


def test_keep_names_exist():
    assert set(KEEP) <= {q for q, _ in public_names()}


def optional_parameters():
    """(label, names it is called by, parameter, position) of every
    parameter with a default of every function and method of
    src/fpplab. An explicit __init__ is called by its class name too.
    The position is the one a call passes the parameter at, after self
    or cls; a keyword-only parameter has none."""
    for path in MODULES:
        tree = ast.parse(path.read_text())
        owner = {id(item): node.name for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            label, names = node.name, {node.name}
            a = node.args
            positional = a.posonlyargs + a.args
            if id(node) in owner:
                label = "%s.%s" % (owner[id(node)], node.name)
                if node.name == "__init__":
                    names.add(owner[id(node)])
                if not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                           for d in node.decorator_list):
                    positional = positional[1:]
            first = len(positional) - len(a.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield label, names, arg.arg, i
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield label, names, arg.arg, None


def calls(paths):
    """name -> [(positional count, keyword names)] of every call, by the
    called name (f(...) or obj.f(...)). A call with *args or **kwargs
    passes everything: (inf, None)."""
    found = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = (f.id if isinstance(f, ast.Name) else
                    f.attr if isinstance(f, ast.Attribute) else None)
            if any(isinstance(x, ast.Starred) for x in node.args) or any(
                    k.arg is None for k in node.keywords):
                passed = (float("inf"), None)
            else:
                passed = (len(node.args), {k.arg for k in node.keywords})
            found.setdefault(name, []).append(passed)
    return found


def unset(readers):
    found = calls(readers)
    return ["%s(%s)" % (label, param)
            for label, names, param, position in optional_parameters()
            if not any(keywords is None or param in keywords
                       or (position is not None and n > position)
                       for name in names
                       for n, keywords in found.get(name, ()))]


def test_every_optional_parameter_is_set():
    readers = (MODULES + sorted((ROOT / "bench").glob("*.py"))
               + sorted((ROOT / "tests").glob("*.py")))
    assert unset(readers) == []


def test_a_parameter_is_set_by_position_keyword_or_star(tmp_path):
    def unset_by(text):
        path = tmp_path / "caller.py"
        path.write_text(text)
        return set(unset([path]))

    nothing = unset_by("")
    assert {"hull(theta_tol)", "main(argv)"} <= nothing
    assert "hull(theta_tol)" not in unset_by("hull(points, 1e-6)\n")
    assert "hull(theta_tol)" not in unset_by("convex.hull(p, theta_tol=0)\n")
    assert "hull(theta_tol)" in unset_by("hull(points)\n")
    assert "main(argv)" not in unset_by("main(*args)\n")
    assert "main(argv)" not in unset_by("main(**kwargs)\n")
    # a method's positions start after self
    assert "SvgCanvas.circle(r)" not in unset_by("canvas.circle(p, 2.0)\n")
    assert "SvgCanvas.circle(r)" in unset_by("canvas.circle(p)\n")
