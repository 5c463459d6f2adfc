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
