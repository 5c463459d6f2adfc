"""The package keeps no public name that nothing reads.

Walks the modules of src/fpplab with ast and collects each public
top-level function and class and each public method. Each must appear as
a whole word, on a line other than a definition of that name, somewhere
in src/fpplab (its modules, not __init__.py: a re-export is not a use),
in bench/*.py or in tests/test_acceptance.py. A name read only by its own
unit tests fails, unless KEEP gives the reason to keep it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "fpplab").glob("*.py")
                 if p.name != "__init__.py")
READERS = MODULES + sorted((ROOT / "bench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"]

KEEP = {
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


def is_read(name, lines):
    word = re.compile(r"\b%s\b" % re.escape(name))
    own = re.compile(r"^\s*(def|class)\s+%s\b" % re.escape(name))
    return any(word.search(line) and not own.match(line) for line in lines)


def test_every_public_name_is_read():
    lines = [line for path in READERS
             for line in path.read_text().splitlines()]
    unread = [q for q, name in public_names()
              if q not in KEEP and not is_read(name, lines)]
    assert unread == []


def test_keep_names_exist():
    assert set(KEEP) <= {q for q, _ in public_names()}
