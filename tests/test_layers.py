"""The package's modules import one another in one direction only."""

import ast
import glob
import os

# Package modules from the bottom layer up.  A module may import, with a
# relative import, only modules that come before it.
LAYERS = ("errors", "complexes", "linalg", "rigidity", "shifting",
          "sparsity", "fileio", "cycles", "cli")
SRC = os.path.join(os.path.dirname(__file__), "..", "src", "volrig")


def relative_imports(path):
    """(line, package module) of each relative import in the file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        targets = ([node.module] if node.module else
                   [a.name for a in node.names])
        for t in targets:
            yield node.lineno, t.split(".")[0]


def test_package_imports_follow_the_layers():
    bad = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.splitext(os.path.basename(path))[0]
        if name == "__init__":
            continue
        assert name in LAYERS, "%s is not placed in LAYERS" % name
        bad += ["%s:%d imports %s" % (name, no, t)
                for no, t in relative_imports(path)
                if LAYERS.index(t) >= LAYERS.index(name)]
    assert bad == []


def test_cycles_imports_nothing_from_fileio():
    # verify_dataset takes fileio's SurfaceDataset but names it only in
    # an annotation, so cycles needs nothing from the layer below it.
    assert [no for no, t in relative_imports(os.path.join(SRC, "cycles.py"))
            if t == "fileio"] == []
