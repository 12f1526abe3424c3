"""The package's modules import one another in one direction only."""

import ast
import glob
import os

import volrig.cycles
import volrig.fileio

# Package modules from the bottom layer up.  A module may import, with a
# relative import, only modules that come before it.
LAYERS = ("errors", "complexes", "linalg", "rigidity", "shifting",
          "sparsity", "fileio", "cycles", "cli")
SRC = os.path.join(os.path.dirname(__file__), "..", "src", "volrig")


def test_package_imports_follow_the_layers():
    bad = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.splitext(os.path.basename(path))[0]
        if name == "__init__":
            continue
        assert name in LAYERS, "%s is not placed in LAYERS" % name
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            targets = ([node.module] if node.module else
                       [a.name for a in node.names])
            bad += ["%s:%d imports %s" % (name, node.lineno, t)
                    for t in targets
                    if LAYERS.index(t.split(".")[0]) >= LAYERS.index(name)]
    assert bad == []


def test_surface_dataset_has_one_owner():
    # fileio builds the record; cycles re-exports it for verify_dataset.
    assert volrig.cycles.SurfaceDataset is volrig.fileio.SurfaceDataset
