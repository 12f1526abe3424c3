"""CLI reports stay byte-identical.

Each command runs through run_command in a directory holding small
fixed inputs; the SHA-256 of its exit code and full report must match
the digest recorded in cli_golden.txt.  The digests were recorded once
and are not regenerated by the tests: a changed digest means a changed
report.  The help and usage texts are digested by their words: argparse
wraps lines and quotes choices differently from one Python release to
the next, but the words and their order are volrig's.
"""

import hashlib
import os

import pytest

from helpers import (csaszar_torus, fresh_rng, make_dataset, octahedron,
                     projective_plane_six, random_complex, single_triangle,
                     stacked_sphere, tetra)
from volrig import build_complex, cone, write_complex
from volrig.cli import run_command
from volrig.sparsity import bipartite_complete_graph

DIGESTS = os.path.join(os.path.dirname(__file__), "cli_golden.txt")

COMMANDS = [
    "rank --in tetra.txt",
    "rank --in rand.txt --json",
    "rank --in flex.txt --exact",
    "rank --in torus.txt --exact --json",
    "rigid --in octa.txt",
    "rigid --in flex.txt --json",
    "rigid --in torus.txt --prime 2 --trials 2",
    "shift --in tetra.txt",
    "shift --in octa.txt --order lex --level 2",
    "shift --in rp2.txt --json --seed 5",
    "shift --in rand.txt --level 2",
    "sigma0 --in tetra.txt",
    "sigma0 --in flex.txt --json",
    "sigma0 --in torus.txt --prime 2",
    "sigma0 --in rand.txt --seed 3",
    "psi --d 3 --n 5",
    "psi --d 4 --n 6 --json",
    "psi --d 5 --n 6",
    "sparsity --in octa.txt",
    "sparsity --in tetra.txt --json",
    "sparsity --in flex.txt --a 3 --b 3",
    "tight --in flex.txt",
    "tight --in octa.txt --json",
    "complete-basis --in flex.txt",
    "complete-basis --in flex.txt --json",
    "counterexample --d 3",
    "counterexample --d 4 --json",
    "contract --in octa.txt",
    "contract --in octa.txt --edge 1,2 --json",
    "contract --in torus.txt",
    "contract --in rand.txt --json",
    "homology --in tetra.txt",
    "homology --in rp2.txt --json",
    "homology --in rp2.txt --mod2",
    "homology --in rand.txt",
    "homology --in tail.txt --json",
    "boundary-id --samples 5",
    "boundary-id --samples 4 --json --prime 2",
    "verify-dataset --dir spheres",
    "verify-dataset --dir spheres --expect 3 --json",
    "rank --in absent.txt",
    "rank --in bad.txt",
    "psi --d 3 --n 5 --prime 9",
    "sparsity --in tetra.txt --a 2",
    "contract --in octa.txt --edge 1,6",
    "shift --in tetra.txt --level 5",
    "sigma0 --in tri.txt",
    "psi --d 3 --n 100000",
    "shift --in stacked.txt",
    "shift --in stacked.txt --order lex --level 2 --json",
    "verify-dataset --dir repeats --trials 2 --seed 7",
    "sparsity --in stacked.txt",
    "tight --in stacked1.txt",
    "complete-basis --in stacked2.txt",
    "sparsity --in octa.txt --a 1 --b 3",
    "sparsity --in octa.txt --a 1 --b 5 --json",
    "tight --in flex.txt --a 1 --b 4",
    "complete-basis --in octa.txt --a 1 --b 3",
    "verify-dataset --dir mixed",
    "verify-dataset --dir mixed --trials 5 --seed 3 --prime 2 --json",
]

SUBCOMMANDS = ("rank", "rigid", "shift", "sigma0", "psi", "sparsity",
               "tight", "complete-basis", "counterexample", "contract",
               "homology", "boundary-id", "verify-dataset")
# Top-level help, each subcommand's help, and an unknown subcommand,
# whose usage error lists every subcommand.
HELP = (["--help"] + ["%s --help" % name for name in SUBCOMMANDS]
        + ["bogus"])


def write_inputs(root):
    stacked = stacked_sphere(fresh_rng(3), 3, 9)
    for name, K in (("tetra", tetra()), ("octa", octahedron()),
                    ("torus", csaszar_torus()),
                    ("rp2", projective_plane_six()),
                    ("flex", cone(bipartite_complete_graph())),
                    ("rand", random_complex(fresh_rng(5), 7, 3, 14)),
                    ("tri", single_triangle()),
                    ("tail", build_complex(5, tetra().facets + ((1, 2, 5),))),
                    ("stacked", stacked),
                    ("stacked1", build_complex(9, stacked.facets[1:])),
                    ("stacked2", build_complex(9, stacked.facets[2:]))):
        write_complex(K, os.path.join(root, name + ".txt"))
    with open(os.path.join(root, "bad.txt"), "w", encoding="ascii") as fh:
        fh.write("4 3\n1 2\n")
    make_dataset(os.path.join(root, "spheres"), [tetra(), octahedron()])
    make_dataset(os.path.join(root, "repeats"),
                 [octahedron(), tetra(), projective_plane_six(),
                  stacked_sphere(fresh_rng(4), 3, 6), csaszar_torus()])
    # Flexible and random entries run every trial: neither certifies.
    make_dataset(os.path.join(root, "mixed"),
                 [cone(bipartite_complete_graph()),
                  random_complex(fresh_rng(5), 7, 3, 14), tetra(),
                  csaszar_torus()])


def report_digest(command):
    """SHA-256 of the exit code and the full report, run in the cwd; of
    the report's words without quotes for help and usage text."""
    code, text = run_command(command.split())
    if command in HELP:
        text = " ".join(text.replace("'", "").split())
    return hashlib.sha256(("%d\n%s" % (code, text)).encode()).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    write_inputs(root)
    return root


def recorded():
    with open(DIGESTS, encoding="ascii") as fh:
        return dict(line.rstrip("\n").split("  ", 1)[::-1] for line in fh)


@pytest.mark.parametrize("command", COMMANDS + HELP)
def test_cli_report_matches_recorded_digest(command, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    # argparse wraps help to the terminal width, which COLUMNS sets.
    monkeypatch.setenv("COLUMNS", "80")
    assert report_digest(command) == recorded()[command]
