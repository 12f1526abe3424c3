#!/usr/bin/env python3
"""Convert census files of small closed-surface triangulations into the
complex file format, one dataset directory per surface.

The census of vertex-minimal surface triangulations on Frank Lutz's
simplicial manifold pages (https://page.math.tu-berlin.de/~lutz/stellar/)
lists each triangulation as a bracketed facet list, e.g.

    manifold_lex_d2_n8_#4=[[1,2,3],[1,2,4],...,[6,7,8]]

This script reads such a file, or a directory of them, copied to the
machine by hand.  `volrig.fileio.write_dataset` writes every triangulation
it finds, as c00.txt, c01.txt, ... plus a checksummed manifest.txt, for
`volrig verify-dataset` and the test suite.  It never uses the network.

Usage:
    python scripts/fetch_surface_data.py --dest ~/surface-data \\
        --name rp2 --source ./downloads/rp2_raw.txt
    export VOLRIG_DATA=~/surface-data
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from volrig import build_complex
from volrig.fileio import write_dataset

SURFACES = ("klein", "rp2", "torus")
SCRIPT = "scripts/fetch_surface_data.py"

FACET_LIST = re.compile(r"=\s*\[\s*(\[[0-9\s,\[\]]+\])\s*\]")
TRIPLE = re.compile(r"\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]")


def parse_triangulations(text):
    """Facet lists out of census markup, one per `name=[[...],...]`."""
    out = []
    for m in FACET_LIST.finditer(text):
        facets = [tuple(int(g) for g in t.groups())
                  for t in TRIPLE.finditer(m.group(1))]
        if facets:
            out.append(facets)
    return out


def read_source(source):
    if os.path.isdir(source):
        texts = []
        for fname in sorted(os.listdir(source)):
            path = os.path.join(source, fname)
            if os.path.isfile(path):
                with open(path, "r", encoding="utf-8",
                          errors="replace") as fh:
                    texts.append(fh.read())
        return "\n".join(texts)
    if os.path.isfile(source):
        with open(source, "r", encoding="utf-8", errors="replace") as fh:
            return fh.read()
    raise SystemExit("no such file or directory: %s" % source)


def convert(name, raw_text, dest):
    triangulations = parse_triangulations(raw_text)
    if not triangulations:
        raise SystemExit("no facet lists recognized in the %s source" % name)
    outdir = os.path.join(dest, name)
    write_dataset(outdir, [build_complex(max(map(max, facets)), facets)
                           for facets in triangulations],
                  "# surface: %s\n# converted by %s" % (name, SCRIPT))
    return len(triangulations), outdir


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--dest", required=True,
                    help="dataset root directory (becomes VOLRIG_DATA)")
    ap.add_argument("--name", required=True,
                    choices=SURFACES,
                    help="which surface dataset to build")
    ap.add_argument("--source", required=True,
                    help="census file, or a directory of census files")
    args = ap.parse_args(argv)
    count, outdir = convert(args.name, read_source(args.source), args.dest)
    print("wrote %d complexes to %s" % (count, outdir))
    print("set VOLRIG_DATA=%s to enable the dataset checks"
          % os.path.abspath(args.dest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
