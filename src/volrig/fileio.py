"""Complex file format and dataset loading.

Format: ASCII, LF line endings.  Line 1 holds `n d` (two base-10
integers separated by one space).  Every following non-empty line that
does not start with `#` carries exactly d vertex labels, space
separated.  A trailing newline is optional on read and always written.

A dataset directory, as write_dataset writes and load_dataset reads it,
holds complex files and a `manifest.txt` of `#` provenance lines and
`name n f sha256` lines, each name plain and no name or sha256 twice.

`_records` is the one line reader of both: it alone decides what is a
blank or `#` comment line, a field and a line number.
"""

from __future__ import annotations

import os
from collections import namedtuple

from .complexes import SimplicialComplex, build_complex
from .errors import DatasetError, ParseError, base10_int

ENV_DATA_DIR = "VOLRIG_DATA"

SurfaceDataset = namedtuple("SurfaceDataset", "name d complexes provenance")


def _records(text: str, comments: list | None = None):
    """(line number, fields) of each line that is neither blank nor a `#`
    comment, numbered from 1; the stripped comment lines go to comments."""
    for no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line.startswith("#"):
            if comments is not None:
                comments.append(line)
        elif line:
            yield no, line.split()


def _ints(parts: list, what: str, no: int) -> tuple:
    try:
        return tuple(base10_int(x) for x in parts)
    except ValueError:
        raise ParseError("%s must be integers" % what, no)


def parse_complex(text: str) -> SimplicialComplex:
    records = _records(text)
    header_line, parts = next(records, (0, None))
    if parts is None:
        raise ParseError("empty input, no header line")
    if len(parts) != 2:
        raise ParseError("header needs exactly `n d`", header_line)
    n, d = _ints(parts, "header entries", header_line)
    # A negative d is refused before any facet line is read.  Under d = 0
    # the first facet line is refused for its label count, and a file
    # with no facet line after the last line.
    if d < 0:
        raise ParseError("facet cardinality must be positive", header_line)
    facets = []
    for no, parts in records:
        if len(parts) != d:
            raise ParseError("expected %d labels, found %d" % (d, len(parts)),
                             no)
        facets.append(_ints(parts, "vertex labels", no))
    if d < 1:
        raise ParseError("facet cardinality must be positive", header_line)
    return build_complex(n, facets)


def format_complex(K: SimplicialComplex) -> str:
    out = ["%d %d" % (K.n, K.d)]
    out.extend(" ".join(str(v) for v in f) for f in K.facets)
    return "\n".join(out) + "\n"


def _ascii_text(path: str) -> str:
    """The file's text; ParseError at its first byte that is not ASCII."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        text = fh.read()
    if not text.isascii():
        # surrogateescape read each byte b past 127 as U+DC00 + b, and
        # kept the universal-newline line breaks the parser numbers.
        at = next(i for i, ch in enumerate(text) if not ch.isascii())
        raise ParseError("byte 0x%02x is not ASCII" % (ord(text[at]) - 0xdc00),
                         text.count("\n", 0, at) + 1)
    return text


def read_complex(path: str) -> SimplicialComplex:
    return parse_complex(_ascii_text(path))


def write_complex(K: SimplicialComplex, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_complex(K))


def sha256_file(path: str) -> str:
    import hashlib  # only dataset loading needs it; keeps CLI start-up lean
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _manifest_entry(no: int, parts: list) -> tuple:
    if len(parts) != 4:
        raise ParseError("manifest line needs `file n f sha256`", no)
    n, f = _ints(parts[1:3], "manifest counts", no)
    return parts[0], n, f, parts[3].lower()


def parse_manifest(text: str) -> list:
    """[(filename, n, f, checksum)] in file order; `#` lines ignored."""
    return [_manifest_entry(no, parts) for no, parts in _records(text)]


def write_dataset(dirpath: str, complexes, provenance: str) -> None:
    """Inverse of load_dataset; complex i goes to cNN.txt, in order.  What
    load_dataset would refuse, a complex listed twice included, is
    refused before anything is written."""
    lines = []
    if next(_records(provenance, lines), None) is not None:
        raise DatasetError("provenance lines must start with '#'")
    if not provenance.isascii():
        raise DatasetError("provenance must be ASCII")
    complexes = list(complexes)
    if len(set(complexes)) < len(complexes):
        raise DatasetError("a complex is listed twice (equal sha256)")
    os.makedirs(dirpath, exist_ok=True)
    for i, K in enumerate(complexes):
        path = os.path.join(dirpath, "c%02d.txt" % i)
        write_complex(K, path)
        lines.append("c%02d.txt %d %d %s" % (i, K.n, K.num_facets,
                                             sha256_file(path)))
    with open(os.path.join(dirpath, "manifest.txt"), "w", encoding="ascii",
              newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(dirpath: str, name: str | None = None) -> SurfaceDataset:
    """Load and cross-check every complex a manifest promises."""
    manifest_path = os.path.join(dirpath, "manifest.txt")
    if not os.path.isfile(manifest_path):
        raise DatasetError("no manifest.txt in %s" % dirpath)
    try:
        manifest_text = _ascii_text(manifest_path)
    except ParseError as e:
        raise DatasetError("manifest.txt %s" % e) from None
    comments = []
    entries = [_manifest_entry(no, parts)
               for no, parts in _records(manifest_text, comments)]
    complexes = []
    names, checksums = set(), set()
    for fname, n, f, checksum in entries:
        if fname != os.path.basename(fname) or fname in (".", ".."):
            raise DatasetError("manifest: %s is not a plain file name" % fname)
        if fname in names or checksum in checksums:
            raise DatasetError("manifest lists %s or its sha256 twice" % fname)
        names.add(fname)
        checksums.add(checksum)
        path = os.path.join(dirpath, fname)
        if not os.path.isfile(path):
            raise DatasetError("missing dataset file %s" % fname)
        actual = sha256_file(path)
        if actual != checksum:
            raise DatasetError("checksum mismatch for %s: %s != %s"
                               % (fname, actual, checksum))
        K = read_complex(path)
        if K.n != n or K.num_facets != f:
            raise DatasetError("counts for %s disagree with manifest: "
                               "n=%d f=%d vs %d %d"
                               % (fname, K.n, K.num_facets, n, f))
        complexes.append(K)
    if not complexes:
        raise DatasetError("manifest lists no complexes")
    d = complexes[0].d
    if any(K.d != d for K in complexes):
        raise DatasetError("dataset mixes facet cardinalities")
    return SurfaceDataset(name=name or os.path.basename(os.path.normpath(dirpath)),
                          d=d, complexes=tuple(complexes),
                          provenance="\n".join(comments))


def dataset_root() -> str | None:
    """Directory the VOLRIG_DATA environment variable points at."""
    root = os.environ.get(ENV_DATA_DIR)
    if root and os.path.isdir(root):
        return root
    return None
