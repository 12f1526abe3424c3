"""File format, dataset loading, and command-line behavior."""

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from itertools import combinations

import pytest

import volrig
import volrig.cli
from helpers import (csaszar_torus, fresh_rng, make_dataset, octahedron,
                     projective_plane_six, stacked_sphere, tetra)
from volrig import build_complex, cone, generic_rank, verify_dataset
from volrig.cli import main, run_command
from volrig.errors import DatasetError, InvalidFace, ParseError
from volrig.fileio import (base10_int, dataset_root, format_complex,
                           load_dataset, parse_complex, parse_manifest,
                           read_complex, sha256_file, write_complex,
                           write_dataset)
from volrig.sparsity import bipartite_complete_graph

TETRA_TEXT = "4 3\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n"
NON_ASCII_TETRA = "4 3\n# caf\u00e9\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n".encode()


def test_parse_complex_basic():
    K = parse_complex(TETRA_TEXT)
    assert K == tetra()


def test_parse_complex_comments_blanks_and_order():
    text = "# a toy complex\n\n4 3\n2 3 4\n# interior remark\n1 2 3\n"
    K = parse_complex(text)
    assert K.facets == ((1, 2, 3), (2, 3, 4))


def test_parse_complex_missing_trailing_newline():
    assert parse_complex("3 3\n1 2 3") == build_complex(3, [(1, 2, 3)])


def test_parse_complex_errors_carry_line_numbers():
    # Comment and blank lines count, and CRLF endings do not add lines.
    # A negative facet cardinality is refused at the header, before any
    # facet line; d = 0 is refused at its first facet line, or after the
    # last line when there is none.
    for text, message in (
            ("4 3\n1 2 3\n1 2\n", "line 3: expected 3 labels, found 2"),
            ("4 x\n1 2 3\n", "line 1: header entries must be integers"),
            ("4 3\n1 two 3\n", "line 2: vertex labels must be integers"),
            ("# only comments\n\n", "empty input, no header line"),
            ("", "empty input, no header line"),
            ("4 0\n", "line 1: facet cardinality must be positive"),
            ("\n# c\n4 -1\n\n", "line 3: facet cardinality must be positive"),
            ("4 -1\n1 2 3\n", "line 1: facet cardinality must be positive"),
            ("4 0\n1 2 3", "line 2: expected 0 labels, found 3"),
            ("4\n1 2 3\n", "line 1: header needs exactly `n d`"),
            ("# c\r\n\r\n4 3\r\n1 2 3\r\n# c\r\n1 2\r\n",
             "line 6: expected 3 labels, found 2")):
        with pytest.raises(ParseError) as err:
            parse_complex(text)
        assert str(err.value) == message


def test_integer_fields_are_a_sign_and_ascii_digits():
    # int() alone reads "1_0" as 10, and also takes surrounding spaces
    # and non-ASCII digits; the format has base-10 integers only.
    assert [base10_int(t) for t in ("7", "+7", "-7", "007")] == [7, 7, -7, 7]
    for text in ("1_0", " 1", "1 ", "", "+", "+-1", "--1", "1.0", "0x1",
                 "\u0663", "\u00b2"):
        with pytest.raises(ValueError):
            base10_int(text)
    for text, message in (
            ("1_0 3\n1 2 3\n", "line 1: header entries must be integers"),
            ("5 3\n1 2 3\n1 2 0_4\n",
             "line 3: vertex labels must be integers"),
            ("5 3\n1 2 \u0663\n", "line 2: vertex labels must be integers")):
        with pytest.raises(ParseError) as err:
            parse_complex(text)
        assert str(err.value) == message
    # A sign is still read, so a negative label reaches build_complex.
    assert parse_complex("+4 3\n1 2 +3\n") == build_complex(4, [(1, 2, 3)])
    with pytest.raises(InvalidFace, match="positive ints, got -3"):
        parse_complex("4 3\n1 2 -3\n")
    with pytest.raises(ParseError) as err:
        parse_manifest("octa.txt 6 1_0 abcd\n")
    assert str(err.value) == "line 1: manifest counts must be integers"


def test_format_complex_canonical():
    assert format_complex(tetra()) == TETRA_TEXT
    assert parse_complex(format_complex(octahedron())) == octahedron()


def test_read_write_round_trip(tmp_path):
    path = os.path.join(tmp_path, "octa.txt")
    write_complex(octahedron(), path)
    assert read_complex(path) == octahedron()
    assert sha256_file(path) == hashlib.sha256(
        format_complex(octahedron()).encode("ascii")).hexdigest()


def test_parse_manifest():
    text = "# comment\nocta.txt 6 8 ABCD\n\ntetra.txt 4 4 ef01\n"
    assert parse_manifest(text) == [("octa.txt", 6, 8, "abcd"),
                                    ("tetra.txt", 4, 4, "ef01")]
    for text, message in (
            ("octa.txt 6 8\n",
             "line 1: manifest line needs `file n f sha256`"),
            ("# c\n\nocta.txt six 8 abcd\n",
             "line 3: manifest counts must be integers"),
            ("a 1 2 ab\r\nocta.txt 6 8.0 abcd\r\n",
             "line 2: manifest counts must be integers"),
            ("a 1 2 ab\nb 1 2 ab cd\n",
             "line 2: manifest line needs `file n f sha256`")):
        with pytest.raises(ParseError) as err:
            parse_manifest(text)
        assert str(err.value) == message


def test_load_dataset(tmp_path):
    root = os.path.join(tmp_path, "spheres")
    make_dataset(root, [tetra(), octahedron()])
    ds = load_dataset(root)
    assert ds.name == "spheres"
    assert ds.d == 3
    assert len(ds.complexes) == 2
    assert ds.complexes[1] == octahedron()
    assert ds.provenance == "# source: handmade"


def test_load_dataset_rejects_bad_checksum(tmp_path):
    root = os.path.join(tmp_path, "ds")
    make_dataset(root, [tetra()])
    with open(os.path.join(root, "c00.txt"), "a", encoding="ascii") as fh:
        fh.write("# tampered\n")
    with pytest.raises(DatasetError) as err:
        load_dataset(root)
    assert "checksum" in str(err.value)


def test_load_dataset_rejects_wrong_counts(tmp_path):
    # A file that repeats a facet line: the manifest counts 5 facets, the
    # file parses to 4.
    root = os.path.join(tmp_path, "ds")
    K = tetra()
    make_dataset(root, [K._replace(facets=K.facets + K.facets[:1])])
    with pytest.raises(DatasetError) as err:
        load_dataset(root)
    assert "disagree" in str(err.value)


def test_load_dataset_rejects_empty_and_mixed_datasets(tmp_path):
    for name, complexes, message in (
            ("empty", [], "no complexes"),
            ("mixed", [tetra(), build_complex(3, [(1, 2)])], "mixes")):
        root = os.path.join(tmp_path, name)
        make_dataset(root, complexes)
        with pytest.raises(DatasetError) as err:
            load_dataset(root)
        assert message in str(err.value)


def test_write_dataset_round_trip(tmp_path):
    root = os.path.join(tmp_path, "ds")
    complexes = [octahedron(), tetra(), stacked_sphere(fresh_rng(3), 3, 7)]
    write_dataset(root, complexes, "# surface: none\n# second line")
    assert sorted(os.listdir(root)) == ["c00.txt", "c01.txt", "c02.txt",
                                        "manifest.txt"]
    ds = load_dataset(root)
    assert ds.complexes == tuple(complexes)
    assert ds.provenance == "# surface: none\n# second line"
    # A provenance or a repeated complex that would not load back is
    # refused before any write.
    for bad, provenance in (([tetra()], "surface"),
                            ([tetra()], "# caf\u00e9"),
                            ([tetra(), tetra()], "# x")):
        with pytest.raises(DatasetError) as err:
            write_dataset(os.path.join(tmp_path, "bad"), bad, provenance)
        assert err.type is DatasetError
        assert not os.path.exists(os.path.join(tmp_path, "bad"))


def test_load_dataset_requires_manifest(tmp_path):
    with pytest.raises(DatasetError):
        load_dataset(os.path.join(tmp_path, "nowhere"))


def test_load_dataset_rejects_missing_file(tmp_path):
    root = os.path.join(tmp_path, "ds")
    make_dataset(root, [tetra()])
    os.remove(os.path.join(root, "c00.txt"))
    with pytest.raises(DatasetError) as err:
        load_dataset(root)
    assert "missing" in str(err.value)


def write_manifest(dirpath, names):
    """dirpath/manifest.txt listing each name with the counts and sha256
    of the file it reaches from dirpath."""
    lines = ["# source: handmade"]
    for name in names:
        path = os.path.join(dirpath, name)
        K = read_complex(path)
        lines.append("%s %d %d %s" % (name, K.n, K.num_facets,
                                      sha256_file(path)))
    with open(os.path.join(dirpath, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_load_dataset_refuses_names_outside_its_directory(tmp_path):
    # Each name reaches a file that would load; only its form is refused.
    outside = os.path.join(tmp_path, "tetra.txt")
    write_complex(tetra(), outside)
    inner = os.path.join(tmp_path, "ds", "inner")
    os.makedirs(inner)
    for name in (".", ".."):
        with open(os.path.join(inner, "manifest.txt"), "w") as fh:
            fh.write("%s 4 4 %s\n" % (name, sha256_file(outside)))
        with pytest.raises(DatasetError) as err:
            load_dataset(inner)
        assert "not a plain file name" in str(err.value)
    for name in ("../../tetra.txt", outside):
        write_manifest(inner, [name])
        with pytest.raises(DatasetError) as err:
            load_dataset(inner)
        assert str(err.value) == (
            "manifest: %s is not a plain file name" % name)
        assert run_command(["verify-dataset", "--dir", inner]) == (
            2, "error: %s\n" % err.value)


def test_load_dataset_refuses_repeated_files(tmp_path):
    root = os.path.join(tmp_path, "ds")
    make_dataset(root, [tetra()])
    with open(os.path.join(root, "c00.txt"), "rb") as fh:
        write_bytes(os.path.join(root, "copy.txt"), fh.read())
    for names in (["c00.txt", "c00.txt"], ["c00.txt", "copy.txt"]):
        message = "manifest lists %s or its sha256 twice" % names[1]
        write_manifest(root, names)
        with pytest.raises(DatasetError) as err:
            load_dataset(root)
        assert str(err.value) == message
        # Each copy would otherwise count toward --expect.
        assert run_command(["verify-dataset", "--dir", root,
                            "--expect", "2"]) == (2, "error: %s\n" % message)


def write_bytes(path, data):
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def non_ascii_dataset(root):
    """A one-complex dataset whose manifest ends in a UTF-8 comment."""
    make_dataset(root, [tetra()])
    with open(os.path.join(root, "manifest.txt"), "ab") as fh:
        fh.write("# caf\u00e9\n".encode())
    return root


def test_undecodable_files_are_input_errors(tmp_path):
    # The format is ASCII: a byte past 127 is a ParseError in a complex
    # file and a DatasetError in a manifest, at the line it sits on.
    for data, line, byte in ((NON_ASCII_TETRA, 2, 0xc3),
                             (b"4 3\r\n1 2 3\r\n\xff", 3, 0xff)):
        path = write_bytes(os.path.join(tmp_path, "K.txt"), data)
        with pytest.raises(ParseError) as err:
            read_complex(path)
        assert err.type is ParseError and err.value.line == line
        assert str(err.value) == "line %d: byte 0x%02x is not ASCII" % (
            line, byte)
    root = non_ascii_dataset(os.path.join(tmp_path, "ds"))
    with pytest.raises(DatasetError) as err:
        load_dataset(root)
    assert err.type is DatasetError
    assert str(err.value) == "manifest.txt line 3: byte 0xc3 is not ASCII"


def load_importer():
    path = os.path.join(os.path.dirname(__file__), "..", "scripts",
                        "fetch_surface_data.py")
    spec = importlib.util.spec_from_file_location("fetch_surface_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lutz_markup(K):
    """K as one line of Lutz's census: `manifold_..._#1=[[1,2,5],...]`."""
    return "manifold_lex_d2_n%d_#1=[%s]\n" % (K.n, ",".join(
        "[%s]" % ",".join(str(v) for v in f) for f in K.facets))


def test_importer_round_trip(tmp_path):
    importer = load_importer()
    for name, K in (("rp2", projective_plane_six()),
                    ("torus", csaszar_torus())):
        count, outdir = importer.convert(name, lutz_markup(K), str(tmp_path))
        assert (count, outdir) == (1, os.path.join(tmp_path, name))
        ds = load_dataset(outdir)
        assert ds.complexes == (K,)
        assert ds.provenance == ("# surface: %s\n# converted by "
                                 "scripts/fetch_surface_data.py" % name)
        rep = verify_dataset(ds)
        assert rep.size == 1 and rep.all_rigid


def test_dataset_root_env(tmp_path, monkeypatch):
    monkeypatch.delenv("VOLRIG_DATA", raising=False)
    assert dataset_root() is None
    monkeypatch.setenv("VOLRIG_DATA", str(tmp_path))
    assert dataset_root() == str(tmp_path)
    monkeypatch.setenv("VOLRIG_DATA", os.path.join(tmp_path, "gone"))
    assert dataset_root() is None


@pytest.fixture
def tetra_file(tmp_path):
    path = os.path.join(tmp_path, "tetra.txt")
    write_complex(tetra(), path)
    return path


@pytest.fixture
def flexible_file(tmp_path):
    path = os.path.join(tmp_path, "coned.txt")
    write_complex(cone(bipartite_complete_graph()), path)
    return path


def test_cli_rigid_on_tetra(tetra_file):
    code, text = run_command(["rigid", "--in", tetra_file])
    assert code == 0
    assert "rank 3 target 3" in text
    assert "RIGID" in text and "NOT-RIGID" not in text


def test_cli_not_rigid_exit_code(flexible_file):
    code, text = run_command(["rigid", "--in", flexible_file])
    assert code == 1
    assert "NOT-RIGID" in text
    assert "rank 8 target 9" in text


def test_cli_is_deterministic(tetra_file):
    first = run_command(["rank", "--in", tetra_file])
    second = run_command(["rank", "--in", tetra_file])
    assert first == second


def test_cli_json_mode(tetra_file):
    code, text = run_command(["rank", "--in", tetra_file, "--json"])
    assert code == 0
    obj = json.loads(text)
    assert obj["command"] == "rank"
    assert obj["generic_rank"] == 3
    assert obj["target_rank"] == 3
    assert text == json.dumps(obj, sort_keys=True) + "\n"


def test_cli_exact_cross_check(tetra_file):
    code, text = run_command(["rank", "--in", tetra_file, "--exact"])
    assert code == 0
    assert "exact-rank 3 (QQ)" in text


def test_cli_exact_rank_can_certify_rigidity(tetra_file, monkeypatch):
    # Every GF(p) trial one short of the target: the exact rank alone
    # reaches it, and rigid reports RIGID with exit 0.
    def short(K, trials, seed, field):
        rep = generic_rank(K, trials=trials, seed=seed, field=field)
        return rep._replace(
            generic_rank=rep.generic_rank - 1, is_rigid=False, corank=1,
            trial_ranks=tuple(r - 1 for r in rep.trial_ranks))

    monkeypatch.setattr(volrig.rigidity, "generic_rank", short)
    code, text = run_command(["rigid", "--in", tetra_file])
    assert code == 1 and "NOT-RIGID" in text
    code, text = run_command(["rigid", "--in", tetra_file, "--exact"])
    assert code == 0
    lines = text.splitlines()
    assert "rank 2 target 3" in lines[2] and lines[3] == "exact-rank 3 (QQ)"
    assert lines[4].startswith("RIGID (trials=3, ")


def test_cli_exact_skips_large_instances(tmp_path):
    # (d-1) n = 26 on a 13-vertex 2-sphere, above EXACT_SIZE_LIMIT = 24.
    path = os.path.join(tmp_path, "sphere13.txt")
    write_complex(stacked_sphere(fresh_rng(1), 3, 13), path)
    code, text = run_command(["rank", "--in", path, "--exact"])
    assert code == 0
    assert "exact-rank skipped (instance too large)" in text.splitlines()
    code, text = run_command(["rank", "--in", path, "--exact", "--json"])
    assert code == 0
    obj = json.loads(text)
    assert "exact_rank" in obj and obj["exact_rank"] is None


def test_cli_sigma0(tetra_file, flexible_file):
    code, text = run_command(["sigma0", "--in", tetra_file])
    assert code == 0
    assert "face 1 3 4" in text
    assert "MEMBER yes" in text
    code, text = run_command(["sigma0", "--in", flexible_file])
    assert code == 1
    assert "face 1 3 7" in text
    assert "MEMBER no" in text


def test_cli_shift(tetra_file):
    code, text = run_command(["shift", "--in", tetra_file])
    assert code == 0
    assert "level 3 order p count 4" in text
    code, text = run_command(["shift", "--in", tetra_file, "--order", "lex",
                              "--level", "2"])
    assert code == 0
    assert "level 2 order lex count 6" in text


def test_cli_psi():
    code, text = run_command(["psi", "--d", "3", "--n", "5"])
    assert code == 0
    assert "rows 10 cols 10" in text
    assert "rank 5 kernel 5" in text
    for trials, bound in (("0", "at least 1"), ("-2", "at least 1"),
                          ("65", "at most 64")):
        code, text = run_command(["psi", "--d", "3", "--n", "5",
                                  "--trials", trials])
        assert (code, text) == (2, "error: trials must be %s\n" % bound)


def test_cli_sampling_commands_refuse_trials_below_one(tetra_file, tmp_path):
    root = os.path.join(tmp_path, "spheres")
    make_dataset(root, [tetra()])
    for argv in (["rank", "--in", tetra_file], ["rigid", "--in", tetra_file],
                 ["shift", "--in", tetra_file],
                 ["sigma0", "--in", tetra_file],
                 ["counterexample", "--d", "3"],
                 ["verify-dataset", "--dir", root]):
        for trials, bound in (("0", "at least 1"), ("-2", "at least 1"),
                              ("65", "at most 64")):
            assert run_command(argv + ["--trials", trials]) == (
                2, "error: trials must be %s\n" % bound), argv
    # The cap is checked before --in is read.
    missing = os.path.join(tmp_path, "missing.txt")
    assert run_command(["sigma0", "--in", missing, "--trials",
                        "100000000"]) == (
        2, "error: trials must be at most 64\n")


def test_cli_refuses_negative_seeds_before_reading_input(tmp_path):
    # random.Random(s) seeds with |s|, so seed -1 would rank the
    # placements of seeds -1, 0, 1 as Random(1), Random(0), Random(1).
    missing = os.path.join(tmp_path, "missing.txt")
    for argv in (["rank", "--in", missing], ["rigid", "--in", missing],
                 ["shift", "--in", missing], ["sigma0", "--in", missing],
                 ["psi", "--d", "3", "--n", "5"],
                 ["counterexample", "--d", "3"],
                 ["boundary-id"],
                 ["verify-dataset", "--dir", missing]):
        assert run_command(argv + ["--seed", "-1"]) == (
            2, "error: seed must be at least 0\n"), argv


def test_cli_refuses_oversized_dense_matrices(tmp_path, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a basis for an oversized instance")

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated a matrix for an oversized instance")

    monkeypatch.setattr("volrig.shifting.sample_generic_matrix", no_sampling)
    monkeypatch.setattr("volrig.rigidity.sample_generic_matrix", no_sampling)
    monkeypatch.setattr("volrig.linalg.ExactMatrix.zeros", no_allocation)
    path = os.path.join(tmp_path, "huge.txt")
    with open(path, "w") as fh:
        fh.write("100000 3\n1 2 3\n")
    # A 2,000,000 x 1 rigidity matrix; the 200,000 x 1 one of `huge` fits.
    huger = os.path.join(tmp_path, "huger.txt")
    with open(huger, "w") as fh:
        fh.write("1000000 3\n1 2 3\n")
    make_dataset(os.path.join(tmp_path, "ds"),
                 [build_complex(1000000, [(1, 2, 3)])])
    # 300 disjoint triangles: a 900 x 300 boundary matrix.
    disjoint = os.path.join(tmp_path, "disjoint.txt")
    write_complex(build_complex(900, [(3 * i + 1, 3 * i + 2, 3 * i + 3)
                                      for i in range(300)]), disjoint)
    # One facet on 120 vertices: a 1 x C(120, 3) = 280,840 shifting matrix
    # behind a 14,400-entry basis.
    lone = os.path.join(tmp_path, "lone.txt")
    with open(lone, "w") as fh:
        fh.write("120 3\n1 2 3\n")
    # A 595-triangle fan on 300 vertices: a 595 x 594 membership span
    # matrix behind a 90,000-entry basis.
    fan = os.path.join(tmp_path, "fan.txt")
    write_complex(build_complex(300, [(1, 2, v) for v in range(3, 301)]
                                + [(1, 3, v) for v in range(4, 301)]), fan)
    for argv in (["psi", "--d", "3", "--n", "100000"],
                 ["psi", "--d", "6", "--n", "60"],
                 ["sigma0", "--in", path],
                 ["sigma0", "--in", fan],
                 ["shift", "--in", path],
                 ["shift", "--in", lone, "--order", "p"],
                 ["shift", "--in", lone, "--order", "lex"],
                 ["rank", "--in", huger],
                 ["rigid", "--in", huger],
                 ["verify-dataset", "--dir", os.path.join(tmp_path, "ds")],
                 ["homology", "--in", disjoint]):
        code, text = run_command(argv)
        assert code == 2
        assert text.startswith("error: ") and "entry limit" in text


def test_cli_psi_refuses_bad_d_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a basis for an out-of-range d")

    monkeypatch.setattr("volrig.shifting.sample_generic_matrix", no_sampling)
    for d in (1, 0, 501):
        assert run_command(["psi", "--d", str(d), "--n", "500",
                            "--trials", "1"]) == (
            2, "error: need 2 <= d <= n, got d=%d n=500\n" % d)


# Each subcommand: an argv it accepts, the global flags it reads, and its
# own optional arguments.  A global flag outside its row is a usage error.
GLOBAL_FLAGS = {"--trials": ["3"], "--seed": ["1"], "--prime": ["0"],
                "--exact": [], "--json": []}
FLAG_TABLE = {
    "rank": (["--in", "K.txt"], "--trials --seed --prime --exact --json",
             "--in"),
    "rigid": (["--in", "K.txt"], "--trials --seed --prime --exact --json",
              "--in"),
    "shift": (["--in", "K.txt"], "--trials --seed --prime --json",
              "--in --order --level"),
    "sigma0": (["--in", "K.txt"], "--trials --seed --prime --json", "--in"),
    "psi": (["--d", "3", "--n", "5"], "--trials --seed --prime --json",
            "--d --n"),
    "counterexample": (["--d", "3"], "--trials --seed --prime --json",
                       "--d --out"),
    "verify-dataset": ([], "--trials --seed --prime --json",
                       "--name --dir --expect"),
    "boundary-id": ([], "--seed --prime --json", "--samples"),
    "sparsity": (["--in", "K.txt"], "--json", "--in --a --b"),
    "tight": (["--in", "K.txt"], "--json", "--in --a --b"),
    "complete-basis": (["--in", "K.txt"], "--json", "--in --a --b --out"),
    "contract": (["--in", "K.txt"], "--json", "--in --edge --out"),
    "homology": (["--in", "K.txt"], "--json", "--in --mod2"),
}


@pytest.mark.parametrize("command", sorted(FLAG_TABLE))
def test_cli_subcommand_takes_only_the_flags_it_reads(command):
    base, reads, own = FLAG_TABLE[command]
    reads = reads.split()
    code, text = run_command([command, "--help"])
    assert code == 0
    usage = text.split("\n\n")[0]
    flags = {tok.strip("[]") for tok in usage.split()
             if tok.strip("[]").startswith("-")}
    assert flags == {"-h", *reads, *own.split()}
    for flag, value in GLOBAL_FLAGS.items():
        if flag not in reads:
            code, text = run_command([command] + base + [flag] + value)
            assert code == 2, (command, flag)
            assert text.startswith("usage: volrig %s " % command)
            assert "unrecognized arguments: %s" % flag in text


def full_subparsers():
    parser = volrig.cli.build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_a_subparser_built_alone_is_the_one_in_the_full_parser():
    subparsers = full_subparsers()
    assert list(subparsers) == list(volrig.cli._SUBCOMMANDS)
    assert sorted(subparsers) == sorted(FLAG_TABLE)
    for name, inside in subparsers.items():
        alone = volrig.cli.build_parser(name)
        assert alone.prog == inside.prog == "volrig " + name
        assert alone.format_help() == inside.format_help(), name
        assert alone.format_usage() == inside.format_usage(), name


def test_run_command_parses_as_the_full_parser(tmp_path, monkeypatch):
    octa = os.path.join(tmp_path, "octa.txt")
    write_complex(octahedron(), octa)
    argvs = ([], ["-h"], ["bogus"], ["--json", "rigid"], ["rigid"],
             ["rigid", "--in", octa, "--bogus"], ["rigid", "--in", octa],
             ["tight", "--in", octa, "--json"], ["psi", "--d", "3"])
    fast = [run_command(argv) for argv in argvs]

    class NoneAlone(dict):
        """The same table, but no argv names a subcommand to build alone."""
        def __contains__(self, name):
            return False

    monkeypatch.setattr(volrig.cli, "_SUBCOMMANDS",
                        NoneAlone(volrig.cli._SUBCOMMANDS))
    assert fast == [run_command(argv) for argv in argvs]
    assert [code for code, _ in fast] == [2, 0, 2, 2, 2, 2, 0, 1, 2]


def test_a_job_builds_only_its_own_parser(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", record)
    for command, (base, _, _) in FLAG_TABLE.items():
        built.clear()
        assert run_command([command] + base + ["--bogus"])[0] == 2
        assert built == ["volrig " + command]
    built.clear()
    assert run_command(["bogus"])[0] == 2
    assert built == ["volrig"] + ["volrig " + c
                                  for c in volrig.cli._SUBCOMMANDS]


def simplex_boundary(tmp_path, n):
    """File of the boundary of the (n-1)-simplex: n facets of size n - 1."""
    path = os.path.join(tmp_path, "simplex%d.txt" % (n - 1))
    write_complex(build_complex(n, list(combinations(range(1, n + 1),
                                                     n - 1))), path)
    return path


def timed_command(argv):
    start = time.monotonic()
    code, text = run_command(argv)
    return code, text, time.monotonic() - start


def test_cli_bounds_compound_minor_reductions(tmp_path):
    # Size-k compound coordinates reduce a k x n block of the basis once
    # per (k-1)-face.  The boundary of the 19-simplex (20 facets of 19
    # vertices) needs 20 such 19 x 20 blocks and answers; the boundary of
    # the 63-simplex would need 64 blocks of 63 x 64, past the limit.
    path = simplex_boundary(tmp_path, 20)
    code, text, took = timed_command(["sigma0", "--in", path])
    assert took < 5
    assert code == 0 and "MEMBER yes" in text
    code, text, took = timed_command(["shift", "--in", path])
    assert took < 5
    assert code == 0
    # Shifting keeps the f-vector: all 20 size-19 sets are members.
    lines = text.splitlines()
    assert lines[0].startswith("level 19 order p count 20 ")
    assert sorted(tuple(map(int, line.split())) for line in lines[1:]) == \
        sorted(combinations(range(1, 21), 19))
    path = simplex_boundary(tmp_path, 64)
    for argv in (["sigma0", "--in", path], ["shift", "--in", path]):
        code, text, took = timed_command(argv)
        assert took < 5
        assert code == 2
        assert text.startswith("error: ") and "entry limit" in text


def test_cli_refuses_shifting_level_before_counting_faces(tmp_path):
    # Level 11 of the boundary of the 21-simplex has C(22, 11) = 705,432
    # columns, so it is refused before the 22 x C(21, 11) faces of its
    # facets are enumerated.
    code, text, took = timed_command(["shift", "--in",
                                      simplex_boundary(tmp_path, 22),
                                      "--level", "11"])
    assert took < 1
    assert code == 2
    assert text.startswith("error: ") and "entry limit" in text


def loaded_after(stmt, *names):
    """Which of the named modules stmt loads, in a fresh interpreter whose
    -S keeps site hooks from importing them first.  A package module is
    in sys.modules before it runs, as a LazyLoader proxy, a subclass of
    ModuleType, until its first attribute access; so a module counts as
    loaded when its type is ModuleType itself."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(volrig.__file__)))
    code = ("import sys, types; sys.path.insert(0, %r); %s; "
            "print([m for m in %r "
            "if type(sys.modules.get(m)) is types.ModuleType])"
            % (src, stmt, names))
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


PACKAGE = tuple("volrig." + m for m in (
    "complexes", "cycles", "errors", "fileio", "linalg", "rigidity",
    "shifting", "sparsity"))


def test_each_job_executes_only_the_modules_it_runs(tmp_path):
    assert loaded_after("import volrig", *PACKAGE) == "[]"
    assert loaded_after("from volrig.cli import run_command",
                        *PACKAGE) == "['volrig.errors']"
    octa = os.path.join(tmp_path, "octa.txt")
    write_complex(octahedron(), octa)
    flex = os.path.join(tmp_path, "flex.txt")
    write_complex(cone(bipartite_complete_graph()), flex)
    counts = ["complexes", "errors", "fileio", "sparsity"]
    jobs = (("rigid", octa, 0, ["complexes", "errors", "fileio", "linalg",
                                "rigidity"]),
            ("sparsity", octa, 1, counts),
            ("tight", octa, 1, counts),
            # The octahedron is refused before any completion: not sparse.
            ("complete-basis", octa, 2, counts),
            # A completion reads the entry limit, which linalg holds.
            ("complete-basis", flex, 0, ["complexes", "errors", "fileio",
                                         "linalg", "sparsity"]),
            ("contract", octa, 0, ["complexes", "cycles", "errors", "fileio",
                                   "linalg"]),
            ("homology", octa, 0, ["complexes", "cycles", "errors", "fileio",
                                   "linalg"]),
            ("sigma0", octa, 0, ["complexes", "errors", "fileio", "linalg",
                                 "shifting"]))
    # So rigid executes none of shifting, sparsity and cycles, and the
    # sparsity counts need no matrix.
    for command, path, code, modules in jobs:
        stmt = ("from volrig.cli import run_command; "
                "assert run_command(%r)[0] == %d"
                % ([command, "--in", path], code))
        assert loaded_after(stmt, *PACKAGE) == repr(
            ["volrig." + m for m in modules]), command


# The package's public names, each defined in one of its modules.
PUBLIC = (
    "DEFAULT_PRIME DatasetReport ExactMatrix GF GF2 GenericBasis "
    "MembershipReport PRIME_TABLE Placement PrimeField QQ RationalField "
    "RigidityReport SimplicialComplex SparsityParams SurfaceDataset "
    "VolrigError as_face boundary_matrix boundary_operator build_complex "
    "build_counterexample characteristic_face characteristic_membership "
    "characteristic_prefix columns_independent complete_complex "
    "complete_to_sparse_basis componentwise_leq compound_vector cone "
    "contract_edge contraction_reduce cycle_space facets_containing "
    "format_complex generic_basis generic_rank greedy_sparse_basis "
    "in_shifted_family is_face is_minimal_cycle is_sparse is_tight "
    "is_volume_rigid k_faces load_dataset parse_complex "
    "placement_from_basis random_placement read_complex relabel "
    "remove_facet remove_facet_rigidity rigidity_boundary_identity "
    "rigidity_matrix sample_generic_matrix shifted_level simplex_matrix "
    "spanned_count trivial_motion_basis union_complex verify_dataset "
    "wedge_map_matrix write_complex write_dataset").split()


def test_lazy_package_keeps_its_public_names_and_a_silent_start(tmp_path):
    # `python -m volrig.cli` finds volrig.cli unregistered, so runpy has
    # nothing to warn about even when warnings are errors.
    octa = os.path.join(tmp_path, "octa.txt")
    write_complex(octahedron(), octa)
    src = os.path.dirname(os.path.dirname(os.path.abspath(volrig.__file__)))
    p = subprocess.run([sys.executable, "-W", "error", "-m", "volrig.cli",
                        "rigid", "--in", octa], capture_output=True,
                       text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (p.returncode, p.stderr) == (0, "")
    assert p.stdout.endswith("RIGID (trials=3, GF(4611686018427387847))\n")
    assert len(PUBLIC) == 66
    assert sorted(volrig.__all__) == sorted(PUBLIC)
    star = {}
    exec("from volrig import *", star)
    for name in PUBLIC:
        value = getattr(volrig, name)
        assert name in dir(volrig)
        assert star[name] is value
    with pytest.raises(AttributeError):
        volrig.no_such_name


def test_cli_import_leaves_dataclasses_out():
    # Value types are named tuples, so start-up never loads dataclasses.
    assert loaded_after("import volrig.cli", "dataclasses") == "[]"


def test_cli_import_leaves_hashlib_and_json_out():
    # Only dataset checksums need hashlib and only --json reports need
    # json, so each is imported where it is used.
    assert loaded_after("import volrig.cli", "hashlib", "json") == "[]"


def test_integer_jobs_leave_fractions_out(tmp_path):
    # QQ's constants are ints and QQ.inv keeps +-1 an int, so only a job
    # that makes a Fraction loads fractions: here the QQ homology of RP²,
    # whose elimination meets a pivot of 2.
    octa = os.path.join(tmp_path, "octa.txt")
    rp2 = os.path.join(tmp_path, "rp2.txt")
    write_complex(octahedron(), octa)
    write_complex(projective_plane_six(), rp2)
    jobs = [[cmd, "--in", octa] for cmd in
            ("rigid", "sigma0", "sparsity", "contract", "homology")]
    stmt = ("from volrig.cli import run_command; "
            "assert [run_command(a)[0] for a in %r] == [0, 0, 1, 0, 0]"
            % (jobs,))
    assert loaded_after(stmt, "fractions") == "[]"
    stmt = ("from volrig.cli import run_command; "
            "assert run_command(%r)[1].startswith('cycle-dim 0 (QQ)')"
            % (["homology", "--in", rp2],))
    assert loaded_after(stmt, "fractions") == "['fractions']"


def test_cli_sparsity(tetra_file):
    code, text = run_command(["sparsity", "--in", tetra_file])
    assert code == 1
    assert "SPARSE no" in text
    assert "witness 1 2 3 4" in text
    code, text = run_command(["sparsity", "--in", tetra_file,
                              "--a", "2", "--b", "3"])
    assert code == 0
    assert "SPARSE yes" in text


def test_cli_sparsity_commands_on_a_huge_header(tmp_path):
    # The pebble game only sees the vertices that occur, so the checks
    # answer at once; completion would write a n - b facets and refuses.
    path = os.path.join(tmp_path, "huge.txt")
    with open(path, "w") as fh:
        fh.write("1000000000 3\n1 2 3\n")
    code, text = run_command(["sparsity", "--in", path])
    assert code == 0
    assert "SPARSE yes" in text
    code, text = run_command(["tight", "--in", path])
    assert code == 1
    assert "facets 1 bound 1999999995" in text
    assert "TIGHT no" in text
    code, text = run_command(["complete-basis", "--in", path])
    assert (code, text) == (2, "error: completion would hold 1999999995 "
                               "facets, above the 250000-entry limit\n")


def test_cli_sparsity_rejects_half_params(tetra_file):
    code, text = run_command(["sparsity", "--in", tetra_file, "--a", "2"])
    assert code == 2
    assert "error:" in text


def test_cli_tight(tetra_file, flexible_file):
    code, text = run_command(["tight", "--in", flexible_file])
    assert code == 0
    assert "facets 9 bound 9" in text
    assert "TIGHT yes" in text
    code, text = run_command(["tight", "--in", tetra_file])
    assert code == 1
    assert "TIGHT no" in text


def test_cli_complete_basis(tmp_path):
    src = os.path.join(tmp_path, "tri.txt")
    write_complex(build_complex(5, [(1, 2, 3)]), src)
    out = os.path.join(tmp_path, "basis.txt")
    code, text = run_command(["complete-basis", "--in", src, "--out", out])
    assert code == 0
    assert "added 4" in text
    assert "wrote" in text
    K = read_complex(out)
    assert K.num_facets == 5
    assert (1, 3, 5) in K.facets


def test_cli_counterexample():
    code, text = run_command(["counterexample", "--d", "3"])
    assert code == 0
    assert "n 7 d 3 facets 9" in text
    assert "TIGHT yes" in text
    assert "RIGID no" in text
    assert "SIGMA0 no" in text


def test_cli_counterexample_refuses_large_d_before_building(monkeypatch):
    # n = d + 4 and f = 4d - 3 give a rigidity matrix past the entry
    # limit from d = 39 on, refused without building the complex.
    def build(d):
        raise AssertionError("built the counterexample for d=%d" % d)

    monkeypatch.setattr(volrig.sparsity, "build_counterexample", build)
    for d in (39, 400):
        assert run_command(["counterexample", "--d", str(d),
                            "--trials", "1"]) == (
            2, "error: rigidity matrix would be %d x %d, above the "
               "250000-entry limit\n" % ((d - 1) * (d + 4), 4 * d - 3))


def test_cli_contract_single_edge(tmp_path):
    path = os.path.join(tmp_path, "octa.txt")
    write_complex(octahedron(), path)
    code, text = run_command(["contract", "--in", path, "--edge", "1,2"])
    assert code == 0
    assert "contracted 1 2" in text
    assert "n 5 d 3 facets 6" in text
    code, text = run_command(["contract", "--in", path, "--edge", "1-2"])
    assert code == 2
    for edge in ("1,x", "0_1,2", "1, 2"):
        code, text = run_command(["contract", "--in", path, "--edge", edge])
        assert (code, text) == (2, "error: --edge wants two integers\n")


def test_integer_options_take_only_a_sign_and_ascii_digits(tmp_path):
    # Options read their integers as files do: int() alone would rank
    # n = 10 for "1_0" and run two trials for " 2".
    octa = os.path.join(tmp_path, "octa.txt")
    write_complex(octahedron(), octa)
    for argv, flag, value in (
            (["psi", "--d", "3", "--n", "1_0", "--trials", "1"], "--n",
             "1_0"),
            (["rigid", "--in", octa, "--trials", " 2"], "--trials", " 2"),
            (["shift", "--in", octa, "--level", "\u0663"], "--level",
             "\u0663")):
        code, text = run_command(argv)
        assert code == 2, argv
        assert text.startswith("usage: volrig %s " % argv[0])
        assert "error: argument %s: invalid base10_int value: %r" % (
            flag, value) in text
    assert run_command(["psi", "--d", "3", "--n", "+5", "--trials", "1"])[0] \
        == 0


def test_cli_contract_reduce(tmp_path):
    path = os.path.join(tmp_path, "octa.txt")
    write_complex(octahedron(), path)
    code, text = run_command(["contract", "--in", path])
    assert code == 0
    assert "steps 2" in text
    assert "log 1,2;1,2" in text
    assert "n 4 d 3 facets 4" in text


def test_cli_homology(tetra_file, tmp_path):
    code, text = run_command(["homology", "--in", tetra_file])
    assert code == 0
    assert "cycle-dim 1 (QQ)" in text
    assert "MINIMAL-CYCLE yes" in text
    rp2 = build_complex(6, [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6),
                            (1, 4, 5), (2, 3, 4), (2, 3, 5), (2, 4, 6),
                            (3, 5, 6), (4, 5, 6)])
    path = os.path.join(tmp_path, "rp2.txt")
    write_complex(rp2, path)
    code, text = run_command(["homology", "--in", path])
    assert "MINIMAL-CYCLE no" in text
    code, text = run_command(["homology", "--in", path, "--mod2"])
    assert code == 0
    assert "cycle-dim 1 (GF(2))" in text
    assert "MINIMAL-CYCLE yes" in text


def test_cli_boundary_identity():
    code, text = run_command(["boundary-id", "--samples", "10"])
    assert code == 0
    assert "samples 10 failures 0" in text
    assert "IDENTITY yes" in text
    for samples in ("0", "-3"):
        code, text = run_command(["boundary-id", "--samples", samples])
        assert (code, text) == (2, "error: samples must be at least 1\n")
    code, text = run_command(["boundary-id", "--samples", "10001"])
    assert (code, text) == (2, "error: samples must be at most 10000\n")


def test_cli_verify_dataset(tmp_path, monkeypatch):
    root = os.path.join(tmp_path, "spheres")
    make_dataset(root, [tetra(), octahedron()])
    code, text = run_command(["verify-dataset", "--dir", root])
    assert code == 0
    assert "dataset spheres size 2" in text
    assert "rigid 2/2" in text
    assert "DATASET ok" in text
    code, text = run_command(["verify-dataset", "--dir", root,
                              "--expect", "5"])
    assert code == 1
    assert "size-mismatch expected 5" in text
    monkeypatch.setenv("VOLRIG_DATA", str(tmp_path))
    code, text = run_command(["verify-dataset", "--name", "spheres"])
    assert code == 0
    assert "DATASET ok" in text
    monkeypatch.delenv("VOLRIG_DATA")
    code, text = run_command(["verify-dataset"])
    assert code == 2


def test_cli_error_paths(tmp_path, monkeypatch):
    code, text = run_command(["rank", "--in",
                              os.path.join(tmp_path, "absent.txt")])
    assert code == 2
    assert "error:" in text
    code, _ = run_command(["no-such-command"])
    assert code == 2
    code, text = run_command(["psi", "--d", "3", "--n", "5", "--prime", "9"])
    assert code == 2
    assert "prime index" in text
    code, _ = run_command(["--help"])
    assert code == 0
    # Exit 1 would read as a negative verdict; a file that is not ASCII is
    # an input error, reported on one line without a traceback.
    path = write_bytes(os.path.join(tmp_path, "K.txt"), NON_ASCII_TETRA)
    assert run_command(["rank", "--in", path]) == (
        2, "error: line 2: byte 0xc3 is not ASCII\n")
    root = non_ascii_dataset(os.path.join(tmp_path, "ds"))
    assert run_command(["verify-dataset", "--dir", root]) == (
        2, "error: manifest.txt line 3: byte 0xc3 is not ASCII\n")
    # A VOLRIG_DATA that names no directory is named in the error, so a
    # typo is not mistaken for an unset variable.
    for value in (os.path.join(tmp_path, "typo"), path):
        monkeypatch.setenv("VOLRIG_DATA", value)
        assert run_command(["verify-dataset", "--name", "torus"]) == (
            2, "error: VOLRIG_DATA=%s is not a directory\n" % value)
    monkeypatch.delenv("VOLRIG_DATA")
    assert run_command(["verify-dataset", "--name", "torus"]) == (
        2, "error: no dataset directory: set VOLRIG_DATA or pass --dir\n")
    # The volume regime (d - 1, d^2 - d - 1) starts at d = 2; below it the
    # sparsity commands without --a/--b name the regime, not a = 0.
    path = os.path.join(tmp_path, "points.txt")
    with open(path, "w") as fh:
        fh.write("3 1\n1\n2\n")
    for command in ("sparsity", "tight", "complete-basis"):
        assert run_command([command, "--in", path]) == (
            2, "error: the volume regime needs d >= 2, got d=1\n")


def test_cli_prime_selection(tetra_file):
    base = run_command(["rank", "--in", tetra_file])
    alt = run_command(["rank", "--in", tetra_file, "--prime", "2"])
    assert alt[0] == 0
    assert "GF(2147483647)" in alt[1]
    assert base[1] != alt[1]


def test_main_writes_to_stdout(tetra_file, capsys):
    assert main(["rigid", "--in", tetra_file]) == 0
    out = capsys.readouterr().out
    assert "RIGID" in out
