"""Command line driver.

Every verdict line ends with the trial count and the arithmetic marker,
either the prime field used for randomized checks or `exact`/`QQ` for
deterministic ones.  With the same argv (seed included) the report is
byte-identical between runs.  Exit codes: 0 success, 1 a checked
property failed, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from math import comb

# Modules that only some subcommands reach are held as module references,
# so a job executes only the ones its handler uses (see __init__).
from . import complexes, cycles, fileio, linalg, rigidity, shifting, sparsity
from .errors import BadParameters, VolrigError, base10_int

EXACT_SIZE_LIMIT = 24

# Caps on --trials and --samples, checked before any input is read: run
# time grows linearly in both.  Every admitted rigidity matrix has
# r(d-2) < 250,000 (r <= f, and (d-1)n f is within the entry limit), so
# over the smallest table prime, 2^31 - 1, one trial misses the generic
# rank with probability below 2^-13 (generic_rank's bound) and 64 trials
# below 2^-800.  The same bounds hold for sigma0 on a member, by
# characteristic_membership's bound: a member has f >= |D| = 1 + P rows,
# P = (n-d)(d-1) >= d-1, and f P is within the entry limit, so
# |D|(d-1) <= (P+1)P < 250,000, while the n x n basis keeps n <= 500.
COUNT_CAPS = (("trials", 64), ("samples", 10000))


def _suffix(arith: str, trials=None) -> str:
    if trials is None:
        return "(%s)" % arith
    return "(trials=%d, %s)" % (trials, arith)


def _verdict(word: str, ok, arith: str, trials=None) -> str:
    """`WORD yes (suffix)` or `WORD no (suffix)`."""
    return "%s %s %s" % (word, "yes" if ok else "no", _suffix(arith, trials))


def _shape(K) -> str:
    return "n %d d %d facets %d" % (K.n, K.d, K.num_facets)


def _face_str(face) -> str:
    return " ".join(str(v) for v in face)


def _payload(args, K, lines, obj):
    """Send the resulting complex to --out, or inline it into the report."""
    if args.out:
        fileio.write_complex(K, args.out)
        lines.append("wrote %s" % args.out)
    else:
        lines.append("facets:")
        lines.extend(_face_str(f) for f in K.facets)
    obj["n"] = K.n
    obj["d"] = K.d
    obj["facets"] = [list(f) for f in K.facets]


def _exact_rank_line(K, args, lines, obj):
    """Rational cross-check on small instances under --exact."""
    if not args.exact:
        return None
    if (K.d - 1) * K.n > EXACT_SIZE_LIMIT:
        lines.append("exact-rank skipped (instance too large)")
        obj["exact_rank"] = None
        return None
    r = rigidity.rational_rank(K, seed=args.seed)
    lines.append("exact-rank %d %s" % (r, _suffix("QQ")))
    obj["exact_rank"] = r
    return r


def _cmd_rank(args, field, K):
    """rank, and rigid, whose verdict an --exact rank can lift to RIGID."""
    rep = rigidity.generic_rank(K, trials=args.trials, seed=args.seed,
                                field=field)
    lines = [_shape(K),
             "trial-ranks %s" % ",".join(str(r) for r in rep.trial_ranks),
             "rank %d target %d %s" % (rep.generic_rank, rep.target_rank,
                                       _suffix(rep.arithmetic, rep.trials))]
    obj = rep._asdict()
    exact = _exact_rank_line(K, args, lines, obj)
    if args.command == "rank":
        return 0, lines, obj
    rigid = rep.is_rigid or exact == rep.target_rank
    lines.append("%s %s" % ("RIGID" if rigid else "NOT-RIGID",
                            _suffix(rep.arithmetic, rep.trials)))
    obj["is_rigid"] = rigid
    return (0 if rigid else 1), lines, obj


def _cmd_shift(args, field, K):
    level = args.level if args.level is not None else K.d
    faces = shifting.shifted_level_stable(K, level, order=args.order,
                                          trials=args.trials, seed=args.seed,
                                          field=field)
    lines = ["level %d order %s count %d %s"
             % (level, args.order, len(faces),
                _suffix(field.describe(), args.trials))]
    lines.extend(_face_str(f) for f in faces)
    obj = {"level": level, "order": args.order, "count": len(faces),
           "faces": [list(f) for f in faces]}
    return 0, lines, obj


def _cmd_sigma0(args, field, K):
    rep = shifting.characteristic_membership(K, trials=args.trials,
                                             seed=args.seed, field=field)
    lines = ["face %s" % _face_str(rep.face),
             _verdict("MEMBER", rep.member, rep.arithmetic, rep.trials)]
    obj = rep._asdict()
    return (0 if rep.member else 1), lines, obj


def _cmd_psi(args, field, _):
    if args.trials < 1:
        raise BadParameters("trials must be at least 1")
    if not 2 <= args.d <= args.n:
        raise BadParameters("need 2 <= d <= n, got d=%d n=%d"
                            % (args.d, args.n))
    rows, cols = comb(args.n, args.d), (args.d - 1) * args.n
    linalg.check_dense_size(rows, cols, "wedge map matrix")
    best = 0
    for t in range(args.trials):
        basis = shifting.generic_basis(args.n, seed=args.seed + t,
                                       field=field)
        best = max(best, shifting.wedge_map_matrix(basis, args.d).rank())
    kernel = cols - best
    lines = ["d %d n %d rows %d cols %d" % (args.d, args.n, rows, cols),
             "rank %d kernel %d %s" % (best, kernel,
                                       _suffix(field.describe(), args.trials))]
    obj = {"d": args.d, "n": args.n, "rows": rows, "cols": cols,
           "rank": best, "kernel": kernel}
    return 0, lines, obj


def _params_for(args, K) -> tuple:
    """The sparsity counts, their report line and their JSON keys."""
    if (args.a is None) != (args.b is None):
        raise VolrigError("--a and --b must be given together")
    params = (sparsity.SparsityParams.volume_regime(K.d) if args.a is None
              else sparsity.SparsityParams(a=args.a, b=args.b, d=K.d))
    return params, "params a %d b %d d %d" % params, params._asdict()


def _cmd_sparsity(args, field, K):
    params, line, obj = _params_for(args, K)
    ok, witness = sparsity.is_sparse(K, params)
    lines = [line, _verdict("SPARSE", ok, "exact")]
    if witness is not None:
        lines.append("witness %s" % _face_str(witness))
    obj.update(sparse=ok, witness=list(witness) if witness else None,
               arithmetic="exact")
    return (0 if ok else 1), lines, obj


def _cmd_tight(args, field, K):
    params, line, obj = _params_for(args, K)
    tight = sparsity.is_tight(K, params)
    bound = params.bound(K.n)
    lines = [line, "facets %d bound %d" % (K.num_facets, bound),
             _verdict("TIGHT", tight, "exact")]
    obj.update(facets=K.num_facets, bound=bound, tight=tight,
               arithmetic="exact")
    return (0 if tight else 1), lines, obj


def _cmd_complete_basis(args, field, K):
    params, line, obj = _params_for(args, K)
    result = sparsity.complete_to_sparse_basis(K, params)
    added = result.num_facets - K.num_facets
    lines = [line, "added %d" % added, _shape(result)]
    obj["added"] = added
    _payload(args, result, lines, obj)
    return 0, lines, obj


def _cmd_counterexample(args, field, _):
    # Checked before building: the construction's rigidity matrix
    # (n = d + 4, f = 4d - 3) passes the limit from d = 39 on, and the
    # completion itself gets slow as d grows.  No d < 3 reaches the limit.
    linalg.check_dense_size((args.d - 1) * (args.d + 4), 4 * args.d - 3,
                            "rigidity matrix")
    K = sparsity.build_counterexample(args.d)
    params = sparsity.SparsityParams.volume_regime(args.d)
    tight = sparsity.is_tight(K, params)
    rep = rigidity.generic_rank(K, trials=args.trials, seed=args.seed,
                                field=field)
    mem = shifting.characteristic_membership(K, trials=args.trials,
                                             seed=args.seed, field=field)
    lines = [_shape(K), _verdict("TIGHT", tight, "exact"),
             _verdict("RIGID", rep.is_rigid, rep.arithmetic, rep.trials),
             _verdict("SIGMA0", mem.member, mem.arithmetic, mem.trials)]
    obj = {"n": K.n, "d": K.d, "num_facets": K.num_facets, "tight": tight,
           "is_rigid": rep.is_rigid, "rank": rep.generic_rank,
           "target": rep.target_rank, "member": mem.member}
    _payload(args, K, lines, obj)
    ok = tight and not rep.is_rigid and not mem.member
    return (0 if ok else 1), lines, obj


def _cmd_contract(args, field, K):
    if args.edge:
        parts = args.edge.split(",")
        if len(parts) != 2:
            raise VolrigError("--edge wants `u,w`")
        try:
            u, w = (base10_int(x) for x in parts)
        except ValueError:
            raise VolrigError("--edge wants two integers")
        result = complexes.contract_edge(K, u, w)
        lines = ["contracted %d %d" % (u, w), _shape(result)]
        obj = {"edge": [u, w]}
    else:
        result, log = cycles.contraction_reduce(K)
        lines = ["steps %d" % len(log),
                 "log %s" % ";".join("%d,%d" % e for e in log),
                 _shape(result)]
        obj = {"steps": len(log), "log": [list(e) for e in log]}
    _payload(args, result, lines, obj)
    return 0, lines, obj


def _cmd_homology(args, field, K):
    coeff = cycles.GF2 if args.mod2 else linalg.QQ
    space = cycles.cycle_space(K, coeff)
    minimal = cycles.spans_minimal_cycle(space)
    arith = coeff.describe()
    lines = ["cycle-dim %d %s" % (space.ncols, _suffix(arith)),
             _verdict("MINIMAL-CYCLE", minimal, arith)]
    obj = {"cycle_dim": space.ncols, "minimal": minimal, "arithmetic": arith}
    return 0, lines, obj


def _cmd_boundary_id(args, field, _):
    failures = cycles.random_identity_sweep(args.samples, seed=args.seed,
                                            field=field)
    lines = ["samples %d failures %d" % (args.samples, failures),
             _verdict("IDENTITY", failures == 0, field.describe(),
                      args.samples)]
    obj = {"samples": args.samples, "failures": failures}
    return (0 if failures == 0 else 1), lines, obj


def _cmd_verify_dataset(args, field, _):
    root = args.dir or fileio.dataset_root()
    if root is None:
        env = os.environ.get(fileio.ENV_DATA_DIR)
        if env:
            raise VolrigError("%s=%s is not a directory"
                              % (fileio.ENV_DATA_DIR, env))
        raise VolrigError("no dataset directory: set VOLRIG_DATA or pass --dir")
    path = root if args.name is None else os.path.join(root, args.name)
    ds = fileio.load_dataset(path, name=args.name)
    rep = cycles.verify_dataset(ds, trials=args.trials, seed=args.seed,
                                field=field)
    lines = ["dataset %s size %d" % (rep.name, rep.size)]
    for e in rep.entries:
        lines.append("entry %d n %d facets %d rank %d target %d rigid %s "
                     "member %s irreducible %s"
                     % (e["index"], e["n"], e["facets"], e["rank"],
                        e["target"], "yes" if e["rigid"] else "no",
                        "-" if e["member"] is None else
                        ("yes" if e["member"] else "no"),
                        "yes" if e["irreducible"] else "no"))
    lines.append("rigid %d/%d %s" % (rep.rigid_count, rep.size,
                                     _suffix(rep.arithmetic, rep.trials)))
    ok = rep.all_rigid
    if args.expect is not None and rep.size != args.expect:
        lines.append("size-mismatch expected %d" % args.expect)
        ok = False
    lines.append("DATASET %s %s" % ("ok" if ok else "FAIL",
                                    _suffix(rep.arithmetic, rep.trials)))
    obj = rep._asdict()
    obj["ok"] = ok
    return (0 if ok else 1), lines, obj


def _arg(*flags, **kw):
    return flags, kw


# Option sets that several subcommands take, named in _SUBCOMMANDS.
_PARENTS = {
    "trials": (_arg("--trials", type=base10_int, default=3,
                    help="independent random samples (default 3)"),),
    "seeded": (_arg("--seed", type=base10_int, default=0),
               _arg("--prime", type=base10_int, default=0, metavar="INDEX",
                    help="index into the prime table (default 0)")),
    "exact": (_arg("--exact", action="store_true",
                   help="rational cross-check where size permits"),),
    "infile": (_arg("--in", dest="infile", required=True),),
    "counts": (_arg("--a", type=base10_int, default=None),
               _arg("--b", type=base10_int, default=None)),
}
_JSON = _arg("--json", action="store_true", help="machine-readable report")
_OUT = _arg("--out", default=None)

# Each subcommand's handler, option sets, help and own options, which
# follow --json.  The full parser and each parser built alone are built
# from this one table.
_SUBCOMMANDS = {
    "rank": (_cmd_rank, ("trials", "seeded", "exact", "infile"),
             "generic rank of the rigidity matrix", ()),
    "rigid": (_cmd_rank, ("trials", "seeded", "exact", "infile"),
              "assert generic volume rigidity", ()),
    "shift": (_cmd_shift, ("trials", "seeded", "infile"),
              "members of the shifted family",
              (_arg("--order", choices=("p", "lex"), default="p"),
               _arg("--level", type=base10_int, default=None,
                    help="face size (default: facet cardinality)"))),
    "sigma0": (_cmd_sigma0, ("trials", "seeded", "infile"),
               "membership of the characteristic face", ()),
    "psi": (_cmd_psi, ("trials", "seeded"),
            "rank and kernel of the wedge map",
            (_arg("--d", type=base10_int, required=True),
             _arg("--n", type=base10_int, required=True))),
    "sparsity": (_cmd_sparsity, ("infile", "counts"),
                 "assert the sparsity counts", ()),
    "tight": (_cmd_tight, ("infile", "counts"),
              "assert sparsity with equality at V", ()),
    "complete-basis": (_cmd_complete_basis, ("infile", "counts"),
                       "greedy completion to a sparsity basis", (_OUT,)),
    "counterexample": (_cmd_counterexample, ("trials", "seeded"),
                       "tight but flexible complex for a given cardinality",
                       (_arg("--d", type=base10_int, required=True), _OUT)),
    "contract": (_cmd_contract, ("infile",),
                 "contract one edge, or reduce to a fixed point",
                 (_arg("--edge", default=None, metavar="U,W"), _OUT)),
    "homology": (_cmd_homology, ("infile",),
                 "top cycle space and minimal-cycle flag",
                 (_arg("--mod2", action="store_true",
                       help="coefficients mod 2 instead of rationals"),)),
    "boundary-id": (_cmd_boundary_id, ("seeded",),
                    "random sweep of the rigidity-boundary identity",
                    (_arg("--samples", type=base10_int, default=50),)),
    "verify-dataset": (_cmd_verify_dataset, ("trials", "seeded"),
                       "check every complex of a dataset directory",
                       (_arg("--name", default=None,
                             help="subdirectory under the dataset root"),
                        _arg("--dir", default=None,
                             help="dataset root (overrides VOLRIG_DATA)"),
                        _arg("--expect", type=base10_int, default=None,
                             help="required number of dataset entries"))),
}


def _fill(p, name):
    """Add the subcommand's options to its parser, in the order of its help."""
    handler, parents, _, own = _SUBCOMMANDS[name]
    for flags, kw in [a for s in parents for a in _PARENTS[s]] + [_JSON, *own]:
        p.add_argument(*flags, **kw)
    p.set_defaults(handler=handler, parser=p, command=name)
    return p


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand or, given a subcommand's name, its
    parser alone, with the prog, usage, help and errors it has inside the
    full one."""
    if command is not None:
        return _fill(argparse.ArgumentParser(prog="volrig " + command),
                     command)
    parser = argparse.ArgumentParser(
        prog="volrig",
        description="Exact volume-rigidity toolkit for simplicial complexes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text, _) in _SUBCOMMANDS.items():
        _fill(sub.add_parser(name, help=help_text), name)
    return parser


def run_command(argv) -> tuple:
    """Dispatch argv; returns (exit code, full report text).  Reads --in
    for the handler, and writes the keys every report shares: command, and
    trials, seed and arithmetic where it has --trials, --seed, --prime."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            # A job that names its subcommand first builds only that
            # subcommand's parser; anything else parses with all of them.
            if argv and argv[0] in _SUBCOMMANDS:
                args, extra = build_parser(argv[0]).parse_known_args(argv[1:])
            else:
                args, extra = build_parser().parse_known_args(argv)
            # Unknown arguments are refused with the subcommand's usage,
            # which lists its flags.
            if extra:
                args.parser.error("unrecognized arguments: %s"
                                  % " ".join(extra))
    except SystemExit as e:
        code = 0 if e.code in (0, None) else 2
        return code, buf.getvalue()
    field = None
    if "prime" in args:
        if args.prime < 0 or args.prime >= len(linalg.PRIME_TABLE):
            return 2, "error: prime index %d outside 0..%d\n" % (
                args.prime, len(linalg.PRIME_TABLE) - 1)
        field = linalg.PrimeField(linalg.PRIME_TABLE[args.prime])
    for key, cap in COUNT_CAPS:
        if getattr(args, key, 0) > cap:
            return 2, "error: %s must be at most %d\n" % (key, cap)
    if getattr(args, "seed", 0) < 0:
        return 2, "error: seed must be at least 0\n"
    try:
        K = fileio.read_complex(args.infile) if "infile" in args else None
        code, lines, obj = args.handler(args, field, K)
    except (VolrigError, OSError) as e:
        return 2, "error: %s\n" % e
    obj["command"] = args.command
    for key in ("trials", "seed"):
        if key in args:
            obj[key] = getattr(args, key)
    if field is not None:
        obj["arithmetic"] = field.describe()
    if args.json:
        import json  # only --json reports need it; keeps start-up lean
        return code, json.dumps(obj, sort_keys=True) + "\n"
    return code, "\n".join(lines) + "\n"


def main(argv=None) -> int:
    code, text = run_command(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
