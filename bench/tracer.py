"""Run one volrig CLI job with spans recorded around each layer's public calls.

Usage: python tracer.py OUT.json JOB-ID CLI-ARGS...

Wraps the functions in `TARGETS` wherever a volrig module holds them
(modules that imported a function by name hold their own reference),
and the `ExactMatrix` methods on the class.  Spans stay in memory and
are written to OUT.json when the job ends, together with counters that
are computed from the arguments (`cells`) or results (`steps`) at the
same boundaries.  The spawn time that run.py passes in BENCH_SPAWN_AT
(time.monotonic of the parent) gives the start-up span.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import volrig
import volrig.cli
from volrig.linalg import ExactMatrix

# (module, function) -> span name.  Several functions may share a span name.
TARGETS = {
    ("rigidity", "random_placement"): "rigidity.placement",
    ("rigidity", "rigidity_matrix"): "rigidity.assembly",
    ("rigidity", "generic_rank"): "rigidity.generic_rank",
    ("shifting", "generic_basis"): "shifting.basis",
    ("shifting", "compound_vector"): "shifting.compound",
    ("shifting", "in_shifted_family"): "shifting.membership",
    ("shifting", "shifted_level"): "shifting.level",
    ("shifting", "wedge_map_matrix"): "shifting.wedge",
    ("sparsity", "is_sparse"): "sparsity.check",
    ("sparsity", "is_tight"): "sparsity.check",
    ("sparsity", "complete_to_sparse_basis"): "sparsity.complete",
    ("cycles", "boundary_operator"): "cycles.boundary",
    ("cycles", "cycle_space"): "cycles.cycle_space",
    ("cycles", "contraction_reduce"): "cycles.contraction",
    ("cycles", "default_admissible"): "cycles.admissible",
    ("cycles", "verify_dataset"): "cycles.verify",
    ("complexes", "contract_edge"): "complexes.contract_edge",
    ("complexes", "k_faces"): "complexes.k_faces",
    ("fileio", "read_complex"): "fileio.read",
    ("fileio", "load_dataset"): "fileio.load_dataset",
    ("cli", "run_command"): "cli",
}
METHODS = {"rank": "linalg.rank", "in_column_span": "linalg.span",
           "right_kernel": "linalg.kernel", "det": "linalg.det"}
CELL_SPANS = ("linalg.rank", "linalg.span", "linalg.kernel")
SPANS = sorted(set(TARGETS.values()) | set(METHODS.values()))


class Tracer:
    """Spans as [name, start, end, parent index]; counters by name."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.basis_keys = set()

    def count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def before(self, name, args, kwargs):
        if name in CELL_SPANS:
            self.count(name + ".cells", args[0].nrows * args[0].ncols)
        elif name == "shifting.basis":
            n = args[0]
            seed = args[1] if len(args) > 1 else kwargs.get("seed", 0)
            field = args[2] if len(args) > 2 else kwargs.get("field")
            self.basis_keys.add((n, seed, repr(field)))

    def after(self, name, result):
        if name == "cycles.contraction":
            self.count("cycles.contraction.steps", len(result[1]))

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            self.before(name, args, kwargs)
            rec[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.monotonic()
                self.stack.pop()
            self.after(name, result)
            return result
        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "volrig" or k.startswith("volrig.")]
        for (modname, fname), name in TARGETS.items():
            orig = getattr(sys.modules["volrig." + modname], fname)
            wrapped = self.wrap(name, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
        for meth, name in METHODS.items():
            setattr(ExactMatrix, meth,
                    self.wrap(name, getattr(ExactMatrix, meth)))


def main():
    out, job, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    spawn = float(os.environ["BENCH_SPAWN_AT"])
    tracer = Tracer()
    tracer.install()
    code = volrig.cli.main(argv)
    sys.stdout.flush()
    with open(out, "w", encoding="ascii") as fh:
        json.dump({"job": job, "spawn": spawn, "spans": tracer.spans,
                   "counts": tracer.counts,
                   "basis_distinct": len(tracer.basis_keys)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
