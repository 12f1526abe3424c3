"""Seeded inputs for the benchmark, each with the verdict its construction
guarantees.

The shape generators take a `random.Random` and return plain facet lists;
the workload builders write those with `volrig.write_complex` and return
the CLI jobs.  The same seed gives the same files.  The expected outputs
follow from how an input was built, never from running volrig:

* stacked (d-1)-spheres (repeated facet subdivision of the boundary of a
  d-simplex) are volume rigid and their characteristic face is a member
  of the shifted family;
* in the volume regime (a, b) = (d-1, d*d-d-1), induction over the
  stacking steps shows that every proper vertex set A of a stacked sphere
  spans at most a|A| - b facets while the whole set spans one more.  So
  the smallest violating set is the whole vertex set, the sphere minus a
  facet is tight, and the sphere minus two facets completes by one facet;
* for d = 3, edge contraction reduces a stacked sphere to the tetrahedron
  boundary in n - 4 steps;
* the tight-but-flexible counterexamples of every cardinality d >= 3 are
  not rigid and not members, whatever their labelling;
* stacking and relabelling keep a closed surface a surface of the same
  type, and by the contraction argument every such surface is rigid.

`self_check` verifies the combinatorial facts these claims rest on.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass, field
from itertools import combinations

import volrig

CSASZAR_TORUS = [tuple(sorted(((i + a) % 7 + 1 for a in offs)))
                 for offs in ((0, 1, 3), (0, 2, 3)) for i in range(7)]
RP2_SIX = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
           (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]
OCTAHEDRON = [(a, b, c) for a in (1, 6) for b in (2, 5) for c in (3, 4)]
SURFACES = {"torus": (7, CSASZAR_TORUS, 0), "rp2": (6, RP2_SIX, 1),
            "octahedron": (6, OCTAHEDRON, 2)}


@dataclass
class Job:
    """One CLI run and what its construction guarantees about the output.

    `lines` must each appear verbatim in stdout; `prefixes` must each
    start some stdout line (for verdicts whose suffix names the prime).
    Copies of one rung (same command and size, other inputs) are named
    `<rung>-<copy>`.
    """

    name: str
    argv: list
    code: int
    lines: list = field(default_factory=list)
    prefixes: list = field(default_factory=list)

    @property
    def rung(self):
        return re.sub(r"-\d+$", "", self.name.split("/")[-1])


def stack(n, facets, k, rng):
    """Subdivide k seeded random facets, each with a fresh vertex."""
    facets = list(facets)
    for _ in range(k):
        n += 1
        f = facets.pop(rng.randrange(len(facets)))
        facets.extend(tuple(u for u in f if u != v) + (n,) for v in f)
    return n, facets


def stacked_sphere(d, n, rng):
    """Stacked (d-1)-sphere on n >= d+1 vertices."""
    base = list(combinations(range(1, d + 2), d))
    return stack(d + 1, base, n - d - 1, rng)[1]


def relabel(n, facets, rng):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return [tuple(sorted(perm[v - 1] for v in f)) for f in facets]


def f_vector(facets):
    faces = [set() for _ in range(len(facets[0]))]
    for f in facets:
        for k in range(1, len(f) + 1):
            faces[k - 1].update(combinations(f, k))
    return [len(s) for s in faces]


def euler(facets):
    return sum((-1) ** k * c for k, c in enumerate(f_vector(facets)))


def closed_pseudo_manifold(facets):
    """Every ridge lies in exactly two facets."""
    count = {}
    for f in facets:
        for r in combinations(f, len(f) - 1):
            count[r] = count.get(r, 0) + 1
    return all(c == 2 for c in count.values())


def self_check(rng):
    """Raise AssertionError if a generator breaks a fact a verdict needs."""
    def need(ok, what):
        if not ok:
            raise AssertionError("generator self-check failed: " + what)

    for n in (4, 5, 17, 60):
        s = stacked_sphere(3, n, rng)
        need(len(s) == 2 * n - 4, "stacked 2-sphere has 2n-4 facets")
        need(closed_pseudo_manifold(s), "every sphere edge in two facets")
        need(euler(s) == 2, "stacked 2-sphere has chi 2")
    s = stacked_sphere(4, 30, rng)
    need(closed_pseudo_manifold(s) and euler(s) == 0, "stacked 3-sphere")
    for name, (n, facets, chi) in SURFACES.items():
        need(closed_pseudo_manifold(facets) and euler(facets) == chi,
             "base surface " + name)
        m, st = stack(n, facets, 9, rng)
        need(euler(st) == chi and closed_pseudo_manifold(st),
             "stacked %s keeps chi" % name)
        need(f_vector(relabel(m, st, rng)) == f_vector(st),
             "relabelled %s keeps the f-vector" % name)


def write(workdir, name, n, facets):
    path = os.path.join(workdir, name + ".txt")
    volrig.write_complex(volrig.build_complex(n, facets), path)
    return path


def _face(vertices):
    return " ".join(map(str, vertices))


def _seed(rng):
    return ["--seed", str(rng.randrange(1 << 30))]


def _tight_count(d, n):
    """(d-1)n - (d*d-d-1): the rank of a rigid complex on n vertices, and
    the facet count of a tight one in the volume regime."""
    return (d - 1) * n - (d * d - d - 1)


def counterexample(workdir, d, rng):
    K = volrig.build_counterexample(d)
    return write(workdir, "cex%d" % d, K.n, relabel(K.n, K.facets, rng))


# Rungs are (d, n, copies).  With four rounds of a job list in a run,
# job_s.p50 and job_s.tail (the eleventh-slowest job) must each fall inside
# one size class, not into the gap between two, or they jump between
# classes from run to run.  So each workload has a middle class of about
# four jobs a round that holds the median, and a slow class of four or
# five a round, beneath at most one slower job, that holds the tail.

def rank_ladder(workdir, rng):
    jobs = []
    for d, n, copies in ((3, 40, 1), (3, 60, 4), (3, 90, 3),
                         (4, 20, 1), (4, 40, 1), (4, 50, 1)):
        t = _tight_count(d, n)
        for c in range(copies):
            name = "rigid-s%d-n%d-%d" % (d, n, c)
            path = write(workdir, name, n, stacked_sphere(d, n, rng))
            jobs.append(Job(name, ["rigid", "--in", path] + _seed(rng), 0,
                            prefixes=["rank %d target %d " % (t, t),
                                      "RIGID "]))
    for d in (3, 4, 5, 6):
        jobs.append(Job("rigid-cex-d%d" % d,
                        ["rigid", "--in", counterexample(workdir, d, rng)]
                        + _seed(rng), 1, prefixes=["NOT-RIGID "]))
    return jobs


def shift_membership(workdir, rng):
    jobs = []
    for d, n in ((3, 24), (4, 14), (4, 18)):
        name = "sigma0-s%d-n%d" % (d, n)
        path = write(workdir, name, n, stacked_sphere(d, n, rng))
        face = _face(volrig.characteristic_face(d, n))
        jobs.append(Job(name, ["sigma0", "--in", path] + _seed(rng), 0,
                        lines=["face " + face], prefixes=["MEMBER yes "]))
    for d in (3, 4, 5):
        jobs.append(Job("sigma0-cex-d%d" % d,
                        ["sigma0", "--in", counterexample(workdir, d, rng)]
                        + _seed(rng), 1, prefixes=["MEMBER no "]))
    for d, n, copies in ((3, 8, 2), (3, 9, 3), (3, 10, 1)):
        # The first d labels and (rigid) the characteristic face are members.
        lines = [_face(range(1, d + 1)),
                 _face(volrig.characteristic_face(d, n))]
        for c in range(copies):
            name = "shift-s%d-n%d-%d" % (d, n, c)
            path = write(workdir, name, n, stacked_sphere(d, n, rng))
            jobs.append(Job(name, ["shift", "--in", path, "--order", "p"]
                            + _seed(rng), 0, lines=lines,
                            prefixes=["level %d order p count " % d]))
    for d, n in ((3, 10), (4, 9)):
        rows = len(list(combinations(range(n), d)))
        rank = 1 + (n - d) * (d - 1)
        jobs.append(Job("psi-d%d-n%d" % (d, n),
                        ["psi", "--d", str(d), "--n", str(n)] + _seed(rng), 0,
                        lines=["d %d n %d rows %d cols %d"
                               % (d, n, rows, (d - 1) * n)],
                        prefixes=["rank %d kernel %d "
                                  % (rank, d * d - d - 1)]))
    return jobs


def combinatorics(workdir, rng):
    jobs = []
    for d, n, copies in ((3, 16, 2), (4, 13, 1)):
        for c in range(copies):
            name = "sparsity-s%d-n%d-%d" % (d, n, c)
            path = write(workdir, name, n, stacked_sphere(d, n, rng))
            jobs.append(Job(name, ["sparsity", "--in", path], 1,
                            lines=["witness " + _face(range(1, n + 1))],
                            prefixes=["SPARSE no "]))
            # A sphere minus one facet meets the bound with equality.
            name = "tight-s%d-n%d-%d" % (d, n, c)
            facets = stacked_sphere(d, n, rng)
            facets.pop(rng.randrange(len(facets)))
            path = write(workdir, name, n, facets)
            bound = _tight_count(d, n)
            jobs.append(Job(name, ["tight", "--in", path], 0,
                            lines=["facets %d bound %d" % (bound, bound)],
                            prefixes=["TIGHT yes "]))
    # Minus two facets it is sparse, and putting either back is tight.
    facets = stacked_sphere(3, 14, rng)
    for _ in range(2):
        facets.pop(rng.randrange(len(facets)))
    path = write(workdir, "complete-n14", 14, facets)
    jobs.append(Job("complete-n14", ["complete-basis", "--in", path], 0,
                    lines=["added 1", "n 14 d 3 facets 23"]))
    n = 140
    for c in range(2):
        name = "contract-n%d-%d" % (n, c)
        path = write(workdir, name, n, stacked_sphere(3, n, rng))
        jobs.append(Job(name, ["contract", "--in", path], 0,
                        lines=["steps %d" % (n - 4), "n 4 d 3 facets 4"]))
    for d, n, copies in ((3, 80, 1), (4, 50, 1)):
        for c in range(copies):
            name = "homology-s%d-n%d-%d" % (d, n, c)
            path = write(workdir, name, n, stacked_sphere(d, n, rng))
            jobs.append(Job(name, ["homology", "--in", path], 0,
                            lines=["cycle-dim 1 (QQ)",
                                   "MINIMAL-CYCLE yes (QQ)"]))
    path = write(workdir, "rp2", 6, relabel(6, RP2_SIX, rng))
    jobs.append(Job("homology-rp2-mod2", ["homology", "--in", path, "--mod2"],
                    0, lines=["cycle-dim 1 (GF(2))",
                              "MINIMAL-CYCLE yes (GF(2))"]))
    return jobs


def surfaces(workdir, rng):
    """Datasets that mix all three surfaces, so entries share vertex counts
    (and hence generic bases) inside one process."""
    jobs = []
    for i in range(8):
        name = "dataset%d" % i
        ddir = os.path.join(workdir, name)
        os.makedirs(ddir)
        manifest = ["# seeded mix of stacked, relabelled closed surfaces"]
        # One stacking count from each of 0-1, 2-3, ..., 8-9 per surface:
        # every dataset does about the same work.
        entries = [(surf, k + rng.randrange(2)) for surf in SURFACES
                   for k in range(0, 10, 2)]
        rng.shuffle(entries)
        for j, (surf, k) in enumerate(entries):
            n0, base, _ = SURFACES[surf]
            n, facets = stack(n0, base, k, rng)
            path = write(ddir, "%02d_%s_%d" % (j, surf, k), n,
                         relabel(n, facets, rng))
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            manifest.append("%s %d %d %s" % (os.path.basename(path), n,
                                             len(facets), digest))
        with open(os.path.join(ddir, "manifest.txt"), "w",
                  encoding="ascii") as fh:
            fh.write("\n".join(manifest) + "\n")
        size = len(entries)
        jobs.append(Job("verify-dataset-%d" % i,
                        ["verify-dataset", "--dir", workdir, "--name", name,
                         "--expect", str(size)] + _seed(rng), 0,
                        lines=["dataset %s size %d" % (name, size)],
                        prefixes=["rigid %d/%d " % (size, size),
                                  "DATASET ok "]))
    return jobs


WORKLOADS = {"rank-ladder": rank_ladder, "shift-membership": shift_membership,
             "combinatorics": combinatorics, "surfaces": surfaces}
