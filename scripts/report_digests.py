#!/usr/bin/env python3
"""Print a digest of every benchmark job's report, to check that a change
leaves every report byte-identical.

For each SEED and each workload that BENCHMARK.json lists, the script
writes round 0 of the workload's inputs into a temporary directory with
bench/gen.py, seeded by random.Random(SEED) as bench/run.py seeds it.  It
runs each job through volrig.cli.run_command, without and with --json, and
prints one line per run:

    SEED WORKLOAD JOB text|json SHA256

The digest covers the exit code and the report.  src/ and bench/ are found
next to this file, so a copy of the script placed in another checkout
measures that checkout.  To compare a change against its parent commit:

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    cp scripts/report_digests.py ../parent/scripts/
    python3 ../parent/scripts/report_digests.py 1 5 > parent.txt
    python3 scripts/report_digests.py 1 5 > change.txt
    diff parent.txt change.txt
"""

import hashlib
import json
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import gen
from volrig.cli import run_command


def digests(seed, workload):
    """(job name, mode, digest) of each report of the workload's round 0."""
    with tempfile.TemporaryDirectory() as tmp:
        for job in gen.WORKLOADS[workload](tmp, random.Random(seed)):
            for mode, extra in (("text", []), ("json", ["--json"])):
                code, text = run_command(job.argv + extra)
                report = "%d\n%s" % (code, text)
                yield job.name, mode, hashlib.sha256(
                    report.encode()).hexdigest()


def main(argv):
    if not argv:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    for seed in map(int, argv):
        for workload in workloads:
            for name, mode, digest in digests(seed, workload):
                print(seed, workload, name, mode, digest)


if __name__ == "__main__":
    main(sys.argv[1:])
