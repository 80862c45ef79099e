"""Seeded benchmark of gfi: build, load and count on generated corpora.

Run from the repository root:

    python3 perfbench/run.py --workload art-long --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: index build time and peak
RSS in fresh processes, load time, index size, and a closed loop of count
queries (one client, one process, no threads) against gfi and the plain
run-length FM baseline for ``--seconds`` seconds.  ``--trace 1`` builds,
saves, loads and counts a fixed pattern set with gfi's public functions
wrapped in spans, and reports the per-layer metrics.  Every count is
checked against an overlapping ``bytes.find`` scan.

The seed decides the corpus and the patterns.  ``workloads.DEFAULT_SEED``
is used when ``--seed`` is omitted; ``workloads.HELD_OUT_SEED`` was kept
out of all tuning, so that a later speed or size claim can be confirmed
on a seed it was not developed against.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
stamps the run (versions, core count, seed, commit, sample counts) and
holds the exact counters that must repeat for a given seed.  The exit
code is 1 when any count is wrong and 2 when the gfi sources are missing.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: workloads.DEFAULT_SEED")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gfi", "__init__.py")):
        print("error: gfi sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import measure  # imports gfi, so only once src/ is on the path
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (choose from %s)" % (args.workload, ", ".join(WORKLOADS)),
              file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    return measure.run(WORKLOADS[args.workload], seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
