"""Command-line surface: build, count, bench, gen, stats."""

from __future__ import annotations

import argparse
import re
import sys
import time

from gfi import index as index_mod
from gfi import oracle
from gfi.bwt import MAX_TEXT_LENGTH
from gfi.errors import InvalidParameterError
from gfi.query import count as query_count


def _summary(idx) -> dict:
    """The counts both build and stats report, in stats' order; r0 only with a baseline."""
    summary = {
        "n": idx.n,
        "sigma": idx.alphabet.size,
        "sigma1": idx.grammar.size,
        "r1": idx.rlfm1.run_count,
    }
    if idx.baseline_runs is not None:  # read as stored; rlfm0 would build its rank layout
        summary["r0"] = len(idx.baseline_runs[0])
    return summary


def _cmd_build(args) -> int:
    with open(args.input, "rb") as fh:
        raw = fh.read()
    idx = index_mod.build_index(raw, args.lam, with_baseline=args.baseline)
    index_mod.save_index_file(idx, args.output)
    summary = _summary(idx)
    print("name,n,sigma,sigma1,r0,r1,bytes")
    print(
        "%s,%d,%d,%d,%s,%d,%d"
        % (
            args.input,
            summary["n"],
            summary["sigma"],
            summary["sigma1"],
            summary.get("r0", ""),
            summary["r1"],
            index_mod.section_sizes(idx)["total"],
        )
    )
    return 0


def _cmd_count(args) -> int:
    idx = index_mod.load_index_file(args.index)
    with open(args.patterns, "rb") as fh:
        data = fh.read()
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    status = 0
    for lineno, line in enumerate(lines, start=1):
        if not line:
            print("line %d: empty pattern" % lineno, file=sys.stderr)
            status = 1
            continue
        print(query_count(idx, line))
    return status


def _exponent_range(text: str) -> tuple[int, int]:
    """The A..B of --lengths as two ints with 0 <= A <= B."""
    match = re.fullmatch(r"(\d+)\.\.(\d+)", text, re.ASCII)
    try:  # no match, or a bound past the digits Python converts (4,300 by default)
        lo, hi = int(match[1]), int(match[2])
    except (TypeError, ValueError):
        lo, hi = 1, 0  # refused below
    if lo > hi:
        raise InvalidParameterError(
            "--lengths must be A..B with integers 0 <= A <= B, not %r" % text
        )
    return lo, hi


# Each length draws its pattern offsets before its timed loop, so their
# number is bounded: 10^11 offsets would not fit in memory.
MAX_BENCH_SAMPLES = 10**6


def _cmd_bench(args) -> int:
    if not 1 <= args.samples <= MAX_BENCH_SAMPLES:
        raise InvalidParameterError(
            "--samples must be between 1 and %d, not %d" % (MAX_BENCH_SAMPLES, args.samples)
        )
    lo, hi = _exponent_range(args.lengths)
    idx = index_mod.load_index_file(args.index)
    with open(args.text, "rb") as fh:
        raw = fh.read()
    if raw.endswith(b"\x00"):
        raw = raw[:-1]
    print("length,mean_time_per_char,total_rank_calls,rank_calls_per_char")
    for exp in range(lo, hi + 1):
        if exp >= len(raw).bit_length():  # 2^exp > len(raw), known before 2^exp is built
            print("length 2^%d exceeds the text" % exp, file=sys.stderr)
            return 1
        length = 1 << exp
        # the draws as offsets: one pattern at a time is copied out of the text
        offsets = oracle.pattern_offsets(len(raw), length, args.samples, args.seed + exp)
        idx.rlfm1.stats.reset()
        start = time.perf_counter()
        for i in offsets:
            query_count(idx, raw[i : i + length])
        elapsed = time.perf_counter() - start
        calls = idx.rlfm1.stats.rank_calls
        chars = length * args.samples
        print("%d,%.9f,%d,%.6f" % (length, elapsed / chars, calls, calls / chars))
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "artificial":
        data = oracle.gen_artificial(args.mutation, args.seed)
    else:
        if not 1 <= args.sigma <= 255:
            raise InvalidParameterError(
                "--sigma must be from 1 to 255, as codes are written as bytes, not %d" % args.sigma
            )
        if not args.sigma <= args.length <= MAX_TEXT_LENGTH:
            raise InvalidParameterError(
                "--length must be from --sigma (%d) to %d, the longest text an index takes, not %d"
                % (args.sigma, MAX_TEXT_LENGTH, args.length)
            )
        data = oracle.gen_random_text(args.sigma, args.length, args.seed)
        if args.sigma <= 26:  # a.. letters when they fit: code c becomes byte 96 + c
            data = data.translate(bytes(range(96, 256)) + bytes(range(96)))
    with open(args.output, "wb") as fh:
        fh.write(data)
    print("%s,%d" % (args.output, len(data)))
    return 0


def _cmd_stats(args) -> int:
    idx = index_mod.load_index_file(args.index)
    sizes = index_mod.section_sizes(idx)
    print("key,value")
    print("lambda,%d" % idx.grammar.lam)
    for key, value in _summary(idx).items():
        print("%s,%d" % (key, value))
    print("trie_nodes,%d" % idx.trie.node_count)
    print("trie_levels,%d" % len(idx.trie.levels))
    for name, size in sizes.items():
        print("bytes_%s,%d" % (name, size))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gfi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build an index from a text file")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--baseline", action="store_true")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("count", help="count patterns, one per line")
    p.add_argument("-x", "--index", required=True)
    p.add_argument("-p", "--patterns", required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("bench", help="time count queries on extracted patterns")
    p.add_argument("-x", "--index", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--lengths", required=True, help="exponent range, e.g. 8..15")
    p.add_argument("--samples", type=int, default=64,
                   help="patterns per length, 1..%d (default 64)" % MAX_BENCH_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("gen", help="generate a dataset")
    p.add_argument("kind", choices=["artificial", "random"])
    p.add_argument("--mutation", type=float, default=1.0)
    p.add_argument("--sigma", type=int, default=4)
    p.add_argument("--length", type=int, default=1 << 20, help="--sigma to %d" % MAX_TEXT_LENGTH)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("stats", help="report index statistics")
    p.add_argument("-x", "--index", required=True)
    p.set_defaults(func=_cmd_stats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        pass  # reported below, once the failed call's frames and arrays are freed
    print("error: out of memory in gfi %s" % args.command, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
