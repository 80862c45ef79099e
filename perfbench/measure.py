"""The measured runs behind run.py: untraced end-to-end and traced per-layer."""

from __future__ import annotations

import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import gfi.index as gfi_index
from tracer import Tracer, gfi_targets, patched
from workloads import BUILD_REPEATS, SWEEP_LENGTHS, Workload, extracted, make_patterns, occurrences

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORK = os.path.join(HERE, ".work")

LOADS_PER_ROUND = 5
TRACED_LOAD_REPEATS = 5  # traced save/load layer times are their medians
RANK_PROBES = 20000  # random rank(c, i) calls behind rlfm.ns_per_rank
CHILD_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "load_ms": "ms",
    "index_bytes": "B",
    "build_peak_rss_mb": "MB",
    "query_us.p50": "us",
    "query_us.p90": "us",
    "query_us_per_char": "us/char",
    "baseline_us_per_char": "us/char",
}

# Exact counters: identical for every run with the same seed, traced or not.
EXACT_UNITS = {
    "index.bytes.grammar": "B",
    "index.bytes.level1_bwt": "B",
    "index.bytes.short_trie": "B",
    "index.bytes.baseline": "B",
    "grammar.rules": "count",
    "grammar.level1_length": "count",
    "rlfm.level1_runs": "count",
    "rlfm.level0_runs": "count",
    "shorttrie.nodes": "count",
    "rlfm.rank_calls_per_char": "calls/char",
    "rlfm.step_rank_calls_per_char": "calls/char",
    "rlfm.suffix_rank_calls_per_char": "calls/char",
    "rlfm.step_calls_per_char": "calls/char",
    "rlfm.baseline_rank_calls_per_char": "calls/char",
}

PER_LAYER_UNITS = {
    "alphabet.densify_s": "s",
    "alphabet.encode_us": "us",
    "lms.classify_s": "s",
    "lms.factorize_s": "s",
    "lms.chunk_s": "s",
    "grammar.build_self_s": "s",
    "grammar.dictionary_s": "s",
    "grammar.dictionary_load_s": "s",
    "grammar.prefix_range_us": "us",
    "grammar.suffix_symbols_us": "us",
    "grammar.suffix_fanout": "count",
    "bwt.level1_sort_s": "s",
    "bwt.level0_sort_s": "s",
    "rlfm.level1_init_s": "s",
    "rlfm.level0_init_s": "s",
    "rlfm.init_load_s": "s",
    "rlfm.backward_step_us": "us",
    "rlfm.ns_per_rank": "ns",
    "rlfm.count_symbols_us": "us",
    "shorttrie.build_s": "s",
    "shorttrie.init_load_s": "s",
    "shorttrie.count_us": "us",
    "shorttrie.query_frac": "ratio",
    "query.plan_us": "us",
    "query.branches": "count",
    "query.execute_self_us": "us",
    "query.dead_frac": "ratio",
    "index.save_s": "s",
    "index.load_s": "s",
    "trace.overhead_frac": "ratio",
    **EXACT_UNITS,
    **{"query.us_per_char.m%d" % m: "us/char" for m in SWEEP_LENGTHS},
    **{"rlfm.count_plain_us_per_char.m%d" % m: "us/char" for m in SWEEP_LENGTHS},
}


class Checker:
    """Times count calls and checks each result against the expected count."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_bad = None

    def timed(self, label: str, fn, arg, expected: int) -> int:
        """Call fn(arg), check the result, and return the call's wall time in ns."""
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            got = fn(arg)
        except Exception as exc:  # a raised error is a failed count, not a crashed run
            got = exc
        elapsed = time.perf_counter_ns() - start
        if got != expected:
            self.fail("%s count of %r: expected %d, got %r" % (label, arg, expected, got))
        return elapsed

    def fail(self, message: str):
        self.failed += 1
        if self.first_bad is None:
            self.first_bad = message


def timed_pass(patterns: list, best: list, checker: Checker, label: str, count, stop) -> int:
    """Count the patterns in order, one at a time, keeping each one's fastest wall time.

    ``best[k]`` is lowered to the call's time in ns when that is faster.
    Stops before the next pattern once ``stop()`` is true; returns the
    number of calls made.
    """
    for k, (pattern, expected) in enumerate(patterns):
        if stop():
            return k
        best[k] = min(best[k], checker.timed(label, count, pattern, expected))
    return len(patterns)


def rank_counters(patterns: list, checker: Checker, label: str, count, stats) -> tuple[int, int]:
    """(rank calls, steps) that one untimed pass over the patterns makes."""
    stats.reset()
    for pattern, expected in patterns:
        checker.timed(label, count, pattern, expected)
    return stats.rank_calls, stats.step_calls


def exact_counts(idx, chars: int, gfi_counters, baseline_counters) -> dict:
    """Machine-independent counters of the index and of one pass over the patterns.

    ``chars`` is the total pattern length of that pass, in which gfi and
    the baseline made the (rank calls, steps) given.
    """
    sizes = gfi_index.section_sizes(idx)
    rank1, steps1 = gfi_counters
    rank0 = baseline_counters[0]
    return {
        "index_bytes": sizes["total"] - sizes["baseline"],
        "index.bytes.grammar": sizes["grammar"],
        "index.bytes.level1_bwt": sizes["level1_bwt"],
        "index.bytes.short_trie": sizes["short_trie"],
        "index.bytes.baseline": sizes["baseline"],
        "grammar.rules": idx.grammar.size,
        "grammar.level1_length": idx.rlfm1.total_length - 1,  # minus the terminator
        "rlfm.level1_runs": idx.rlfm1.run_count,
        "rlfm.level0_runs": idx.rlfm0.run_count,
        "shorttrie.nodes": idx.trie.node_count,
        "rlfm.rank_calls_per_char": rank1 / chars,
        # backward_step makes exactly two rank calls per counted step; the
        # remaining gfi rank calls come from count_symbols_in_range.
        "rlfm.step_rank_calls_per_char": 2 * steps1 / chars,
        "rlfm.suffix_rank_calls_per_char": (rank1 - 2 * steps1) / chars,
        "rlfm.step_calls_per_char": steps1 / chars,
        "rlfm.baseline_rank_calls_per_char": rank0 / chars,
    }


def _commit() -> str | None:
    """HEAD of the repository holding this benchmark, or None outside git."""
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _warm_up(idx, text, w: Workload, seed: int, checker: Checker):
    """One checked gfi and baseline query, untimed, so lazy set-up is not billed to a sample."""
    pattern = extracted(text, max(w.lengths), 1, random.Random("%d:warm-up" % seed))[0]
    expected = occurrences(text, pattern)
    checker.timed("gfi", idx.count, pattern, expected)
    checker.timed("baseline", idx.count_baseline, pattern, expected)


def _child_build(w: Workload, corpus: str, out: str) -> tuple[dict, bytes]:
    """Build the index in a fresh process; return its report and the index file."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "build_child.py"), SRC, corpus, str(w.lam), out],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    with open(out, "rb") as fh:
        return json.loads(proc.stdout.splitlines()[-1]), fh.read()


def untraced(w: Workload, text: bytes, seed: int, seconds: float, checker: Checker, workdir: str):
    """Rounds of (fresh-process build, loads, gfi pass, baseline pass) for ``seconds``.

    On a shared host the same call's wall time varies by tens of percent
    from one call to the next, so every timed item recurs once per round
    and its best round is kept: a pattern's latency is its fastest call,
    and load_ms is the fastest load.  Across runs the fastest call is far
    steadier than the median call.
    setup_s is the median of ``BUILD_REPEATS`` builds.  The first round
    counts every pattern on both indexes and supplies the rank counters;
    later rounds stop at the pattern where time runs out.
    """
    corpus = os.path.join(workdir, "corpus.txt")
    with open(corpus, "wb") as fh:
        fh.write(text)
    patterns = make_patterns(w, text, seed)
    gfi_ns = [float("inf")] * len(patterns)
    base_ns = [float("inf")] * len(patterns)
    builds, load_s = [], []
    data = idx = None
    gfi_calls = base_calls = 0
    began = time.perf_counter()

    def time_is_up() -> bool:
        return len(builds) >= BUILD_REPEATS and time.perf_counter() - began >= seconds

    while idx is None or not time_is_up():
        # Builds are spread evenly over the run, so their median does not
        # come from one slow stretch of the host.
        if len(builds) < BUILD_REPEATS and (
            time.perf_counter() - began >= len(builds) * seconds / BUILD_REPEATS
        ):
            report, image = _child_build(w, corpus, os.path.join(workdir, "index.gfi"))
            builds.append(report)
            if data is None:
                data = image
            elif image != data:
                checker.fail("builds of one corpus gave different index files")
        for _ in range(LOADS_PER_ROUND):
            start = time.perf_counter()
            loaded = gfi_index.load_index(data)
            load_s.append(time.perf_counter() - start)
        # gfi and the baseline run in separate passes, so neither evicts the
        # other's arrays from the cache between calls.
        first = idx is None
        if first:
            idx = loaded  # every round queries the first loaded index
            if gfi_index.save_index(idx) != data:
                checker.fail("save(load(index)) differs from the built index file")
            _warm_up(idx, text, w, seed, checker)
            idx.rlfm1.stats.reset()
            idx.rlfm0.stats.reset()
        stop = (lambda: False) if first else time_is_up
        gfi_calls += timed_pass(patterns, gfi_ns, checker, "gfi", idx.count, stop)
        base_calls += timed_pass(patterns, base_ns, checker, "baseline", idx.count_baseline, stop)
        if first:
            gfi_counters = idx.rlfm1.stats.rank_calls, idx.rlfm1.stats.step_calls
            base_counters = idx.rlfm0.stats.rank_calls, idx.rlfm0.stats.step_calls

    chars = sum(len(p) for p, _ in patterns)
    exact = exact_counts(idx, chars, gfi_counters, base_counters)
    gfi_us = [ns / 1000 for ns in gfi_ns]
    metrics = {
        "setup_s": statistics.median(r["build_s"] for r in builds),
        "load_ms": min(load_s) * 1000,
        "index_bytes": exact["index_bytes"],
        "build_peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in builds),
        "query_us.p50": statistics.median(gfi_us),
        "query_us.p90": statistics.quantiles(gfi_us, n=10, method="inclusive")[8],
        "query_us_per_char": sum(gfi_us) / chars,
        "baseline_us_per_char": sum(base_ns) / 1000 / chars,
    }
    by_length = {}
    for p, _ in patterns:
        by_length[len(p)] = by_length.get(len(p), 0) + 1
    counts = {
        "patterns": len(patterns),
        "patterns_by_length": by_length,
        "gfi_calls": gfi_calls,
        "baseline_calls": base_calls,
        "builds": len(builds),
        "loads": len(load_s),
    }
    return metrics, END_TO_END_UNITS, exact, counts


def _per_length(idx, text: bytes, seed: int, checker: Checker) -> dict:
    """gfi and baseline wall time per character for every sweep length."""
    rng = random.Random("%d:sweep" % seed)
    out = {}
    for m in SWEEP_LENGTHS:
        patterns = extracted(text, m, max(8, 4096 // m), rng)
        expected = [occurrences(text, p) for p in patterns]
        gfi_ns = sum(checker.timed("gfi", idx.count, p, e) for p, e in zip(patterns, expected))
        codes = [idx.alphabet.encode(p) for p in patterns]
        plain_ns = sum(checker.timed("baseline", idx.rlfm0.count_plain, c, e)
                       for c, e in zip(codes, expected))
        chars = m * len(patterns)
        out["query.us_per_char.m%d" % m] = gfi_ns / 1000 / chars
        out["rlfm.count_plain_us_per_char.m%d" % m] = plain_ns / 1000 / chars
    return out


def _ns_per_rank(fm, seed: int) -> float:
    """Mean wall time of one rank(c, i) over random run heads and positions."""
    rng = random.Random("%d:rank" % seed)
    heads = fm.run_heads.tolist()
    probes = [(heads[rng.randrange(len(heads))], rng.randint(1, fm.total_length))
              for _ in range(RANK_PROBES)]
    rank = fm.rank
    start = time.perf_counter_ns()
    for c, i in probes:
        rank(c, i)
    return (time.perf_counter_ns() - start) / len(probes)


def _paired_passes(idx, patterns: list, checker: Checker, tracer: Tracer, targets):
    """Count each pattern once untraced and once traced.

    The two calls alternate which goes first, so drifts in machine speed
    and cache warmth fall on both sides alike.  Returns (length, ns) per
    untraced and per traced call, and the rank calls and steps the traced
    calls made.
    """
    plain, spanned = [], []
    stats = idx.rlfm1.stats
    rank_calls = step_calls = 0
    for k, (pattern, expected) in enumerate(patterns):
        for traced_call in (k % 2 == 1, k % 2 == 0):
            if not traced_call:
                plain.append((len(pattern), checker.timed("gfi", idx.count, pattern, expected)))
                continue
            stats.reset()
            tracer.query_id = k
            with patched(tracer, targets):
                spanned.append((len(pattern), checker.timed("gfi", idx.count, pattern, expected)))
            tracer.query_id = -1
            rank_calls += stats.rank_calls
            step_calls += stats.step_calls
    return plain, spanned, (rank_calls, step_calls)


def traced(w: Workload, text: bytes, seed: int, checker: Checker):
    """One traced build, repeated saves and loads, and paired passes over the patterns."""
    tracer = Tracer()
    targets = gfi_targets()
    with patched(tracer, targets):
        built = gfi_index.build_index(text, w.lam, with_baseline=True)
        build_end = len(tracer)
        saves, loads = [], []
        for _ in range(TRACED_LOAD_REPEATS):
            lo = len(tracer)
            data = gfi_index.save_index(built)
            saves.append((lo, len(tracer)))
        for _ in range(TRACED_LOAD_REPEATS):
            lo = len(tracer)
            idx = gfi_index.load_index(data)
            loads.append((lo, len(tracer)))
    if gfi_index.save_index(idx) != data:
        checker.fail("save(load(index)) differs from the built index file")

    _warm_up(idx, text, w, seed, checker)
    patterns = make_patterns(w, text, seed)
    query_lo = len(tracer)
    plain, spanned, spanned_counters = _paired_passes(idx, patterns, checker, tracer, targets)
    query_hi = len(tracer)
    base_counters = rank_counters(patterns, checker, "baseline", idx.count_baseline,
                                  idx.rlfm0.stats)
    sweep = _per_length(idx, text, seed, checker)
    ns_per_rank = _ns_per_rank(idx.rlfm1, seed)

    own = tracer.self_ns()

    def dur(i):
        return tracer.end[i] - tracer.start[i]

    def total(spans):
        return sum(dur(i) for i in spans)

    def median_s(ranges, name):
        return statistics.median(total(tracer.group(lo, hi)[name]) for lo, hi in ranges) / 1e9

    b = tracer.group(0, build_end)
    # build_index sorts and indexes the level-1 text first, the raw text second.
    bwt_level1, bwt_level0 = b["bwt.bwt_of"]
    init_level1, init_level0 = b["rlfm.init"]

    q = tracer.group(query_lo, query_hi)
    queries = len(spanned)
    chars = sum(m for m, _ in spanned)
    plans = [tracer.value[i] for i in q["query.plan_branches"]]
    fanout = [tracer.value[i] for i in q["grammar.suffix_symbols"]]

    def per_query_us(spans):
        return total(spans) / 1000 / queries

    exact = exact_counts(idx, chars, spanned_counters, base_counters)
    rank1, steps1 = spanned_counters
    exact.update({
        "rlfm.rank_calls_per_char": rank1 / chars,
        "rlfm.step_rank_calls_per_char": sum(tracer.value[i] for i in q["rlfm.backward_step"]) / chars,
        "rlfm.suffix_rank_calls_per_char":
            sum(tracer.value[i] for i in q["rlfm.count_symbols_in_range"]) / chars,
        "rlfm.step_calls_per_char": steps1 / chars,
    })
    metrics = {
        "alphabet.densify_s": total(b["alphabet.densify"]) / 1e9,
        "alphabet.encode_us": per_query_us(q["alphabet.encode"]),
        "lms.classify_s": total(b["lms.classify"]) / 1e9,
        "lms.factorize_s": total(b["lms.factorize"]) / 1e9,
        "lms.chunk_s": total(b["lms.chunk"]) / 1e9,
        "grammar.build_self_s": sum(own[i] for i in b["grammar.build"]) / 1e9,
        "grammar.dictionary_s": total(b["grammar.dictionary"]) / 1e9,
        "grammar.dictionary_load_s": median_s(loads, "grammar.dictionary"),
        "grammar.prefix_range_us": per_query_us(q["grammar.prefix_range"]),
        "grammar.suffix_symbols_us": per_query_us(q["grammar.suffix_symbols"]),
        "grammar.suffix_fanout": sum(fanout) / len(fanout) if fanout else 0.0,
        "bwt.level1_sort_s": dur(bwt_level1) / 1e9,
        "bwt.level0_sort_s": dur(bwt_level0) / 1e9,
        "rlfm.level1_init_s": dur(init_level1) / 1e9,
        "rlfm.level0_init_s": dur(init_level0) / 1e9,
        "rlfm.init_load_s": median_s(loads, "rlfm.init"),
        "rlfm.backward_step_us": per_query_us(q["rlfm.backward_step"]),
        "rlfm.ns_per_rank": ns_per_rank,
        "rlfm.count_symbols_us": per_query_us(q["rlfm.count_symbols_in_range"]),
        "shorttrie.build_s": total(b["shorttrie.build"]) / 1e9,
        "shorttrie.init_load_s": median_s(loads, "shorttrie.init"),
        "shorttrie.count_us": per_query_us(q["shorttrie.count"]),
        "shorttrie.query_frac": len(q["shorttrie.count"]) / queries,
        "query.plan_us": per_query_us(q["query.plan_branches"]),
        "query.branches": sum(max(v, 0) for v in plans) / len(plans) if plans else 0.0,
        "query.execute_self_us": sum(own[i] for i in q["query.execute_plan"]) / 1000 / queries,
        "query.dead_frac": sum(v < 0 for v in plans) / len(plans) if plans else 0.0,
        "index.save_s": median_s(saves, "index.save_index"),
        "index.load_s": median_s(loads, "index.load_index"),
        # Same patterns, same index: traced over untraced gfi time.
        "trace.overhead_frac": sum(ns for _, ns in spanned) / sum(ns for _, ns in plain) - 1,
        **{k: exact[k] for k in EXACT_UNITS},
        **sweep,
    }
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, "spans-%s-seed%d.tsv.gz" % (w.name, seed)))
    counts = {
        "patterns": len(patterns),
        "spans": len(tracer),
        "builds": 1,
        "loads": TRACED_LOAD_REPEATS,
    }
    return metrics, PER_LAYER_UNITS, exact, counts


def run(w: Workload, seed: int, seconds: float, trace: bool) -> int:
    text = w.make_corpus(seed)
    checker = Checker()
    if trace:
        metrics, units, exact, counts = traced(w, text, seed, checker)
    else:
        os.makedirs(WORK, exist_ok=True)
        workdir = tempfile.mkdtemp(dir=WORK)
        try:
            metrics, units, exact, counts = untraced(w, text, seed, seconds, checker, workdir)
        finally:
            shutil.rmtree(workdir)
    stamp = {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "loop": "closed, one client, one process, no threads",
        "corpus_bytes": len(text),
        "lambda": w.lam,
        "samples": counts,
        "failed_frac": checker.failed / checker.attempted,
    }
    # failed_frac is always printed, but it is not a BENCHMARK.json metric:
    # it is 0 on every correct run, so no relative bound can apply to it.
    for name, value in [*metrics.items(), ("failed_frac", stamp["failed_frac"])]:
        print("%-40s %16.6f %s" % (name, value, units.get(name, "ratio")))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "%s-trace%d-seed%d.json" % (w.name, int(trace), seed)), "w") as fh:
        json.dump({"stamp": stamp, "exact": exact, "result": result}, fh, indent=1)
    print(json.dumps({"stamp": stamp, "exact": exact}))
    print(json.dumps(result))
    if checker.failed:
        print("first bad count: %s" % checker.first_bad, file=sys.stderr)
        return 1
    return 0
