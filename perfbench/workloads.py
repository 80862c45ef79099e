"""Benchmark workloads: seeded corpora, pattern streams and ground truth.

The benchmark owns the seed.  gfi only ever sees the generated bytes: the
corpus it indexes and the patterns it counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from gfi import oracle

# The seed used when --seed is omitted, and a second seed kept out of all
# tuning: a later speed or size claim is confirmed on HELD_OUT_SEED too.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# Pattern lengths of the per-length sweep in the traced run; every workload
# reports all of them, so the per-layer metric names are the same on each.
SWEEP_LENGTHS = (4, 8, 16, 32, 64, 512, 4096)

# Fresh-process builds per untraced run; setup_s is their median.
BUILD_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    lam: int
    lengths: tuple  # pattern lengths, cycled in this order
    patterns: int  # distinct patterns per run, each counted once per round
    make_corpus: Callable[[int], bytes]


def artificial_corpus(seed: int) -> bytes:
    """101 copies of a random 5 KiB DNA string at 1% mutation (514,495 B at seed 42)."""
    return oracle.gen_artificial(1.0, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="art-long",
            why="Repetitive text, m in {512, 4096} at lambda=4: time goes to the rank-bound "
            "core walk (backward_step, rank); gfi should beat the baseline here.",
            lam=4,
            # 88 short to 12 long keeps the median inside the m=512 mode and the
            # 90th percentile inside the m=4096 mode, with 10 patterns beyond
            # it.  Few long patterns keep a round short (about 1.8 s), so each
            # pattern is timed often and its fastest call finds the host's
            # quiet moments.
            lengths=(512,) * 7 + (4096,) + (512,) * 7 + (4096,) + (512,) * 8 + (4096,),
            patterns=100,
            make_corpus=artificial_corpus,
        ),
        Workload(
            name="art-short",
            why="Same corpus, m in 4..64 at lambda=8 (m=4 goes to the trie): time goes to "
            "planning and suffix-count fan-out, not long walks; the baseline wins here.",
            lam=8,
            lengths=(4, 8, 16, 32, 64),
            # The work of a pattern here depends on its suffix fan-out, which
            # varies widely; at 500 patterns the 90th percentile of rank calls
            # moved 18% (quartile spread) from one seed to the next, at 1000
            # patterns 10%.
            patterns=1000,
            make_corpus=artificial_corpus,
        ),
    )
}


def occurrences(text: bytes, pattern: bytes) -> int:
    """Overlapping occurrences of pattern in text, by repeated bytes.find."""
    count = 0
    at = text.find(pattern)
    while at != -1:
        count += 1
        at = text.find(pattern, at + 1)
    return count


def make_patterns(w: Workload, text: bytes, seed: int) -> list[tuple[bytes, int]]:
    """The workload's seed-determined patterns, each with its expected count."""
    rng = random.Random("%s:%d:patterns" % (w.name, seed))
    out = []
    for k in range(w.patterns):
        m = w.lengths[k % len(w.lengths)]
        start = rng.randrange(len(text) - m + 1)
        pattern = text[start : start + m]
        out.append((pattern, occurrences(text, pattern)))
    return out


def extracted(text: bytes, length: int, samples: int, rng: random.Random) -> list:
    """Substrings of the text drawn uniformly at random; all of them occur."""
    out = []
    for _ in range(samples):
        start = rng.randrange(len(text) - length + 1)
        out.append(text[start : start + length])
    return out
