"""Build one index in a fresh process and report its wall time and peak RSS.

Usage: python3 build_child.py SRC_DIR CORPUS LAMBDA OUT_INDEX

Prints one JSON object: {"build_s": ..., "peak_rss_mb": ...}.  The peak
is read right after the build, before the index is saved to OUT_INDEX.
"""

import json
import resource
import sys
import time


def main(argv) -> int:
    src, corpus, lam, out = argv[1:5]
    sys.path.insert(0, src)
    from gfi import index

    with open(corpus, "rb") as fh:
        raw = fh.read()
    start = time.perf_counter()
    built = index.build_index(raw, int(lam), with_baseline=True)
    build_s = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    with open(out, "wb") as fh:
        fh.write(index.save_index(built))
    print(json.dumps({"build_s": build_s, "peak_rss_mb": peak_kib / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
