"""In-memory spans around gfi's public functions, patched in from outside.

Each wrapped call records one span: name, start, end, the span that was
open when it began (its parent), the current query id, and one integer
value (see ``gfi_targets``).  Spans live in flat arrays until the run
ends and are written out once.  Nothing inside ``src/gfi`` is edited:
every function is replaced on the object its caller looks it up on, and
restored when the ``patched`` block exits.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.query = array("q")
        self.value = array("q")
        self._open = [-1]
        self.query_id = -1

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn, value=None, rank_delta: bool = False):
        """Return fn recording a span per call.

        ``rank_delta`` stores the change of ``self.stats.rank_calls`` of the
        RLFMIndex the method runs on; ``value`` maps the result to the value.
        """
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._open[-1])
            self.query.append(self.query_id)
            self.end.append(0)
            self.value.append(0)
            self._open.append(i)
            before = args[0].stats.rank_calls if rank_delta else 0
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter_ns()
                self._open.pop()
            if rank_delta:
                self.value[i] = args[0].stats.rank_calls - before
            elif value is not None:
                self.value[i] = value(result)
            return result

        return traced

    def group(self, lo: int, hi: int) -> dict[str, list[int]]:
        """Indices of spans lo..hi-1 by span name, in call order."""
        out: dict[str, list[int]] = {name: [] for name in self.names}
        for i in range(lo, hi):
            out[self.names[self.name[i]]].append(i)
        return out

    def self_ns(self) -> list[int]:
        """Duration of each span minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        out = list(own)
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= own[i]
        return out

    def write(self, path: str):
        """Write all spans as gzipped tab-separated rows."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tquery\tvalue\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.query, self.value):
                fh.write("%s\t%d\t%d\t%d\t%d\t%d\n" % ((self.names[row[0]],) + row[1:]))


def _plan_value(plan) -> int:
    """Searches a plan runs, or -1 for a dead plan."""
    if plan.dead:
        return -1
    return len(plan.last_branches) * (1 if plan.paired else len(plan.first_branches))


def gfi_targets():
    """(owner, attribute, span name, wrap options) for every traced function.

    Module functions are patched in the module whose code calls them:
    ``build_index`` calls ``densify`` through ``gfi.index``'s globals, while
    ``lms.classify`` and friends are reached as attributes of ``gfi.lms``
    (from both the grammar builder and the query planner).  Methods are
    patched on their class, where every instance looks them up.
    """
    from gfi import bwt, grammar, index, lms, query
    from gfi.alphabet import DenseAlphabet
    from gfi.rlfm import RLFMIndex
    from gfi.shorttrie import ShortPatternTrie

    return [
        (index, "build_index", "index.build_index", {}),
        (index, "save_index", "index.save_index", {}),
        (index, "load_index", "index.load_index", {}),
        (index, "densify", "alphabet.densify", {}),
        (DenseAlphabet, "encode", "alphabet.encode", {}),
        (grammar, "build", "grammar.build", {}),
        (lms, "classify", "lms.classify", {}),
        (lms, "factorize", "lms.factorize", {}),
        (lms, "chunk", "lms.chunk", {}),
        (grammar.Grammar, "__post_init__", "grammar.dictionary", {}),
        (grammar.Grammar, "prefix_range", "grammar.prefix_range", {}),
        (grammar.Grammar, "suffix_symbols", "grammar.suffix_symbols", {"value": len}),
        (bwt, "bwt_of", "bwt.bwt_of", {}),
        (RLFMIndex, "__init__", "rlfm.init", {}),
        (RLFMIndex, "backward_step", "rlfm.backward_step", {"rank_delta": True}),
        (RLFMIndex, "count_symbols_in_range", "rlfm.count_symbols_in_range", {"rank_delta": True}),
        (ShortPatternTrie, "build", "shorttrie.build", {}),
        (ShortPatternTrie, "__init__", "shorttrie.init", {}),
        (ShortPatternTrie, "count", "shorttrie.count", {}),
        (query, "count", "query.count", {}),
        (query, "plan_branches", "query.plan_branches", {"value": _plan_value}),
        (query, "execute_plan", "query.execute_plan", {}),
    ]


@contextmanager
def patched(tracer: Tracer, targets):
    """Install traced versions of the targets; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, options in targets:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(tracer.wrap(name, original.__func__, **options))
            else:
                wrapped = tracer.wrap(name, original, **options)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
