"""Grammar-chunked FM index for substring counting on repetitive texts.

The text is remapped to code bytes, cut at its S* positions by one scan
that patterns share, and chopped into bounded chunks; the index rewrites
the text as a sequence of those chunks' dictionary symbols and answers
count queries by backward search on the run-length compressed BWT of
that symbol sequence.  A plain run-length FM index over the raw text
serves as a baseline, and a brute-force scan as the ground truth.
"""

from gfi.alphabet import DenseAlphabet, densify, EmptyTextError, InvalidByteError
from gfi.errors import InvalidParameterError, InvalidPatternError
from gfi.index import TextIndex, build_index, load_index

__all__ = [
    "DenseAlphabet",
    "densify",
    "EmptyTextError",
    "InvalidByteError",
    "InvalidParameterError",
    "InvalidPatternError",
    "TextIndex",
    "build_index",
    "load_index",
]
